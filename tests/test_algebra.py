import cmath
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk.algebra import (
    CoherentLabel,
    PulseOperatorSpec,
    SuperposedState,
    apply_pulse_operator,
    displace,
    gram_matrix,
    norm_squared,
    normalize,
    overlap,
    reduce_phase,
    rotate,
)
from catwalk.dephasing import GRAM_BUDGET_BYTES, kick_gram_bytes
from catwalk.errors import DegenerateState
from catwalk.protocol import cat_labels, kick_labels

from conftest import coherent_column, displacement_matrix, overlap_matrix, rotation_matrix

amplitudes = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
angles = st.floats(-50.0, 50.0)


class TestPhaseBookkeeping:
    def test_reduce_phase_range(self):
        for t in (-7.0, -math.pi, 0.0, math.pi, 3 * math.pi, 123.456):
            r = reduce_phase(t)
            assert -math.pi < r <= math.pi
            assert cmath.isclose(cmath.exp(1j * r), cmath.exp(1j * t), abs_tol=1e-12)

    @given(angles)
    @settings(deadline=None)
    def test_reduce_phase_is_congruent(self, t):
        r = reduce_phase(t)
        assert -math.pi < r <= math.pi
        assert abs((r - t) / (2 * math.pi) - round((r - t) / (2 * math.pi))) < 1e-9

    def test_label_reduces_phase_on_construction(self):
        lab = CoherentLabel(1.0 + 0j, 5 * math.pi)
        assert lab.phase == pytest.approx(math.pi)


class TestDisplace:
    def test_vacuum_displacement_has_zero_phase(self):
        out = displace(CoherentLabel.vacuum(), 0.2j)
        assert out.amplitude == 0.2j
        assert out.phase == 0.0

    def test_phase_gain_example(self):
        out = displace(CoherentLabel(1.0 + 0j), 0.1j)
        assert out.amplitude == pytest.approx(1 + 0.1j)
        assert out.phase == pytest.approx(0.1)

    def test_phase_against_matrix_exponential(self):
        # Independent check of the D(beta) phase convention: compare the
        # closed form against expm(beta a^dag - conj(beta) a) acting on a
        # coherent column vector.
        n = 60
        alpha, beta = 1.0 + 0j, 0.1j
        lhs = displacement_matrix(beta, n) @ coherent_column(alpha, n)
        lab = displace(CoherentLabel(alpha), beta)
        rhs = cmath.exp(1j * lab.phase) * coherent_column(lab.amplitude, n)
        assert np.linalg.norm(lhs - rhs) < 1e-10

    @given(amplitudes, amplitudes)
    @settings(deadline=None, max_examples=60)
    def test_round_trip(self, alpha, beta):
        start = CoherentLabel(alpha, 0.3)
        out = displace(displace(start, beta), -beta)
        assert abs(out.amplitude - start.amplitude) < 1e-12
        assert abs(reduce_phase(out.phase - start.phase)) < 1e-12


class TestRotate:
    def test_identity(self):
        lab = CoherentLabel(1.0 + 0j, 0.2)
        assert rotate(lab, 0.0) == lab

    def test_intermediate_value(self):
        out = rotate(CoherentLabel(0.1j), 0.01 * math.pi)
        assert out.amplitude.real == pytest.approx(0.00314108, abs=1e-8)
        assert out.amplitude.imag == pytest.approx(0.09995066, abs=1e-8)

    @given(amplitudes, st.floats(-10, 10))
    @settings(deadline=None, max_examples=60)
    def test_group_inverse(self, alpha, theta):
        lab = CoherentLabel(alpha, -0.7)
        out = rotate(rotate(lab, theta), -theta)
        assert abs(out.amplitude - lab.amplitude) < 1e-12
        assert out.phase == lab.phase

    def test_matches_matrix_rotation(self):
        n = 50
        alpha, theta = 0.7 - 0.4j, 0.9
        lhs = rotation_matrix(theta, n) @ coherent_column(alpha, n)
        lab = rotate(CoherentLabel(alpha), theta)
        rhs = cmath.exp(1j * lab.phase) * coherent_column(lab.amplitude, n)
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestOverlap:
    def test_vacuum_normalization(self):
        v = CoherentLabel.vacuum()
        assert overlap(v, v) == pytest.approx(1.0)

    @given(amplitudes)
    @settings(deadline=None, max_examples=60)
    def test_self_overlap_is_one(self, alpha):
        lab = CoherentLabel(alpha, 0.4)
        assert overlap(lab, lab) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_against_alpha_two(self):
        val = abs(overlap(CoherentLabel.vacuum(), CoherentLabel(2.0 + 0j))) ** 2
        assert val == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert val == pytest.approx(0.018315639, abs=1e-9)

    def test_against_fock_expansion(self, rng):
        # cross-check <a|b> by summing conjugate products of Fock amplitudes
        for _ in range(5):
            a, b = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
            la, lb = CoherentLabel(a, 0.3), CoherentLabel(b, -1.1)
            fock = np.vdot(
                cmath.exp(1j * la.phase) * coherent_column(a, 60),
                cmath.exp(1j * lb.phase) * coherent_column(b, 60),
            )
            assert abs(fock - overlap(la, lb)) < 1e-12

    @given(amplitudes, amplitudes)
    @settings(deadline=None, max_examples=60)
    def test_hermitian(self, a, b):
        la, lb = CoherentLabel(a, 0.2), CoherentLabel(b, 1.0)
        assert abs(overlap(la, lb) - overlap(lb, la).conjugate()) < 1e-12

    def test_gram_positive_definite(self, rng):
        G = gram_matrix(rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8), rng.uniform(-3, 3, 8))
        assert np.linalg.norm(G - G.conj().T) < 1e-14
        assert np.linalg.eigvalsh(G).min() > 0


def label_tables():
    """(amplitudes, phases) of kick tables over n, alpha0 and l2, then of
    cat label pairs."""
    for n, alpha0, l2 in product((0, 1, 5, 20, 160), (0j, 0.7 + 0.3j), (0.0, 0.01, 2.0)):
        yield pytest.param(*kick_labels(0.1, l2, alpha0, n),
                           id=f"kicks-n{n}-alpha0={alpha0:g}-l2={l2:g}")
    for n, l2 in product((1, 10, 40), (0.01, 0.7)):
        yield pytest.param(*cat_labels(0.1, l2, n), id=f"cat-n{n}-l2={l2:g}")
    # overlap's imaginary exponent is (0.0 + (-0.0)) + (-0.0) = +0.0 here
    yield pytest.param([1 + 0j, complex(1, -0.0)], [0.0, -0.0], id="signed-zeros")


class TestGramMatrix:
    @pytest.mark.parametrize("amplitudes, phases", list(label_tables()))
    def test_bits_of_the_overlap_calls(self, amplitudes, phases):
        G = gram_matrix(amplitudes, phases)
        assert G.tobytes() == overlap_matrix(amplitudes, phases).tobytes()
        assert np.array_equal(G, G.conj().T)
        assert np.all(G.diagonal() == 1.0)

    @pytest.mark.parametrize("l1", [1e10, 1e20, 1e100])
    def test_overflows_where_overlap_overflows(self, l1):
        # at huge amplitudes rounding can make an exponent large and
        # positive; the Gram fails where an overlap call fails, and nowhere
        # else (no warning either, not even from its skipped diagonal)
        for n, l2 in product((1, 2, 10), (0.01, 0.5)):
            table = kick_labels(l1, l2, 0j, n)
            try:
                expected = overlap_matrix(*table)
            except OverflowError:
                with pytest.raises(FloatingPointError):
                    gram_matrix(*table)
            else:
                assert gram_matrix(*table).tobytes() == expected.tobytes()

    def test_peak_within_the_n_budget(self):
        # the largest kick table an accepted n builds: its Gram and the
        # block temporaries stay within a quarter of the matrix on top
        amplitudes, phases = kick_labels(0.1, 0.01, 0j, 1023)
        tracemalloc.start()
        try:
            G = gram_matrix(amplitudes, phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.nbytes == kick_gram_bytes(1023) <= GRAM_BUDGET_BYTES
        assert peak <= 1.25 * kick_gram_bytes(1023)


class TestPulseOperator:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PulseOperatorSpec(-0.1, 0.01)
        with pytest.raises(ValueError):
            PulseOperatorSpec(0.1, 0.01, sign=2)

    def test_single_kick_from_vacuum(self):
        out = apply_pulse_operator(PulseOperatorSpec(0.1, 0.01), CoherentLabel.vacuum())
        assert out.amplitude.real == pytest.approx(0.00314107591, abs=1e-9)
        assert out.amplitude.imag == pytest.approx(0.199950656, abs=1e-9)

    def test_five_and_ten_kicks(self):
        spec = PulseOperatorSpec(0.1, 0.01)
        lab = CoherentLabel.vacuum()
        values = {}
        for j in range(1, 11):
            lab = apply_pulse_operator(spec, lab)
            values[j] = lab.amplitude
        assert values[5] == pytest.approx(0.0783720116 + 0.995810825j, abs=1e-8)
        assert values[10] == pytest.approx(0.311558267 + 1.96710148j, abs=1e-8)

    def test_inverse_identity(self, rng):
        for _ in range(20):
            l1, l2 = rng.uniform(0, 0.5), rng.uniform(0, 0.2)
            lab = CoherentLabel(complex(*rng.uniform(-2, 2, 2)), rng.uniform(-3, 3))
            fwd = PulseOperatorSpec(l1, l2, +1)
            out = apply_pulse_operator(fwd.inverse(), apply_pulse_operator(fwd, lab))
            assert abs(out.amplitude - lab.amplitude) < 1e-12
            assert abs(reduce_phase(out.phase - lab.phase)) < 1e-10

    def test_order_exchange_commutation(self, rng):
        for _ in range(20):
            l1, l2 = rng.uniform(0, 0.5), rng.uniform(0, 0.2)
            lab = CoherentLabel(complex(*rng.uniform(-2, 2, 2)), rng.uniform(-3, 3))
            fwd, bwd = PulseOperatorSpec(l1, l2, +1), PulseOperatorSpec(l1, l2, -1)
            ab = apply_pulse_operator(fwd, apply_pulse_operator(bwd, lab))
            ba = apply_pulse_operator(bwd, apply_pulse_operator(fwd, lab))
            assert abs(ab.amplitude - ba.amplitude) < 1e-12
            assert abs(reduce_phase(ab.phase - ba.phase)) < 1e-10

    def test_phase_matches_kick_recursion(self):
        # Composition yields theta_j = theta_{j-1} + l1 Re(alpha_{j-1} + alpha_j)
        # with the POSITIVE sign in e^{+i theta_j}; the sign is pinned by the
        # Fock-space evolution (see test_fock).
        spec = PulseOperatorSpec(0.1, 0.01)
        lab = CoherentLabel(0.3 + 0j)
        theta = 0.0
        for _ in range(6):
            new = apply_pulse_operator(spec, lab)
            theta = theta + 0.1 * (lab.amplitude + new.amplitude).real
            assert abs(reduce_phase(new.phase - theta)) < 1e-12
            lab = new


class TestNormalize:
    def test_single_component(self):
        state = SuperposedState(((2.0, CoherentLabel.vacuum()),))
        out = normalize(state)
        assert out.normalized
        assert out.components[0][0] == pytest.approx(1.0)

    def test_even_cat_norm_factor(self):
        beta = 3.0
        state = SuperposedState(
            (
                (1 / math.sqrt(2), CoherentLabel(beta + 0j)),
                (1 / math.sqrt(2), CoherentLabel(-beta + 0j)),
            )
        )
        out = normalize(state)
        expected = 1.0 / math.sqrt(1.0 + math.exp(-2 * beta**2))
        assert out.components[0][0].real == pytest.approx(expected / math.sqrt(2))
        assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)

    def test_exact_cancellation_raises(self):
        lab = CoherentLabel(0.5 + 0.5j, 0.1)
        state = SuperposedState(((1.0, lab), (-1.0, lab)))
        with pytest.raises(DegenerateState):
            normalize(state)

    def test_relative_phases_preserved(self):
        state = SuperposedState(
            ((1.0, CoherentLabel(1.0 + 0j)), (1j, CoherentLabel(-1.0 + 0j)))
        )
        out = normalize(state)
        c0, c1 = out.coefficients
        assert c1 / c0 == pytest.approx(1j)
