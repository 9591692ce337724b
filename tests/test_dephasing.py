import cmath
import math
from itertools import product
from math import pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catwalk import dephasing
from catwalk.algebra import (
    DEGENERACY_CUTOFF,
    CoherentLabel,
    PulseOperatorSpec,
    apply_pulse_operator,
    gram_matrix,
)
from catwalk.dephasing import (
    DyadEnsemble,
    _normalized,
    cat_density,
    cross_term_weight,
    dyad_trace,
    evolve_dyads,
    min_eigenvalue,
    projector,
    pure_walk_density,
    purity,
    trace_distance,
    walk_density,
    walk_density_steps,
)
from catwalk.errors import DegenerateState
from catwalk.observables import diagnostics
from catwalk.protocol import ProtocolParams, kick_labels, run_conditioned_walk, walk_state

from conftest import overlap_matrix


def fig_pp(n):
    return ProtocolParams(0.1, 0.01, 4.5 * pi, n)


def kick_table(pp):
    """(amplitudes, phases, Gram) of pp's kick table j = -n..n; step s of a
    walk reads its rows j = -s, -s+2, ..., s."""
    amplitudes, phases = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    return amplitudes, phases, gram_matrix(amplitudes, phases)


def walk_cross(pp, s=1.0):
    """The cross factor e^{2i phi} s of pp's walk steps at suppression s."""
    return cmath.exp(2j * pp.phi) * s


def classical_path_mixture(l1, l2, n):
    """Independent oracle for the fully dephased limit.

    Enumerates all 2^n kick-sign paths with its own complex arithmetic;
    paths with equal net sign land on the same endpoint, so the mixture
    collapses onto n+1 diagonal dyads with binomial weights.
    """
    rot = cmath.exp(-1j * l2 * pi)
    weights = {}
    endpoints = {}
    for path in product((+1, -1), repeat=n):
        alpha = 0j
        for s in path:
            alpha = (alpha + 1j * s * l1) * rot**s + 1j * s * l1
        j = sum(path)
        weights[j] = weights.get(j, 0.0) + 1.0 / 2**n
        endpoints[j] = alpha
    return weights, endpoints


class TestStepInvariants:
    def test_hermiticity_trace_psd_each_step(self):
        for step, rho, _ in walk_density_steps(fig_pp(6), math.exp(-0.3)):
            R = rho.weights
            assert np.linalg.norm(R - R.conj().T) < 1e-12
            assert abs(dyad_trace(rho).real - 1.0) < 1e-10
            assert abs(dyad_trace(rho).imag) < 1e-12
            assert min_eigenvalue(rho) > -1e-10

    def test_entry_count_bound(self):
        for n in (3, 6, 8):
            rho = walk_density(fig_pp(n), math.exp(-0.4))
            assert len(rho.entries) <= (n + 1) ** 2
            assert len(rho.amplitudes) == len(rho.phases) == n + 1

    def test_xi_zero_single_step_is_pure(self):
        pp = fig_pp(1)
        rho = walk_density(pp)
        assert trace_distance(rho, pure_walk_density(pp)) < 1e-12

    @given(
        l1=st.floats(0.0, 0.5),
        l2=st.floats(0.0, 1.0),
        phi=st.floats(-pi, pi),
        xi=st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.just(math.inf)),
        n=st.integers(0, 12),
        alpha0=st.complex_numbers(max_magnitude=1.5),
    )
    @settings(deadline=None, max_examples=60)
    def test_fuzz_invariants(self, l1, l2, phi, xi, n, alpha0):
        pp = ProtocolParams(l1, l2, phi, n, alpha0=alpha0)
        try:
            rho = walk_density(pp, math.exp(-xi))
        except DegenerateState:
            assume(False)
        # sum |rho_jk <label_k|label_j>|: how far rounding is amplified.
        # Beyond 1e4 (small l1 with phi near pi/2) the invariants below are
        # lost to cancellation in any summation order.
        cancellation = np.abs(rho.weights * rho.gram.T).sum()
        assume(cancellation <= 1e4)
        R = rho.weights
        assert np.abs(R - R.conj().T).max() <= 1e-12 * np.abs(R).max()
        assert abs(dyad_trace(rho) - 1) <= 16 * np.finfo(float).eps * cancellation
        assert min_eigenvalue(rho) >= -1e-10
        if xi == 0:
            assert trace_distance(rho, pure_walk_density(pp)) <= 1e-9
        if xi == math.inf:
            assert np.array_equal(R, np.diag(np.diag(R)))
            assert cross_term_weight(rho) == 0.0


class TestCrossSuppression:
    @pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
    def test_outside_the_unit_interval_refused(self, s):
        # the walk's per-pulse-pair suppression is checked as the cat's is
        pp = fig_pp(3)
        for density in (walk_density, lambda pp, s: next(walk_density_steps(pp, s)),
                        cat_density):
            with pytest.raises(ValueError, match="cross_suppression must lie in"):
                density(pp, s)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_one_is_the_undamped_walk_bit_for_bit(self, n):
        for _, last, _ in walk_density_steps(fig_pp(n)):
            pass
        rho = walk_density(fig_pp(n), 1.0)
        for name in ("amplitudes", "phases", "weights", "gram"):
            assert getattr(rho, name).tobytes() == getattr(last, name).tobytes()


class TestEnsemble:
    def test_weights_are_read_only(self):
        rho = walk_density(fig_pp(3), math.exp(-0.2))
        with pytest.raises(ValueError):
            rho.weights[0, 0] = 2.0
        with pytest.raises(ValueError):
            rho.entries[0] = 2.0

    def test_weights_are_copied_in(self):
        weights = np.eye(2, dtype=complex) / 2
        amplitudes = np.array([0.5, -0.5], dtype=complex)
        rho = DyadEnsemble(amplitudes, [0.0, 0.0], weights)
        weights[0, 0] = 7.0
        amplitudes[0] = 7.0
        assert rho.weights[0, 0] == 0.5 and rho.amplitudes[0] == 0.5
        with pytest.raises(ValueError):
            rho.amplitudes[0] = 2.0
        with pytest.raises(ValueError):
            rho.phases[0] = 2.0

    def test_shape_must_fit_the_labels(self):
        with pytest.raises(ValueError, match="weights"):
            DyadEnsemble([0.5], [0.0], np.eye(2))
        with pytest.raises(ValueError, match="phases"):
            DyadEnsemble([0.5], [0.0, 1.0], [[1.0]])

    @pytest.mark.parametrize("name", ["amplitudes", "phases", "weights"])
    def test_only_the_gram_may_be_none(self, name):
        # a missing weight matrix once became the labels' Gram, silently
        fields = {"amplitudes": [0.5, -0.5], "phases": [0.0, 0.2],
                  "weights": np.eye(2) / 2, name: None}
        with pytest.raises(ValueError, match=name):
            DyadEnsemble(**fields)

    def test_gram_shape_must_fit_the_labels(self):
        with pytest.raises(ValueError, match="gram"):
            DyadEnsemble([0.5], [0.0], [[1.0]], np.eye(2))

    def test_gram_is_read_only(self):
        rho = walk_density(fig_pp(3), math.exp(-0.2))
        with pytest.raises(ValueError):
            rho.gram[0, 1] = 2.0

    @pytest.mark.parametrize("xi", [0.0, 0.5])
    def test_walk_gram_is_that_of_its_labels(self, xi):
        # every step's Gram is a slice of the walk's kick-table Gram, bit
        # for bit the scalar overlaps of its rows
        pp = ProtocolParams(0.1, 0.01, 4.5 * pi, 10, alpha0=0.7 + 0.3j)
        for _, rho, _ in walk_density_steps(pp, math.exp(-xi)):
            assert rho.gram.tobytes() == overlap_matrix(rho.amplitudes, rho.phases).tobytes()

    def test_built_gram_is_that_of_its_labels(self):
        pp = fig_pp(10)
        for rho in (projector(walk_state(pp)), cat_density(pp, 0.3)[0], pure_walk_density(pp)):
            assert rho.gram.tobytes() == overlap_matrix(rho.amplitudes, rho.phases).tobytes()

    def test_trace_distance_needs_equal_label_tuples(self):
        pp = fig_pp(3)
        a = walk_density(pp)
        with pytest.raises(ValueError):
            trace_distance(a, walk_density(fig_pp(2)))
        with pytest.raises(ValueError):
            trace_distance(a, walk_density(ProtocolParams(0.11, 0.01, 4.5 * pi, 3)))


class TestPureLimit:
    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_xi_zero_matches_projector(self, n):
        pp = fig_pp(n)
        assert trace_distance(walk_density(pp), pure_walk_density(pp)) < 1e-9

    @pytest.mark.parametrize("n", [2, 5])
    def test_xi_zero_purity_is_one(self, n):
        assert purity(walk_density(fig_pp(n))) == pytest.approx(1.0, abs=1e-10)


class TestClassicalLimit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_infinite_xi_matches_path_sum(self, n):
        pp = ProtocolParams(0.1, 0.01, 4.5 * pi, n)
        rho = walk_density(pp, 0.0)
        weights, endpoints = classical_path_mixture(0.1, 0.01, n)
        kicks = range(-n, n + 1, 2)  # the rows, in ascending kick index
        for (row, j), (col, k) in product(enumerate(kicks), repeat=2):
            w = rho.weights[row, col]
            if j == k:
                assert w.real == pytest.approx(weights[j], abs=1e-12)
                assert abs(w.imag) < 1e-14
            else:
                assert abs(w) < 1e-14
        for row, j in enumerate(kicks):
            assert abs(rho.amplitudes[row] - endpoints[j]) < 1e-12


class TestMonotones:
    def test_purity_drops_under_dephasing(self):
        # Purity is NOT monotone in xi: it dips while interference dies and
        # then climbs back toward the classical binomial mixture's purity
        # (whose strongly overlapping components keep Tr rho^2 well above
        # the naive 1/(n+1)).  Measured at n=5: 1.0, 0.409, 0.340, 0.525
        # over xi = 0, 0.2, 0.5, 1.  What is monotone is the cross-term
        # weight, tested below.
        values = [purity(walk_density(fig_pp(5), math.exp(-xi))) for xi in (0.0, 0.2, 0.5, 1.0)]
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert all(v < 0.6 for v in values[1:])
        assert values[1] > values[2] < values[3]

    def test_cross_weight_non_increasing_in_xi(self):
        values = [
            cross_term_weight(walk_density(fig_pp(5), math.exp(-xi)))
            for xi in (0.0, 0.2, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_displacement_killed_by_dephasing(self):
        from catwalk.observables import diagnostics

        diag = diagnostics(walk_density(fig_pp(5), math.exp(-1.0)))
        assert abs(diag["mean_x"]) < 0.1


CAT_PHIS = (0.3, 1.1, 0.25 * pi, 4.5 * pi)


class TestCatDensity:
    def test_pure_limit(self):
        pp = fig_pp(10)
        rho, _ = cat_density(pp)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_cross_dyad_suppression_exact(self):
        pp = fig_pp(10)
        factor = math.exp(-2.0)
        pure, _ = cat_density(pp)
        damped, _ = cat_density(pp, cross_suppression=factor)
        # suppression applies exactly to the off-diagonal dyads, up to the
        # common renormalization constant
        # rows are the kick indices -10 and 10
        r_pure = pure.weights[0, 1] / pure.weights[1, 1]
        r_damped = damped.weights[0, 1] / damped.weights[1, 1]
        assert abs(r_damped / r_pure - factor) < 1e-12

    def test_damped_cat_invariants(self):
        rho, _ = cat_density(fig_pp(10), cross_suppression=math.exp(-2.0))
        assert abs(dyad_trace(rho).real - 1.0) < 1e-12
        assert min_eigenvalue(rho) > -1e-12
        assert purity(rho) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cat_density(fig_pp(2), cross_suppression=1.5)
        with pytest.raises(ValueError):
            cat_density(fig_pp(2), cross_suppression=-0.1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 12])
    def test_fully_damped_probability_is_one_half(self, n):
        # no cross weight left: the step's weights 1, 1 on two unit-norm
        # labels trace to exactly 2, whatever the phase
        for phi in CAT_PHIS:
            _, prob = cat_density(ProtocolParams(0.1, 0.01, phi, n), cross_suppression=0.0)
            assert prob == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 12])
    @pytest.mark.parametrize("l1", [0.1, 0.5])
    def test_two_outcomes_sum_to_one(self, n, l1):
        # the outcome cat_density conditions on is the step with factor
        # -e^{2i phi'}; the other outcome is the step with +e^{2i phi'}
        for phi in CAT_PHIS:
            pp = ProtocolParams(l1, 0.01, phi, n)
            rho, prob = cat_density(pp)
            cross = cmath.exp(2j * ((2.0 * n * pp.phi) % (2 * pi)))
            minus, plus = (dyad_trace(DyadEnsemble(rho.amplitudes, rho.phases,
                                                   evolve_dyads([[1.0]], sign * cross),
                                                   rho.gram)).real / 4.0
                           for sign in (-1, 1))
            assert minus == prob
            assert abs(minus + plus - 1.0) <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("decay", [0.5, 2.0])
    def test_probability_is_the_damped_trace(self, n, decay):
        # P(s) = 1/2 + s (P(1) - 1/2): only the cross weights carry s
        s = math.exp(-decay)
        _, undamped = cat_density(fig_pp(n))
        _, prob = cat_density(fig_pp(n), cross_suppression=s)
        assert abs(prob - (0.5 + s * (undamped - 0.5))) <= 1e-15

    def test_probability_reads_the_decay(self):
        # at n = 1 the undamped outcome is rare, and damping lifts it to 0.22
        _, undamped = cat_density(fig_pp(1))
        _, damped = cat_density(fig_pp(1), cross_suppression=math.exp(-0.5))
        assert undamped == pytest.approx(0.038, abs=5e-4)
        assert damped == pytest.approx(0.220, abs=5e-4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.7, math.exp(-2.0), 0.0])
    def test_coinciding_labels_run_at_their_damped_probability(self, n, s):
        # l1 = l2 = 0 leaves both labels at the vacuum, and phi' = 0 or pi
        # cancels the pure components; damped, the outcome keeps probability
        # (1 - s)/2 and the state of the one label
        for phi in (0.0, pi / 2, pi):
            rho, prob = cat_density(ProtocolParams(0.0, 0.0, phi, n), s)
            assert prob == (1.0 - s) / 2
            d = diagnostics(rho)
            assert (d["mean_x"], d["mean_p"]) == pytest.approx((0.0, 0.0), abs=1e-15)
            assert (d["var_x"], d["var_p"]) == pytest.approx((0.5, 0.5), abs=1e-15)
            assert d["purity"] == pytest.approx(1.0, abs=1e-15)


def refusal_cases(prob):
    """Outcomes of probability ``prob`` = sin^2 d on the vacuum labels of l1 =
    l2 = 0: a walk's first cycle at phi = pi/2 - d, read by the dyad step
    and by the measurement chain, and the cat at phi' = d, or at phi' = 0
    damped by s = 1 - 2 prob."""
    d = math.asin(math.sqrt(prob))
    walk = ProtocolParams(0.0, 0.0, pi / 2 - d, 1)
    return {
        "walk": lambda: list(walk_density_steps(walk))[-1][2],
        "chain": lambda: run_conditioned_walk(walk)[1],
        "cat by phase": lambda: cat_density(ProtocolParams(0.0, 0.0, d / 2, 1))[1],
        "cat damped": lambda: cat_density(ProtocolParams(0.0, 0.0, 0.0, 1), 1.0 - 2.0 * prob)[1],
    }


class TestOneRefusalRule:
    """Every conditioned outcome is refused by one rule, its probability at
    or below DEGENERACY_CUTOFF, whichever protocol and path reads it."""

    @pytest.mark.parametrize("case", ["walk", "chain", "cat by phase", "cat damped"])
    def test_refused_at_half_the_cutoff(self, case):
        with pytest.raises(DegenerateState):
            refusal_cases(0.5 * DEGENERACY_CUTOFF)[case]()

    @pytest.mark.parametrize("case", ["walk", "chain", "cat by phase", "cat damped"])
    def test_run_at_twice_the_cutoff(self, case):
        prob = refusal_cases(2.0 * DEGENERACY_CUTOFF)[case]()
        assert prob == pytest.approx(2.0 * DEGENERACY_CUTOFF, rel=1e-2)


class TestEvolveDyads:
    def test_single_step_from_the_projector(self):
        # kick indices -1 and 1; the cross weights carry e^{+-2i phi} e^{-xi}
        pp = fig_pp(1)
        cross = cmath.exp(2j * pp.phi) * math.exp(-0.7)
        weights = evolve_dyads(np.ones((1, 1), complex), cross)
        assert np.array_equal(weights, [[1.0, cross.conjugate()], [cross, 1.0]])

    def test_one_kick_table_and_gram_per_walk(self, monkeypatch):
        # every step slices the walk's one Gram; the bits equal steps that
        # each read a table of their own reach
        pp, s = fig_pp(6), math.exp(-0.3)
        weights, cross = np.ones((1, 1), complex), walk_cross(pp, s)
        for step in range(1, pp.n + 1):
            amplitudes, phases, G = kick_table(fig_pp(step))
            rho, _ = _normalized(DyadEnsemble(amplitudes[::2], phases[::2],
                                              evolve_dyads(weights, cross), G[::2, ::2]))
            weights = rho.weights
        calls = {"kick_labels": 0, "gram_matrix": 0}
        for name in calls:
            original = getattr(dephasing, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(dephasing, name, counted)
        walked = walk_density(pp, s)
        assert calls == {"kick_labels": 1, "gram_matrix": 1}
        assert np.array_equal(walked.amplitudes, rho.amplitudes)
        assert np.array_equal(walked.phases, rho.phases)
        assert np.array_equal(walked.weights, rho.weights)
        assert walked.gram.tobytes() == rho.gram.tobytes()

    def test_one_step_from_the_pure_walk(self):
        # the ascending rows j = -2, 0, 2 of the n = 2 walk map onto those of n = 3
        pp = ProtocolParams(0.1, 0.01, 0.3, 3)
        amplitudes, phases, G = kick_table(pp)
        weights = evolve_dyads(pure_walk_density(ProtocolParams(0.1, 0.01, 0.3, 2)).weights,
                               walk_cross(pp))
        rho, _ = _normalized(DyadEnsemble(amplitudes[::2], phases[::2], weights, G[::2, ::2]))
        assert trace_distance(rho, walk_density(pp)) < 1e-12

    def test_steps_normalized_in_the_walk_alone(self, monkeypatch):
        # evolve_dyads returns the raw weights: trace 4 times the step's
        # ground probability, which walk_density_steps takes once per step
        pp, s = fig_pp(5), math.exp(-0.4)
        counts, normalized = [], dephasing._normalized

        def counted(rho):
            counts.append(len(rho.weights))
            return normalized(rho)

        monkeypatch.setattr(dephasing, "_normalized", counted)
        steps = list(walk_density_steps(pp, s))
        assert counts == list(range(1, pp.n + 2))
        for (_, before, record0), (_, after, record1) in zip(steps, steps[1:]):
            raw = DyadEnsemble(after.amplitudes, after.phases,
                               evolve_dyads(before.weights, walk_cross(pp, s)), after.gram)
            assert dyad_trace(raw).real / 4.0 == pytest.approx(record1 / record0, rel=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), phi=st.floats(-30, 30),
           xi=st.one_of(st.floats(0, 5), st.just(math.inf)))
    @settings(deadline=None, max_examples=100)
    def test_hermitian_in_hermitian_out(self, seed, m, phi, xi):
        # the diagonal comes out real bit for bit; an off-diagonal pair adds
        # its two cross terms in opposite orders, so it is Hermitian to the
        # rounding of the four-term sum, elementwise
        rng = np.random.default_rng(seed)
        A = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) \
            * 10.0 ** rng.uniform(-5, 5, size=(m, m))
        H = A + A.conj().T
        assert np.array_equal(H, H.conj().T)
        out = evolve_dyads(H, walk_cross(ProtocolParams(0.1, 0.01, phi, 1), math.exp(-xi)))
        assert out.shape == (m + 1, m + 1)
        assert not np.diagonal(out).imag.any()
        damp = math.exp(-xi) if math.isfinite(xi) else 0.0
        R = np.pad(np.abs(H), 1)
        size = R[:-1, :-1] + R[1:, 1:] + damp * (R[:-1, 1:] + R[1:, :-1])
        assert np.all(np.abs(out - out.conj().T) <= 8 * np.finfo(float).eps * size)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 4.5 * pi])
    def test_infinite_xi_keeps_the_same_branch_shifts_alone(self, phi):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        R = np.pad(W, 1)
        out = evolve_dyads(W, walk_cross(ProtocolParams(0.1, 0.01, phi, 1), 0.0))
        assert np.array_equal(out, R[:-1, :-1] + R[1:, 1:])

    @pytest.mark.parametrize("l1, l2, phi", [(0.1, 0.01, 4.5 * pi), (0.015, 0.001625, pi / 4),
                                             (0.3, 0.2, 0.7)],
                             ids=["reference", "oracle", "strong"])
    @pytest.mark.parametrize("xi", [0.0, 0.4])
    def test_two_outcomes_sum_to_one(self, l1, l2, phi, xi):
        # a step's ground (cross factor c) and excited (-c) outcomes are all
        # there is: their probabilities, each the raw trace over 4 on the
        # next step's rows, add up to one at every step
        pp, s = ProtocolParams(l1, l2, phi, 12), math.exp(-xi)
        cross, G = walk_cross(pp, s), kick_table(pp)[2]
        for step, rho, _ in walk_density_steps(pp, s):
            if step == pp.n:
                break
            rows = slice(pp.n - step - 1, pp.n + step + 2, 2)
            total = sum((evolve_dyads(rho.weights, sign * cross) * G[rows, rows].T).sum().real
                        for sign in (1, -1)) / 4.0
            assert abs(total - 1.0) <= 1e-9

    def test_trace_renormalized_every_step(self):
        pp = fig_pp(4)
        for _, rho, _ in walk_density_steps(pp, math.exp(-0.5)):
            assert abs(dyad_trace(rho).real - 1.0) < 1e-12

    def test_one_final_normalization_is_the_same_map(self, monkeypatch):
        # the step map is linear, so where the trace is restored cannot matter
        pp, s = fig_pp(12), math.exp(-0.3)
        expected = walk_density(pp, s)
        monkeypatch.setattr("catwalk.dephasing._normalized", lambda rho: (rho, 1.0))
        raw = walk_density(pp, s)
        monkeypatch.undo()
        rho, _ = _normalized(raw)
        assert np.array_equal(rho.amplitudes, expected.amplitudes)
        assert np.array_equal(rho.phases, expected.phases)
        scale = np.abs(expected.weights).max()
        assert np.abs(rho.weights - expected.weights).max() <= 1e-9 * scale


def eigenbasis_record(pp, sign=1, levels=400):
    """P_n = sum_m Pois_mu(m) cos^{2n}(sign phi + gamma - theta m): the
    all-ground record in the kick's eigenbasis.  O(l1, l2) rotates phase
    space by theta = l2 pi about c = l1 cot(theta/2), so it is diagonal on
    the states D(c)|m> with eigenvalues e^{i gamma} e^{-i theta m}, gamma
    the phase O gives the label at c; the walk operator
    e^{i phi} O + e^{-i phi} O^dag is then 2 cos(phi + gamma - theta m)
    there, and |alpha0> holds D(c)|m> with Poisson weights, mu = |alpha0 - c|^2.
    A sum of positive terms: it has no cancellation floor."""
    theta = pp.l2 * pi
    c = pp.l1 / math.tan(theta / 2)
    gamma = apply_pulse_operator(PulseOperatorSpec(pp.l1, pp.l2), CoherentLabel(c)).phase
    mu = abs(pp.alpha0 - c) ** 2
    return math.fsum(math.exp(m * math.log(mu) - mu - math.lgamma(m + 1))
                     * math.cos(sign * pp.phi + gamma - theta * m) ** (2 * pp.n)
                     for m in range(levels))


class TestRecordInEigenbasis:
    """The step trace's record against the cancellation-free eigenbasis sum
    at the reference point (c = 6.3657, gamma = 1.2731, mu = 40.5).  At
    phi = 4.5 pi the dyad weights cancel and the gap grows with n, 1.1e-14
    at n = 1 to 1.2e-9 at n = 40: each bound is a few times the gap
    measured there, so the floor is pinned as a function of n.  At
    phi = 0.3 little cancels and the gap stayed within 1.9e-14."""

    @pytest.mark.parametrize("phi, n, bound", [
        (4.5 * pi, 1, 5e-14), (4.5 * pi, 5, 3e-12), (4.5 * pi, 10, 1.5e-10),
        (4.5 * pi, 20, 1.2e-9), (4.5 * pi, 40, 5e-9),
    ] + [(0.3, n, 1e-13) for n in (1, 5, 10, 20, 40)])
    def test_record_within_the_floor(self, phi, n, bound):
        pp = ProtocolParams(0.1, 0.01, phi, n)
        for _, _, record in walk_density_steps(pp):
            pass
        want = eigenbasis_record(pp)
        assert abs(record - want) <= bound * want

    @pytest.mark.parametrize("n", [1, 5, 10, 20, 40])
    def test_mirrored_phase_is_off(self, n):
        # cos(-phi + gamma - theta m) is another record: pins the sign of phi
        pp = ProtocolParams(0.1, 0.01, 0.3, n)
        for _, _, record in walk_density_steps(pp):
            pass
        assert abs(record - eigenbasis_record(pp, sign=-1)) >= 1e-3 * record
