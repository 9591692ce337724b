import cmath
import math
from dataclasses import replace
from math import comb, pi

import mpmath
import numpy as np
import pytest

from catwalk.algebra import SuperposedState, norm_squared, state_overlap
from catwalk.dephasing import cat_density, dyad_trace, walk_density_steps
from catwalk.errors import DegenerateState, RegimeViolation
from catwalk.observables import diagnostics
from catwalk.protocol import (
    PhysicalParams,
    ProtocolParams,
    cat_labels,
    derive_protocol,
    kick_labels,
    run_conditioned_walk,
    walk_components,
    walk_state,
)

FIG_PP = dict(l1=0.1, l2=0.01, phi=4.5 * pi)


def fig_pp(n, alpha0=0j):
    return ProtocolParams(n=n, alpha0=alpha0, **FIG_PP)


def record_probabilities(pp):
    """(record probability, per-cycle probabilities) as the walk's dephasing
    recursion gives them: cycle k's ground probability is the ratio of the
    records after k and k - 1 steps."""
    records = [record for _, _, record in walk_density_steps(pp)]
    return records[-1], [b / a for a, b in zip(records, records[1:])]


class TestPhysicalParams:
    def test_eta_gate(self):
        with pytest.raises(RegimeViolation):
            PhysicalParams(omega=1.0, g=0.06, Omega1=100.0, Omega2=1.0)

    def test_hierarchy_gate(self):
        with pytest.raises(RegimeViolation):
            PhysicalParams(omega=1.0, g=0.01, Omega1=5.0, Omega2=1.0)

    def test_hierarchy_warning_band(self):
        with pytest.warns(UserWarning, match="Omega1"):
            PhysicalParams(omega=1.0, g=0.01, Omega1=20.0, Omega2=1.0)

    def test_comfortable_hierarchy_is_silent(self, recwarn):
        PhysicalParams(omega=1.0, g=0.002, Omega1=200.0, Omega2=1.0)
        assert not recwarn.list


class TestDeriveProtocol:
    def test_fig_parameter_families(self):
        # distinct physical realizations map onto the same dimensionless knobs
        for omega in (1.0, 2 * pi * 1e9):
            eta = 1e-3
            phys = PhysicalParams(
                omega=omega, g=eta * omega,
                Omega1=0.01 / eta**2 * omega, Omega2=0.1 / eta * omega,
            )
            pp = derive_protocol(phys, 5)
            assert pp.l1 == pytest.approx(0.1, rel=1e-12)
            assert pp.l2 == pytest.approx(0.01, rel=1e-12)

    def test_decoupled_qubit(self):
        phys = PhysicalParams(1.0, 0.0, 7.0, 0.0)
        pp = derive_protocol(phys, 2)
        assert pp.l1 == 0.0 and pp.l2 == 0.0
        assert pp.phi == pytest.approx((7.0 * pi) % (2 * pi))

    def test_phi_reduced(self):
        pp = fig_pp(1)
        assert pp.phi == pytest.approx(pi / 2)

    def test_alpha0_is_keyword_only(self):
        # a fifth positional argument, once the dephasing exponent, must
        # not silently become the initial amplitude
        with pytest.raises(TypeError):
            ProtocolParams(0.1, 0.01, 0.3, 2, 0.5)
        assert ProtocolParams(0.1, 0.01, 0.3, 2, alpha0=0.5).alpha0 == 0.5

    @pytest.mark.parametrize("phi", [-1e-20, -0.0, 2 * pi, -2 * pi, 4.5 * pi])
    def test_phi_reduction_is_idempotent(self, phi):
        # -1e-20 % 2pi rounds to 2pi itself; replace() must not move phi
        pp = ProtocolParams(0.1, 0.01, phi, 2)
        assert 0.0 <= pp.phi < 2 * pi
        assert replace(pp, n=3).phi == pp.phi


class TestWalkState:
    def test_n_zero_is_initial_state(self):
        pp = ProtocolParams(0.1, 0.01, 0.0, 0, alpha0=0.4 + 0.2j)
        state = walk_state(pp)
        assert len(state.components) == 1
        assert state.components[0][1].amplitude == 0.4 + 0.2j

    def test_component_count(self):
        for n in (1, 4, 9):
            assert len(walk_state(fig_pp(n)).components) == n + 1

    def test_n1_labels_and_weights(self):
        state = walk_state(fig_pp(1))
        (c1, lab1), (cm1, labm1) = state.components
        assert lab1.amplitude == pytest.approx(0.00314107591 + 0.199950656j, abs=1e-9)
        assert labm1.amplitude == pytest.approx(lab1.amplitude.conjugate())
        assert abs(c1) == pytest.approx(abs(cm1))

    def test_conjugate_symmetry_exact(self):
        amplitudes, phases = kick_labels(0.1, 0.01, 0.7 + 0j, 6)
        # index j + 6 holds kick j
        np.testing.assert_array_equal(amplitudes[::-1], amplitudes.conj())
        np.testing.assert_array_equal(phases[::-1], -phases)

    def test_binomial_weight_ratios(self):
        n = 7
        comps = walk_components(fig_pp(n))
        c0 = comps[0][0]
        for m, (c, _) in enumerate(comps):
            assert abs(c) / abs(c0) == pytest.approx(comb(n, m), rel=1e-12)

    def test_normalized_within_float_conditioning(self):
        # Re-evaluating <psi|psi> goes through a cancelling quadratic form
        # whose condition number grows with n (the all-ground record gets
        # rare), so the 1e-12 normalization contract is only representable
        # in double precision up to n ~ 5 at these parameters.
        for n in (1, 3, 5):
            assert abs(norm_squared(walk_state(fig_pp(n))) - 1) < 1e-12
        for n in (8, 10):
            assert abs(norm_squared(walk_state(fig_pp(n))) - 1) < 2e-11

    def test_recursion_identity(self):
        amplitudes, _ = kick_labels(0.1, 0.01, 0j, 10)
        rot = cmath.exp(-1j * 0.01 * pi)
        for j in range(1, 11):
            expected = (amplitudes[j + 9] + 0.1j) * rot + 0.1j
            assert abs(amplitudes[j + 10] - expected) < 1e-14

    def test_printed_values(self):
        amplitudes, _ = kick_labels(0.1, 0.01, 0j, 10)
        assert amplitudes[11] == pytest.approx(0.00314107591 + 0.199950656j, abs=1e-8)
        assert amplitudes[15] == pytest.approx(0.0783720116 + 0.995810825j, abs=1e-8)
        assert amplitudes[20] == pytest.approx(0.311558267 + 1.96710148j, abs=1e-8)


class TestSingleCycleChain:
    # Relative tolerance by n.  At n = 1 the two labels barely overlap and
    # nothing cancels.  At n = 20 the all-ground record has probability
    # 2.7e-8 and the norm's quadratic form cancels by a factor ~2e7, so both
    # paths sit ~4e-10 from a 50-digit evaluation; 5e-9 is that factor times
    # the double-precision epsilon.
    CHAIN_REL = {1: 1e-12, 2: 1e-10, 4: 1e-10, 6: 1e-10, 10: 1e-10, 20: 5e-9}

    @pytest.mark.parametrize("n", sorted(CHAIN_REL))
    def test_chain_equals_closed_form(self, n):
        rel = self.CHAIN_REL[n]
        pp = fig_pp(n)
        chain, _, probs = run_conditioned_walk(pp)
        fid = abs(state_overlap(chain, walk_state(pp))) ** 2
        assert fid >= 1 - rel
        assert len(probs) == n
        assert len(chain.components) == n + 1
        _, closed = record_probabilities(pp)
        assert probs == pytest.approx(closed, rel=rel, abs=0)

    def test_chain_with_displaced_start(self):
        pp = ProtocolParams(0.08, 0.005, 0.9, 4, alpha0=0.6 + 0j)
        chain, _, _ = run_conditioned_walk(pp)
        fid = abs(state_overlap(chain, walk_state(pp))) ** 2
        assert fid >= 1 - 1e-10


class TestRecordProbabilities:
    def test_no_cycles(self):
        assert record_probabilities(fig_pp(0)) == (1.0, [])

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_record_is_scaled_binomial_norm(self, n):
        pp = fig_pp(n)
        record, per_cycle = record_probabilities(pp)
        raw = norm_squared(SuperposedState(tuple(walk_components(pp))))
        assert record == pytest.approx(raw / 4**n, rel=1e-10)
        assert record == pytest.approx(math.prod(per_cycle), rel=1e-12)

    def test_zero_kick_cycles_follow_drive_phase(self):
        # all labels coincide, so N_k = (2 cos phi)^(2k) and each cycle
        # succeeds with probability cos^2 phi, in the dephasing recursion
        # and in the measurement chain alike
        pp = ProtocolParams(0.0, 0.0, 0.4, 6)
        _, per_cycle = record_probabilities(pp)
        _, _, chain = run_conditioned_walk(pp)
        for probs in (per_cycle, chain):
            assert probs == pytest.approx([math.cos(0.4) ** 2] * 6, rel=1e-12)

    # Relative bounds by n: the cancellation factor sum_jk |c_j c_k G_jk| / N
    # times eps at the reference point (3.4e-12, 1.6e-10, 5.0e-9).  The
    # recursion's record measured 7.4e-13, 3.7e-11 and 3.0e-10 off there.
    RECORD_REL = {5: 4e-12, 10: 2e-10, 20: 5e-9}

    @pytest.mark.parametrize("n", sorted(RECORD_REL))
    def test_record_against_mpmath(self, n):
        # the kick labels, binomial norm and overlaps at 60 digits, from the
        # same double l1, l2 and phi
        pp = fig_pp(n)
        with mpmath.workdps(60):
            l1, l2, phi = (mpmath.mpf(v) for v in (pp.l1, pp.l2, pp.phi))
            labels = {0: (mpmath.mpc(0), mpmath.mpf(0))}  # j -> (amplitude, theta)
            for s in (1, -1):
                a, theta = labels[0]
                for j in range(1, n + 1):
                    # D(i s l1) R(s l2 pi) D(i s l1); D(b) adds Im(b conj(a))
                    theta += s * l1 * a.real
                    a = (a + 1j * s * l1) * mpmath.expj(-s * l2 * mpmath.pi)
                    theta += s * l1 * a.real
                    a += 1j * s * l1
                    labels[s * j] = (a, theta)
            comps = [(mpmath.binomial(n, m) * mpmath.expj((n - 2 * m) * phi + theta), a)
                     for m, (a, theta) in enumerate(labels[j] for j in range(n, -n - 1, -2))]
            norm = sum(mpmath.conj(ca) * cb
                       * mpmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + mpmath.conj(a) * b)
                       for ca, a in comps for cb, b in comps).real
            want = float(norm / 4**n)
        record, _ = record_probabilities(pp)
        assert abs(record - want) <= self.RECORD_REL[n] * want

    def test_degenerate_record(self):
        pp = ProtocolParams(0.0, 0.0, pi / 2, 2)
        with pytest.raises(DegenerateState):
            record_probabilities(pp)
        with pytest.raises(DegenerateState):
            run_conditioned_walk(pp)


class TestCatState:
    def test_zero_kick_phase_behaviour(self):
        valid = ProtocolParams(0.0, 0.0, pi / 4, 1)  # phi' = pi/2
        rho, _ = cat_density(valid)
        assert dyad_trace(rho).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DegenerateState):
            cat_density(ProtocolParams(0.0, 0.0, 0.0, 1))  # phi' = 0
        # fully damped, the cancelled outcome runs at probability 1/2, in the
        # vacuum state of its coinciding labels
        rho, prob = cat_density(ProtocolParams(0.0, 0.0, 0.0, 1), 0.0)
        d = diagnostics(rho)
        assert prob == 0.5
        assert (d["mean_x"], d["mean_p"], d["var_x"], d["var_p"], d["purity"]) == pytest.approx(
            (0.0, 0.0, 0.5, 0.5, 1.0), abs=1e-15)

    def test_requires_vacuum_start(self):
        with pytest.raises(ValueError):
            cat_density(ProtocolParams(0.1, 0.01, 0.0, 2, alpha0=0.1 + 0j))
        with pytest.raises(ValueError):
            cat_density(ProtocolParams(0.1, 0.01, 0.0, 0))

    def test_labels_against_printed_recursion(self):
        # beta_j = (beta_{j-1} + i l1) e^{-2 i l2 pi} + i l1 e^{-i l2 pi}
        b = 0j
        for _ in range(10):
            b = (b + 0.1j) * cmath.exp(-2j * 0.01 * pi) + 0.1j * cmath.exp(-1j * 0.01 * pi)
        (minus, plus), _ = cat_labels(0.1, 0.01, 10)
        assert abs(plus - b) < 1e-13
        assert abs(minus - b.conjugate()) < 1e-13

    def test_labels_against_arbitrary_precision(self):
        # same recursion evaluated with 40-digit arithmetic, then frozen
        mpmath.mp.dps = 40
        b = mpmath.mpc(0)
        l1, l2 = mpmath.mpf("0.1"), mpmath.mpf("0.01")
        for _ in range(10):
            b = (b + 1j * l1) * mpmath.exp(-2j * l2 * mpmath.pi) + 1j * l1 * mpmath.exp(
                -1j * l2 * mpmath.pi
            )
        frozen = 0.63725705039368460669 + 1.8612755329455039492j
        assert abs(complex(b) - frozen) < 1e-15
        (_, plus), _ = cat_labels(0.1, 0.01, 10)
        assert abs(plus - frozen) < 1e-12

    def test_normalization_contract(self):
        rho, _ = cat_density(ProtocolParams(0.1, 0.01, 4.5 * pi, 10))
        assert abs(dyad_trace(rho).real - 1.0) < 1e-12
        assert rho.weights.shape == (2, 2)

    def test_success_probability_zero_kick(self):
        # with no kicks the conditioned combination has weight sin^2(phi')
        pp = ProtocolParams(0.0, 0.0, 0.3, 3)
        phi_c = 2 * 3 * 0.3
        assert cat_density(pp)[1] == pytest.approx(math.sin(phi_c) ** 2)

    def test_theta_mirror_symmetry(self):
        _, (minus, plus) = cat_labels(0.1, 0.01, 7)
        assert minus == pytest.approx(-plus, abs=1e-12)


class TestPhiParity:
    def test_even_multiple_displacement_negligible(self):
        from catwalk.dephasing import projector

        even = diagnostics(projector(walk_state(ProtocolParams(0.1, 0.01, 4 * pi, 10))))
        odd = diagnostics(projector(walk_state(fig_pp(10))))
        assert abs(even["mean_x"]) < 0.05
        assert abs(even["mean_x"]) < abs(odd["mean_x"])
