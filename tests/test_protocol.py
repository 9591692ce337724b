import cmath
import math
from math import comb, pi

import mpmath
import numpy as np
import pytest

from catwalk.algebra import SuperposedState, norm_squared, state_overlap
from catwalk.errors import DegenerateState, RegimeViolation
from catwalk.protocol import (
    PhysicalParams,
    ProtocolParams,
    cat_labels,
    cat_state,
    cat_success_probability,
    derive_protocol,
    embed_ground,
    initial_joint,
    kick_labels,
    project_qubit,
    run_conditioned_walk,
    single_cycle,
    walk_components,
    walk_record_probabilities,
    walk_state,
)

FIG_PP = dict(l1=0.1, l2=0.01, phi=4.5 * pi)


def fig_pp(n, xi=0.0, alpha0=0j):
    return ProtocolParams(n=n, xi=xi, alpha0=alpha0, **FIG_PP)


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

    def test_gamma_zero_gives_xi_zero(self):
        phys = PhysicalParams(1.0, 1e-3, 1e4, 100.0, Gamma=0.0)
        assert derive_protocol(phys, 1).xi == 0.0

    def test_xi_scale(self):
        phys = PhysicalParams(1.0, 1e-3, 1e4, 100.0, Gamma=0.4)
        # xi = 3 Gamma T / 8 with T = 2 pi / omega
        assert derive_protocol(phys, 1).xi == pytest.approx(0.3 * pi)

    def test_decoupled_qubit(self):
        phys = PhysicalParams(1.0, 0.0, 7.0, 0.0)
        pp = derive_protocol(phys, 2)
        assert pp.l1 == 0.0 and pp.l2 == 0.0
        assert pp.phi == pytest.approx((7.0 * pi) % (2 * pi))

    def test_phi_reduced(self):
        pp = fig_pp(1)
        assert pp.phi == pytest.approx(pi / 2)


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
        table = kick_labels(0.1, 0.01, 0.7 + 0j, 6)
        for j in range(1, 7):
            assert table[-j].amplitude == table[j].amplitude.conjugate()
            assert table[-j].phase == -table[j].phase

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
        table = kick_labels(0.1, 0.01, 0j, 10)
        rot = cmath.exp(-1j * 0.01 * pi)
        for j in range(1, 11):
            expected = (table[j - 1].amplitude + 0.1j) * rot + 0.1j
            assert abs(table[j].amplitude - expected) < 1e-14

    def test_printed_values(self):
        table = kick_labels(0.1, 0.01, 0j, 10)
        assert table[1].amplitude == pytest.approx(0.00314107591 + 0.199950656j, abs=1e-8)
        assert table[5].amplitude == pytest.approx(0.0783720116 + 0.995810825j, abs=1e-8)
        assert table[10].amplitude == pytest.approx(0.311558267 + 1.96710148j, abs=1e-8)


class TestSingleCycleChain:
    def test_zero_kick_branches_differ_by_drive_phase(self):
        pp = ProtocolParams(0.0, 0.0, 1.1, 1)
        joint = single_cycle(pp, initial_joint(0j))
        cp = joint.plus[-1]
        cm = joint.minus[1]
        # started as (+1, -1)/sqrt(2); the cycle applies e^{-+ i phi}
        assert cp / abs(cp) == pytest.approx(cmath.exp(-1j * 1.1))
        assert cm / abs(cm) == pytest.approx(-cmath.exp(1j * 1.1))

    def test_outcome_probabilities_sum_to_one(self):
        pp = fig_pp(1)
        joint = single_cycle(pp, initial_joint(0j))
        pg = project_qubit(joint, "ground").probability
        pe = project_qubit(joint, "excited").probability
        assert pg + pe == pytest.approx(1.0, abs=1e-12)

    def test_one_cycle_matches_walk(self):
        pp = fig_pp(1)
        joint = single_cycle(pp, initial_joint(0j))
        out = project_qubit(joint, "ground")
        fid = abs(state_overlap(out.projected, walk_state(pp))) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)

    # Relative tolerance by n.  At n = 20 the all-ground record has
    # probability 2.7e-8 and the norm's quadratic form cancels by a factor
    # ~2e7, so both paths sit ~4e-10 from a 50-digit evaluation; 5e-9 is
    # that factor times the double-precision epsilon.
    CHAIN_REL = {2: 1e-10, 4: 1e-10, 6: 1e-10, 10: 1e-10, 20: 5e-9}

    @pytest.mark.parametrize("n", sorted(CHAIN_REL))
    def test_chain_equals_closed_form(self, n):
        rel = self.CHAIN_REL[n]
        pp = fig_pp(n)
        chain, _, probs = run_conditioned_walk(pp)
        fid = abs(state_overlap(chain, walk_state(pp))) ** 2
        assert fid >= 1 - rel
        assert len(probs) == n
        assert len(chain.components) == n + 1
        _, closed = walk_record_probabilities(pp)
        assert probs == pytest.approx(closed, rel=rel, abs=0)

    def test_chain_with_displaced_start(self):
        pp = ProtocolParams(0.08, 0.005, 0.9, 4, alpha0=0.6 + 0j)
        chain, _, _ = run_conditioned_walk(pp)
        fid = abs(state_overlap(chain, walk_state(pp))) ** 2
        assert fid >= 1 - 1e-10

    def test_degenerate_projection(self):
        # zero kicks at phi = 0: the excited branch combination cancels
        pp = ProtocolParams(0.0, 0.0, 0.0, 1)
        joint = single_cycle(pp, initial_joint(0j))
        with pytest.raises(DegenerateState):
            project_qubit(joint, "excited")

    def test_embed_round_trip(self):
        pp = fig_pp(2)
        out = project_qubit(single_cycle(pp, initial_joint(0j)), "ground")
        out = project_qubit(single_cycle(pp, embed_ground(out)), "ground")
        again = project_qubit(embed_ground(out), "ground")
        assert again.probability == pytest.approx(1.0, abs=1e-12)


class TestRecordProbabilities:
    def test_no_cycles(self):
        assert walk_record_probabilities(fig_pp(0)) == (1.0, [])

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_record_is_scaled_binomial_norm(self, n):
        pp = fig_pp(n)
        record, per_cycle = walk_record_probabilities(pp)
        raw = norm_squared(SuperposedState(tuple(walk_components(pp))))
        assert record == pytest.approx(raw / 4**n, rel=1e-10)
        assert record == pytest.approx(math.prod(per_cycle), rel=1e-12)

    def test_zero_kick_cycles_follow_drive_phase(self):
        # all labels coincide, so N_k = (2 cos phi)^(2k) and each cycle
        # succeeds with probability cos^2 phi
        _, per_cycle = walk_record_probabilities(ProtocolParams(0.0, 0.0, 0.4, 6))
        assert per_cycle == pytest.approx([math.cos(0.4) ** 2] * 6, rel=1e-12)

    def test_degenerate_record(self):
        pp = ProtocolParams(0.0, 0.0, pi / 2, 2)
        with pytest.raises(DegenerateState):
            walk_record_probabilities(pp)
        with pytest.raises(DegenerateState):
            run_conditioned_walk(pp)


class TestCatState:
    def test_zero_kick_phase_behaviour(self):
        valid = ProtocolParams(0.0, 0.0, pi / 4, 1)  # phi' = pi/2
        state = cat_state(valid)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DegenerateState):
            cat_state(ProtocolParams(0.0, 0.0, 0.0, 1))  # phi' = 0

    def test_requires_vacuum_start(self):
        with pytest.raises(ValueError):
            cat_state(ProtocolParams(0.1, 0.01, 0.0, 2, alpha0=0.1 + 0j))
        with pytest.raises(ValueError):
            cat_state(ProtocolParams(0.1, 0.01, 0.0, 0))

    def test_labels_against_printed_recursion(self):
        # beta_j = (beta_{j-1} + i l1) e^{-2 i l2 pi} + i l1 e^{-i l2 pi}
        b = 0j
        for _ in range(10):
            b = (b + 0.1j) * cmath.exp(-2j * 0.01 * pi) + 0.1j * cmath.exp(-1j * 0.01 * pi)
        plus, minus = cat_labels(0.1, 0.01, 10)
        assert abs(plus.amplitude - b) < 1e-13
        assert abs(minus.amplitude - b.conjugate()) < 1e-13

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
        plus, _ = cat_labels(0.1, 0.01, 10)
        assert abs(plus.amplitude - frozen) < 1e-12

    def test_normalization_contract(self):
        state = cat_state(ProtocolParams(0.1, 0.01, 4.5 * pi, 10))
        assert abs(norm_squared(state) - 1.0) < 1e-12
        assert len(state.components) == 2

    def test_success_probability_zero_kick(self):
        # with no kicks the conditioned combination has weight sin^2(phi')
        pp = ProtocolParams(0.0, 0.0, 0.3, 3)
        phi_c = 2 * 3 * 0.3
        assert cat_success_probability(pp) == pytest.approx(math.sin(phi_c) ** 2)

    def test_theta_mirror_symmetry(self):
        plus, minus = cat_labels(0.1, 0.01, 7)
        assert minus.phase == pytest.approx(-plus.phase, abs=1e-12)


class TestPhiParity:
    def test_even_multiple_displacement_negligible(self):
        from catwalk.dephasing import projector
        from catwalk.observables import diagnostics

        even = diagnostics(projector(walk_state(ProtocolParams(0.1, 0.01, 4 * pi, 10))))
        odd = diagnostics(projector(walk_state(fig_pp(10))))
        assert abs(even["mean_x"]) < 0.05
        assert abs(even["mean_x"]) < abs(odd["mean_x"])
