import math
from math import pi

import numpy as np
import pytest

from catwalk.algebra import CoherentLabel, SuperposedState, normalize
from catwalk.errors import CutoffTooSmall, ZeroProbabilityOutcome
from catwalk.protocol import PhysicalParams, ProtocolParams, derive_protocol, walk_state
from catwalk import fock

from conftest import coherent_column, displacement_matrix, rotation_matrix

ETA = 1e-2


def phys_point(omega1_reduced_over_w, omega2_over_w, gamma=0.0):
    """Physical parameters at eta = 1e-2 with Omega1' / omega pinned exactly."""
    omega = 1.0
    g = ETA * omega
    return PhysicalParams(
        omega, g, omega1_reduced_over_w / (1 - ETA**2 / 2) * omega,
        omega2_over_w * omega, gamma,
    )


import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    # phi = pi/4 with healthy record probabilities; l1 = 0.015, l2 ~ 0.0016
    CHECK_POINT = phys_point(16.25, 1.5)
    # Fig-2 scale: l1 = 0.1, l2 ~ 0.01, phi = pi/2
    STRONG_POINT = phys_point(100.5, 10.0)
    # Omega1/omega integer: the unreduced model is comparable (TestFullHamiltonian)
    FULL_POINT = PhysicalParams(1.0, ETA, 21.0, 2.0)

pytestmark = pytest.mark.filterwarnings("ignore:Omega1")


class TestBuildHeff:
    def test_hermitian_random_params(self, rng):
        for _ in range(5):
            p = PhysicalParams(1.0, rng.uniform(0, 0.03), 200 * rng.uniform(1, 5),
                               rng.uniform(0, 2.0))
            H = fock.build_heff(p, cutoff=30)
            assert np.linalg.norm(H - H.conj().T) < 1e-12

    def test_decoupled_spectrum(self):
        # eta = 0, Omega2 = 0: eigenvalues are m +- Omega1/omega
        p = PhysicalParams(1.0, 0.0, 25.0, 0.0)
        H = fock.build_heff(p, cutoff=12)
        got = np.sort(np.linalg.eigvalsh(H))
        expected = np.sort(
            np.concatenate([np.arange(12) + 25.0, np.arange(12) - 25.0])
        )
        assert np.allclose(got, expected, atol=1e-10)

    def test_dressed_block_structure(self):
        # Hadamard on the qubit block-diagonalizes H into two displaced,
        # frequency-shifted oscillators: exactly
        #   w_l A^dag A + Omega1' l - w_l |c|^2,  A = a + c,
        #   c = -i Omega2 eta l / w_l,  w_l = omega - Omega1 eta^2 l
        # the sign of c is the walk's orientation: the opposite one mirrors it
        p = CHECK_POINT
        N = 40
        H = fock.build_heff(p, cutoff=N)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        U = np.kron(had, np.eye(N))
        HB = U @ H @ U
        upper_right = HB[:N, N:]
        assert np.abs(upper_right).max() < 1e-14
        a = fock.destroy(N)
        eta = p.eta
        for lam, block in ((+1, HB[:N, :N]), (-1, HB[N:, N:])):
            w_l = 1.0 - (p.Omega1 / p.omega) * eta**2 * lam
            c = -1j * (p.Omega2 / p.omega) * eta * lam / w_l
            A = a + c * np.eye(N)
            model = (
                w_l * (A.conj().T @ A)
                + ((p.Omega1 / p.omega) * (1 - eta**2 / 2) * lam
                   - w_l * abs(c) ** 2) * np.eye(N)
            )
            assert np.abs(block - model).max() < 1e-12
            # the commonly quoted displacement -i Omega2 eta l / omega is the
            # same thing to first order in l2
            assert abs(c + 1j * (p.Omega2 / p.omega) * eta * lam) < 2e-3 * abs(c)

    def test_drives_off_is_free_mode(self):
        H = fock.build_heff(CHECK_POINT, cutoff=10, omega1_on=False, omega2_on=False)
        assert np.allclose(H, np.kron(np.eye(2), np.diag(np.arange(10.0))), atol=0)


class TestEvolve:
    def test_zero_duration_is_identity(self):
        state = fock.FockStateVector.ground_coherent(0.4 + 0.1j, 40)
        out = fock.evolve(state, fock.PulseSchedule(((0.0, True, True),)), CHECK_POINT)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_free_full_period_is_identity(self):
        state = fock.FockStateVector.ground_coherent(0.7 + 0j, 40)
        out = fock.evolve(
            state, fock.PulseSchedule(((2 * pi, False, False),)), CHECK_POINT
        )
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-10)

    def test_norm_preserved(self):
        state = fock.FockStateVector.ground_coherent(0.2j, 60)
        out = fock.evolve(state, fock.walk_schedule(3), CHECK_POINT)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_leakage_gate_trips(self):
        state = fock.FockStateVector.ground_coherent(1.5 + 0j, 8)
        with pytest.raises(CutoffTooSmall):
            fock.evolve(state, fock.walk_schedule(1), STRONG_POINT)


class TestProjection:
    def test_product_state_ground(self):
        state = fock.FockStateVector.ground_coherent(0.3 + 0.2j, 30)
        prob, mode = fock.project_and_extract(state, "ground")
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mode, coherent_column(0.3 + 0.2j, 30), atol=1e-12)

    def test_balanced_superposition(self):
        chi = coherent_column(0.5 + 0j, 30)
        amp = np.concatenate([chi, chi]) / math.sqrt(2)
        state = fock.FockStateVector(30, amp)
        pg, _ = fock.project_and_extract(state, "ground")
        pe, _ = fock.project_and_extract(state, "excited")
        assert pg == pytest.approx(0.5, abs=1e-12)
        assert pe == pytest.approx(0.5, abs=1e-12)
        assert pg + pe == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_raises(self):
        state = fock.FockStateVector.ground_coherent(0.1 + 0j, 20)
        with pytest.raises(ZeroProbabilityOutcome):
            fock.project_and_extract(state, "excited")


class TestFidelity:
    def test_identical_states(self):
        state = normalize(SuperposedState(((1.0, CoherentLabel(0.4 + 0.3j, 0.7)),)))
        vec = fock.superposed_fock_vector(state, 60)
        assert fock.fidelity(vec, state) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_displaced(self):
        vac = normalize(SuperposedState(((1.0, CoherentLabel.vacuum()),)))
        vec = fock.coherent_fock_vector(2.0 + 0j, 80)
        assert fock.fidelity(vec, vac) == pytest.approx(math.exp(-4.0), rel=1e-10)

    def test_orthogonal_fock_state(self):
        vac = normalize(SuperposedState(((1.0, CoherentLabel.vacuum()),)))
        vec = np.zeros(40, dtype=complex)
        vec[3] = 1.0
        assert fock.fidelity(vec, vac) == pytest.approx(0.0, abs=1e-30)

    def test_expansion_cutoff_gate(self):
        big = normalize(SuperposedState(((1.0, CoherentLabel(3.0 + 0j)),)))
        with pytest.raises(CutoffTooSmall):
            fock.superposed_fock_vector(big, 6)

    def test_poisson_tail_matches_incomplete_gamma(self):
        from scipy.special import gammainc

        means = np.concatenate([np.linspace(0.0, 300.0, 61), np.geomspace(1e-6, 300.0, 25)])
        for cutoff in [*range(1, 160, 3), 160]:
            for mean in means:
                assert fock.poisson_tail(float(mean), cutoff) == pytest.approx(
                    gammainc(cutoff, mean), rel=1e-12, abs=1e-300), (cutoff, mean)


class TestPulseOperatorMatrix:
    def build(self, l1, l2, sign, n):
        D = displacement_matrix(1j * sign * l1, n)
        R = rotation_matrix(sign * l2 * pi, n)
        return D @ R @ D

    def test_truncated_commutator_small(self):
        # away from the truncation edge the two kicks commute
        n = 80
        keep = n - 10
        fwd = self.build(0.1, 0.01, +1, n)
        bwd = self.build(0.1, 0.01, -1, n)
        C = fwd @ bwd - bwd @ fwd
        assert np.abs(C[:keep, :keep]).max() < 1e-9
        P = (fwd @ bwd)[:keep, :keep] - np.eye(keep)
        assert np.abs(P).max() < 1e-9

    def test_matrix_matches_closed_form_kick(self):
        from catwalk.algebra import PulseOperatorSpec, apply_pulse_operator

        n = 70
        lab = apply_pulse_operator(PulseOperatorSpec(0.1, 0.01), CoherentLabel(0.3 + 0j))
        lhs = self.build(0.1, 0.01, +1, n) @ coherent_column(0.3 + 0j, n)
        rhs = np.exp(1j * lab.phase) * coherent_column(lab.amplitude, n)
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestWalkEquivalence:
    def test_closed_form_matches_evolution(self):
        # the arbitration point: eta = 1e-2, cutoff 80, n <= 4
        for n in (1, 2, 3, 4):
            fid, probs = fock.closed_form_walk_fidelity(CHECK_POINT, n)
            assert fid >= 1 - 1e-6
            assert len(probs) == n

    def test_small_eta_point(self):
        # same dimensionless knobs reached from eta = 1e-3 (the strong drive
        # then sits at ~1.6e3 omega); the reduction error depends on l2 only,
        # so the agreement is unchanged
        p = PhysicalParams(1.0, 1e-3, 1624.25 / (1 - 1e-6 / 2), 15.0)
        pp = derive_protocol(p, 2)
        assert pp.l1 == pytest.approx(0.015, rel=1e-12)
        for n in (1, 2):
            fid, _ = fock.closed_form_walk_fidelity(p, n)
            assert fid >= 1 - 1e-6

    def test_displaced_start_pins_phase_sign(self):
        # theta enters as e^{+i theta_j}: with alpha0 = 0.5 the opposite sign
        # drops the fidelity to ~0.4, so this check pins the convention hard
        fid, _ = fock.closed_form_walk_fidelity(CHECK_POINT, 3, alpha0=0.5)
        assert fid >= 1 - 1e-6

    def test_mirror_orientation_statement(self):
        # the evolution follows the closed form, and its mirror through the
        # phase-space origin, |k> -> (-1)^k |k>, does not (0.9858)
        _, modes, _ = fock.walk_prefixes(CHECK_POINT, 2)
        state = walk_state(derive_protocol(CHECK_POINT, 2))
        mirrored = modes[-1] * (-1.0) ** np.arange(len(modes[-1]))
        assert fock.fidelity(modes[-1], state) >= 1 - 1e-6
        assert fock.fidelity(mirrored, state) < 0.99

    def test_orientation_follows_the_unreduced_model(self):
        # At a displaced start the unreduced Hamiltonian tells the reduced
        # model's orientation from its mirror: squared overlap 0.9889 with
        # the reduced mode against 0.331 with its (-1)^k mirror.
        p = PhysicalParams(1.0, 0.02, 41.0, 4.0)
        _, reduced, _ = fock.walk_prefixes(p, 3, alpha0=0.5)
        _, full, _ = fock.walk_prefixes(p, 3, alpha0=0.5, hamiltonian="full")
        mirrored = reduced[-1] * (-1.0) ** np.arange(len(reduced[-1]))
        same = abs(np.vdot(reduced[-1], full[-1])) ** 2
        mirror = abs(np.vdot(mirrored, full[-1])) ** 2
        assert same == pytest.approx(0.9889, abs=1e-3)
        assert same > mirror

    def test_strong_point_documented_gap(self):
        # At l1 = 0.1, l2 ~ 0.01 the reduced model's displacement magnitude
        # l1/(1 -+ l2) differs from l1 by ~1e-3 per kick, which caps the
        # closed-form fidelity near 1 - 1.4e-5 at n = 1 (and ~4e-4 by n = 4).
        fid, _ = fock.closed_form_walk_fidelity(STRONG_POINT, 1)
        assert 0.9999 < fid < 1 - 1e-6

    def test_record_probabilities_match_chain(self):
        from catwalk.dephasing import walk_density_steps
        from catwalk.protocol import run_conditioned_walk

        pp = derive_protocol(CHECK_POINT, 3)
        _, _, chain_probs = run_conditioned_walk(pp)
        records = [record for _, _, record in walk_density_steps(pp)]
        closed_probs = [b / a for a, b in zip(records, records[1:])]
        oracle_probs, _, _ = fock.walk_prefixes(CHECK_POINT, 3)
        assert np.allclose(chain_probs, oracle_probs, atol=2e-6)
        assert np.allclose(closed_probs, oracle_probs, atol=2e-6)


def per_k_reference(p, k, hamiltonian="reduced", alpha0=0j):
    """The k-cycle walk evolved from alpha0 on its own, one ``evolve`` call
    per segment: (per-cycle probabilities, largest leakage, final mode)."""
    state = fock.FockStateVector.ground_coherent(alpha0, 80)
    mode = state.amplitudes[:80]
    probs, leak = [], 0.0
    for _ in range(k):
        for segment in fock.walk_schedule(1).segments:
            state = fock.evolve(state, fock.PulseSchedule((segment,)), p,
                                hamiltonian=hamiltonian)
            leak = max(leak, state.leakage())
        prob, mode = fock.project_and_extract(state, "ground")
        probs.append(prob)
        amp = np.zeros(160, dtype=complex)
        amp[:80] = mode
        state = fock.FockStateVector(80, amp)
    return probs, leak, mode


class TestOnePass:
    # one n-cycle pass must return, bit for bit, what a separate k-cycle run
    # returns for every k <= n
    @pytest.mark.parametrize("p, n, hamiltonian", [
        (CHECK_POINT, 6, "reduced"),
        (FULL_POINT, 2, "full"),
    ], ids=["reduced", "full"])
    def test_prefixes_bit_identical_to_per_k_runs(self, p, n, hamiltonian):
        fids, probs, leak_max = fock.closed_form_walk_fidelities(
            p, n, hamiltonian=hamiltonian)
        assert len(fids) == len(probs) == n
        leaks = []
        for k in range(1, n + 1):
            ref_probs, ref_leak, ref_mode = per_k_reference(p, k, hamiltonian)
            ref_fid = fock.fidelity(ref_mode, walk_state(derive_protocol(p, k)))
            assert fids[k - 1] == ref_fid
            assert probs[:k] == ref_probs
            fid, record_probs = fock.closed_form_walk_fidelity(
                p, k, hamiltonian=hamiltonian)
            assert (fid, record_probs) == (ref_fid, ref_probs)
            leaks.append(ref_leak)
        assert leak_max == max(leaks)

    def test_prefix_modes_match_per_k_runs_from_a_displaced_start(self):
        probs, modes, _ = fock.walk_prefixes(CHECK_POINT, 3, alpha0=0.2)
        assert len(modes) == 4
        for k in range(4):
            ref_probs, _, ref_mode = per_k_reference(CHECK_POINT, k, alpha0=0.2)
            assert probs[:k] == ref_probs
            assert np.array_equal(modes[k], ref_mode)

    @pytest.mark.parametrize("n", [0, -1])
    def test_walk_comparison_needs_a_cycle(self, n):
        for compare in (fock.closed_form_walk_fidelity, fock.closed_form_walk_fidelities):
            with pytest.raises(ValueError):
                compare(CHECK_POINT, n)

    def test_propagator_bytes(self):
        # two dense complex (2N)^2 matrices
        assert fock.propagator_bytes(80) == 2 * 160**2 * 16


class TestCatEquivalence:
    def test_conditioned_cat_matches_contract(self):
        # The two-component contract state (relative minus sign) is what the
        # excited-outcome projection produces; the ground outcome carries the
        # orthogonal plus combination.
        pp = derive_protocol(CHECK_POINT, 5)
        contract = ProtocolParams(pp.l1, pp.l2, pp.phi, 5)
        from catwalk.protocol import cat_state

        target = cat_state(contract)
        pg, vg, pe, ve = fock.run_cat_record(CHECK_POINT, 5)
        assert pg + pe == pytest.approx(1.0, abs=1e-10)
        assert fock.fidelity(ve, target) >= 1 - 1e-5
        assert fock.fidelity(vg, target) < 1e-2

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_success_probability_is_the_excited_outcome(self, n):
        # the closed-form probability of the conditioning measurement is that
        # of the outcome the Fock model labels excited (gaps 4.7e-9, 4.1e-8
        # and 1.05e-7 at n = 1, 3, 5)
        from catwalk.protocol import cat_success_probability

        pp = derive_protocol(CHECK_POINT, n)
        contract = ProtocolParams(pp.l1, pp.l2, pp.phi, n)
        _, _, pe, _ = fock.run_cat_record(CHECK_POINT, n)
        assert cat_success_probability(contract) == pytest.approx(pe, abs=1e-6)


class TestFullHamiltonian:
    def test_loose_agreement_with_commensurate_drive(self):
        # Omega1/omega integer so the strong drive completes whole rotations
        # between measurements; the reduction error then dominates and the
        # closed form should match to the loose 0.99 level
        for n in (1, 2):
            fid, _ = fock.closed_form_walk_fidelity(FULL_POINT, n, hamiltonian="full")
            assert fid >= 0.99

    def test_full_hamiltonian_hermitian(self):
        H = fock.build_full_hamiltonian(CHECK_POINT, cutoff=20)
        assert np.linalg.norm(H - H.conj().T) < 1e-12
