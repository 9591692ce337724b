import math
import weakref
from dataclasses import replace
from math import pi

import numpy as np
import pytest

from catwalk.algebra import CoherentLabel, SuperposedState, normalize
from catwalk.dephasing import cat_density, projector, walk_density, walk_density_steps
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


class TestCoherentFockVector:
    # against 40-digit mpmath amplitudes e^{-|a|^2/2} a^k / sqrt(k!) e^{i phase};
    # the largest relative errors are 0 (vacuum), 6.7e-16 (a label of the
    # oracle point's size) and 1.6e-14 (|alpha|^2 = 153 at cutoff 160), each
    # bound about 3x that
    @pytest.mark.parametrize("alpha, cutoff, phase, rel", [
        (0j, 40, 0.0, 0.0),
        (0.35 - 0.12j, 40, 0.7, 2e-15),
        (12.0 + 3.0j, 160, 0.3, 5e-14),
    ], ids=["vacuum", "label", "near-cutoff"])
    def test_matches_mpmath(self, alpha, cutoff, phase, rel):
        import mpmath

        with mpmath.workdps(40):
            a = mpmath.mpc(alpha.real, alpha.imag)
            scale = mpmath.exp(-abs(a) ** 2 / 2) * mpmath.expj(phase)
            ref = [scale * a**k / mpmath.sqrt(mpmath.factorial(k)) for k in range(cutoff)]
            got = fock.coherent_fock_vector(alpha, cutoff, phase)
            assert got.shape == (cutoff,)
            for x, y in zip(got.tolist(), ref, strict=True):
                assert abs(mpmath.mpc(x) - y) <= rel * abs(y) or x == y == 0


def level_phases(cutoff, d=1):
    """i^{d k} for the Fock levels k = 0..cutoff-1, as exact complex units."""
    return np.array([1, 1j, -1, -1j])[d * np.arange(cutoff) % 4]


def ground_vector(alpha, cutoff, hamiltonian="full"):
    """The 2N vector of |g>|alpha> in the ``hamiltonian`` model's frame:
    (g, e) for the unreduced model; for the reduced one the dressed
    (|g> +- |e>)/sqrt(2), with Fock level k taken as i^k|k>."""
    chi = coherent_column(alpha, cutoff)
    if hamiltonian == "full":
        return np.concatenate([chi, np.zeros(cutoff)])
    chi = chi * level_phases(cutoff, -1)
    return np.concatenate([chi, chi]) / math.sqrt(2)


class TestEvolve:
    def test_zero_duration_is_identity(self):
        vector = ground_vector(0.4 + 0.1j, 40, "reduced")
        props = fock._cycle_propagators(((0.0, True, True),), CHECK_POINT, 40)
        out, _ = fock.evolve(props, vector)
        assert np.allclose(out, vector, atol=1e-12)

    def test_free_full_period_is_identity(self):
        vector = ground_vector(0.7 + 0j, 40, "reduced")
        props = fock._cycle_propagators(((2 * pi, False, False),), CHECK_POINT, 40)
        out, _ = fock.evolve(props, vector)
        assert np.allclose(out, vector, atol=1e-10)

    def test_norm_preserved(self):
        props = fock._cycle_propagators(fock.WALK_CYCLE, CHECK_POINT, 60)
        out, _ = fock.evolve(props * 3, ground_vector(0.2j, 60, "reduced"))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_leakage_gate_trips(self):
        props = fock._cycle_propagators(fock.WALK_CYCLE, STRONG_POINT, 8)
        with pytest.raises(CutoffTooSmall):
            fock.evolve(props, ground_vector(1.5 + 0j, 8, "reduced"))

    def test_unknown_hamiltonian_refused(self):
        with pytest.raises(ValueError, match="reduced"):
            fock._cycle_propagators(fock.WALK_CYCLE, CHECK_POINT, 20, "dressed")


def dense_propagator(H, t):
    """exp(-i H t) from one eigendecomposition of the whole 2N x 2N matrix."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def real_propagator(R, t):
    """exp(-i R t) of a real symmetric R from one real eigendecomposition:
    Re = V cos(w t) V^T, Im = -V sin(w t) V^T."""
    w, V = np.linalg.eigh(R)
    U = np.empty(R.shape, dtype=complex)
    U.real = (V * np.cos(w * t)) @ V.T
    U.imag = (V * -np.sin(w * t)) @ V.T
    return U


SEGMENTS = pytest.mark.parametrize("o1, o2", [
    (True, True), (False, False), (True, False),
], ids=["drive-on", "drive-off", "cat-omega1-only"])

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_heff(p, cutoff, omega1_on, omega2_on):
    """Reference for ``fock.build_heff``: kron products of qubit and mode
    operators, with a^dag a from a dense matmul."""
    a = fock.destroy(cutoff)
    nop = (a.conj().T @ a).real.astype(complex)
    H = np.kron(I2, nop)
    eta = p.eta
    if omega1_on:
        o1 = p.Omega1 / p.omega
        H = H + o1 * (1 - eta**2 / 2) * np.kron(SX, np.eye(cutoff, dtype=complex))
        H = H - o1 * eta**2 * np.kron(SX, nop)
    if omega2_on:
        o2 = p.Omega2 / p.omega
        H = H - o2 * eta * np.kron(SX, 1j * (a.conj().T - a))
    return H


def kron_full_hamiltonian(p, cutoff, omega1_on, omega2_on):
    """Reference for ``fock.build_full_hamiltonian``, from kron products."""
    a = fock.destroy(cutoff)
    nop = (a.conj().T @ a).real.astype(complex)
    eye = np.eye(cutoff, dtype=complex)
    proj_e = np.diag([0.0, 1.0]).astype(complex)
    H = np.kron(I2, nop) + (p.g / p.omega) * np.kron(proj_e, a + a.conj().T)
    if omega1_on:
        H = H + (p.Omega1 / p.omega) * np.kron(SX, eye)
    if omega2_on:
        drive2 = np.array([[0.0, -1j], [1j, 0.0]])  # i(s+ - s-) in (g, e) order
        H = H + (p.Omega2 / p.omega) * np.kron(drive2, eye)
    return H


def dressed_blocks(H):
    """The dressed blocks A + B and A - B of a reduced H = [[A, B], [B, A]]."""
    n = len(H) // 2
    A, B = H[:n, :n], H[:n, n:]
    assert same_bits(A, H[n:, n:]) and same_bits(B, H[n:, :n])
    return A + B, A - B


def gauged(M, d=1):
    """D^dag M D for D = diag(i^{d k}): entry (j, k) times i^{d (k - j)},
    a product with an exact complex unit."""
    return M * np.outer(level_phases(len(M), -d), level_phases(len(M), d))


def gauged_blocks(p, cutoff, o1, o2):
    """The reduced model's blocks in its frame from the kron reference: the
    real parts of D^dag (A +- B) D, whose imaginary parts are exactly 0."""
    blocks = [gauged(block) for block in dressed_blocks(kron_heff(p, cutoff, o1, o2))]
    assert all(not block.imag.any() for block in blocks)
    return [block.real for block in blocks]


def bare_propagator(stack):
    """The bare-basis 2N x 2N matrix of a reduced model's (2, N, N)
    propagator stack: K diag(D P+ D^dag, D P- D^dag) K with K the Hadamard
    on the qubit and D = diag(i^k) the frame's Fock levels."""
    n = stack.shape[-1]
    K = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2), np.eye(n))
    D = np.zeros((2 * n, 2 * n), dtype=complex)
    D[:n, :n], D[n:, n:] = (gauged(P, -1) for P in stack)
    return K @ D @ K


def same_bits(x, y):
    """Equal bytes, signed zeros included, without copying the arrays."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# The walk's and the cat's segments: both drives on, both off, Omega1 alone.
CYCLE_SEGMENTS = sorted({(o1, o2) for _, o1, o2 in fock.WALK_CYCLE + fock.CAT_CYCLE})


class TestReferencePropagators:
    # the block builders and the diagonal segments' direct exponential give
    # the bytes of the kron builders and LAPACK's eigendecompositions
    @pytest.mark.parametrize("cutoff", [8, 40, 160, 724])
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT, FULL_POINT],
                             ids=["check", "strong", "full"])
    @SEGMENTS
    def test_hamiltonians_bit_for_bit(self, p, cutoff, o1, o2):
        assert same_bits(fock.build_heff(p, cutoff, o1, o2), kron_heff(p, cutoff, o1, o2))
        assert same_bits(fock.build_full_hamiltonian(p, cutoff, o1, o2),
                         kron_full_hamiltonian(p, cutoff, o1, o2))

    # The unreduced model at cutoff 724 is left out: its propagators are one
    # 1448 x 1448 eigendecomposition of the Hamiltonian bytes checked above,
    # as in the reference, and eight of them take about 25 s on two CPUs.
    @pytest.mark.parametrize("hamiltonian, cutoff", [
        *(("reduced", cutoff) for cutoff in (8, 40, 160, 724)),
        *(("full", cutoff) for cutoff in (8, 40, 160)),
    ])
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    @pytest.mark.parametrize("cycle", [fock.WALK_CYCLE, fock.CAT_CYCLE], ids=["walk", "cat"])
    def test_cycle_propagators_bit_for_bit(self, cycle, p, hamiltonian, cutoff):
        # reduced: the (2, N, N) stack of exp(-i R+- t), R+- = D^dag (A +- B) D
        # from the kron reference, each block the real eigendecomposition's
        # with the weak drive on and the exponential of its diagonal without
        # it; unreduced: the (1, 2N, 2N) stack of the one dense block
        got = fock._cycle_propagators(cycle, p, cutoff, hamiltonian)
        for U, (t, o1, o2) in zip(got, cycle, strict=True):
            if hamiltonian == "full":
                H = kron_full_hamiltonian(p, cutoff, o1, o2)
                assert same_bits(U, dense_propagator(H, t)[None])
                continue
            assert U.shape == (2, cutoff, cutoff)
            for P, R in zip(U, gauged_blocks(p, cutoff, o1, o2), strict=True):
                if o2:
                    assert same_bits(P, real_propagator(R, t))
                else:
                    assert not np.any(R - np.diag(np.diagonal(R)))
                    assert same_bits(P, np.diag(np.exp(-1j * np.diagonal(R) * t)))

    @pytest.mark.parametrize("cutoff", [40, 160, 724])
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    @pytest.mark.parametrize("o1, o2", CYCLE_SEGMENTS)
    def test_dressed_blocks_are_the_gauged_reduced_blocks(self, p, cutoff, o1, o2):
        # R+- = D^dag (A +- B) D of build_heff's blocks, value for value: the
        # imaginary parts are exactly 0 and the real ones the same numbers
        # (+ 0.0 folds the signed zeros of the complex products)
        H = fock.build_heff(p, cutoff, o1, o2)
        A, B = H[:cutoff, :cutoff], H[:cutoff, cutoff:]
        R = fock._dressed_blocks(p, cutoff, o1, o2)
        assert R.dtype == np.float64 and R.shape == (2, cutoff, cutoff)
        for block, reference in zip(R, (gauged(A + B), gauged(A - B)), strict=True):
            assert not reference.imag.any()
            assert same_bits(block + 0.0, reference.real + 0.0)
            assert same_bits(block, block.T)

    @pytest.mark.parametrize("cutoff", [40, 160, 724])
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    @pytest.mark.parametrize("cycle", [fock.WALK_CYCLE, fock.CAT_CYCLE], ids=["walk", "cat"])
    def test_real_blocks_match_the_complex_eigendecomposition(self, cycle, p, cutoff):
        # against D^dag exp(-i (A +- B) t) D from a complex eigendecomposition
        # of the ungauged blocks, the form these propagators replace: the
        # largest gap is 2.5e-16 (cutoff 160) and the diagonal segments are
        # bit for bit
        got = fock._cycle_propagators(cycle, p, cutoff)
        for U, (t, o1, o2) in zip(got, cycle, strict=True):
            for P, block in zip(U, dressed_blocks(kron_heff(p, cutoff, o1, o2)), strict=True):
                if o2:
                    assert np.abs(P - gauged(dense_propagator(block, t))).max() <= 1e-15
                else:
                    assert same_bits(P, np.diag(np.exp(-1j * np.diagonal(block).real * t)))


class TestPropagator:
    @pytest.mark.parametrize("cutoff", [40, 160])
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    @SEGMENTS
    def test_dressed_blocks_match_dense(self, p, cutoff, o1, o2):
        # every reduced Hamiltonian is [[A, B], [B, A]]: the dressed blocks
        # exp(-i (A +- B) t), carried back to the bare basis, are the dense
        # exponential to rounding (3.1e-13 at cutoff 80), and unitary
        H = fock.build_heff(p, cutoff, o1, o2)
        (stack,) = fock._cycle_propagators(((pi, o1, o2),), p, cutoff)
        U = bare_propagator(stack)
        assert np.abs(U - dense_propagator(H, pi)).max() <= 1e-12
        assert np.linalg.norm(U.conj().T @ U - np.eye(2 * cutoff), 2) <= 1e-12

    @pytest.mark.parametrize("p", [FULL_POINT, CHECK_POINT], ids=["full", "check"])
    @SEGMENTS
    def test_unreduced_is_one_dense_block(self, p, o1, o2):
        # the g |e><e| coupling breaks the qubit symmetry: one 2N x 2N block,
        # bit for bit the dense exponential
        H = fock.build_full_hamiltonian(p, 40, o1, o2)
        assert same_bits(fock._propagator(H, pi), dense_propagator(H, pi)[None])


class TestDressedBlockClosedForm:
    # Each dressed block of a segment is a displaced, frequency-shifted
    # oscillator, A + sB = w (a - beta)^dag (a - beta) - w |beta|^2 + s phi/pi,
    # so P_s = exp(-i pi (A + sB)) maps a coherent state to a coherent state:
    #   P_s |alpha> = e^{i chi} |(alpha - beta) e^{-i pi w} + beta>,
    #   w = 1 - s l2,  beta = s i l1 / w,
    #   chi = -s phi + pi w |beta|^2 + Im(-beta conj(alpha))
    #         + Im(beta conj((alpha - beta) e^{-i pi w})),
    # with w = 1 and no s phi term when Omega1 is off, beta = 0 when Omega2
    # is off.  The largest error is 9.3e-15 at CHECK_POINT and 1.4e-13 at
    # STRONG_POINT.
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    @pytest.mark.parametrize("s", [1, -1])
    @SEGMENTS
    def test_block_maps_coherent_states_in_closed_form(self, p, s, o1, o2):
        N = 80
        pp = derive_protocol(p, 1)
        w = 1 - s * pp.l2 if o1 else 1.0
        beta = s * 1j * pp.l1 / w if o2 else 0j
        P = gauged(fock._cycle_propagators(((pi, o1, o2),), p, N)[0][(1 - s) // 2], -1)
        for alpha in (0j, 0.7 + 0.2j, -1.5 + 1j, 2 - 0.5j):
            image = (alpha - beta) * np.exp(-1j * pi * w)
            chi = (pi * w * abs(beta) ** 2 + (-beta * alpha.conjugate()).imag
                   + (beta * image.conjugate()).imag - (s * pp.phi if o1 else 0.0))
            expected = np.exp(1j * chi) * coherent_column(image + beta, N)
            assert np.abs(P @ coherent_column(alpha, N) - expected).max() < 1e-12


BARE = fock.FRAMES["full"]


class TestProjection:
    def test_product_state_ground(self):
        prob, mode = fock.project(ground_vector(0.3 + 0.2j, 30), 0, BARE)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mode, coherent_column(0.3 + 0.2j, 30), atol=1e-12)

    def test_balanced_superposition(self):
        chi = coherent_column(0.5 + 0j, 30)
        vector = np.concatenate([chi, chi]) / math.sqrt(2)
        pg, _ = fock.project(vector, 0, BARE)
        pe, _ = fock.project(vector, 1, BARE)
        assert pg == pytest.approx(0.5, abs=1e-12)
        assert pe == pytest.approx(0.5, abs=1e-12)
        assert pg + pe == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_raises(self):
        with pytest.raises(ZeroProbabilityOutcome):
            fock.project(ground_vector(0.1 + 0j, 20), 1, BARE)

    def test_frame_round_trip_is_exact(self, rng):
        # the gauge only swaps and negates parts: in and out of the frame
        # gives the bytes back, and the reduced frame's embedding and
        # projection read the numbers of its qubit frame alone
        v = rng.normal(size=160) + 1j * rng.normal(size=160)
        inside = fock._gauge(v, -1)
        assert same_bits(fock._gauge(inside, 1), v)
        k = np.arange(160) % 4
        parts = {0: (v.real, v.imag), 1: (v.imag, -v.real),
                 2: (-v.real, -v.imag), 3: (-v.imag, v.real)}
        for level in range(4):
            re, im = parts[level]
            assert same_bits(inside.real[k == level], re[k == level])
            assert same_bits(inside.imag[k == level], im[k == level])
        reduced = fock.FRAMES["reduced"]
        qubit_only = (reduced[0], 0)
        assert same_bits(fock.embed_ground(v, reduced),
                         fock.embed_ground(v, qubit_only) * np.tile(level_phases(160, -1), 2))
        w = rng.normal(size=320) + 1j * rng.normal(size=320)
        for qubit in (0, 1):
            prob, mode = fock.project(w * np.tile(level_phases(160, -1), 2), qubit, reduced)
            ref_prob, ref_mode = fock.project(w, qubit, qubit_only)
            assert prob == ref_prob and same_bits(mode, ref_mode)
        # the unreduced frame has no gauge: its embedding is the plain kron
        assert same_bits(fock.embed_ground(v, BARE), np.kron(BARE[0][0], v))

    def test_dressed_frame_projects_on_bare_levels(self):
        # |g>|chi> written in the dressed frame projects back on it, and its
        # excited outcome is refused as the bare vector's is
        dressed = fock.FRAMES["reduced"]
        prob, mode = fock.project(ground_vector(0.3 + 0.2j, 30, "reduced"), 0, dressed)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mode, coherent_column(0.3 + 0.2j, 30), atol=1e-12)
        with pytest.raises(ZeroProbabilityOutcome):
            fock.project(ground_vector(0.1 + 0j, 20, "reduced"), 1, dressed)


class TestFidelity:
    def test_identical_states(self):
        state = normalize(SuperposedState(((1.0, CoherentLabel(0.4 + 0.3j, 0.7)),)))
        vec = fock.superposed_fock_vector(state, 60)
        assert fock.fidelity(vec, projector(state)) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_displaced(self):
        vac = normalize(SuperposedState(((1.0, CoherentLabel.vacuum()),)))
        vec = fock.coherent_fock_vector(2.0 + 0j, 80)
        assert fock.fidelity(vec, projector(vac)) == pytest.approx(math.exp(-4.0), rel=1e-10)

    def test_orthogonal_fock_state(self):
        vac = normalize(SuperposedState(((1.0, CoherentLabel.vacuum()),)))
        vec = np.zeros(40, dtype=complex)
        vec[3] = 1.0
        assert fock.fidelity(vec, projector(vac)) == pytest.approx(0.0, abs=1e-30)

    def test_expansion_cutoff_gate(self):
        # the density fidelity shares the vector's gate: same state, same cutoff
        big = normalize(SuperposedState(((1.0, CoherentLabel(3.0 + 0j)),)))
        for expand in (lambda: fock.superposed_fock_vector(big, 6),
                       lambda: fock.fidelity(np.eye(6)[0], projector(big))):
            with pytest.raises(CutoffTooSmall, match="past cutoff 6"):
                expand()

    @pytest.mark.parametrize("state, tol", [
        *((walk_state(derive_protocol(CHECK_POINT, k)), 1e-13) for k in (1, 4, 10)),
        (walk_state(ProtocolParams(0.1, 0.01, 0.3, 6, alpha0=0.7 + 0.3j)), 1e-13),
        (normalize(SuperposedState(((1.0, CoherentLabel(0.4 + 0.3j, 0.7)),))), 1e-13),
        # sum_j |c_j| = 975 against a unit norm: both sides sit at the
        # cancellation floor, 3.2e-11 apart
        (walk_state(ProtocolParams(0.1, 0.01, 4.5 * pi, 10)), 1e-10),
    ], ids=["check-point-n1", "check-point-n4", "check-point-n10", "displaced-n6",
            "coherent", "fig2-n10"])
    def test_rank_one_density_is_the_vector_fidelity(self, state, tol, rng):
        # <v|psi><psi|v> read through the dyads equals |<psi|v>|^2 of the
        # renormalized expansion, for the oracle's modes and random vectors
        _, modes, _ = fock.walk_prefixes(CHECK_POINT, 10, cutoff=160)
        random = rng.normal(size=(3, 160)) + 1j * rng.normal(size=(3, 160))
        w = fock.superposed_fock_vector(state, 160)
        rho = projector(state)
        for v in [*modes, *(r / np.linalg.norm(r) for r in random), w]:
            assert fock.fidelity(v, rho) == pytest.approx(abs(np.vdot(w, v)) ** 2, abs=tol)

    @pytest.mark.parametrize("xi", [0.2, 1.0, math.inf])
    def test_dephased_density_fidelity_in_unit_interval(self, xi):
        _, modes, _ = fock.walk_prefixes(CHECK_POINT, 6)
        for k in range(1, 7):
            rho = walk_density(replace(derive_protocol(CHECK_POINT, k), xi=xi))
            for v in (modes[k], modes[k] * (-1.0) ** np.arange(80), np.eye(80)[1]):
                assert 0.0 <= fock.fidelity(v, rho) <= 1.0

    def test_poisson_tail_matches_incomplete_gamma(self):
        from scipy.special import gammainc

        means = np.concatenate([np.linspace(0.0, 300.0, 61), np.geomspace(1e-6, 300.0, 25)])
        for cutoff in [*range(1, 160, 3), 160]:
            for mean in means:
                assert fock.poisson_tail(float(mean), cutoff) == pytest.approx(
                    gammainc(cutoff, mean), rel=1e-12, abs=1e-300), (cutoff, mean)


def dephased_fock_walk(p, n, cutoff, xi, damp_same_branch=False):
    """The paper's dephasing on the reduced Fock walk from the vacuum, at unit
    trace.  From |g> the dressed branches evolve under P+- = exp(-i pi (A +- B))
    and the free half period is F = diag(e^{-i pi k}); per cycle
      rho' ~ F (P+ rho P+^dag + P- rho P-^dag
                + e^{-xi} (P+ rho P-^dag + P- rho P+^dag)) F^dag.
    ``damp_same_branch`` is a broken variant that damps the wrong pair."""
    (stack,) = fock._cycle_propagators(((pi, True, True),), p, cutoff)
    plus, minus = (gauged(P, -1) for P in stack)
    F = np.diag(np.exp(-1j * pi * np.arange(cutoff)))
    damp = math.exp(-xi)
    v = fock.coherent_fock_vector(0j, cutoff)
    rho = np.outer(v, v.conj())
    for _ in range(n):
        same = plus @ rho @ plus.conj().T + minus @ rho @ minus.conj().T
        cross = plus @ rho @ minus.conj().T + minus @ rho @ plus.conj().T
        rho = damp * same + cross if damp_same_branch else same + damp * cross
        rho = F @ rho @ F.conj().T
        rho = rho / np.trace(rho).real
    return rho


def closed_form_fock_density(pp, cutoff):
    """walk_density(pp) expanded in the Fock basis, C W C^dag, at unit trace."""
    rho = walk_density(pp)
    C = fock._fock_columns(rho, cutoff)
    dense = C @ rho.weights @ C.conj().T
    return dense / np.trace(dense).real


def dense_trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


class TestDephasedFockWalk:
    def test_decohere_densities_match_the_dephased_fock_walk(self):
        # at the oracle point (configs/oracle_check.cfg), cutoff 80, n = 4 the
        # distance is the model's own, 1.96e-4, 1.95e-4, 1.94e-4 and 1.93e-4
        # at xi = 0, 0.2, 1 and inf: the dephasing adds no error of its own.
        # Damping the same-branch terms instead (4.8e-2) or reading the
        # closed form at 1.25 xi (4.8e-3) lands far further away.
        n, cutoff = 4, 80
        pp = derive_protocol(CHECK_POINT, n)

        def distance(fock_xi, closed_xi, damp_same_branch=False):
            return dense_trace_distance(
                dephased_fock_walk(CHECK_POINT, n, cutoff, fock_xi, damp_same_branch),
                closed_form_fock_density(replace(pp, xi=closed_xi), cutoff))

        pure = distance(0.0, 0.0)
        for xi in (0.2, 1.0, math.inf):
            assert distance(xi, xi) <= 1.05 * pure
        assert distance(0.2, 0.2, damp_same_branch=True) > 10 * pure
        assert distance(0.2, 0.25) > 10 * pure


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
        rho = projector(walk_state(derive_protocol(CHECK_POINT, 2)))
        mirrored = modes[-1] * (-1.0) ** np.arange(len(modes[-1]))
        assert fock.fidelity(modes[-1], rho) >= 1 - 1e-6
        assert fock.fidelity(mirrored, rho) < 0.99

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
    per segment, each with a propagator built for it: (per-cycle
    probabilities, largest leakage, final mode)."""
    frame = fock.FRAMES[hamiltonian]
    mode = fock.coherent_fock_vector(alpha0, 80)
    probs, leak = [], 0.0
    for _ in range(k):
        vector = fock.embed_ground(mode, frame)
        for segment in fock.WALK_CYCLE:
            props = fock._cycle_propagators((segment,), p, 80, hamiltonian)
            vector, segment_leak = fock.evolve(props, vector)
            leak = max(leak, segment_leak)
        prob, mode = fock.project(vector, 0, frame)
        probs.append(prob)
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
            ref_fid = fock.fidelity(ref_mode, walk_density(derive_protocol(p, k)))
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

    def test_one_step_density_held_at_a_time(self, monkeypatch):
        # the oracle reads step k's density, then drops it: a list of all
        # n + 1 would hold about 32 n**3 / 3 bytes, 11 GiB at n = 1023
        alive = []
        real = fock.walk_density_steps

        def steps(pp):
            for step, rho, record in real(pp):
                alive.append(weakref.ref(rho))
                assert sum(ref() is not None for ref in alive) <= 2
                yield step, rho, record

        monkeypatch.setattr(fock, "walk_density_steps", steps)
        fids, _, _ = fock.closed_form_walk_fidelities(CHECK_POINT, 6, cutoff=80)
        assert len(alive) == 7 and len(fids) == 6

    @pytest.mark.parametrize("n", [0, -1])
    def test_walk_comparison_needs_a_cycle(self, n):
        for compare in (fock.closed_form_walk_fidelity, fock.closed_form_walk_fidelities):
            with pytest.raises(ValueError):
                compare(CHECK_POINT, n)

    @pytest.mark.parametrize("cutoff", [40, 80])
    def test_leakage_reads_the_truncation(self, cutoff):
        # the largest top-5 population the Fock walk sees is within 10x of
        # the closed-form densities' (3.8e-80 against 2.9e-80 at cutoff 40,
        # 1.8e-191 against 5.1e-192 at cutoff 80), not eigh rounding noise,
        # which one 2N x 2N eigendecomposition puts at 4.5e-65 and 8.5e-94
        n = 10
        _, _, leak_max = fock.closed_form_walk_fidelities(CHECK_POINT, n, cutoff=cutoff)
        top = 0.0
        for _, rho, _ in walk_density_steps(derive_protocol(CHECK_POINT, n)):
            C = fock._fock_columns(rho, cutoff)[-fock.LEAKAGE_LEVELS:]
            top = max(top, np.einsum("mj,jk,mk->", C, rho.weights, C.conj()).real)
        assert top / 10 <= leak_max <= 10 * top

    def test_expansion_gate_reads_each_step(self):
        # from alpha0 = 3 at cutoff 36 the Fock walk passes its own gate, but
        # the closed-form truncation bound sum_jk |w_jk| t_j t_k of step k
        # grows with k and first passes EXPANSION_LEAKAGE_MAX at k = 7
        pp = replace(derive_protocol(CHECK_POINT, 10, 3.0), xi=0.0)
        bounds = []
        for _, rho, _ in walk_density_steps(pp):
            t = np.sqrt([fock.poisson_tail(abs(alpha) ** 2, 36) for alpha in rho.amplitudes])
            bounds.append(t @ np.abs(rho.weights) @ t)
        first = next(k for k, bound in enumerate(bounds) if bound > fock.EXPANSION_LEAKAGE_MAX)
        assert first == 7
        fock.closed_form_walk_fidelities(CHECK_POINT, first - 1, 3.0, 36)
        with pytest.raises(CutoffTooSmall,
                           match=f"leaks up to {bounds[first]:.3e} past cutoff 36"):
            fock.closed_form_walk_fidelities(CHECK_POINT, 10, 3.0, 36)

    def test_propagator_bytes(self):
        # what each model's cycle stores: two complex (2, N, N) stacks for
        # the reduced model, two complex (2N)^2 matrices for the unreduced one
        assert fock.propagator_bytes(80, "reduced") == 2 * 2 * 80**2 * 16
        assert fock.propagator_bytes(80, "full") == 2 * 160**2 * 16
        for hamiltonian in ("reduced", "full"):
            for cycle in (fock.WALK_CYCLE, fock.CAT_CYCLE):
                props = fock._cycle_propagators(cycle, CHECK_POINT, 80, hamiltonian)
                assert sum(U.nbytes for U in props) == fock.propagator_bytes(80, hamiltonian)


def expm_props(p, cutoff, cycle):
    """A cycle's bare-basis propagators from ``kron_heff`` and scipy's expm."""
    from scipy.linalg import expm

    return [expm(-1j * t * kron_heff(p, cutoff, o1, o2)) for t, o1, o2 in cycle]


def expm_evolve(props, vector):
    """Apply bare-basis propagators in order: (vector, largest top-5
    population of the two qubit blocks after any of them)."""
    leak = 0.0
    for U in props:
        vector = U @ vector
        leak = max(leak, np.sum(np.abs(vector.reshape(2, -1)[:, -fock.LEAKAGE_LEVELS:]) ** 2))
    return vector, leak


def expm_walk(p, n, cutoff):
    """The reduced walk in the bare basis: (per-cycle ground probabilities,
    modes after k = 0..n cycles, largest leakage)."""
    props = expm_props(p, cutoff, fock.WALK_CYCLE)
    mode = coherent_column(0j, cutoff)
    probs, modes, leak_max = [], [mode], 0.0
    for _ in range(n):
        vector, leak = expm_evolve(props, np.concatenate([mode, np.zeros(cutoff)]))
        leak_max = max(leak_max, leak)
        probs.append(np.vdot(vector[:cutoff], vector[:cutoff]).real)
        mode = vector[:cutoff] / math.sqrt(probs[-1])
        modes.append(mode)
    return probs, modes, leak_max


class TestExpmReference:
    # The dressed-frame walk and cat against a bare-basis 2N evolution from
    # the kron Hamiltonian and scipy's expm.  The largest gaps at cutoff 40
    # are 1.0e-14 (CHECK_POINT) and 8.6e-14 (STRONG_POINT) relative in the
    # walk's probabilities, 2.3e-13 in the cat's, and 5.2e-13 in any mode
    # amplitude; the bounds leave a factor of 4 or more.  The bare 2N
    # propagators these blocks replace gave the same numbers within 1.0e-15
    # relative in probability and 2.5e-15 in amplitude.
    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    def test_walk_matches_expm(self, p):
        probs, modes, _ = fock.walk_prefixes(p, 6, cutoff=40)
        ref_probs, ref_modes, _ = expm_walk(p, 6, 40)
        assert np.allclose(probs, ref_probs, rtol=4e-13, atol=0)
        for mode, ref in zip(modes, ref_modes, strict=True):
            assert np.abs(mode - ref).max() <= 2.5e-12

    @pytest.mark.parametrize("p", [CHECK_POINT, STRONG_POINT], ids=["check", "strong"])
    def test_cat_matches_expm(self, p):
        pg, vg, pe, ve = fock.run_cat_record(p, 3, cutoff=40)
        vector, _ = expm_evolve(expm_props(p, 40, fock.CAT_CYCLE) * 3,
                                np.concatenate([coherent_column(0j, 40), np.zeros(40)]))
        for qubit, (prob, mode) in enumerate(((pg, vg), (pe, ve))):
            block = vector.reshape(2, -1)[qubit]
            ref_prob = np.vdot(block, block).real
            assert prob == pytest.approx(ref_prob, rel=1e-12, abs=0)
            assert np.abs(mode - block / math.sqrt(ref_prob)).max() <= 2.5e-12

    def test_gate_reads_the_same_population_in_the_dressed_frame(self):
        # n = 10 at cutoff 40 puts a tail of about 4e-80 in the top levels.
        # The same dressed blocks applied as bare 2N matrices give the
        # dressed-frame reading within 1.8e-15 relative.  Against
        # expm the reading is 6.5e-4 low, in both forms: eigendecomposed
        # blocks carry a 1e-80 tail to that precision only, while expm agrees
        # with a 40-digit mpmath exponential of the blocks within 1e-11.
        p, n, cutoff = CHECK_POINT, 10, 40
        _, _, leak = fock.walk_prefixes(p, n, cutoff=cutoff)
        bare = [bare_propagator(U) for U in fock._cycle_propagators(fock.WALK_CYCLE, p, cutoff)]
        mode, bare_leak = coherent_column(0j, cutoff), 0.0
        for _ in range(n):
            vector, cycle_leak = expm_evolve(bare, np.concatenate([mode, np.zeros(cutoff)]))
            bare_leak = max(bare_leak, cycle_leak)
            mode = vector[:cutoff] / np.linalg.norm(vector[:cutoff])
        assert leak == pytest.approx(bare_leak, rel=1e-10, abs=0)
        _, _, expm_leak = expm_walk(p, n, cutoff)
        assert leak == pytest.approx(expm_leak, rel=1e-3, abs=0)
        assert 1e-80 < leak <= fock.LEAKAGE_MAX


class TestCatEquivalence:
    def test_conditioned_cat_matches_contract(self):
        # The two-component contract state (relative minus sign) is what the
        # excited-outcome projection produces; the ground outcome carries the
        # orthogonal plus combination.
        pp = derive_protocol(CHECK_POINT, 5)
        contract = ProtocolParams(pp.l1, pp.l2, pp.phi, 5)
        rho, prob = cat_density(contract)
        pg, vg, pe, ve = fock.run_cat_record(CHECK_POINT, 5)
        assert pg + pe == pytest.approx(1.0, abs=1e-10)
        assert fock.fidelity(ve, rho) >= 1 - 1e-5
        assert fock.fidelity(vg, rho) < 1e-2
        assert prob == pytest.approx(pe, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_success_probability_is_the_excited_outcome(self, n):
        # the closed-form probability of the conditioning measurement is that
        # of the outcome the Fock model labels excited (gaps 4.7e-9, 4.1e-8
        # and 1.05e-7 at n = 1, 3, 5); decay 0 leaves the cross weights whole
        pp = derive_protocol(CHECK_POINT, n)
        contract = ProtocolParams(pp.l1, pp.l2, pp.phi, n)
        _, _, pe, _ = fock.run_cat_record(CHECK_POINT, n)
        _, prob = cat_density(contract, cross_suppression=math.exp(-0.0))
        assert prob == pytest.approx(pe, abs=1e-6)


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


def mean_a(mode):
    """<a> of a normalized Fock-basis mode."""
    return complex(np.vdot(mode, fock.destroy(len(mode)) @ mode))


class TestUnreducedDrift:
    """The unreduced model drifts from the reduced one by about eta per
    cycle at FULL_POINT (cutoff 80).  Its coupling g|e><e|(a + a^dag) holds
    a qubit-independent force (g/2)(a + a^dag); the drive keeps the excited
    population near 1/2 on the drive-on half period only, so the push is
    resonant.  Measured for n = 1..10: Delta<a>/(n eta) = 0.9743-0.9752 +
    0.0084i, and 1 - F between the two models 9.6e-5 to 9.7e-3."""

    CUTOFF = 80

    def test_drift_of_eta_per_cycle(self):
        _, reduced, _ = fock.walk_prefixes(FULL_POINT, 10, cutoff=self.CUTOFF)
        _, full, _ = fock.walk_prefixes(FULL_POINT, 10, cutoff=self.CUTOFF, hamiltonian="full")
        for n in range(1, 11):
            drift = (mean_a(full[n]) - mean_a(reduced[n])) / (n * FULL_POINT.eta)
            assert 0.97 <= drift.real <= 0.98
            assert abs(drift.imag) <= 0.02

    def shifted_walk(self, n, on, off):
        """The unreduced walk with on (off) times (eta/2)(a + a^dag)
        subtracted from its drive-on (drive-off) Hamiltonian: its mode after
        n cycles, from scipy's expm."""
        from scipy.linalg import expm

        p, cutoff = FULL_POINT, self.CUTOFF
        a = fock.destroy(cutoff)
        force = (p.eta / 2) * np.kron(np.eye(2), a + a.conj().T)
        props = [expm(-1j * t * (fock.build_full_hamiltonian(p, cutoff, o1, o2) - s * force))
                 for (t, o1, o2), s in zip(fock.WALK_CYCLE, (on, off), strict=True)]
        mode = coherent_column(0j, cutoff)
        for _ in range(n):
            vector, _ = expm_evolve(props, np.concatenate([mode, np.zeros(cutoff)]))
            mode = vector[:cutoff] / np.linalg.norm(vector[:cutoff])
        return mode

    def test_drift_is_the_mean_force_on_the_drive_on_half(self):
        # n = 4: the drift is 0.0390; less the force on the drive-on half it
        # is 0.0011, and less it on both halves, a whole period of constant
        # force, 0.0390 again
        _, reduced, _ = fock.walk_prefixes(FULL_POINT, 4, cutoff=self.CUTOFF)
        target = mean_a(reduced[4])
        drift = abs(mean_a(self.shifted_walk(4, 0, 0)) - target)
        on_half = abs(mean_a(self.shifted_walk(4, 1, 0)) - target)
        both = abs(mean_a(self.shifted_walk(4, 1, 1)) - target)
        assert drift == pytest.approx(0.0390, abs=5e-4)
        assert on_half < drift / 10
        assert abs(both - drift) < 0.01 * drift
