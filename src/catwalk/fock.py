"""Independent truncated-Fock-space simulator for cross-checking the closed forms.

The joint qubit-mode state is a plain 2N-element numpy vector, qubit-major:
index q*N + k holds qubit level q (0 = ground, 1 = excited) and Fock level k.
A protocol is one cycle of piecewise-constant (duration, Omega1 on, Omega2
on) segments, ``WALK_CYCLE`` or ``CAT_CYCLE``, repeated.  Each segment is
evolved by the exact matrix exponential of its Hamiltonian (via
eigendecomposition), so there is no integrator tolerance to tune; accuracy
is limited only by the Fock cutoff, which a leakage gate checks after every
segment (``evolve``).  A reduced Hamiltonian is block diagonal in the dressed
qubit basis (|g> +- |e>)/sqrt(2), so its exponential is taken from N x N
blocks; the unreduced one is a single 2N x 2N block.  A cycle's propagators
are built once per run, and ``project`` conditions on a qubit outcome.

The drive-frame Hamiltonian with both drives on is

    H/hbar = omega a^dag a + Omega1' sx - Omega2 * eta * sx * i(a^dag - a)
             - Omega1 eta^2 sx a^dag a,
    Omega1' = Omega1 (1 - eta^2/2),  eta = g/omega,  sx = |e><g| + |g><e|.

The sign of the weak-drive term is the orientation of the closed-form
recursion of :mod:`catwalk.protocol` and of the unreduced model below; the
opposite sign gives the walk mirrored through the phase-space origin.

``build_full_hamiltonian`` exposes the unreduced drive-frame Hamiltonian

    H/hbar = omega a^dag a + Omega1 sx + Omega2 i(s+ - s-) + g |e><e|(a + a^dag)

for a looser end-to-end check.  That comparison is only meaningful when
Omega1/omega is an integer, so that the strong drive completes whole
rotations between measurements and the bare qubit basis coincides with the
measurement basis at projection times.

The closed forms enter as a ``DyadEnsemble`` (a pure state as its
``projector``): ``fidelity`` reads <v|rho|v> in the Fock basis, and the walk
comparison reads the densities ``walk`` writes, one ``walk_density_steps`` pass.
"""

import math
from dataclasses import replace

import numpy as np

from .algebra import SuperposedState
from .dephasing import DyadEnsemble, projector, walk_density_steps
from .errors import CutoffTooSmall, ZeroProbabilityOutcome
from .protocol import PhysicalParams, derive_protocol

DEFAULT_CUTOFF = 80
LEAKAGE_LEVELS = 5
LEAKAGE_MAX = 1e-8
EXPANSION_LEAKAGE_MAX = 1e-8
# Largest memory the dense propagators of one run may take (see propagator_bytes).
PROPAGATOR_BUDGET_BYTES = 64 * 2**20

# One cycle as (duration, Omega1 on, Omega2 on) segments, durations in units
# of 1/omega (half a period is pi).  The walk pulses both drives for half a
# period and leaves the mode free for the other half; the cat keeps the
# strong drive on throughout and pulses the weak one.
WALK_CYCLE = ((math.pi, True, True), (math.pi, False, False))
CAT_CYCLE = ((math.pi, True, True), (math.pi, True, False))

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on the truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def coherent_fock_vector(alpha: complex, cutoff: int, phase: float = 0.0) -> np.ndarray:
    """Fock amplitudes of e^{i phase}|alpha>, computed by a stable recurrence."""
    v = np.empty(cutoff, dtype=complex)
    term = math.exp(-abs(alpha) ** 2 / 2.0)
    for k in range(cutoff):
        v[k] = term
        term = term * alpha / math.sqrt(k + 1)
    return v * np.exp(1j * phase)


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(k >= cutoff) for k ~ Poisson(mean): the regularized lower incomplete
    gamma function P(cutoff, mean).

    The terms are summed in log space from the cutoff away from the mode of
    the distribution, where they shrink monotonically: upward when
    mean < cutoff, otherwise downward over k < cutoff and subtracted from 1.
    """
    if mean <= 0.0 or cutoff <= 0:
        return float(cutoff <= 0)
    log_mean = math.log(mean)
    upward = mean < cutoff
    k = cutoff if upward else cutoff - 1
    log_term = k * log_mean - mean - math.lgamma(k + 1)
    total = 0.0
    while True:
        term = math.exp(log_term)
        total += term
        if term <= 1e-17 * total:
            break
        if upward:
            k += 1
            log_term += log_mean - math.log(k)
        elif k == 0:
            break
        else:
            log_term += math.log(k) - log_mean
            k -= 1
    return total if upward else 1.0 - total


def _fock_columns(rho: DyadEnsemble, cutoff: int) -> np.ndarray:
    """The Fock columns e^{i theta_j}|alpha_j> of rho's labels, (cutoff, m).

    CutoffTooSmall when the rigorous truncation bound sum_jk |w_jk| t_j t_k,
    t_j^2 = poisson_tail(|alpha_j|^2, cutoff), exceeds EXPANSION_LEAKAGE_MAX;
    for a rank-1 rho it is (sum_j |c_j| t_j)^2.  The bound is used, not the
    expansion's trace deficit, because the large cancelling weights of
    strongly post-selected states would make float noise look like leakage.
    """
    columns = np.empty((cutoff, len(rho.amplitudes)), dtype=complex)
    tails = np.empty(len(rho.amplitudes))
    for j, (alpha, theta) in enumerate(zip(rho.amplitudes.tolist(), rho.phases.tolist())):
        columns[:, j] = coherent_fock_vector(alpha, cutoff, theta)
        tails[j] = math.sqrt(poisson_tail(abs(alpha) ** 2, cutoff))
    leak = float(tails @ np.abs(rho.weights) @ tails)
    if leak > EXPANSION_LEAKAGE_MAX:
        raise CutoffTooSmall(
            f"closed-form expansion leaks up to {leak:.3e} past cutoff {cutoff}"
        )
    return columns


def superposed_fock_vector(state: SuperposedState, cutoff: int) -> np.ndarray:
    """Expand a coherent superposition in the Fock basis (unit norm),
    through the columns and the leakage gate of its ``projector``."""
    v = _fock_columns(projector(state), cutoff) @ state.coefficients
    return v / np.linalg.norm(v)


def build_heff(
    p: PhysicalParams,
    cutoff: int = DEFAULT_CUTOFF,
    omega1_on: bool = True,
    omega2_on: bool = True,
) -> np.ndarray:
    """Reduced drive-frame Hamiltonian (divided by hbar*omega) as a dense matrix.

    With both drives off this is just the free mode, a^dag a.  The returned
    matrix is Hermitian to machine precision and block-diagonal in the
    dressed qubit basis (|g> +- |e>)/sqrt(2): each block is a displaced,
    frequency-shifted oscillator.
    """
    a = destroy(cutoff)
    nop = (a.conj().T @ a).real.astype(complex)
    H = np.kron(_I2, nop)
    eta = p.eta
    if omega1_on:
        o1 = p.Omega1 / p.omega
        H = H + o1 * (1 - eta**2 / 2) * np.kron(_SX, np.eye(cutoff, dtype=complex))
        H = H - o1 * eta**2 * np.kron(_SX, nop)
    if omega2_on:
        o2 = p.Omega2 / p.omega
        H = H - o2 * eta * np.kron(_SX, 1j * (a.conj().T - a))
    return H


def build_full_hamiltonian(
    p: PhysicalParams,
    cutoff: int = DEFAULT_CUTOFF,
    omega1_on: bool = True,
    omega2_on: bool = True,
) -> np.ndarray:
    """Unreduced drive-frame Hamiltonian (divided by hbar*omega)."""
    a = destroy(cutoff)
    nop = (a.conj().T @ a).real.astype(complex)
    eye = np.eye(cutoff, dtype=complex)
    proj_e = np.diag([0.0, 1.0]).astype(complex)
    H = np.kron(_I2, nop) + (p.g / p.omega) * np.kron(proj_e, a + a.conj().T)
    if omega1_on:
        H = H + (p.Omega1 / p.omega) * np.kron(_SX, eye)
    if omega2_on:
        drive2 = np.array([[0.0, -1j], [1j, 0.0]])  # i(s+ - s-) in (g, e) order
        H = H + (p.Omega2 / p.omega) * np.kron(drive2, eye)
    return H


def _exp_hermitian(H: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via one eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * duration)) @ V.conj().T


def _propagator(H: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) for a Hermitian 2N x 2N H, block by block (t in 1/omega
    units, H in omega units).

    When H = [[A, B], [B, A]] exactly, as every reduced Hamiltonian is, H is
    block diagonal in the dressed qubit basis (|g> +- |e>)/sqrt(2) and
    exp(-i H t) = 1/2 [[P+ + P-, P+ - P-], [P+ - P-, P+ + P-]] with
    P+- = exp(-i (A +- B) t): two N x N eigendecompositions, one when B = 0.
    Any other H, the unreduced one, is a single block and takes one 2N x 2N
    eigendecomposition.
    """
    n = len(H) // 2
    A, B = H[:n, :n], H[:n, n:]
    if not (np.array_equal(A, H[n:, n:]) and np.array_equal(B, H[n:, :n])):
        return _exp_hermitian(H, duration)
    plus = _exp_hermitian(A + B, duration)
    minus = _exp_hermitian(A - B, duration) if B.any() else plus
    even, odd = (plus + minus) / 2, (plus - minus) / 2
    return np.block([[even, odd], [odd, even]])


def propagator_bytes(cutoff: int) -> int:
    """Memory of the two dense 2N x 2N complex propagators a cycle stores
    (N = cutoff).  This counts the stored propagators, not the peak of
    building them: tracemalloc reads that peak at 1.9x this count for the
    reduced model (cutoff 400 and 724) and 3.0x for the unreduced one
    (cutoff 400)."""
    return 2 * (2 * cutoff) ** 2 * np.dtype(complex).itemsize


def _cycle_propagators(
    cycle, p: PhysicalParams, cutoff: int, hamiltonian: str = "reduced"
) -> list:
    """The propagator of each (duration, Omega1 on, Omega2 on) segment of a
    cycle, in order; ``hamiltonian`` selects "reduced" (the dressed-frame
    model) or "full" (the unreduced drive-frame model)."""
    if hamiltonian not in ("reduced", "full"):
        raise ValueError("hamiltonian must be 'reduced' or 'full'")
    build = build_heff if hamiltonian == "reduced" else build_full_hamiltonian
    return [_propagator(build(p, cutoff, o1, o2), duration)
            for duration, o1, o2 in cycle]


def evolve(propagators, vector: np.ndarray):
    """Apply the propagators in order to a qubit-major 2N vector, checking
    the leakage gate after each: CutoffTooSmall when the population of the
    top LEAKAGE_LEVELS Fock levels of either qubit block exceeds LEAKAGE_MAX.

    Returns (vector, largest leakage seen after any segment).
    """
    leak_max = 0.0
    for U in propagators:
        vector = U @ vector
        leak = float(np.sum(np.abs(vector.reshape(2, -1)[:, -LEAKAGE_LEVELS:]) ** 2))
        if leak > LEAKAGE_MAX:
            raise CutoffTooSmall(
                f"{leak:.3e} of the population sits in the top "
                f"{LEAKAGE_LEVELS} Fock levels; increase the cutoff"
            )
        leak_max = max(leak_max, leak)
    return vector, leak_max


def _ground(mode: np.ndarray) -> np.ndarray:
    """The qubit-major 2N vector of the qubit in |g> and the mode in ``mode``."""
    return np.concatenate([mode, np.zeros_like(mode)])


def project(vector: np.ndarray, qubit: int):
    """Project a qubit-major 2N vector on qubit level ``qubit`` (0 = ground,
    1 = excited); return (probability, normalized mode amplitudes)."""
    block = vector.reshape(2, -1)[qubit]
    prob = float(np.vdot(block, block).real)
    if prob < 1e-14:
        raise ZeroProbabilityOutcome(
            f"outcome '{('ground', 'excited')[qubit]}' has probability {prob:.3e}"
        )
    return prob, block / math.sqrt(prob)


def fidelity(mode_amplitudes: np.ndarray, rho: DyadEnsemble) -> float:
    """<v|rho|v> for a Fock-basis vector v, with rho expanded in the Fock
    basis of len(v) levels, C W C^dag (``_fock_columns``), and renormalized
    there by its truncated trace Tr(W C^dag C).  For a ``projector`` this is
    |<psi|v>|^2 against ``superposed_fock_vector``."""
    v = np.asarray(mode_amplitudes, dtype=complex)
    C = _fock_columns(rho, len(v))
    u = C.conj().T @ v  # <label_j|v> in the truncated space
    truncated_trace = np.sum(rho.weights * (C.conj().T @ C).T).real
    return float((u.conj() @ rho.weights @ u).real / truncated_trace)


def walk_prefixes(
    p: PhysicalParams,
    n: int,
    alpha0: complex = 0j,
    cutoff: int = DEFAULT_CUTOFF,
    hamiltonian: str = "reduced",
):
    """Evolve n pulse pairs once, projecting the qubit on the ground state
    each cycle, and keep the state after every cycle.

    The drive-on and drive-off propagators are built once and applied cycle
    after cycle, so the whole walk costs three N x N eigendecompositions
    (two 2N x 2N for the unreduced model) whatever n is.  The leakage gate
    is checked after every segment.  The state after k cycles comes from
    exactly the operations of a k-cycle walk, so every prefix is bit for bit
    what a separate k-cycle run returns.

    Returns (per-cycle ground probabilities, normalized mode amplitudes after
    k = 0..n cycles, largest leakage seen after any segment).
    """
    props = _cycle_propagators(WALK_CYCLE, p, cutoff, hamiltonian)
    mode = coherent_fock_vector(alpha0, cutoff)
    probs, modes, leak_max = [], [mode], 0.0
    for _ in range(n):
        vector, leak = evolve(props, _ground(mode))
        leak_max = max(leak_max, leak)
        prob, mode = project(vector, 0)
        probs.append(prob)
        modes.append(mode)
    return probs, modes, leak_max


def run_cat_record(
    p: PhysicalParams,
    n: int,
    cutoff: int = DEFAULT_CUTOFF,
):
    """Evolve n cat cycles from the vacuum with the qubit in |g>, the
    leakage gate checked after every segment, and project once at the end.

    Returns (ground probability, ground-conditioned mode amplitudes,
    excited probability, excited-conditioned mode amplitudes).
    """
    props = _cycle_propagators(CAT_CYCLE, p, cutoff)
    vector, _ = evolve(props * n, _ground(coherent_fock_vector(0j, cutoff)))
    pg, vg = project(vector, 0)
    pe, ve = project(vector, 1)
    return pg, vg, pe, ve


def closed_form_walk_fidelity(
    p: PhysicalParams,
    n: int,
    alpha0: complex = 0j,
    cutoff: int = DEFAULT_CUTOFF,
    hamiltonian: str = "reduced",
):
    """Fidelity of the closed-form walk state against direct matrix evolution.

    Protocol knobs are derived from the same physical parameters, so the
    comparison probes only the second-order reduction error and the cutoff.
    Returns (fidelity after n cycles, per-cycle ground probabilities): the
    last entry of ``closed_form_walk_fidelities``.  ValueError for n < 1.
    """
    fids, probs, _ = closed_form_walk_fidelities(p, n, alpha0, cutoff, hamiltonian)
    return fids[-1], probs


def closed_form_walk_fidelities(
    p: PhysicalParams,
    n: int,
    alpha0: complex = 0j,
    cutoff: int = DEFAULT_CUTOFF,
    hamiltonian: str = "reduced",
):
    """Fidelity of the closed-form walk state against the matrix evolution
    for every k = 1..n: the modes of one n-cycle ``walk_prefixes`` pass
    against the densities of one ``walk_density_steps`` pass, step k being
    what a k-cycle ``walk`` run writes.  The matrix evolution has no decay,
    so the densities are those of xi = 0 whatever p.Gamma is.

    Returns (fidelities, per-cycle ground probabilities, largest per-segment
    leakage).  ValueError for n < 1, where there is nothing to compare.
    """
    if n < 1:
        raise ValueError(f"the walk comparison needs n >= 1; got {n}")
    probs, modes, leak_max = walk_prefixes(p, n, alpha0, cutoff, hamiltonian)
    steps = walk_density_steps(replace(derive_protocol(p, n, alpha0), xi=0.0))
    next(steps)  # step 0, the initial |alpha0><alpha0|
    fids = [fidelity(modes[k], rho) for k, rho, _ in steps]
    return fids, probs, leak_max
