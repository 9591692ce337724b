"""Independent truncated-Fock-space simulator for cross-checking the closed forms.

The joint qubit-mode state is a plain 2N-element numpy vector in its model's
frame (``FRAMES``): index q*N + k holds frame qubit state q and frame Fock
level k.  The reduced Hamiltonian is exactly [[A, B], [B, A]] in the bare
(g, e) basis, so in its frame, the dressed basis (|g> +- |e>)/sqrt(2) with
level k taken as i^k|k>, each half evolves on its own under a real symmetric
block (``_dressed_blocks``); the unreduced model keeps the bare basis.  A
protocol is one cycle of (duration, Omega1 on, Omega2 on) segments,
``WALK_CYCLE`` or ``CAT_CYCLE``, repeated; its exact propagators are built
once per run, from two real N x N eigendecompositions with the weak drive on
and none without it (one complex 2N x 2N for the unreduced model).  Accuracy
is limited only by the Fock cutoff, which a leakage gate checks after every
segment (``evolve``).  The walk and the cat enter the frame at
``embed_ground`` and leave it at ``project``, on a bare qubit outcome.

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
import warnings

import numpy as np

from .algebra import DEGENERACY_CUTOFF, SuperposedState
from .dephasing import DyadEnsemble, check_unit, projector, walk_density_steps
from .errors import CutoffTooSmall, ZeroProbabilityOutcome
from .protocol import PhysicalParams, derive_protocol, kick_labels

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
# Each model's frame (Q, d): row q of the real orthogonal Q holds the frame
# coordinates of bare qubit level q, and frame Fock level k is i^{d k}|k>.
FRAMES = {"reduced": (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2), 1),
          "full": (np.eye(2), 0)}


def destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on the truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def _number(a: np.ndarray) -> np.ndarray:
    """The number operator a^dag a of a truncated ``destroy`` matrix, built
    from its diagonal s * s, s = sqrt(1..N-1): what the matmul computes, bit
    for bit."""
    s = a.diagonal(1).real
    return np.diag(np.concatenate(([0.0], s * s))).astype(complex)


def _qubit_major(gg, ge, eg, ee) -> np.ndarray:
    """The qubit-major 2N x 2N matrix [[gg, ge], [eg, ee]] of four N x N
    blocks, each copied into place."""
    n = len(gg)
    H = np.empty((2, n, 2, n), dtype=complex)
    H[0, :, 0], H[0, :, 1], H[1, :, 0], H[1, :, 1] = gg, ge, eg, ee
    return H.reshape(2 * n, 2 * n)


def coherent_fock_vector(alpha: complex, cutoff: int, phase: float = 0.0) -> np.ndarray:
    """Fock amplitudes of e^{i phase}|alpha>: the running product of
    e^{-|alpha|^2/2}, alpha/sqrt(1), ..., alpha/sqrt(cutoff - 1)."""
    factors = np.concatenate(([math.exp(-abs(alpha) ** 2 / 2.0)],
                              alpha / np.sqrt(np.arange(1, cutoff))))
    return np.cumprod(factors[:cutoff]) * np.exp(1j * phase)


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


def _expand(amplitudes: np.ndarray, phases: np.ndarray, cutoff: int) -> tuple:
    """(columns, tails) of the labels e^{i theta_j}|alpha_j>: their Fock
    columns, (cutoff, m), and t_j = sqrt(poisson_tail(|alpha_j|^2, cutoff))."""
    columns = np.empty((cutoff, len(amplitudes)), dtype=complex)
    tails = np.empty(len(amplitudes))
    for j, (alpha, theta) in enumerate(zip(amplitudes.tolist(), phases.tolist())):
        columns[:, j] = coherent_fock_vector(alpha, cutoff, theta)
        tails[j] = math.sqrt(poisson_tail(abs(alpha) ** 2, cutoff))
    return columns, tails


def _fock_columns(rho: DyadEnsemble, cutoff: int,
                  expansion: tuple | None = None) -> np.ndarray:
    """The Fock columns e^{i theta_j}|alpha_j> of rho's labels, (cutoff, m):
    ``expansion``, when the caller holds the ``_expand`` of rho's labels.

    CutoffTooSmall when the rigorous truncation bound sum_jk |w_jk| t_j t_k,
    t_j^2 = poisson_tail(|alpha_j|^2, cutoff), exceeds EXPANSION_LEAKAGE_MAX;
    for a rank-1 rho it is (sum_j |c_j| t_j)^2.  The bound is used, not the
    expansion's trace deficit, because the large cancelling weights of
    strongly post-selected states would make float noise look like leakage.
    """
    columns, tails = expansion or _expand(rho.amplitudes, rho.phases, cutoff)
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


def build_heff(p: PhysicalParams, cutoff: int = DEFAULT_CUTOFF, omega1_on: bool = True,
               omega2_on: bool = True) -> np.ndarray:
    """Reduced drive-frame Hamiltonian (divided by hbar*omega) as a dense
    matrix in the bare qubit and Fock bases.

    With both drives off this is just the free mode, a^dag a.  Otherwise it
    is exactly [[A, B], [B, A]] with A = a^dag a and B the qubit-flipping
    terms: each dressed block A +- B is a displaced, frequency-shifted
    oscillator, which the reduced model builds as ``_dressed_blocks``.
    """
    a = destroy(cutoff)
    nop = _number(a)
    flip = np.zeros_like(nop)
    eta = p.eta
    if omega1_on:
        o1 = p.Omega1 / p.omega
        flip = flip + o1 * (1 - eta**2 / 2) * np.eye(cutoff, dtype=complex)
        flip = flip - o1 * eta**2 * nop
    if omega2_on:
        o2 = p.Omega2 / p.omega
        flip = flip - o2 * eta * (1j * (a.conj().T - a))
    return _qubit_major(nop, flip, flip, nop)


def build_full_hamiltonian(
    p: PhysicalParams,
    cutoff: int = DEFAULT_CUTOFF,
    omega1_on: bool = True,
    omega2_on: bool = True,
) -> np.ndarray:
    """Unreduced drive-frame Hamiltonian (divided by hbar*omega)."""
    a = destroy(cutoff)
    nop = _number(a)
    eye = np.eye(cutoff, dtype=complex)
    # the qubit-flipping blocks <g|H|e> and <e|H|g>
    up, down = np.zeros_like(nop), np.zeros_like(nop)
    if omega1_on:
        o1 = p.Omega1 / p.omega
        up, down = up + o1 * eye, down + o1 * eye
    if omega2_on:  # i(s+ - s-)
        o2 = p.Omega2 / p.omega
        up, down = up + o2 * (-1j * eye), down + o2 * (1j * eye)
    return _qubit_major(nop, up, down, nop + (p.g / p.omega) * (a + a.conj().T))


def _propagator(H: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H from one eigendecomposition, a one-block stack."""
    w, V = np.linalg.eigh(H)
    return ((V * np.exp(-1j * w * duration)) @ V.conj().T)[None]


def _dressed_blocks(p: PhysicalParams, cutoff: int, omega1_on: bool,
                    omega2_on: bool) -> np.ndarray:
    """The reduced model's blocks in its frame, the real (2, N, N) stack
    R+- = D^dag (A +- B) D, D = diag(i^k), of ``build_heff``'s [[A, B], [B, A]],
    value for value: B's weak-drive term -Omega2 eta i(a^dag - a) becomes
    -Omega2 eta (a + a^dag), and with it off each block is diagonal."""
    s = np.sqrt(np.arange(1, cutoff, dtype=float))
    nop, flip, k = np.concatenate(([0.0], s * s)), 0.0, np.arange(cutoff)
    if omega1_on:
        o1 = p.Omega1 / p.omega
        flip = o1 * (1 - p.eta**2 / 2) - o1 * p.eta**2 * nop
    R = np.zeros((2, cutoff, cutoff))
    R[:, k, k] = nop + flip, nop - flip
    if omega2_on:
        off = (p.Omega2 / p.omega) * p.eta * s
        R[:, k[1:], k[:-1]] = R[:, k[:-1], k[1:]] = -off, off
    return R


def _dressed_propagator(p: PhysicalParams, cutoff: int, duration: float,
                        omega1_on: bool, omega2_on: bool) -> np.ndarray:
    """exp(-i R t) of each ``_dressed_blocks`` R, stacked: from its diagonal
    with the weak drive off, else from one real eigendecomposition
    R = V w V^T as Re = V cos(w t) V^T and Im = -V sin(w t) V^T."""
    R = _dressed_blocks(p, cutoff, omega1_on, omega2_on)
    U = np.zeros(R.shape, dtype=complex)
    for block, out in zip(R, U):
        if omega2_on:
            w, V = np.linalg.eigh(block)
            out.real = (V * np.cos(w * duration)) @ V.T
            out.imag = (V * -np.sin(w * duration)) @ V.T
        else:
            np.fill_diagonal(out, np.exp(-1j * np.diagonal(block) * duration))
    return U


def propagator_bytes(cutoff: int, hamiltonian: str) -> int:
    """Memory of the complex propagators a cycle stores (N = cutoff): two
    (2, N, N) stacks, 64 N^2 bytes, for the "reduced" model, two 2N x 2N,
    128 N^2, for the "full" one.  Under tracemalloc building them peaks at
    1.25x this count (reduced, cutoffs 400 to 1024) and 3.0x (full, 400 and
    724), walk and cat cycles alike."""
    return (64 if hamiltonian == "reduced" else 128) * cutoff**2


def _cycle_propagators(cycle, p: PhysicalParams, cutoff: int, hamiltonian: str = "reduced"):
    """The propagator of each (duration, Omega1 on, Omega2 on) segment of a
    cycle, in order, as a stack of blocks acting on consecutive slices of a
    state in the model's frame (``FRAMES``).  ``hamiltonian`` selects
    "reduced", whose stack is the two N x N blocks exp(-i R+- t) of its
    ``_dressed_blocks``, or "full", the unreduced drive-frame model, whose
    stack is its one 2N x 2N exponential."""
    if hamiltonian not in FRAMES:
        raise ValueError("hamiltonian must be 'reduced' or 'full'")
    if hamiltonian == "full":
        return [_propagator(build_full_hamiltonian(p, cutoff, o1, o2), duration)
                for duration, o1, o2 in cycle]
    return [_dressed_propagator(p, cutoff, duration, o1, o2) for duration, o1, o2 in cycle]


def evolve(propagators, vector: np.ndarray):
    """Apply the propagators in order to a 2N vector in their model's frame,
    checking the leakage gate after each: CutoffTooSmall when the top
    LEAKAGE_LEVELS Fock levels of both halves hold more than LEAKAGE_MAX, a
    population that is the same in any frame of ``FRAMES``.

    Returns (vector, largest leakage seen after any segment).
    """
    leak_max = 0.0
    for U in propagators:
        vector = (U @ vector.reshape(len(U), -1, 1)).ravel()
        leak = float(np.sum(np.abs(vector.reshape(2, -1)[:, -LEAKAGE_LEVELS:]) ** 2))
        if leak > LEAKAGE_MAX:
            raise CutoffTooSmall(
                f"{leak:.3e} of the population sits in the top "
                f"{LEAKAGE_LEVELS} Fock levels; increase the cutoff"
            )
        leak_max = max(leak_max, leak)
    return vector, leak_max


def _gauge(mode: np.ndarray, d: int) -> np.ndarray:
    """mode with level k times i^{d k}, exactly: 1, i, -1 and -i only swap
    and negate components."""
    return mode * np.array([1, 1j, -1, -1j])[d * np.arange(len(mode)) % 4] if d % 4 else mode


def embed_ground(mode: np.ndarray, frame: tuple) -> np.ndarray:
    """The 2N vector of |g>|mode>, mode in the bare Fock basis, in ``frame``."""
    return np.kron(frame[0][0], _gauge(mode, -frame[1]))


def project(vector: np.ndarray, qubit: int, frame: tuple):
    """Project a 2N vector in ``frame`` on bare qubit level ``qubit``
    (0 = ground, 1 = excited); return (probability, normalized mode
    amplitudes in the bare Fock basis)."""
    block = _gauge(frame[0][qubit] @ vector.reshape(2, -1), frame[1])
    prob = float(np.vdot(block, block).real)
    if prob < DEGENERACY_CUTOFF:
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
    return _fidelity(v, rho, _fock_columns(rho, len(v)))


def _fidelity(v: np.ndarray, rho: DyadEnsemble, C: np.ndarray) -> float:
    """``fidelity`` with the Fock columns C of rho's labels given."""
    u = C.conj().T @ v  # <label_j|v> in the truncated space
    truncated_trace = np.sum(rho.weights * (C.conj().T @ C).T).real
    return float((u.conj() @ rho.weights @ u).real / truncated_trace)


def walk_prefixes(p: PhysicalParams, n: int, alpha0: complex = 0j,
                  cutoff: int = DEFAULT_CUTOFF, hamiltonian: str = "reduced"):
    """Evolve n pulse pairs once, projecting the qubit on the ground state
    each cycle, and keep the state after every cycle.

    The drive-on and drive-off propagators are built once and applied cycle
    after cycle, so the whole walk costs two real N x N eigendecompositions
    (two complex 2N x 2N for the unreduced model), whatever n is.  Each cycle
    enters the frame at ``embed_ground`` and leaves it at ``project``, and
    the leakage gate is checked after every segment.  The state after k
    cycles comes from exactly the operations of a k-cycle walk, so every
    prefix is bit for bit what a separate k-cycle run returns.

    Returns (per-cycle ground probabilities, normalized mode amplitudes after
    k = 0..n cycles, largest leakage seen after any segment).
    """
    props = _cycle_propagators(WALK_CYCLE, p, cutoff, hamiltonian)
    frame = FRAMES[hamiltonian]
    mode = coherent_fock_vector(alpha0, cutoff)
    probs, modes, leak_max = [], [mode], 0.0
    for _ in range(n):
        vector, leak = evolve(props, embed_ground(mode, frame))
        leak_max = max(leak_max, leak)
        prob, mode = project(vector, 0, frame)
        probs.append(prob)
        modes.append(mode)
    return probs, modes, leak_max


def run_cat_record(p: PhysicalParams, n: int, cutoff: int = DEFAULT_CUTOFF):
    """Evolve n cat cycles from the vacuum with the qubit in |g>, the
    leakage gate checked after every segment, and project once at the end.

    Returns (ground probability, ground-conditioned mode amplitudes,
    excited probability, excited-conditioned mode amplitudes).
    """
    props = _cycle_propagators(CAT_CYCLE, p, cutoff)
    frame = FRAMES["reduced"]
    vector, _ = evolve(props * n, embed_ground(coherent_fock_vector(0j, cutoff), frame))
    pg, vg = project(vector, 0, frame)
    pe, ve = project(vector, 1, frame)
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
    so the densities are the undamped ones (cross suppression 1).

    Returns (fidelities, per-cycle ground probabilities, largest per-segment
    leakage).  ValueError for n < 1, where there is nothing to compare, and
    DegenerateState at the first fidelity that leaves [0, 1] by more than
    the rounding margin of ``check_unit``.  The unreduced comparison warns
    when Omega1/omega lies more than 1e-9 from an integer: it then compares
    different states (see the module docstring).
    """
    if n < 1:
        raise ValueError(f"the walk comparison needs n >= 1; got {n}")
    turns = p.Omega1 / p.omega
    if hamiltonian == "full" and abs(turns - round(turns)) > 1e-9:
        warnings.warn(f"the unreduced comparison needs an integer Omega1/omega, not "
                      f"{turns:.9g}: its fidelities do not test the closed form", stacklevel=2)
    probs, modes, leak_max = walk_prefixes(p, n, alpha0, cutoff, hamiltonian)
    pp = derive_protocol(p, n, alpha0)
    # Step k's rows are the kick labels j = -k..k in steps of 2, slices of
    # pp's kick table: each of its 2n + 1 labels is expanded once, and every
    # step reads a contiguous copy of its slice, the layout _expand gives,
    # under its own leakage gate.  The densities stream: one step's is read
    # at a time, where all n + 1 would hold about 32 n**3 / 3 bytes.
    columns, tails = _expand(*kick_labels(pp.l1, pp.l2, pp.alpha0, n), cutoff)
    steps = walk_density_steps(pp)
    next(steps)  # step 0, the start, has no Fock prefix to compare
    fids = []
    for (k, rho, _), mode in zip(steps, modes[1:]):
        rows = slice(n - k, n + k + 1, 2)
        expansion = np.ascontiguousarray(columns[:, rows]), np.ascontiguousarray(tails[rows])
        fids.append(_fidelity(mode, rho, _fock_columns(rho, cutoff, expansion)))
        check_unit(f"the fidelity at n = {k}", fids[-1])
    return fids, probs, leak_max
