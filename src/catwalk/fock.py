"""Independent truncated-Fock-space simulator for cross-checking the closed forms.

The joint qubit-mode state lives in a 2N-dimensional space, qubit-major:
index q*N + k holds qubit level q (0 = ground, 1 = excited) and Fock level k.
Piecewise-constant drive segments are evolved by the exact matrix exponential
of the segment Hamiltonian (via eigendecomposition), so there is no
integrator tolerance to tune; accuracy is limited only by the Fock cutoff,
which a leakage gate enforces.

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
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SuperposedState, normalize
from .errors import CutoffTooSmall, ZeroProbabilityOutcome
from .protocol import PhysicalParams, derive_protocol, walk_state

DEFAULT_CUTOFF = 80
LEAKAGE_LEVELS = 5
LEAKAGE_MAX = 1e-8
EXPANSION_LEAKAGE_MAX = 1e-8
# Largest memory the dense propagators of one run may take (see propagator_bytes).
PROPAGATOR_BUDGET_BYTES = 64 * 2**20

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


def superposed_fock_vector(state: SuperposedState, cutoff: int) -> np.ndarray:
    """Expand a coherent superposition in the Fock basis (unit norm).

    The truncation error is bounded rigorously per component by the Poisson
    tail sum_{k >= cutoff} e^{-|a|^2} |a|^{2k} / k!; CutoffTooSmall is raised
    when the bound exceeds 1e-8.  The bound is used (rather than the norm
    deficit of the expansion itself) because strongly post-selected states
    have large cancelling coefficients whose float noise would otherwise
    masquerade as leakage; the returned vector is renormalized for the same
    reason.
    """
    if not state.normalized:
        state = normalize(state)
    v = np.zeros(cutoff, dtype=complex)
    tail_amp = 0.0
    for c, lab in state.components:
        v += c * coherent_fock_vector(lab.amplitude, cutoff, lab.phase)
        tail_amp += abs(c) * math.sqrt(poisson_tail(abs(lab.amplitude) ** 2, cutoff))
    if tail_amp**2 > EXPANSION_LEAKAGE_MAX:
        raise CutoffTooSmall(
            f"closed-form expansion leaks up to {tail_amp**2:.3e} past cutoff "
            f"{cutoff}"
        )
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class FockStateVector:
    """Joint qubit-mode vector, qubit-major: block 0 = ground, block 1 = excited."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2 * self.cutoff,):
            raise ValueError("amplitudes must have shape (2*cutoff,)")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def ground_coherent(cls, alpha: complex, cutoff: int) -> "FockStateVector":
        amp = np.zeros(2 * cutoff, dtype=complex)
        amp[:cutoff] = coherent_fock_vector(alpha, cutoff)
        return cls(cutoff, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def leakage(self) -> float:
        """Probability in the top few Fock levels of either qubit block."""
        a = self.amplitudes.reshape(2, self.cutoff)
        return float(np.sum(np.abs(a[:, -LEAKAGE_LEVELS:]) ** 2))

    def check_leakage(self) -> float:
        """Raise CutoffTooSmall past the gate; otherwise return the leakage."""
        leak = self.leakage()
        if leak > LEAKAGE_MAX:
            raise CutoffTooSmall(
                f"{leak:.3e} of the population sits in the top "
                f"{LEAKAGE_LEVELS} Fock levels; increase the cutoff"
            )
        return leak


@dataclass(frozen=True)
class PulseSchedule:
    """Sequence of (duration, Omega1_on, Omega2_on) segments.

    Durations are in units of 1/omega, so the protocol's half period is
    pi.  Segments are piecewise constant; arbitrary sequences are allowed.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(
            (float(d), bool(o1), bool(o2)) for d, o1, o2 in self.segments
        )
        if any(d < 0 for d, _, _ in segs):
            raise ValueError("segment durations must be non-negative")
        object.__setattr__(self, "segments", segs)


def walk_schedule(n: int) -> PulseSchedule:
    """n pulse pairs: both drives on for half a period, both off for the other half."""
    return PulseSchedule(((math.pi, True, True), (math.pi, False, False)) * n)


def cat_schedule(n: int) -> PulseSchedule:
    """n periods with the strong drive always on and the weak drive pulsed."""
    return PulseSchedule(((math.pi, True, True), (math.pi, True, False)) * n)


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


def _propagator(H: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition (t in 1/omega units,
    H in omega units)."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * duration)) @ V.conj().T


def propagator_bytes(cutoff: int) -> int:
    """Memory of the two dense 2N x 2N complex propagators a periodic
    schedule holds (N = cutoff)."""
    return 2 * (2 * cutoff) ** 2 * np.dtype(complex).itemsize


def _segment_propagators(
    segments, p: PhysicalParams, cutoff: int, hamiltonian: str
) -> dict:
    """One propagator per distinct (duration, Omega1_on, Omega2_on) segment."""
    if hamiltonian not in ("reduced", "full"):
        raise ValueError("hamiltonian must be 'reduced' or 'full'")
    props = {}
    for key in segments:
        if key not in props:
            duration, o1, o2 = key
            if hamiltonian == "reduced":
                H = build_heff(p, cutoff, o1, o2)
            else:
                H = build_full_hamiltonian(p, cutoff, o1, o2)
            props[key] = _propagator(H, duration)
    return props


def _apply_segments(props: dict, segments, amp: np.ndarray, cutoff: int):
    """Apply the segments in order, checking the leakage gate after each.

    Returns (amplitudes, largest leakage seen after any segment).
    """
    leak_max = 0.0
    for key in segments:
        amp = props[key] @ amp
        leak_max = max(leak_max, FockStateVector(cutoff, amp).check_leakage())
    return amp, leak_max


def evolve(
    state: FockStateVector,
    schedule: PulseSchedule,
    p: PhysicalParams,
    hamiltonian: str = "reduced",
) -> FockStateVector:
    """Evolve through a schedule, segment by segment.

    ``hamiltonian`` selects "reduced" (the dressed-frame model) or "full"
    (the unreduced drive-frame model).
    One propagator is built per distinct segment configuration of the
    schedule, so a periodic schedule costs two eigendecompositions per call.
    The leakage gate is checked after every segment.
    """
    props = _segment_propagators(
        schedule.segments, p, state.cutoff, hamiltonian
    )
    amp, _ = _apply_segments(props, schedule.segments, state.amplitudes, state.cutoff)
    return FockStateVector(state.cutoff, amp)


def project_and_extract(state: FockStateVector, outcome: str = "ground"):
    """Project the qubit and return (probability, normalized mode amplitudes)."""
    if outcome not in ("ground", "excited"):
        raise ValueError("outcome must be 'ground' or 'excited'")
    block = state.amplitudes.reshape(2, state.cutoff)[0 if outcome == "ground" else 1]
    prob = float(np.vdot(block, block).real)
    if prob < 1e-14:
        raise ZeroProbabilityOutcome(
            f"outcome '{outcome}' has probability {prob:.3e}"
        )
    return prob, block / math.sqrt(prob)


def fidelity(mode_amplitudes: np.ndarray, closed: SuperposedState) -> float:
    """|<closed|mode>|^2 between a Fock-basis vector and a coherent superposition."""
    v = np.asarray(mode_amplitudes, dtype=complex)
    w = superposed_fock_vector(closed, len(v))
    return float(abs(np.vdot(w, v)) ** 2)


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
    after cycle, so the whole walk costs two eigendecompositions whatever n
    is.  The leakage gate is checked after every segment.  The state after
    k cycles comes from exactly the operations of a k-cycle walk, so every
    prefix is bit for bit what a separate k-cycle run returns.

    Returns (per-cycle ground probabilities, normalized mode amplitudes after
    k = 0..n cycles, largest leakage seen after any segment).
    """
    cycle = walk_schedule(1).segments
    props = _segment_propagators(cycle, p, cutoff, hamiltonian)
    amp = FockStateVector.ground_coherent(alpha0, cutoff).amplitudes
    probs, modes, leak_max = [], [amp[:cutoff].copy()], 0.0
    for _ in range(n):
        amp, leak = _apply_segments(props, cycle, amp, cutoff)
        leak_max = max(leak_max, leak)
        prob, mode = project_and_extract(FockStateVector(cutoff, amp), "ground")
        probs.append(prob)
        modes.append(mode)
        amp = np.zeros(2 * cutoff, dtype=complex)
        amp[:cutoff] = mode
    return probs, modes, leak_max


def run_cat_record(
    p: PhysicalParams,
    n: int,
    cutoff: int = DEFAULT_CUTOFF,
):
    """Evolve n cat cycles and project once at the end.

    Returns (ground probability, ground-conditioned mode amplitudes,
    excited probability, excited-conditioned mode amplitudes).
    """
    state = FockStateVector.ground_coherent(0j, cutoff)
    state = evolve(state, cat_schedule(n), p)
    pg, vg = project_and_extract(state, "ground")
    pe, ve = project_and_extract(state, "excited")
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
    for every k = 1..n, from one n-cycle ``walk_prefixes`` pass.

    Returns (fidelities, per-cycle ground probabilities, largest per-segment
    leakage).  ValueError for n < 1, where there is nothing to compare.
    """
    if n < 1:
        raise ValueError(f"the walk comparison needs n >= 1; got {n}")
    probs, modes, leak_max = walk_prefixes(p, n, alpha0, cutoff, hamiltonian)
    fids = [fidelity(modes[k], walk_state(derive_protocol(p, k, alpha0)))
            for k in range(1, n + 1)]
    return fids, probs, leak_max
