"""Closed-form algebra of coherent states under displacements and rotations.

Conventions, fixed once for the whole package:

    x = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  hbar = 1
    D(beta)|alpha> = exp(i Im(beta conj(alpha))) |alpha + beta>
    exp(-i theta a^dag a)|alpha> = |alpha exp(-i theta)>

A coherent component is a complex amplitude plus an explicitly tracked
global phase.  Keeping the phase on the label (instead of folding it into
superposition coefficients) makes operator identities checkable label by
label, which is what the truncated-Fock-space cross-check in
:mod:`catwalk.fock` relies on.

The composite kick

    O(l1, l2) = D(i l1) exp(-i l2 pi a^dag a) D(i l1)

maps amplitudes as alpha -> (alpha + i l1) e^{-i l2 pi} + i l1 and advances
the tracked phase by l1 Re(alpha + alpha').  O(l1, l2) and O(-l1, -l2) are
exact inverses of each other and commute.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState

TAU = 2.0 * math.pi

#: below this squared norm a superposition counts as destructively cancelled
DEGENERACY_CUTOFF = 1e-14
# Gram rows per numpy block: for the 2047 labels of n = 1023, 64 took 0.13 s
# and peaked 5 MiB above the matrix.
GRAM_ROWS = 64


def reduce_phase(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    r = math.remainder(theta, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class CoherentLabel:
    """Coherent amplitude with an explicitly tracked global phase.

    The physical ket is ``exp(1j*phase) |amplitude>``.  The phase is reduced
    to (-pi, pi] on construction, so long pulse trains cannot drift.
    Instances are immutable values: two labels with equal amplitude and
    phase are interchangeable in any superposition.
    """

    amplitude: complex
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "phase", reduce_phase(float(self.phase)))

    @classmethod
    def vacuum(cls) -> "CoherentLabel":
        return cls(0j, 0.0)


@dataclass(frozen=True)
class PulseOperatorSpec:
    """Parameters of the composite kick D(i*s*l1) R(s*l2*pi) D(i*s*l1).

    ``l1`` is the kick strength, ``l2`` the rotation fraction; both are
    stored non-negative.  ``sign`` selects the branch: +1 applies
    O(l1, l2), -1 applies its inverse O(-l1, -l2).
    """

    l1: float
    l2: float
    sign: int = 1

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1 and l2 must be non-negative as stored")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def inverse(self) -> "PulseOperatorSpec":
        return PulseOperatorSpec(self.l1, self.l2, -self.sign)


def displace(state: CoherentLabel, beta: complex) -> CoherentLabel:
    """Apply the displacement D(beta).

    The amplitude shifts by beta and the tracked phase gains
    Im(beta * conj(alpha)), i.e. D(beta)|alpha> = e^{i Im(beta alpha*)}|alpha+beta>.
    """
    beta = complex(beta)
    gain = (beta * state.amplitude.conjugate()).imag
    return CoherentLabel(state.amplitude + beta, state.phase + gain)


def rotate(state: CoherentLabel, theta: float) -> CoherentLabel:
    """Apply the free rotation exp(-i theta a^dag a).

    The amplitude picks up e^{-i theta}; the tracked phase is unchanged
    (no zero-point term in this convention).
    """
    return CoherentLabel(state.amplitude * cmath.exp(-1j * theta), state.phase)


def apply_pulse_operator(spec: PulseOperatorSpec, state: CoherentLabel) -> CoherentLabel:
    """Apply the composite kick O(s*l1, s*l2) = D(i s l1) R(s l2 pi) D(i s l1).

    For sign=+1 the amplitude map is alpha -> (alpha + i l1) e^{-i l2 pi} + i l1
    and the tracked phase advances by l1 * Re(alpha + alpha'), where alpha'
    is the new amplitude.  sign=-1 applies the exact inverse.
    """
    b = 1j * spec.sign * spec.l1
    out = displace(state, b)
    out = rotate(out, spec.sign * spec.l2 * math.pi)
    return displace(out, b)


def overlap(a: CoherentLabel, b: CoherentLabel) -> complex:
    """Inner product <a|b> including the tracked phases.

    <a|b> = e^{i(phase_b - phase_a)} exp(-|A|^2/2 - |B|^2/2 + conj(A) B)
    with A, B the amplitudes.  Hermitian: overlap(a, b) == conj(overlap(b, a)).
    """
    aa, ab = a.amplitude, b.amplitude
    return cmath.exp(
        1j * (b.phase - a.phase)
        - 0.5 * (abs(aa) ** 2 + abs(ab) ** 2)
        + aa.conjugate() * ab
    )


@dataclass(frozen=True)
class SuperposedState:
    """Finite superposition sum_m c_m * e^{i theta_m}|alpha_m>.

    ``components`` is an ordered tuple of (coefficient, label) pairs.  The
    ``normalized`` flag asserts <psi|psi> = 1 under pairwise coherent
    overlaps; use :func:`normalize` to obtain a normalized copy.
    """

    components: tuple
    normalized: bool = False

    def __post_init__(self):
        comps = tuple((complex(c), lab) for c, lab in self.components)
        if not comps:
            raise ValueError("a superposition needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.components], dtype=complex)

    @property
    def labels(self) -> tuple:
        return tuple(lab for _, lab in self.components)


def gram_matrix(amplitudes, phases) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <label_i|label_j>: bit for bit the
    :func:`overlap` calls above the diagonal, their conjugates below it and
    1.0 on it.  The exponent is formed in real arithmetic in overlap's
    order, with |a|^2 by Python's abs (np.abs differs in the last bit) and
    the 0.0 that 1j * (phase_b - phase_a) adds, so np.exp gives cmath.exp's
    bits.  Each block of GRAM_ROWS rows is taken from its diagonal
    rightwards and mirrored below, so the temporaries are O(GRAM_ROWS * m).
    """
    a = np.asarray(amplitudes, dtype=complex)
    ar, ai, nai, theta = a.real, a.imag, -a.imag, np.asarray(phases, dtype=float)
    sq = np.array([abs(v) ** 2 for v in a.tolist()])
    m = len(a)
    G = np.empty((m, m), dtype=complex)
    for r in range(0, m, GRAM_ROWS):
        b, i, c = min(GRAM_ROWS, m - r), slice(r, r + GRAM_ROWS), slice(r, m)
        z = np.empty((b, m - r), dtype=complex)
        z.real = -0.5 * (sq[i, None] + sq[c]) + (ar[i, None] * ar[c] - nai[i, None] * ai[c])
        z.imag = (theta[c] - theta[i, None] + 0.0) + (ar[i, None] * ai[c] + nai[i, None] * ar[c])
        np.fill_diagonal(z, 0.0)  # exp gives 1.0 where rounding might overflow
        block = G[i, c]
        with np.errstate(over="raise"):  # where cmath.exp raises OverflowError
            np.exp(z, out=block)
        lower = np.tril_indices(b, -1)
        block[lower] = block[lower[::-1]].conj()
        G[r + b:, i] = block[:, b:].T.conj()
    return G


def state_overlap(a: SuperposedState, b: SuperposedState) -> complex:
    """<a|b> between two superpositions via pairwise coherent overlaps."""
    total = 0j
    for ca, la in a.components:
        for cb, lb in b.components:
            total += ca.conjugate() * cb * overlap(la, lb)
    return total


def norm_squared(state: SuperposedState) -> float:
    return state_overlap(state, state).real


def normalize(state: SuperposedState) -> SuperposedState:
    """Rescale all coefficients by one positive real so that <psi|psi> = 1.

    Relative phases between components are untouched.  Raises
    :class:`DegenerateState` when <psi|psi> <= 1e-14.
    """
    n2 = norm_squared(state)
    if n2 <= DEGENERACY_CUTOFF:
        raise DegenerateState(f"components cancel: <psi|psi> = {n2:.3e}")
    scale = 1.0 / math.sqrt(n2)
    comps = tuple((c * scale, lab) for c, lab in state.components)
    return SuperposedState(comps, normalized=True)
