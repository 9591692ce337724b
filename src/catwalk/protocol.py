"""Parameter mapping and the two measurement-conditioned protocols.

A two-level system coupled to a mechanical mode (coupling g, mode frequency
omega) is driven by a strong resonant field Omega1 and a weak one Omega2,
both square-pulsed: on for the first half of each mechanical period, off for
the second half.  Conditioning the qubit on the ground outcome after every
pulse pair drives the mode through a random walk over coherent amplitudes;
keeping the strong drive on throughout and measuring once instead produces a
two-component (cat) superposition.  One loop gives both label arrays:
:func:`kick_labels` for the walk, :func:`cat_labels` for the cat, whose
density and outcome probability are :func:`catwalk.dephasing.cat_density`.

Everything here is dimensionless: the kick strength l1 = Omega2*eta/omega,
the rotation fraction l2 = Omega1*eta^2/omega, the per-cycle drive phase
phi = Omega1(1 - eta^2/2)*pi/omega, with eta = g/omega.  Qubit decay is no
knob here: a density of :mod:`catwalk.dephasing` takes it beside the protocol.

Phase-sign convention: the n-pulse state is assembled by literally composing
the kick operators of :mod:`catwalk.algebra`, which yields the component
phases e^{+i theta_j}, theta_j = theta_{j-1} + l1*Re(alpha_{j-1} + alpha_j).
This sign is the one consistent with the single-cycle branch phases
e^{-+i phi} e^{-+i l1 Re(...)} and with direct Hamiltonian evolution (see
catwalk.fock); writing e^{-i theta_j} instead breaks both.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from math import comb

import numpy as np

from .algebra import (
    DEGENERACY_CUTOFF,
    TAU,
    CoherentLabel,
    PulseOperatorSpec,
    SuperposedState,
    apply_pulse_operator,
    displace,
    norm_squared,
    normalize,
    rotate,
)
from .errors import DegenerateState, RegimeViolation

ETA_MAX = 0.05          # validity gate for the second-order expansion
HIERARCHY_MIN = 10.0    # Omega1 must dominate Omega2 and g at least this much
HIERARCHY_SOFT = 100.0  # below this ratio a warning is emitted


@dataclass(frozen=True)
class PhysicalParams:
    """Physical rates, all in rad/s.

    omega   mechanical mode frequency
    g       qubit-mode coupling
    Omega1  strong drive
    Omega2  weak drive
    """

    omega: float
    g: float
    Omega1: float
    Omega2: float

    def __post_init__(self):
        rates = (self.omega, self.g, self.Omega1, self.Omega2)
        if not all(math.isfinite(r) for r in rates):
            raise ValueError("rates must be finite")
        if self.omega <= 0:
            raise RegimeViolation("omega must be positive")
        if min(self.g, self.Omega1, self.Omega2) < 0:
            raise RegimeViolation("rates must be non-negative")
        if self.eta > ETA_MAX:
            raise RegimeViolation(
                f"eta = g/omega = {self.eta:.3g} exceeds {ETA_MAX}; the "
                "second-order expansion is not trustworthy there"
            )
        dominated = max(self.Omega2, self.g)
        if dominated > 0:
            ratio = self.Omega1 / dominated
            if ratio < HIERARCHY_MIN:
                raise RegimeViolation(
                    f"Omega1/max(Omega2, g) = {ratio:.3g} < {HIERARCHY_MIN}; "
                    "the strong drive must dominate"
                )
            if ratio < HIERARCHY_SOFT:
                warnings.warn(
                    f"Omega1/max(Omega2, g) = {ratio:.3g} is below "
                    f"{HIERARCHY_SOFT}; drive-hierarchy corrections may be "
                    "noticeable",
                    stacklevel=2,
                )

    @property
    def eta(self) -> float:
        return self.g / self.omega


@dataclass(frozen=True)
class ProtocolParams:
    """Dimensionless protocol knobs.

    l1, l2  kick strength and rotation fraction (non-negative)
    phi     per-cycle drive phase, stored reduced to [0, 2 pi)
    n       number of pulse pairs
    alpha0  initial coherent amplitude of the mode (keyword-only)
    """

    l1: float
    l2: float
    phi: float
    n: int
    alpha0: complex = field(default=0j, kw_only=True)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2, self.phi)):
            raise ValueError("l1, l2 and phi must be finite")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("alpha0 must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1 and l2 must be non-negative")
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError("n must be a non-negative integer")
        object.__setattr__(self, "n", int(self.n))
        # a tiny negative x % TAU rounds to TAU; the second % maps it to 0
        object.__setattr__(self, "phi", float(self.phi) % TAU % TAU)
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        # a kick moves the amplitude by at most 2*l1, so every label of either
        # protocol lies within this radius; its square must be a finite double
        reach = abs(self.alpha0) + 2.0 * self.l1 * self.n
        if not math.isfinite(reach * reach):
            raise ValueError(f"l1 = {self.l1:g} with alpha0 = {self.alpha0} and "
                             f"n = {self.n}: the labels would leave the double range")


def derive_protocol(p: PhysicalParams, n: int, alpha0: complex = 0j) -> ProtocolParams:
    """Map physical rates to protocol knobs.

    l1 = Omega2*g/omega^2, l2 = Omega1*g^2/omega^3,
    phi = Omega1*(1 - eta^2/2)*pi/omega (mod 2 pi).
    """
    eta = p.eta
    return ProtocolParams(
        l1=p.Omega2 * eta / p.omega,
        l2=p.Omega1 * eta**2 / p.omega,
        phi=p.Omega1 * (1.0 - eta**2 / 2.0) * math.pi / p.omega,
        n=n,
        alpha0=alpha0,
    )


def _label_table(kicks, alpha0: complex, n: int) -> tuple:
    """(amplitudes, phases) from alpha0 after j kicks, j = -n..n, indexed by
    j + n: the label map kicks[0] takes j one kick up, kicks[1] one down."""
    amplitudes, phases = np.full(2 * n + 1, complex(alpha0)), np.zeros(2 * n + 1)
    for sign, kick in zip((1, -1), kicks):
        lab = CoherentLabel(alpha0, 0.0)
        for j in range(1, n + 1):
            lab = kick(lab)
            amplitudes[n + sign * j], phases[n + sign * j] = lab.amplitude, lab.phase
    return amplitudes, phases


def kick_labels(l1: float, l2: float, alpha0: complex, n: int) -> tuple:
    """(amplitudes, phases) of the labels reached by j composite kicks,
    j = -n..n, as two arrays indexed by j + n.

    Positive j applies O(l1, l2) j times, negative j its inverse, through
    the scalar :func:`apply_pulse_operator`; the accumulated phases ride on
    the labels.  For real alpha0 the table is conjugate-symmetric:
    amplitude(-j) = conj(amplitude(j)).
    """
    return _label_table([partial(apply_pulse_operator, PulseOperatorSpec(l1, l2, sign))
                         for sign in (1, -1)], alpha0, n)


def walk_components(pp: ProtocolParams) -> list:
    """Raw (unnormalized) components of the n-pulse conditioned walk state.

    Component m carries coefficient binomial(n, m) * e^{i (n-2m) phi} on the
    label alpha_{n-2m}; the theta phases are tracked on the labels.
    """
    amplitudes, phases = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    return [(comb(pp.n, m) * cmath.exp(1j * (pp.n - 2 * m) * pp.phi),
             CoherentLabel(amplitudes[2 * (pp.n - m)], phases[2 * (pp.n - m)]))
            for m in range(pp.n + 1)]


def walk_state(pp: ProtocolParams) -> SuperposedState:
    """Normalized conditioned state after n pulse pairs, all-ground record.

    Equals [e^{-i phi} O(-l1,-l2) + e^{+i phi} O(l1,l2)]^n |alpha0>, expanded
    binomially (the two kicks commute and are mutual inverses) and
    renormalized.  n = 0 returns |alpha0> itself.
    """
    return normalize(SuperposedState(tuple(walk_components(pp))))


def _cat_kick(l1: float, l2: float, sign: int, label: CoherentLabel) -> CoherentLabel:
    # One full cycle with the strong drive never switched off:
    # D(i s l1 e^{-i s l2 pi}) R(2 s l2 pi) D(i s l1); amplitude map
    # beta -> (beta + i s l1) e^{-2 i s l2 pi} + i s l1 e^{-i s l2 pi}.
    out = displace(label, 1j * sign * l1)
    out = rotate(out, 2.0 * sign * l2 * math.pi)
    return displace(out, 1j * sign * l1 * cmath.exp(-1j * sign * l2 * math.pi))


def cat_labels(l1: float, l2: float, n: int) -> tuple:
    """(amplitudes, phases) of the cat's labels beta_{-n}, beta_{+n} after n
    cycles from the vacuum, in that row order: rows -n and +n of a
    :func:`kick_labels` table with the cat cycle as the kick, (-l1, -l2) for
    beta_{-n}; the two are conjugate mirrors of each other."""
    amplitudes, phases = _label_table([partial(_cat_kick, l1, l2, s) for s in (1, -1)], 0j, n)
    return amplitudes[[0, 2 * n]], phases[[0, 2 * n]]


def run_conditioned_walk(pp: ProtocolParams):
    """Run n cycles, conditioning on the ground outcome after each.

    Returns (final state, record probability, per-cycle probabilities).
    Each cycle re-embeds the mode in |g> = (|+> - |->)/sqrt(2), kicks the
    |+> branch with O(-l1, -l2) (j -> j-1) and the |-> branch with O(l1, l2)
    (j -> j+1), and projects back onto |g>: a factor e^{-i phi}/2 on the
    first branch and e^{+i phi}/2 on the second.  Index j carries label j
    of pp's kick table, and branches that meet add their amplitudes, so the
    state keeps n+1 components in descending kick index.  A cycle's ground
    probability is the squared norm of its raw superposition, and the record
    probability their product.  The final state reproduces
    :func:`walk_state`; this explicit chain is the reference that
    :func:`catwalk.dephasing.walk_density_steps` is checked against.
    Raises DegenerateState when a cycle's ground outcome cancels.
    """
    half = 0.5 * cmath.exp(1j * pp.phi)
    table = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    labels = dict(zip(range(-pp.n, pp.n + 1), map(CoherentLabel, *table)))
    amps = {0: 1.0 + 0j}
    probs = []
    for cycle in range(1, pp.n + 1):
        raw = {}
        for sign, factor in ((-1, half.conjugate()), (1, half)):
            for j, c in amps.items():
                raw[j + sign] = raw.get(j + sign, 0j) + factor * c
        kicks = sorted(raw, reverse=True)
        prob = norm_squared(SuperposedState(tuple((raw[j], labels[j]) for j in kicks)))
        if prob <= DEGENERACY_CUTOFF:
            raise DegenerateState(f"cycle {cycle}: ground outcome has probability {prob:.3e}")
        probs.append(prob)
        norm = math.sqrt(prob)
        amps = {j: raw[j] / norm for j in kicks}
    state = SuperposedState(tuple((c, labels[j]) for j, c in amps.items()), normalized=True)
    return state, math.prod(probs, start=1.0), probs
