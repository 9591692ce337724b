"""Density matrices in the coherent-dyad basis and per-pulse dephasing.

Qubit spontaneous decay at rate Gamma leaves the dressed populations alone
but damps dressed coherences as exp(-3 Gamma t / 4).  Over the driven half
period T/2 that is one factor exp(-xi) with xi = 3 Gamma T / 8 per pulse
pair.  In the conditioned-walk picture the mode's density matrix stays a
finite double sum over kick labels,

    rho = sum_{j,k} rho_{jk} |alpha_j><alpha_k|,

and one pulse pair maps the weights as

    rho'_{jk} = C [ rho_{j-1,k-1} + rho_{j+1,k+1}
                    + e^{+2i phi - xi} rho_{j-1,k+1}
                    + e^{-2i phi - xi} rho_{j+1,k-1} ]

(the same-branch kicks are undamped, the cross-branch terms carry the
dephasing factor and the e^{+-2i phi} drive phases; C restores unit trace,
and 1/(4C) is the probability of that cycle's ground outcome).
At xi = 0 this is exactly the pure conditioned-walk recursion; as
exp(-xi) -> 0 it collapses onto the classical binomial mixture of kick
paths.  Renormalization is applied after every step.  The step map is
linear, so normalizing once at the end gives the same density up to
rounding (a relative 2.4e-11 at n = 12, xi = 0.3).

Each density is two label arrays in row order, the amplitudes alpha_j and
the phases theta_j, one (m, m) weight matrix and the labels' Gram matrix;
a pure state is the rank-1 case.  After s walk steps the rows are the kick
indices j = -s, -s+2, ..., s in ascending order, so the matrix holds exactly
(s+1)^2 weights.  The kick phases theta_j ride on the labels, which is what
makes the weight recursion above purely index-local: :func:`evolve_dyads`
maps the weights alone, four shifted-slice adds on the zero-padded matrix,
and :func:`walk_density_steps` is the one place that gives a step its rows
of the kick table and its Gram and takes its trace (C above).

The cat is one step of the same map, from the 1x1 weight 1 on its labels
beta_{-n}, beta_{+n} with cross factor -e^{2i phi'} s: the phase phi' of n
uninterrupted cycles, damped by s over the whole run.  As for a walk step,
its trace over 4 is the outcome's probability.  A step's two outcomes
differ only in the sign of its cross factor.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEGENERACY_CUTOFF, TAU, SuperposedState, gram_matrix, normalize
from .errors import DegenerateState
from .protocol import ProtocolParams, cat_labels, kick_labels, walk_state

# Largest kick-table Gram matrix a walk may build (kick_gram_bytes): n <= 1023.
GRAM_BUDGET_BYTES = 64 * 2**20
# How far a purity or fidelity read from dyad weights may leave [0, 1]
# (check_unit).  Past the cancellation floor the weights' rounding noise
# moves it by any amount: at the oracle point a walk's purity read 17.5 at
# n = 50 and -1e4 at n = 60, and the oracle's fidelity 1.63 at n = 66.  The
# benchmark's seeds 101-160 read purities of at most 1 + 6.8e-7.
UNIT_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class DyadEnsemble:
    """rho = sum_{jk} weights[j, k] |label_j><label_k| with
    |label_j> = e^{i phases[j]} |amplitudes[j]>.

    ``amplitudes`` (complex) and ``phases`` (float) hold the labels in row
    order: ascending kick index j for the walk densities, component order
    for a :func:`projector`, beta_{-n} then beta_{+n} for the cat.
    ``weights`` is the complex (m, m) matrix rho_jk and ``gram`` the labels'
    Gram matrix G[i, j] = <label_i|label_j>: gram_matrix(amplitudes,
    phases) unless the caller passes the one it holds; no other field may
    be None.  All four are kept as read-only
    copies.  Physical instances are Hermitian, unit trace under the
    overlap-weighted sum and positive semidefinite; a pure state is the
    rank-1 case.  Instances compare by identity, since ``==`` on an array
    field has no single truth value.
    """

    amplitudes: np.ndarray
    phases: np.ndarray
    weights: np.ndarray
    gram: np.ndarray | None = None

    def __post_init__(self):
        for name in ("amplitudes", "phases", "weights"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is None; only the gram may be left out")
        m = len(self.amplitudes)
        for name, dtype, shape in (("amplitudes", complex, (m,)), ("phases", float, (m,)),
                                   ("weights", complex, (m, m)), ("gram", complex, (m, m))):
            value = getattr(self, name)
            if value is None:  # the Gram, once the labels it reads are checked
                value = gram_matrix(self.amplitudes, self.phases)
            array = np.array(value, dtype=dtype)
            if array.shape != shape:
                raise ValueError(f"{name} of shape {array.shape} does not fit {m} labels")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def entries(self) -> np.ndarray:
        """The weights as one flat read-only view, row-major: one per dyad."""
        return self.weights.ravel()


def dyad_trace(rho: DyadEnsemble) -> complex:
    """Tr rho = sum_{jk} rho_{jk} <label_k|label_j>, each part summed by
    math.fsum, so exactly rounded whatever the order of the terms."""
    terms = rho.weights * rho.gram.T
    return complex(math.fsum(terms.real.flat), math.fsum(terms.imag.flat))


def check_unit(name: str, value: float):
    """DegenerateState unless -UNIT_MARGIN <= value <= 1 + UNIT_MARGIN: a
    probability-like reading outside that is cancellation noise, not a number."""
    if not -UNIT_MARGIN <= value <= 1 + UNIT_MARGIN:
        raise DegenerateState(f"{name} reads {value:.6g}, outside [0, 1]: the dyad "
                              "weights cancel past the floating-point floor")


def _normalized(rho: DyadEnsemble) -> tuple:
    """(rho scaled to unit trace, the trace it had); DegenerateState when
    the trace is <= DEGENERACY_CUTOFF, as for a superposition whose
    components cancel."""
    tr = dyad_trace(rho).real
    if tr <= DEGENERACY_CUTOFF:
        raise DegenerateState(f"dyads cancel: Tr rho = {tr:.3e}")
    return DyadEnsemble(rho.amplitudes, rho.phases, rho.weights / tr, rho.gram), tr


def evolve_dyads(weights: np.ndarray, cross: complex) -> np.ndarray:
    """One conditioning step on the weights alone: the four-term recursion
    of the module docstring with cross-branch factor ``cross`` (e^{2i phi -
    xi} in a walk) takes the (m, m) weights of the kick rows j = -(m-1), ...,
    m-1 (step 2) to the (m+1, m+1) weights of j = -m, ..., m, by four
    shifted-slice adds on the zero-padded matrix.  Not renormalized: the
    trace is 4 times the outcome's probability, each dressed branch reaching
    it with amplitude 1/2; -cross gives the other outcome."""
    R = np.pad(weights, 1)
    return R[:-1, :-1] + R[1:, 1:] + cross * R[:-1, 1:] + cross.conjugate() * R[1:, :-1]


def kick_gram_bytes(n: int) -> int:
    """Memory of the complex Gram matrix of the 2n+1 kick labels that an
    n-step walk builds (see walk_density_steps)."""
    return (2 * n + 1) ** 2 * np.dtype(complex).itemsize


def walk_density(pp: ProtocolParams) -> DyadEnsemble:
    """Density matrix of the conditioned walk after pp.n dephasing steps."""
    rho = None
    for _, rho, _ in walk_density_steps(pp):
        pass
    return rho


def walk_density_steps(pp: ProtocolParams):
    """Yield (step, DyadEnsemble, record) for step = 0..n, starting from the
    pure |alpha0><alpha0| projector.  ``record`` is the probability of the
    all-ground record so far, the product of the steps' ground
    probabilities: 1.0 at step 0.  The kick table and the Gram matrix of its
    2n+1 labels are built once.  Step s takes the rows j = -s, ..., s (step
    2) of both, the weights :func:`evolve_dyads` gives from step s - 1 with
    cross factor e^{2i phi - xi} (the 1x1 weight 1 at step 0), and is
    normalized here; its trace over 4 is the step's ground probability.
    Raises DegenerateState when two labels' overlap overflows or a step's
    trace cancels."""
    amplitudes, phases = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    try:
        G = gram_matrix(amplitudes, phases)
    except FloatingPointError:
        raise DegenerateState("kick-label overlaps overflow: Re(conj(A) B) - (|A|^2 + |B|^2)/2 "
                              "cancels terms of size |A|^2; the rounding overflows exp") from None
    cross = cmath.exp(2j * pp.phi) * math.exp(-pp.xi)  # exp(-inf) is 0.0
    record = 4.0  # step 0's trace is 1, so its trace / 4 makes the record 1.0
    for step in range(pp.n + 1):
        weights = evolve_dyads(rho.weights, cross) if step else [[1.0]]
        rows = slice(pp.n - step, pp.n + step + 1, 2)
        rho, tr = _normalized(DyadEnsemble(amplitudes[rows], phases[rows], weights, G[rows, rows]))
        record *= tr / 4.0
        yield step, rho, record


def projector(state: SuperposedState) -> DyadEnsemble:
    """Rank-1 density |psi><psi| of a superposition, normalized first if needed.

    Rows run in component order, with weights c_j conj(c_k).
    """
    if not state.normalized:
        state = normalize(state)
    c = state.coefficients
    return DyadEnsemble([lab.amplitude for lab in state.labels],
                        [lab.phase for lab in state.labels], np.outer(c, c.conj()))


def pure_walk_density(pp: ProtocolParams) -> DyadEnsemble:
    """Projector |psi><psi| of the xi = 0 walk state, rows in ascending kick
    index like :func:`walk_density` (component m has kick index n - 2m)."""
    rho = projector(walk_state(pp))
    return DyadEnsemble(rho.amplitudes[::-1], rho.phases[::-1], rho.weights[::-1, ::-1],
                        rho.gram[::-1, ::-1])


def cat_density(pp: ProtocolParams, cross_suppression: float = 1.0) -> tuple:
    """(density, outcome probability) of the cat: the state after n
    uninterrupted drive cycles, conditioned by one measurement.

    The rows are the labels beta_{-n}, beta_{+n} of :func:`cat_labels`, the
    weights one :func:`evolve_dyads` step from the 1x1 weight 1 with cross
    factor -e^{2i phi'} s: phi' = 2 n phi reduced mod 2 pi, s =
    ``cross_suppression`` (exp(-3 n Gamma T / 4) for a decay rate Gamma over
    the whole n-cycle run).  The density is normalized once, and the damped
    step's trace over 4 is the probability of the outcome the Fock model
    labels excited, P(s) = 1/2 + s (P(1) - 1/2); +e^{2i phi'} s gives the
    ground one.  Requires n >= 1 and alpha0 = 0 (ValueError).  Raises
    DegenerateState when the undamped probability is <= DEGENERACY_CUTOFF:
    the components cancel (e.g. l1 = l2 = 0 with phi' a multiple of pi).
    """
    if not 0.0 <= cross_suppression <= 1.0:
        raise ValueError("cross_suppression must lie in [0, 1]")
    if pp.n < 1:
        raise ValueError("cat protocol needs at least one cycle")
    if pp.alpha0 != 0:
        raise ValueError("cat protocol starts from the vacuum (alpha0 = 0)")
    plus, minus = cat_labels(pp.l1, pp.l2, pp.n)
    cross = -cmath.exp(2j * ((2.0 * pp.n * pp.phi) % TAU))
    rho = DyadEnsemble([minus.amplitude, plus.amplitude], [minus.phase, plus.phase],
                       evolve_dyads([[1.0]], cross))
    undamped = dyad_trace(rho).real / 4.0
    if undamped <= DEGENERACY_CUTOFF:
        raise DegenerateState(f"cat components cancel: Tr rho = {undamped:.3e}")
    damped = evolve_dyads([[1.0]], cross * cross_suppression)
    rho, tr = _normalized(DyadEnsemble(rho.amplitudes, rho.phases, damped, rho.gram))
    return rho, tr / 4.0


def _weighted_matrix(rho: DyadEnsemble):
    """Hermitian matrix G^(1/2) R G^(1/2) whose spectrum is rho's physical one."""
    w, V = np.linalg.eigh(rho.gram)
    w = np.clip(w, 0.0, None)
    Gh = (V * np.sqrt(w)) @ V.conj().T
    return Gh @ rho.weights @ Gh


def purity(rho: DyadEnsemble) -> float:
    """Tr rho^2 through the Gram-weighted double sum."""
    RG = rho.weights @ rho.gram
    return np.trace(RG @ RG).real


def min_eigenvalue(rho: DyadEnsemble) -> float:
    """Smallest eigenvalue of the physical (Gram-weighted) density operator."""
    return float(np.linalg.eigvalsh(_weighted_matrix(rho)).min())


def trace_distance(a: DyadEnsemble, b: DyadEnsemble) -> float:
    """(1/2)||a - b||_1 for ensembles with equal labels in equal rows."""
    if not (np.array_equal(a.amplitudes, b.amplitudes) and np.array_equal(a.phases, b.phases)):
        raise ValueError("trace distance needs equal labels in equal rows")
    M = _weighted_matrix(DyadEnsemble(a.amplitudes, a.phases, a.weights - b.weights, a.gram))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(M)).sum())


def cross_term_weight(rho: DyadEnsemble) -> float:
    """Total interference weight sum_{j != k} |rho_{jk} <label_k|label_j>|."""
    terms = np.abs(rho.weights * rho.gram.T)
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum())
