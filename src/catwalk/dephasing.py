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

Each density is one tuple of labels in row order, one (m, m) weight matrix
and the labels' Gram matrix.  After s walk steps the rows are the kick
indices j = -s, -s+2, ..., s in ascending order, so the matrix holds exactly
(s+1)^2 weights and one step is four shifted-slice adds on the zero-padded
matrix.  The kick phases theta_j ride on the labels, which is what makes
the weight recursion above purely index-local.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEGENERACY_CUTOFF, SuperposedState, gram_matrix, normalize
from .errors import DegenerateState
from .protocol import ProtocolParams, cat_state, kick_labels, walk_state

__all__ = [
    "DyadEnsemble",
    "evolve_dyads",
    "walk_density",
    "walk_density_steps",
    "kick_gram_bytes",
    "pure_walk_density",
    "projector",
    "cat_density",
    "purity",
    "dyad_trace",
    "trace_distance",
    "min_eigenvalue",
    "cross_term_weight",
    "qubit_coherence_decay",
]

# Largest Gram matrix a walk's kick table may take (see kick_gram_bytes):
# n <= 1023.
GRAM_BUDGET_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class DyadEnsemble:
    """rho = sum_{jk} weights[j, k] |labels[j]><labels[k]|.

    ``labels`` is a tuple of CoherentLabels in row order: ascending kick
    index j for the walk densities, component order for a
    :func:`projector`.  ``weights`` is the complex (m, m) matrix rho_jk,
    kept as a read-only copy, and ``gram`` the labels' read-only Gram matrix
    G[i, j] = <labels[i]|labels[j]>: gram_matrix(labels) unless the caller
    passes the one it holds.  Physical instances are Hermitian, unit trace
    under the overlap-weighted sum and positive semidefinite; a pure state
    is the rank-1 case.  Instances compare by identity, since ``==`` on an
    array field has no single truth value.
    """

    labels: tuple
    weights: np.ndarray
    gram: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.gram is None:
            object.__setattr__(self, "gram", gram_matrix(self.labels))
        m = len(self.labels)
        for name in ("weights", "gram"):
            matrix = np.array(getattr(self, name), dtype=complex)
            if matrix.shape != (m, m):
                raise ValueError(f"{name} of shape {matrix.shape} does not fit {m} labels")
            matrix.flags.writeable = False
            object.__setattr__(self, name, matrix)

    @property
    def entries(self) -> np.ndarray:
        """The weights as one flat read-only view, row-major: one per dyad."""
        return self.weights.ravel()


def dyad_trace(rho: DyadEnsemble) -> complex:
    """Tr rho = sum_{jk} rho_{jk} <label_k|label_j>, each part summed by
    math.fsum, so exactly rounded whatever the order of the terms."""
    terms = rho.weights * rho.gram.T
    return complex(math.fsum(terms.real.flat), math.fsum(terms.imag.flat))


def _normalized(rho: DyadEnsemble) -> tuple:
    """(rho scaled to unit trace, the trace it had); DegenerateState when
    the trace is <= DEGENERACY_CUTOFF, as for a superposition whose
    components cancel."""
    tr = dyad_trace(rho).real
    if tr <= DEGENERACY_CUTOFF:
        raise DegenerateState(f"dyads cancel: Tr rho = {tr:.3e}")
    return DyadEnsemble(rho.labels, rho.weights / tr, rho.gram), tr


def evolve_dyads(rho: DyadEnsemble, pp: ProtocolParams, kicks=None) -> tuple:
    """One conditioned pulse pair with dephasing exponent pp.xi.

    Returns (the conditioned ensemble, the probability of the ground
    outcome).  The m rows of ``rho`` must be the kick labels j = -(m-1),
    ..., m-1 (step 2) of pp's kick table, as :func:`walk_density_steps`
    makes them (ValueError otherwise); the result has one row more, j = -m,
    ..., m.  Weights follow the four-term recursion in the module docstring
    and the result is renormalized to unit trace.  Each dressed branch
    reaches the ground outcome with amplitude 1/2, so the trace the
    recursion produces is 4 times the outcome probability.  xi = inf is
    accepted and kills the cross terms outright.
    ``kicks`` is :func:`_kicks` of pp for some N >= m (built for N = m when
    not given); the step slices its rows and their Gram block from it.
    """
    damp = math.exp(-pp.xi) if math.isfinite(pp.xi) else 0.0
    cross = cmath.exp(2j * pp.phi) * damp
    reach = len(rho.labels)
    labels, G = _kicks(pp, reach) if kicks is None else kicks
    rows = slice(len(labels) // 2 - reach, len(labels) // 2 + reach + 1, 2)
    if rho.labels != labels[rows.start + 1:rows.stop - 1:2]:
        raise ValueError(f"rho's rows are not pp's kick labels j = {1 - reach}..{reach - 1}")
    R = np.pad(rho.weights, 1)
    weights = (R[:-1, :-1] + R[1:, 1:]
               + cross * R[:-1, 1:] + cross.conjugate() * R[1:, :-1])
    rho, tr = _normalized(DyadEnsemble(labels[rows], weights, G[rows, rows]))
    return rho, tr / 4.0


def kick_gram_bytes(n: int) -> int:
    """Memory of the complex Gram matrix of the 2n+1 kick labels that an
    n-step walk builds (see walk_density_steps)."""
    return (2 * n + 1) ** 2 * np.dtype(complex).itemsize


def _kicks(pp: ProtocolParams, n: int):
    """The labels j = -n..n of pp's kick table and their Gram matrix."""
    table = kick_labels(pp.l1, pp.l2, pp.alpha0, n)
    labels = tuple(table[j] for j in range(-n, n + 1))
    return labels, gram_matrix(labels)


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
    2n+1 labels are built once; every step's density carries a slice."""
    labels, G = kicks = _kicks(pp, pp.n)
    start = slice(pp.n, pp.n + 1)
    rho, record = DyadEnsemble(labels[start], [[1.0]], G[start, start]), 1.0
    yield 0, rho, record
    for step in range(1, pp.n + 1):
        rho, prob = evolve_dyads(rho, pp, kicks)
        record *= prob
        yield step, rho, record


def projector(state: SuperposedState) -> DyadEnsemble:
    """Rank-1 density |psi><psi| of a superposition, normalized first if needed.

    Rows run in component order, with weights c_j conj(c_k).
    """
    if not state.normalized:
        state = normalize(state)
    c = state.coefficients
    return DyadEnsemble(state.labels, np.outer(c, c.conj()))


def pure_walk_density(pp: ProtocolParams) -> DyadEnsemble:
    """Projector |psi><psi| of the xi = 0 walk state, rows in ascending kick
    index like :func:`walk_density` (component m has kick index n - 2m)."""
    rho = projector(walk_state(pp))
    return DyadEnsemble(rho.labels[::-1], rho.weights[::-1, ::-1], rho.gram[::-1, ::-1])


def cat_density(pp: ProtocolParams, cross_suppression: float = 1.0) -> DyadEnsemble:
    """Projector of :func:`cat_state` with its cross dyads damped.

    ``cross_suppression`` multiplies both off-diagonal weights (use
    exp(-3 n Gamma T / 4) for a decay rate Gamma acting over the whole n-cycle
    run); the result is renormalized.  Rows are the kick indices -n and n.
    """
    if not 0.0 <= cross_suppression <= 1.0:
        raise ValueError("cross_suppression must lie in [0, 1]")
    rho = projector(cat_state(pp))
    weights = cross_suppression * rho.weights
    np.fill_diagonal(weights, rho.weights.diagonal())
    return _normalized(DyadEnsemble(rho.labels, weights, rho.gram))[0]


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
    """(1/2)||a - b||_1 for ensembles with equal label tuples."""
    if a.labels != b.labels:
        raise ValueError("trace distance needs equal label tuples")
    M = _weighted_matrix(DyadEnsemble(a.labels, a.weights - b.weights, a.gram))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(M)).sum())


def cross_term_weight(rho: DyadEnsemble) -> float:
    """Total interference weight sum_{j != k} |rho_{jk} <label_k|label_j>|."""
    terms = np.abs(rho.weights * rho.gram.T)
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum())


def qubit_coherence_decay(t: float, Gamma: float) -> float:
    """Dressed-coherence survival factor exp(-3 Gamma t / 4).

    The per-pulse dephasing exponent is this decay evaluated over the driven
    half period: xi = 3 Gamma T / 8.
    """
    if t < 0 or Gamma < 0:
        raise ValueError("t and Gamma must be non-negative")
    return math.exp(-0.75 * Gamma * t)
