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
dephasing factor and the e^{+-2i phi} drive phases; C restores unit trace).
At xi = 0 this is exactly the pure conditioned-walk recursion; as
exp(-xi) -> 0 it collapses onto the classical binomial mixture of kick
paths.  Renormalization is applied after every step, not once at the end;
the two choices differ when xi > 0.

Labels are keyed by the integer kick index j, never by float amplitude, so
same-label dyads coalesce exactly and the ensemble holds at most (n+1)^2
entries after n steps.  The kick phases theta_j ride on the labels, which
is what makes the weight recursion above purely index-local.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import CoherentLabel, SuperposedState, gram_matrix, normalize, overlap
from .protocol import ProtocolParams, cat_state, kick_labels, walk_components

__all__ = [
    "DyadEnsemble",
    "evolve_dyads",
    "walk_density",
    "walk_density_steps",
    "pure_walk_density",
    "cat_density",
    "purity",
    "dyad_trace",
    "trace_distance",
    "min_eigenvalue",
    "cross_term_weight",
    "qubit_coherence_decay",
]


@dataclass(frozen=True)
class DyadEnsemble:
    """rho = sum rho_{jk} |label_j><label_k| over a shared label table.

    ``labels`` maps the integer kick index to its CoherentLabel; ``entries``
    maps (j, k) pairs to the complex weight rho_{jk}.  Physical instances
    are Hermitian (rho_{jk} = conj(rho_{kj})), unit trace under the
    overlap-weighted sum, and positive semidefinite.
    """

    labels: dict
    entries: dict

    def indices(self) -> list:
        return sorted(self.labels)

    def as_matrices(self):
        """(index list, weight matrix R, Gram matrix G) in index order."""
        idx = self.indices()
        R = np.array(
            [[self.entries.get((j, k), 0j) for k in idx] for j in idx],
            dtype=complex,
        )
        G = gram_matrix([self.labels[j] for j in idx])
        return idx, R, G


def dyad_trace(rho: DyadEnsemble) -> complex:
    """Tr rho = sum_{jk} rho_{jk} <label_k|label_j>."""
    total = 0j
    for (j, k), w in rho.entries.items():
        total += w * overlap(rho.labels[k], rho.labels[j])
    return total


def _normalized(labels: dict, entries: dict) -> DyadEnsemble:
    rho = DyadEnsemble(labels, entries)
    tr = dyad_trace(rho).real
    return DyadEnsemble(labels, {jk: w / tr for jk, w in entries.items()})


def evolve_dyads(rho: DyadEnsemble, pp: ProtocolParams) -> DyadEnsemble:
    """One conditioned pulse pair with dephasing exponent pp.xi.

    The index range grows by one on each side; weights follow the four-term
    recursion in the module docstring and the result is renormalized to
    unit trace.  xi = inf is accepted and kills the cross terms outright.
    """
    damp = math.exp(-pp.xi) if math.isfinite(pp.xi) else 0.0
    cross = cmath.exp(2j * pp.phi) * damp
    reach = max(abs(j) for j in rho.labels) + 1
    table = kick_labels(pp.l1, pp.l2, pp.alpha0, reach)
    span = range(-reach, reach + 1, 2)
    entries = {}
    for j in span:
        for k in span:
            w = (
                rho.entries.get((j - 1, k - 1), 0j)
                + rho.entries.get((j + 1, k + 1), 0j)
                + cross * rho.entries.get((j - 1, k + 1), 0j)
                + cross.conjugate() * rho.entries.get((j + 1, k - 1), 0j)
            )
            if w != 0:
                entries[(j, k)] = w
    return _normalized({j: table[j] for j in span}, entries)


def walk_density(pp: ProtocolParams) -> DyadEnsemble:
    """Density matrix of the conditioned walk after pp.n dephasing steps."""
    rho = None
    for _, rho in walk_density_steps(pp):
        pass
    return rho


def walk_density_steps(pp: ProtocolParams):
    """Yield (step, DyadEnsemble) for step = 0..n, starting from the pure
    |alpha0><alpha0| projector."""
    rho = DyadEnsemble({0: CoherentLabel(pp.alpha0)}, {(0, 0): 1.0 + 0j})
    yield 0, rho
    for step in range(1, pp.n + 1):
        rho = evolve_dyads(rho, pp)
        yield step, rho


def pure_walk_density(pp: ProtocolParams) -> DyadEnsemble:
    """Projector |psi><psi| of the xi = 0 walk state, keyed by kick index."""
    comps = walk_components(pp)
    state = normalize(SuperposedState(tuple(comps)))
    labels = {pp.n - 2 * m: lab for m, (_, lab) in enumerate(comps)}
    coeffs = {pp.n - 2 * m: c for m, (c, _) in enumerate(state.components)}
    entries = {
        (j, k): coeffs[j] * coeffs[k].conjugate() for j in coeffs for k in coeffs
    }
    return DyadEnsemble(labels, entries)


def cat_density(pp: ProtocolParams, cross_suppression: float = 1.0) -> DyadEnsemble:
    """Density matrix of the cat state with its single cross dyad damped.

    ``cross_suppression`` multiplies both off-diagonal dyads (use
    exp(-3 n Gamma T / 4) for a decay rate Gamma acting over the whole n-cycle
    run); the result is renormalized.
    """
    if not 0.0 <= cross_suppression <= 1.0:
        raise ValueError("cross_suppression must lie in [0, 1]")
    state = cat_state(pp)
    (c_minus, lab_minus), (c_plus, lab_plus) = state.components
    labels = {-pp.n: lab_minus, pp.n: lab_plus}
    entries = {
        (-pp.n, -pp.n): c_minus * c_minus.conjugate(),
        (pp.n, pp.n): c_plus * c_plus.conjugate(),
        (-pp.n, pp.n): cross_suppression * c_minus * c_plus.conjugate(),
        (pp.n, -pp.n): cross_suppression * c_plus * c_minus.conjugate(),
    }
    return _normalized(labels, entries)


def _weighted_matrix(rho: DyadEnsemble):
    """Hermitian matrix G^(1/2) R G^(1/2) whose spectrum is rho's physical one."""
    _, R, G = rho.as_matrices()
    w, V = np.linalg.eigh(G)
    w = np.clip(w, 0.0, None)
    Gh = (V * np.sqrt(w)) @ V.conj().T
    return Gh @ R @ Gh


def purity(rho: DyadEnsemble) -> float:
    """Tr rho^2 through the Gram-weighted double sum."""
    _, R, G = rho.as_matrices()
    RG = R @ G
    return np.trace(RG @ RG).real


def min_eigenvalue(rho: DyadEnsemble) -> float:
    """Smallest eigenvalue of the physical (Gram-weighted) density operator."""
    return float(np.linalg.eigvalsh(_weighted_matrix(rho)).min())


def trace_distance(a: DyadEnsemble, b: DyadEnsemble) -> float:
    """(1/2)||a - b||_1 for ensembles sharing one label table."""
    idx = sorted(set(a.labels) | set(b.labels))
    for j in idx:
        la, lb = a.labels.get(j), b.labels.get(j)
        if la is not None and lb is not None and la != lb:
            raise ValueError(f"label tables disagree at index {j}")
    labels = {j: (a.labels.get(j) or b.labels[j]) for j in idx}
    diff = {
        (j, k): a.entries.get((j, k), 0j) - b.entries.get((j, k), 0j)
        for j in idx
        for k in idx
    }
    M = _weighted_matrix(DyadEnsemble(labels, diff))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(M)).sum())


def cross_term_weight(rho: DyadEnsemble) -> float:
    """Total interference weight sum_{j != k} |rho_{jk} <label_k|label_j>|."""
    total = 0.0
    for (j, k), w in rho.entries.items():
        if j != k:
            total += abs(w * overlap(rho.labels[k], rho.labels[j]))
    return total


def qubit_coherence_decay(t: float, Gamma: float) -> float:
    """Dressed-coherence survival factor exp(-3 Gamma t / 4).

    The per-pulse dephasing exponent is this decay evaluated over the driven
    half period: xi = 3 Gamma T / 8.
    """
    if t < 0 or Gamma < 0:
        raise ValueError("t and Gamma must be non-negative")
    return math.exp(-0.75 * Gamma * t)
