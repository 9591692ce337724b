"""Position densities, Wigner functions, and scalar diagnostics.

Quadrature convention x = (a + a^dag)/sqrt(2), hbar = 1 throughout, so the
coherent position wavefunction is

    psi_alpha(x) = pi^{-1/4} exp[-(x - sqrt(2) Re a)^2 / 2
                                 + i sqrt(2) Im a * x - i Re a * Im a]

and the Wigner function W(x, p) = (1/pi) int e^{2ipy} <x-y|rho|x+y> dy.

For a coherent dyad |alpha><beta| that integral is a complex Gaussian with
no x-p cross term, so each dyad contributes an outer product of an x-profile
and a p-profile:

    W_ab(x, p) = (1/pi) C_ab f_ab(x) g_ab(p)
    f_ab(x) = exp[-(x - sqrt2 ar)^2/2 - (x - sqrt2 br)^2/2 + i sqrt2 (ai - bi) x]
    g_ab(p) = exp[-(p - (ai + bi)/sqrt2)^2 + i sqrt2 (br - ar) p]
    C_ab   = exp[(br - ar)^2/2 - i (br - ar)(ai + bi) - i (ar ai - br bi)]

with alpha = ar + i ai the ket label, beta = br + i bi the bra label.  The
dyad sum is accumulated as conjugate pairs, so the result is exactly real;
grids of a few hundred points per axis with tens of dyads cost milliseconds.
Moments are always computed from coefficients and overlaps, never from grid
sums, so diagnostics accuracy does not depend on grid resolution.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import SuperposedState, normalize, overlap
from .dephasing import DyadEnsemble, purity as _dyad_purity
from .errors import GridTooCoarse

SQRT2 = math.sqrt(2.0)

DEFAULT_HALF_WIDTH = 6.0
DEFAULT_POINTS = 201
GAUSSIAN_MARGIN = 3.0  # half-width must exceed sqrt(2)|alpha| by this much


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular (x, p) sampling."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must be ordered")
        if self.nx < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)

    def refined(self, factor: int = 2) -> "PhaseSpaceGrid":
        return PhaseSpaceGrid(
            self.x_min, self.x_max, self.p_min, self.p_max,
            (self.nx - 1) * factor + 1, (self.np - 1) * factor + 1,
        )


def default_grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(
        -DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH,
        -DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH,
        DEFAULT_POINTS, DEFAULT_POINTS,
    )


def grid_for(obj, base: PhaseSpaceGrid | None = None) -> PhaseSpaceGrid:
    """Default grid, expanded symmetrically if the state outgrows the box.

    The box half-width is raised to sqrt(2)|alpha| + 3 over all labels; the
    point count is kept, so expansion trades resolution for coverage.
    """
    if base is None:
        base = default_grid()
    need = max(
        (SQRT2 * abs(w_or_l.amplitude) + GAUSSIAN_MARGIN for w_or_l in _all_labels(obj)),
        default=0.0,
    )
    half = max(base.x_max, -base.x_min, base.p_max, -base.p_min)
    if need <= half:
        return base
    return PhaseSpaceGrid(-need, need, -need, need, base.nx, base.np)


def _all_labels(obj):
    if isinstance(obj, SuperposedState):
        return list(obj.labels)
    if isinstance(obj, DyadEnsemble):
        return list(obj.labels.values())
    raise TypeError(f"expected SuperposedState or DyadEnsemble, got {type(obj)!r}")


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a grid.

    ``values`` has shape (nx,) for a 1-D position density over the x axis
    and (nx, np) with [i, j] = field(x_i, p_j) for Wigner data.  ``norm``
    reports the Riemann sum over the grid so callers can judge whether the
    box truncated the state.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    kind: str
    norm: float = field(default=float("nan"))


def _dyad_list(obj):
    """Normalized dyads as (weight, ket amplitude, bra amplitude) triples.

    Label phases are folded into the weights; the weights sum (with
    overlaps) to one.
    """
    if isinstance(obj, SuperposedState):
        state = obj if obj.normalized else normalize(obj)
        out = []
        for cm, lm in state.components:
            for ck, lk in state.components:
                w = cm * ck.conjugate() * np.exp(1j * (lm.phase - lk.phase))
                out.append((w, lm.amplitude, lk.amplitude))
        return out
    if isinstance(obj, DyadEnsemble):
        out = []
        for (j, k), w in obj.entries.items():
            lj, lk = obj.labels[j], obj.labels[k]
            out.append(
                (w * np.exp(1j * (lj.phase - lk.phase)), lj.amplitude, lk.amplitude)
            )
        return out
    raise TypeError(f"expected SuperposedState or DyadEnsemble, got {type(obj)!r}")


def position_wavefunction(state: SuperposedState, x: np.ndarray) -> np.ndarray:
    """psi(x) = sum_m c_m e^{i theta_m} psi_{alpha_m}(x)."""
    x = np.asarray(x, dtype=float)
    tot = np.zeros_like(x, dtype=complex)
    for c, lab in state.components:
        ar, ai = lab.amplitude.real, lab.amplitude.imag
        tot += (
            c
            * np.exp(1j * lab.phase)
            * math.pi**-0.25
            * np.exp(-((x - SQRT2 * ar) ** 2) / 2 + 1j * SQRT2 * ai * x - 1j * ar * ai)
        )
    return tot


def position_density(state: SuperposedState, grid: PhaseSpaceGrid) -> GridField:
    """|psi(x)|^2 on the grid's x axis; integrates to 1 up to box truncation."""
    if not state.normalized:
        state = normalize(state)
    x = grid.x_axis()
    dens = np.abs(position_wavefunction(state, x)) ** 2
    return GridField(grid, dens, "probability_density", float(dens.sum() * grid.dx))


def _dyad_profiles(weight, alpha, beta, x, p):
    ar, ai = alpha.real, alpha.imag
    br, bi = beta.real, beta.imag
    fx = np.exp(
        -((x - SQRT2 * ar) ** 2) / 2
        - ((x - SQRT2 * br) ** 2) / 2
        + 1j * SQRT2 * (ai - bi) * x
    )
    gp = np.exp(-((p - (ai + bi) / SQRT2) ** 2) + 1j * SQRT2 * (br - ar) * p)
    const = (
        weight
        / math.pi
        * np.exp(
            (br - ar) ** 2 / 2
            - 1j * (br - ar) * (ai + bi)
            - 1j * (ar * ai - br * bi)
        )
    )
    return const, fx, gp


def _accumulate_wigner(dyads, grid: PhaseSpaceGrid) -> np.ndarray:
    """Sum dyad kernels pairing Hermitian partners, so the result is exactly real.

    kernel(b, a) = conj(kernel(a, b)), hence the (a, b) and (b, a) dyads of a
    Hermitian input combine into Re[(w_ab + conj(w_ba)) * kernel(a, b)].
    """
    x = grid.x_axis()
    p = grid.p_axis()
    W = np.zeros((grid.nx, grid.np))
    # One complex scratch array for every kernel: a fresh grid-sized
    # temporary per dyad makes the allocator fault in new pages each time.
    kernel = np.empty((grid.nx, grid.np), dtype=complex)
    acc = {}
    for w, a, b in dyads:
        key = (complex(a), complex(b))
        acc[key] = acc.get(key, 0j) + w
    done = set()
    for (a, b), w in acc.items():
        if (a, b) in done:
            continue
        if a == b:
            z = w
        else:
            z = w + acc.get((b, a), 0j).conjugate()
            done.add((b, a))
        const, fx, gp = _dyad_profiles(z, a, b, x, p)
        np.outer(fx, gp, out=kernel)
        np.multiply(const, kernel, out=kernel)
        W += kernel.real
    return W


def wigner_pure(state: SuperposedState, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a normalized superposition, exactly real."""
    W = _accumulate_wigner(_dyad_list(state), grid)
    return GridField(grid, W, "wigner", float(W.sum() * grid.dx * grid.dp))


def wigner_mixed(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a dyad ensemble, exactly real."""
    W = _accumulate_wigner(_dyad_list(rho), grid)
    return GridField(grid, W, "wigner", float(W.sum() * grid.dx * grid.dp))


def _moments(obj):
    """<a>, <a^2>, <a^dag a> from coefficients and overlaps (grid-free)."""
    e_a = 0j
    e_aa = 0j
    e_ada = 0j
    if isinstance(obj, SuperposedState):
        state = obj if obj.normalized else normalize(obj)
        for cm, lm in state.components:
            for ck, lk in state.components:
                w = ck.conjugate() * cm * overlap(lk, lm)
                am, ak = lm.amplitude, lk.amplitude
                e_a += w * am
                e_aa += w * am * am
                e_ada += w * ak.conjugate() * am
    elif isinstance(obj, DyadEnsemble):
        for (j, k), w in obj.entries.items():
            lj, lk = obj.labels[j], obj.labels[k]
            ov = w * overlap(lk, lj)
            aj, ak = lj.amplitude, lk.amplitude
            e_a += ov * aj
            e_aa += ov * aj * aj
            e_ada += ov * ak.conjugate() * aj
    else:
        raise TypeError(f"expected SuperposedState or DyadEnsemble, got {type(obj)!r}")
    return e_a, e_aa, e_ada


def negativity_volume(field: GridField) -> float:
    """Integral of max(0, -W) over the grid by plain Riemann sum."""
    if field.kind != "wigner":
        raise ValueError("negativity volume needs a Wigner field")
    return float(np.maximum(-field.values, 0.0).sum() * field.grid.dx * field.grid.dp)


def diagnostics(obj, wigner: GridField | None = None, check_grid: bool = True) -> dict:
    """Scalar summary of a state or ensemble.

    Moments (mean_x, mean_p, var_x, var_p) come from operator algebra on the
    coefficients; purity likewise.  When the Wigner field of ``obj`` is
    given, min_W, negativity_volume and wigner_norm are read from it.  With
    ``check_grid`` the negativity volume is recomputed on the field's grid
    refined 2x and a GridTooCoarse warning is emitted if it moves by more
    than 5%.
    """
    e_a, e_aa, e_ada = _moments(obj)
    mean_x = SQRT2 * e_a.real
    mean_p = SQRT2 * e_a.imag
    ex2 = (e_aa.real + e_ada.real) + 0.5
    ep2 = (-e_aa.real + e_ada.real) + 0.5
    mixed = isinstance(obj, DyadEnsemble)
    out = {
        "mean_x": mean_x,
        "mean_p": mean_p,
        "var_x": ex2 - mean_x**2,
        "var_p": ep2 - mean_p**2,
        "purity": _dyad_purity(obj) if mixed else 1.0,
    }
    if wigner is not None:
        neg = negativity_volume(wigner)
        out["min_W"] = float(wigner.values.min())
        out["negativity_volume"] = neg
        out["wigner_norm"] = wigner.norm
        if check_grid:
            refine = wigner_mixed if mixed else wigner_pure
            neg2 = negativity_volume(refine(obj, wigner.grid.refined()))
            if max(neg, neg2) > 1e-12 and abs(neg2 - neg) > 0.05 * max(neg, neg2):
                warnings.warn(
                    f"negativity volume moved {neg:.3e} -> {neg2:.3e} under 2x "
                    "grid refinement",
                    GridTooCoarse,
                    stacklevel=2,
                )
    return out
