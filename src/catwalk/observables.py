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
dyads are paired with their Hermitian partners, so the result is exactly
real, and the paired kernels are summed as one contraction of an x-profile
matrix with a p-profile matrix, in fixed-size dyad blocks: memory beyond
the field grows with the grid's axes and the block, not with the number of
dyads.  The contraction uses no BLAS, so its bits do not depend on the BLAS
thread count.  Every observable except the position density reads a
DyadEnsemble; a pure state enters as its rank-1 projector.  Moments are
always computed from dyad weights and overlaps, never from grid sums, so
diagnostics accuracy does not depend on grid resolution.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import SuperposedState, normalize, overlap
from .dephasing import DyadEnsemble, projector, purity
from .errors import GridTooCoarse

SQRT2 = math.sqrt(2.0)

DEFAULT_HALF_WIDTH = 6.0
DEFAULT_POINTS = 201
GAUSSIAN_MARGIN = 3.0  # half-width must exceed sqrt(2)|alpha| by this much
# Largest wigner_bytes a run may need (square grids up to 1060^2); that
# estimate bounds the Wigner evaluation's peak from above.  Writing the
# tables adds about twice as much again per point: a walk run on a 1001^2
# grid is allowed 115 MiB here and peaked at 305 MiB resident (Linux,
# numpy 2.4), against 45 MiB on the default grid.
WIGNER_BUDGET_BYTES = 128 * 2**20
# Dyads per Wigner contraction block: the profile matrices then take
# O((nx + np) * block) bytes whatever the number of dyads.  Blocks of 32 to
# 256 dyads all took 0.05-0.07 s for n = 20 on a 401^2 grid (2-CPU x86).
DYAD_BLOCK = 64
# Bytes per axis point and dyad of a block while its profiles are built:
# the kept x- or p-profile and the temporaries that evaluate it, measured
# at 48 (numpy 2.4) on grids with one long axis.
PROFILE_BYTES = 64


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
        # a finite span implies finite bounds
        if not (math.isfinite(self.x_max - self.x_min)
                and math.isfinite(self.p_max - self.p_min)):
            raise ValueError("grid bounds and spans must be finite")
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


def wigner_bytes(grid: PhaseSpaceGrid) -> int:
    """Upper bound on the peak bytes of a Wigner evaluation on ``grid`` and
    its 2x refinement in :func:`diagnostics`: 8 per point of the kept field,
    24 per refined point (the refined field and one block's contribution,
    or its clipped negative part) and the refined grid's profile blocks,
    PROFILE_BYTES per axis point and dyad of a block.  The last term
    dominates on grids with one short axis."""
    fine = grid.refined()
    return (8 * grid.nx * grid.np + 24 * fine.nx * fine.np
            + PROFILE_BYTES * DYAD_BLOCK * (fine.nx + fine.np))


def default_grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(
        -DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH,
        -DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH,
        DEFAULT_POINTS, DEFAULT_POINTS,
    )


def grid_for(rho: DyadEnsemble, base: PhaseSpaceGrid | None = None) -> PhaseSpaceGrid:
    """Default grid, expanded symmetrically if the state outgrows the box.

    The box half-width is raised to sqrt(2)|alpha| + 3 over all labels; the
    point count is kept, so expansion trades resolution for coverage.
    """
    if base is None:
        base = default_grid()
    need = max(
        (SQRT2 * abs(lab.amplitude) + GAUSSIAN_MARGIN for lab in rho.labels.values()),
        default=0.0,
    )
    half = max(base.x_max, -base.x_min, base.p_max, -base.p_min)
    if need <= half:
        return base
    return PhaseSpaceGrid(-need, need, -need, need, base.nx, base.np)


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


def _dyad_list(rho: DyadEnsemble):
    """Dyads as (weight, ket amplitude, bra amplitude) triples, in entry order.

    Label phases are folded into the weights; the weights sum (with
    overlaps) to one.
    """
    out = []
    for (j, k), w in rho.entries.items():
        lj, lk = rho.labels[j], rho.labels[k]
        out.append((w * np.exp(1j * (lj.phase - lk.phase)), lj.amplitude, lk.amplitude))
    return out


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
    """(const, f(x), g(p)) of the dyad kernel in the module docstring.

    Broadcasts: for arrays of D dyads and column axes x[:, None], p[:, None]
    it returns const of shape (D,) and profiles of shape (nx, D), (np, D).
    """
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
    Hermitian input combine into Re[z kernel(a, b)] with z = w_ab + conj(w_ba).
    Each paired kernel is const_d f_d(x) g_d(p), so the field is one
    contraction W = Re(F G^T) of the nx x D matrix F = z_d const_d f_d with
    the np x D matrix G = g_d, taken over blocks of DYAD_BLOCK dyads.  Read
    as float64, a complex row holds (Re, Im) pairs, so Re(F G^T) is the real
    contraction of F's rows with those of conj(G): each dyad's two products
    sit next to each other in the sum.  np.einsum sums without BLAS, so the
    bits do not depend on the BLAS thread count.
    """
    acc = {}
    for w, a, b in dyads:
        key = (complex(a), complex(b))
        acc[key] = acc.get(key, 0j) + w
    zs, kets, bras = [], [], []
    done = set()
    for (a, b), w in acc.items():
        if (a, b) in done:
            continue
        if a != b:
            w = w + acc.get((b, a), 0j).conjugate()
            done.add((b, a))
        zs.append(w)
        kets.append(a)
        bras.append(b)
    z, kets, bras = np.array(zs), np.array(kets), np.array(bras)
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[:, None]
    W = np.zeros((grid.nx, grid.np))
    for start in range(0, len(z), DYAD_BLOCK):
        block = slice(start, start + DYAD_BLOCK)
        const, fx, gp = _dyad_profiles(z[block], kets[block], bras[block], x, p)
        np.multiply(const, fx, out=fx)
        np.conjugate(gp, out=gp)
        W += np.einsum("ik,jk->ij", fx.view(float), gp.view(float))
    return W


def wigner_pure(state: SuperposedState, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a superposition: that of its projector."""
    return wigner_mixed(projector(state), grid)


def wigner_mixed(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a dyad ensemble, exactly real."""
    W = _accumulate_wigner(_dyad_list(rho), grid)
    return GridField(grid, W, "wigner", float(W.sum() * grid.dx * grid.dp))


def _moments(rho: DyadEnsemble):
    """<a>, <a^2>, <a^dag a> from dyad weights and overlaps (grid-free)."""
    e_a = 0j
    e_aa = 0j
    e_ada = 0j
    for (j, k), w in rho.entries.items():
        lj, lk = rho.labels[j], rho.labels[k]
        ov = w * overlap(lk, lj)
        aj, ak = lj.amplitude, lk.amplitude
        e_a += ov * aj
        e_aa += ov * aj * aj
        e_ada += ov * ak.conjugate() * aj
    return e_a, e_aa, e_ada


def negativity_volume(field: GridField) -> float:
    """Integral of max(0, -W) over the grid by plain Riemann sum."""
    if field.kind != "wigner":
        raise ValueError("negativity volume needs a Wigner field")
    # one grid-sized temporary, so wigner_bytes bounds diagnostics' peak
    clipped = np.negative(field.values)
    np.maximum(clipped, 0.0, out=clipped)
    return float(clipped.sum() * field.grid.dx * field.grid.dp)


def diagnostics(rho: DyadEnsemble, wigner: GridField | None = None,
                check_grid: bool = True) -> dict:
    """Scalar summary of a density (use :func:`projector` for a pure state).

    Moments (mean_x, mean_p, var_x, var_p) and purity come from the dyad
    weights and label overlaps.  When the Wigner field of ``rho`` is given,
    min_W, negativity_volume and wigner_norm are read from it.  With
    ``check_grid`` the negativity volume is recomputed on the field's grid
    refined 2x and a GridTooCoarse warning is emitted if it moves by more
    than 5%.
    """
    e_a, e_aa, e_ada = _moments(rho)
    mean_x = SQRT2 * e_a.real
    mean_p = SQRT2 * e_a.imag
    ex2 = (e_aa.real + e_ada.real) + 0.5
    ep2 = (-e_aa.real + e_ada.real) + 0.5
    out = {
        "mean_x": mean_x,
        "mean_p": mean_p,
        "var_x": ex2 - mean_x**2,
        "var_p": ep2 - mean_p**2,
        "purity": purity(rho),
    }
    if wigner is not None:
        neg = negativity_volume(wigner)
        out["min_W"] = float(wigner.values.min())
        out["negativity_volume"] = neg
        out["wigner_norm"] = wigner.norm
        if check_grid:
            neg2 = negativity_volume(wigner_mixed(rho, wigner.grid.refined()))
            if max(neg, neg2) > 1e-12 and abs(neg2 - neg) > 0.05 * max(neg, neg2):
                warnings.warn(
                    f"negativity volume moved {neg:.3e} -> {neg2:.3e} under 2x "
                    "grid refinement",
                    GridTooCoarse,
                    stacklevel=2,
                )
    return out
