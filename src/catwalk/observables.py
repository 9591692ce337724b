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
    f_ab(x) = exp[-(x - (ar + br)/sqrt2)^2 + i sqrt2 (ai - bi) x]
    g_ab(p) = exp[-(p - (ai + bi)/sqrt2)^2 + i sqrt2 (br - ar) p]
    C_ab   = exp[-i (br - ar)(ai + bi) - i (ar ai - br bi)]

with alpha = ar + i ai the ket label, beta = br + i bi the bra label.  The
real exponent of f_ab is that of the two wavefunctions and of the overlap
folded into one square, so |C_ab| = 1 and every kernel is bounded by 1/pi:
labels far apart in Re alpha do not overflow C_ab while f_ab underflows.  The
dyads are paired with their Hermitian partners, so the result is exactly
real, and the paired kernels are summed as one contraction of an x-profile
matrix with a p-profile matrix, in fixed-size dyad blocks: memory beyond
the field grows with the grid's axes and the block, not with the number of
dyads.  The contraction runs on one thread per band of the grid's x rows, a
band per usable CPU but at least BAND_ROWS = 64 rows each (a grid of fewer
than 128 x rows: the caller's thread alone), and uses no BLAS: its bits
depend neither on the BLAS thread count nor on the band count.  Every
observable reads a DyadEnsemble and a pure state enters as its rank-1
projector, so the position density is the p-marginal of the Wigner
function for pure and mixed states alike.  Each reading has one home.
:func:`diagnostics` gives the grid-free ones, the moments and the purity,
from dyad weights and overlaps, never from grid sums, so their accuracy
does not depend on grid resolution.  :func:`read_wigner` gives every
reading of the field: it evaluates the field once, on the fitted grid's
2x refinement, copies the even-index subgrid (the field on the grid bit
for bit) once, and reads min_W, the negativity volume and the Riemann sum
from that copy.  It holds the gates: GridTooCoarse when the negativity
volume moves under the refinement or when the grid step resolves no
coherent state, and DegenerateState, raised before the field is
evaluated, for a purity outside [0, 1] or moments below the uncertainty
bound.
"""

import math
import os
import threading
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import SuperposedState
from .dephasing import UNIT_MARGIN, DyadEnsemble, check_unit, projector, purity
from .errors import DegenerateState, GridTooCoarse

SQRT2 = math.sqrt(2.0)

DEFAULT_HALF_WIDTH = 6.0
DEFAULT_POINTS = 201
GAUSSIAN_MARGIN = 3.0  # half-width must exceed sqrt(2)|alpha| by this much
# Largest wigner_bytes a run may need (square grids up to 1060^2); that
# estimate bounds the Wigner evaluation's peak from above.  The tables are
# written in fixed-size chunks on top of it: a walk run (n = 10) on a 1001^2
# grid is allowed 115 MiB here and peaked at 103 MiB resident, a decohere
# run on an 801^2 grid at 79-86 MiB for 1 to 4 xi values (Linux, numpy 2.4).
WIGNER_BUDGET_BYTES = 128 * 2**20
# Dyads per Wigner contraction block: the profile matrices then take
# O((nx + np) * block) bytes whatever the number of dyads.  Blocks of 32 to
# 256 dyads all took 0.05-0.07 s for n = 20 on a 401^2 grid (2-CPU x86).
DYAD_BLOCK = 64
# Bytes per axis point and dyad of a block while its profiles are built:
# the kept x- or p-profile and the temporaries that evaluate it, measured
# at 48 (numpy 2.4) on grids with one long axis.
PROFILE_BYTES = 64
# Fewest x rows per thread of a Wigner evaluation; a grid with fewer than
# twice as many rows is evaluated in the caller's thread alone.  A thread
# and its two barrier waits per dyad block cost about 0.5 ms a call, which
# small grids do not win back.  Two bands against one, median of 40
# alternated calls (2-CPU x86): for the n = 20 dephased walk (4 blocks)
# 2.3 against 1.7 ms on a 41^2 grid, 3.7 against 4.1 ms on 81^2 and 5.3
# against 6.6 ms on 129^2; for n = 5 (1 block) 0.89 against 0.55 ms on
# 81^2 and 1.03 against 0.85 ms on 129^2.  The bands
# interleave, row i in band i % count: rows whose profiles underflow to
# subnormals contract several times slower, and they lie together in x.
# For the n = 160 walk's 401^2 field, the two contiguous halves contracted
# in 3.7 s and 1.5 s; in alternating runs with two bands, contiguous halves
# took a median 5.5 s and interleaved bands 4.2 s (2-CPU x86).
BAND_ROWS = 64


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

    def __str__(self) -> str:
        """The config key's syntax xmin,xmax,pmin,pmax,nx,np with floats by
        repr, which ``cli.parse_grid`` reads back to this grid."""
        bounds = [repr(float(v)) for v in (self.x_min, self.x_max, self.p_min, self.p_max)]
        return ",".join([*bounds, str(self.nx), str(self.np)])

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

    def refined(self) -> "PhaseSpaceGrid":
        """The grid with its steps halved.  Its even-index points are this
        grid's points bit for bit: halving a float step is exact, so
        ``refined().x_axis()[::2]`` equals ``x_axis()`` (and likewise p)."""
        return PhaseSpaceGrid(
            self.x_min, self.x_max, self.p_min, self.p_max,
            2 * self.nx - 1, 2 * self.np - 1,
        )


def wigner_bytes(grid: PhaseSpaceGrid) -> int:
    """Upper bound on the peak bytes of one :func:`read_wigner` on ``grid``,
    which evaluates the field on ``grid.refined()``: 8 per point
    of ``grid`` (the even-index copy), 24 per refined point (the field and
    one block's contribution or a clipped negative part; 16 are needed) and
    the refined grid's profile blocks, PROFILE_BYTES per axis point and dyad
    of a block.  The last term dominates on grids with one short axis."""
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
    """``base`` (the default grid if None) with each side that falls short
    of the labels moved out.

    Each bound must lie at least sqrt(2)|alpha| + 3 from the origin, the
    largest over all labels; the bounds that do are kept, and so are the
    point counts, so widening trades resolution for coverage.  |alpha| is
    Python's abs: np.abs differs from it in the last bit, which would move
    the widened bounds.
    """
    if base is None:
        base = default_grid()
    need = max((SQRT2 * abs(a) + GAUSSIAN_MARGIN for a in rho.amplitudes.tolist()),
               default=0.0)
    return PhaseSpaceGrid(min(base.x_min, -need), max(base.x_max, need),
                          min(base.p_min, -need), max(base.p_max, need), base.nx, base.np)


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


def _coarsened(fine: GridField) -> GridField:
    """A field on a :meth:`PhaseSpaceGrid.refined` grid at its even-index
    points, the field on the grid bit for bit: a contiguous copy, so the
    Riemann sum adds in the order of a field evaluated there."""
    g = fine.grid
    coarse = replace(g, nx=(g.nx + 1) // 2, np=(g.np + 1) // 2)
    return _wigner_field(coarse, np.ascontiguousarray(fine.values[::2, ::2]))


def _wigner_field(grid: PhaseSpaceGrid, W: np.ndarray) -> GridField:
    return GridField(grid, W, "wigner", float(W.sum() * grid.dx * grid.dp))


def _folded(rho: DyadEnsemble) -> np.ndarray:
    """The weights with the label phases folded in, w_jk = rho_jk e^{i(theta_j - theta_k)}."""
    return rho.weights * np.exp(1j * (rho.phases[:, None] - rho.phases))


def position_density(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> GridField:
    """<x|rho|x> on the grid's x axis; integrates to 1 up to box truncation.

    rho(x) = Re sum_jk psi_j(x) w_jk conj(psi_k(x)) with psi_j the coherent
    wavefunction of amplitude a_j in the module docstring and w the folded
    weights.  The nx x m matrix of the psi_j is summed by np.einsum, without
    BLAS, so the bits do not depend on the BLAS thread count.
    """
    w = _folded(rho)
    ar, ai = rho.amplitudes.real, rho.amplitudes.imag
    x = grid.x_axis()[:, None]
    psi = math.pi**-0.25 * np.exp(
        -((x - SQRT2 * ar) ** 2) / 2 + 1j * SQRT2 * ai * x - 1j * ar * ai)
    dens = np.einsum("ij,jk,ik->i", psi, w, psi.conj()).real
    return GridField(grid, dens, "probability_density", float(dens.sum() * grid.dx))


def _dyad_profiles(weight, alpha, beta, x, p):
    """(const, f(x), g(p)) of the dyad kernel in the module docstring.

    Broadcasts: for arrays of D dyads and column axes x[:, None], p[:, None]
    it returns const of shape (D,) and profiles of shape (nx, D), (np, D).
    """
    ar, ai = alpha.real, alpha.imag
    br, bi = beta.real, beta.imag
    fx = np.exp(-((x - (ar + br) / SQRT2) ** 2) + 1j * SQRT2 * (ai - bi) * x)
    gp = np.exp(-((p - (ai + bi) / SQRT2) ** 2) + 1j * SQRT2 * (br - ar) * p)
    const = weight / math.pi * np.exp(-1j * (br - ar) * (ai + bi) - 1j * (ar * ai - br * bi))
    return const, fx, gp


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def wigner_bands(grid: PhaseSpaceGrid) -> int:
    """Row bands, hence threads, of a Wigner evaluation on ``grid``: one per
    usable CPU, but only as many as leave BAND_ROWS x rows to each, and at
    least one."""
    return max(1, min(_usable_cpus(), grid.nx // BAND_ROWS))


def read_bands(grid: PhaseSpaceGrid) -> int:
    """Row bands of a :func:`read_wigner` from ``grid`` (``grid_for`` keeps its point counts)."""
    return wigner_bands(grid.refined())


def _accumulate_wigner(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> np.ndarray:
    """Sum dyad kernels pairing Hermitian partners, so the result is exactly real.

    The label phases are folded into the weights by :func:`_folded`.
    kernel(k, j) = conj(kernel(j, k)), hence the (j, k) and (k, j) dyads
    combine into Re[z_jk kernel(j, k)] with z_jk = w_jk + conj(w_kj), taken over the upper triangle j <= k row by
    row; pairs with z = 0 are skipped.  Each paired kernel is const_d
    f_d(x) g_d(p), so the field is one contraction W = Re(F G^T) of the
    nx x D matrix F = z_d const_d f_d with the np x D matrix G = g_d, taken
    over blocks of DYAD_BLOCK dyads.  Read as float64, a complex row holds
    (Re, Im) pairs, so Re(F G^T) is the real contraction of F's rows with
    those of conj(G): each dyad's two products sit next to each other in
    the sum.  np.einsum sums without BLAS.

    The work is dealt into :func:`wigner_bands` interleaved bands, each run
    by its own thread (the caller's is one): band b of c holds the x rows
    and the p rows b, b + c, b + 2c, ...  Per block, each band builds its
    rows of F and its rows of the one shared G, waits for the others, adds
    the contraction of its rows of F with the whole G to its rows of W,
    and waits again before G is overwritten.
    Every element comes from the same elementwise ops and the same K-long
    einsum reduction as in one band, so the bits depend neither on the BLAS
    thread count nor on the band count; and the bands' profiles add up to
    those of one band, so wigner_bytes bounds the peak whatever the band
    count.  A band that raises breaks the barrier, so that the others
    stop; every thread is joined, and the first exception is raised.
    """
    w = _folded(rho)
    j, k = np.triu_indices(len(w))
    z = (np.triu(w) + np.triu(w.T.conj(), 1))[j, k]
    keep = z != 0
    z, kets, bras = z[keep], rho.amplitudes[j[keep]], rho.amplitudes[k[keep]]
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[:, None]
    W = np.zeros((grid.nx, grid.np))
    shared_g = np.empty(grid.np * DYAD_BLOCK, complex)
    count = wigner_bands(grid)
    barrier = threading.Barrier(count)
    errors = []

    def band(rows):
        try:
            for start in range(0, len(z), DYAD_BLOCK):
                block = slice(start, start + DYAD_BLOCK)
                const, fx, gp = _dyad_profiles(z[block], kets[block], bras[block],
                                               x[rows], p[rows])
                np.multiply(const, fx, out=fx)
                G = shared_g[:grid.np * len(const)].reshape(grid.np, len(const))
                np.conjugate(gp, out=G[rows])
                # a p-profile kept while the next block's are built would
                # take a grid with a long p axis past wigner_bytes
                del gp
                barrier.wait()
                W[rows] += np.einsum("ik,jk->ij", fx.view(float), G.view(float))
                barrier.wait()
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)  # before the abort, so errors[0] is the cause
            barrier.abort()

    bands = [slice(b, None, count) for b in range(count)]
    started = []
    try:
        for rows in bands[1:]:
            thread = threading.Thread(target=band, args=(rows,))
            thread.start()
            started.append(thread)
        band(bands[0])
    except BaseException:  # a thread could not start
        barrier.abort()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return W


def wigner_pure(state: SuperposedState, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a superposition: that of its projector."""
    return wigner_mixed(projector(state), grid)


def wigner_mixed(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> GridField:
    """Wigner function of a dyad ensemble, exactly real."""
    return _wigner_field(grid, _accumulate_wigner(rho, grid))


def _moments(rho: DyadEnsemble):
    """<a>, <a^2>, <a^dag a> from dyad weights and overlaps (grid-free): the
    sums of rho_jk <label_k|label_j> times a_j, a_j^2 and conj(a_k) a_j."""
    terms = rho.weights * rho.gram.T
    a = rho.amplitudes
    terms_a = terms * a[:, None]
    return (complex(terms_a.sum()), complex((terms_a * a[:, None]).sum()),
            complex((terms_a * a.conj()).sum()))


def negativity_volume(field: GridField) -> float:
    """Integral of max(0, -W) over the grid by plain Riemann sum."""
    if field.kind != "wigner":
        raise ValueError("negativity volume needs a Wigner field")
    # one grid-sized temporary, so wigner_bytes bounds the read's peak
    clipped = np.negative(field.values)
    np.maximum(clipped, 0.0, out=clipped)
    return float(clipped.sum() * field.grid.dx * field.grid.dp)


def diagnostics(rho: DyadEnsemble) -> dict:
    """Grid-free scalar summary of a density (use :func:`projector` for a
    pure state): the moments mean_x, mean_p, var_x, var_p and the purity,
    from the dyad weights and the labels' Gram matrix."""
    e_a, e_aa, e_ada = _moments(rho)
    mean_x = SQRT2 * e_a.real
    mean_p = SQRT2 * e_a.imag
    ex2 = (e_aa.real + e_ada.real) + 0.5
    ep2 = (-e_aa.real + e_ada.real) + 0.5
    return {
        "mean_x": mean_x,
        "mean_p": mean_p,
        "var_x": ex2 - mean_x**2,
        "var_p": ep2 - mean_p**2,
        "purity": purity(rho),
    }


def read_wigner(rho: DyadEnsemble, base: PhaseSpaceGrid | None = None) -> tuple:
    """(Wigner field, diagnostics) of a density on the grid ``grid_for``
    fits around it from ``base``, from one evaluation on that grid's 2x
    refinement.  The field is its even-index subgrid, copied once; min_W,
    negativity_volume and wigner_norm are read from that copy and added to
    :func:`diagnostics`.

    Its gates, in order: warns GridTooCoarse when the grid's larger step d
    cannot resolve one coherent state (the Riemann sum of its Gaussian is
    off by about 2 exp(-(pi/d)^2), by Poisson summation, over 1e-6 once
    d > 0.825); raises DegenerateState, before the field is evaluated, when
    the purity leaves [0, 1] by more than the rounding margin of
    ``check_unit`` or when a moment is not finite or var_x * var_p falls
    below Robertson's bound 1/4 by more than that margin; then warns
    GridTooCoarse when the negativity volume of the whole refined field
    moves by more than 5% from the field's.
    """
    grid = grid_for(rho, base)
    step, limit = max(grid.dx, grid.dp), math.pi / math.sqrt(math.log(2e6))
    if step > limit:
        warnings.warn(f"grid step {step:.3g} resolves no coherent state: above {limit:.3f} "
                      "the Riemann sum of its Gaussian is off by more than 1e-6",
                      GridTooCoarse, stacklevel=2)
    diag = diagnostics(rho)
    check_unit("the purity", diag["purity"])
    moments = [diag[key] for key in ("mean_x", "mean_p", "var_x", "var_p")]
    if not (all(map(math.isfinite, moments))
            and diag["var_x"] * diag["var_p"] >= 0.25 * (1 - UNIT_MARGIN)):
        raise DegenerateState(f"var_x = {diag['var_x']:.6g}, var_p = {diag['var_p']:.6g}: "
                              "below Robertson's bound 1/4, the dyad weights cancel past "
                              "the floating-point floor")
    fine = wigner_mixed(rho, grid.refined())
    field = _coarsened(fine)
    neg, neg2 = negativity_volume(field), negativity_volume(fine)
    diag.update(min_W=float(field.values.min()), negativity_volume=neg,
                wigner_norm=field.norm)
    if max(neg, neg2) > 1e-12 and abs(neg2 - neg) > 0.05 * max(neg, neg2):
        warnings.warn(f"negativity volume moved {neg:.3e} -> {neg2:.3e} under 2x "
                      "grid refinement", GridTooCoarse, stacklevel=2)
    return field, diag
