import cmath
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from math import pi
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk import cli, dephasing, observables
from catwalk.algebra import CoherentLabel, SuperposedState, gram_matrix, normalize, overlap
from catwalk.dephasing import DyadEnsemble, cat_density, projector, walk_density
from catwalk.errors import DegenerateState, GridTooCoarse
from catwalk.observables import (
    PhaseSpaceGrid,
    _accumulate_wigner,
    _dyad_profiles,
    _moments,
    default_grid,
    diagnostics,
    grid_for,
    negativity_volume,
    position_density,
    read_wigner,
    wigner_bytes,
    wigner_mixed,
    wigner_pure,
)
from catwalk.protocol import ProtocolParams, walk_components, walk_state

from conftest import coherent_psi_x, wigner_dyad_closed, wigner_dyad_quadrature


def fig_pp(n, alpha0=0j, l1=0.1):
    return ProtocolParams(l1, 0.01, 4.5 * pi, n, alpha0=alpha0)


def pure_state(*pairs):
    return normalize(SuperposedState(tuple(pairs)))


VACUUM = pure_state((1.0, CoherentLabel.vacuum()))

# Rounding bound on the moments <a>, <a^2> and <a^dag a> that holds for any
# summation order: MOMENT_ROUNDING eps sum_jk |rho_jk G_kj| (1 + |a_j|^2).
# Against mpmath the moments stayed within 1.0 times eps times that sum for
# ten draws of the kick parameters (walk n = 10 and 20, dephased walk n = 20
# at xi = 0 and 0.2); the per-dyad loops they replaced reached 1.34.
MOMENT_ROUNDING = 4


def moment_scale(rho):
    """eps sum_jk |rho_jk <label_k|label_j>| (1 + |a_j|^2)."""
    a = rho.amplitudes
    terms = np.abs(rho.weights * rho.gram.T)
    return np.finfo(float).eps * float((terms * (1 + np.abs(a[:, None]) ** 2)).sum())


def dyad_triples(rho):
    """The dyads of ``rho`` as (weight, ket amplitude, bra amplitude), row by
    row, with the label phases folded into the weights."""
    labels = list(zip(rho.amplitudes.tolist(), rho.phases.tolist()))
    return [(rho.weights[j, k] * np.exp(1j * (tj - tk)), aj, ak)
            for j, (aj, tj) in enumerate(labels) for k, (ak, tk) in enumerate(labels)]


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(1, -1, -6, 6, 100, 100)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(-6, 6, -6, 6, 1, 100)
        with pytest.raises(ValueError, match="finite"):
            PhaseSpaceGrid(-math.inf, math.inf, -6, 6, 11, 11)
        with pytest.raises(ValueError, match="finite"):
            PhaseSpaceGrid(-6, 6, -1e308, 1e308, 11, 11)

    def test_default(self):
        g = default_grid()
        assert g.x_min == -6 and g.x_max == 6 and g.nx == 201
        assert g.dx == pytest.approx(0.06)

    def test_auto_expansion(self):
        # n = 20 drives labels out to |alpha| ~ 3.9; the box must follow
        state = walk_state(fig_pp(20))
        g = grid_for(projector(state))
        need = max(math.sqrt(2) * abs(l.amplitude) for l in state.labels) + 3
        assert g.x_max == pytest.approx(need)
        assert g.nx == 201

    def test_no_expansion_when_contained(self):
        assert grid_for(projector(VACUUM)) == default_grid()

    @settings(max_examples=300, deadline=None)
    @given(x=st.tuples(st.floats(-15, 15), st.floats(1e-3, 30)),
           p=st.tuples(st.floats(-15, 15), st.floats(1e-3, 30)),
           amplitudes=st.lists(st.complex_numbers(max_magnitude=6), min_size=1, max_size=4))
    def test_each_short_side_moves_out_to_the_labels(self, x, p, amplitudes):
        # an off-centre base: each side is kept if it covers every label's
        # sqrt(2)|alpha| + 3, else moved out to exactly that, never inward
        base = PhaseSpaceGrid(x[0], x[0] + x[1], p[0], p[0] + p[1], 17, 23)
        m = len(amplitudes)
        g = grid_for(DyadEnsemble(amplitudes, [0.0] * m, np.eye(m) / m), base)
        need = max(math.sqrt(2) * abs(a) + observables.GAUSSIAN_MARGIN for a in amplitudes)
        for side, sign in (("x_min", -1), ("x_max", 1), ("p_min", -1), ("p_max", 1)):
            kept, fitted = getattr(base, side), getattr(g, side)
            assert sign * fitted >= need
            assert fitted == (kept if sign * kept >= need else sign * need)
        assert (g.nx, g.np) == (base.nx, base.np)
        assert (g == base) == (min(-base.x_min, base.x_max, -base.p_min, base.p_max) >= need)


# Bounds (lower, upper) of one axis: off-centre, tiny and huge spans.  The
# span stays above 1e-290, so the refined step is a normal float and halving
# it is exact.
AXIS_BOUNDS = st.tuples(st.floats(-1e300, 1e300), st.floats(1e-290, 1e300)).map(
    lambda cs: (cs[0], cs[0] + max(cs[1], 1e-9 * abs(cs[0]))))

ALPHA0 = 0.7 + 0.3j


class TestRefinedSubgrid:
    """``read_wigner`` evaluates a density's Wigner function once, on the 2x
    refined grid, and reads the field on the grid itself from its even-index
    points.  That rests on two identities, held here bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(AXIS_BOUNDS, AXIS_BOUNDS, st.integers(2, 2001), st.integers(2, 2001))
    def test_axes_are_the_even_refined_points(self, xb, pb, nx, np_):
        g = PhaseSpaceGrid(*xb, *pb, nx, np_)
        fine = g.refined()
        assert fine.x_axis()[::2].tobytes() == g.x_axis().tobytes()
        assert fine.p_axis()[::2].tobytes() == g.p_axis().tobytes()

    @pytest.mark.parametrize("base", [
        pytest.param(default_grid(), id="default"),
        pytest.param(PhaseSpaceGrid(-3, 9, -5, 4, 37, 53), id="off-centre-37x53"),
        pytest.param(PhaseSpaceGrid(-6, 6, -6, 6, 401, 401), id="401"),
        pytest.param(PhaseSpaceGrid(-6, 6, -6, 6, 2, 1001), id="2x1001"),
    ])
    @pytest.mark.parametrize("rho", [
        pytest.param(lambda: walk_density(fig_pp(1)), id="walk-1"),
        pytest.param(lambda: walk_density(fig_pp(10)), id="walk-10"),
        pytest.param(lambda: walk_density(fig_pp(20)), id="walk-20"),
        pytest.param(lambda: projector(walk_state(fig_pp(5))), id="pure-walk-5"),
        pytest.param(lambda: walk_density(fig_pp(20), math.exp(-0.2)), id="decohere-20-xi0.2"),
        pytest.param(lambda: walk_density(fig_pp(5), math.exp(-1.0)), id="decohere-5-xi1"),
        pytest.param(lambda: walk_density(fig_pp(10, alpha0=ALPHA0)), id="walk-10-alpha0"),
        pytest.param(lambda: walk_density(fig_pp(10, alpha0=ALPHA0), math.exp(-0.2)),
                     id="decohere-10-alpha0"),
        pytest.param(lambda: walk_density(fig_pp(5, l1=2.0)), id="walk-5-l1-2"),
        pytest.param(lambda: cat_density(fig_pp(10))[0], id="cat"),
        pytest.param(lambda: cat_density(fig_pp(10), math.exp(-2.0))[0], id="cat-damped"),
    ])
    def test_subgrid_is_the_field_on_the_grid(self, rho, base):
        rho = rho()
        g = grid_for(rho, base)
        field = observables._coarsened(wigner_mixed(rho, g.refined()))
        reference = wigner_mixed(rho, g)
        assert field.grid == g
        assert field.values.flags.c_contiguous
        assert field.values.tobytes() == reference.values.tobytes()
        assert field.norm == reference.norm

    @pytest.mark.parametrize("rho, coarse", [
        pytest.param(lambda: walk_density(fig_pp(10)), False, id="walk-10"),
        # its negativity moves 1.52e-2 -> 1.22e-2 under the refinement
        pytest.param(lambda: walk_density(fig_pp(20), math.exp(-0.2)), True,
                     id="decohere-20-xi0.2"),
        pytest.param(lambda: cat_density(fig_pp(10), math.exp(-2.0))[0], False,
                     id="cat-damped"),
    ])
    def test_read_is_the_field_and_diagnostics_on_the_fitted_grid(self, rho, coarse):
        rho = rho()
        base = PhaseSpaceGrid(-3, 9, -5, 4, 37, 53)
        g = grid_for(rho, base)
        if coarse:
            with pytest.warns(GridTooCoarse, match="negativity volume moved"):
                field, diag = read_wigner(rho, base)
        else:
            field, diag = read_wigner(rho, base)
        reference = wigner_mixed(rho, g)
        # the fitted box holds the state on every side
        assert reference.norm == pytest.approx(1.0, abs=2e-5)
        assert field.grid == g
        assert field.values.tobytes() == reference.values.tobytes()
        assert field.norm == reference.norm
        assert diag == {**diagnostics(rho), "min_W": float(reference.values.min()),
                        "negativity_volume": negativity_volume(reference),
                        "wigner_norm": reference.norm}

    def test_one_subgrid_copy_per_read(self, monkeypatch):
        # the field returned and the readings taken from it are one copy
        copies, coarsened = [], observables._coarsened

        def counted(fine):
            copies.append(fine.grid)
            return coarsened(fine)

        monkeypatch.setattr(observables, "_coarsened", counted)
        rho = walk_density(fig_pp(5))
        field, diag = read_wigner(rho)
        assert copies == [grid_for(rho).refined()]
        assert diag["wigner_norm"] == field.norm


class TestPositionDensity:
    def test_vacuum_gaussian(self):
        g = default_grid()
        dens = position_density(projector(VACUUM), g)
        x = g.x_axis()
        assert np.allclose(dens.values, np.exp(-(x**2)) / math.sqrt(pi), atol=1e-12)
        assert dens.values.max() == pytest.approx(1 / math.sqrt(pi))
        assert dens.norm == pytest.approx(1.0, abs=1e-6)

    def test_single_component_center(self):
        alpha = 0.311558267 + 1.96710148j
        state = pure_state((1.0, CoherentLabel(alpha)))
        g = default_grid()
        dens = position_density(projector(state), g)
        center = g.x_axis()[np.argmax(dens.values)]
        assert center == pytest.approx(math.sqrt(2) * alpha.real, abs=g.dx)
        assert math.sqrt(2) * alpha.real == pytest.approx(0.4406, abs=2e-4)

    def test_two_symmetric_peaks_at_n1(self):
        g = PhaseSpaceGrid(-6, 6, -6, 6, 1201, 3)
        dens = position_density(projector(walk_state(fig_pp(1))), g).values
        x = g.x_axis()
        peaks = [
            (x[i], dens[i])
            for i in range(1, len(x) - 1)
            if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
            and dens[i] > 0.1 * dens.max()
        ]
        assert len(peaks) == 2
        (x1, h1), (x2, h2) = peaks
        assert x1 == pytest.approx(-x2, abs=0.02)
        assert abs(h1 - h2) / max(h1, h2) < 0.02

    def test_phase_tracked(self):
        # a label phase theta acts as the factor e^{i theta} on its coefficient
        g = default_grid()

        def density(coeff, theta):
            state = SuperposedState(((1.0, CoherentLabel(0.5 + 0.2j)),
                                     (coeff, CoherentLabel(-0.4 + 0.1j, theta))))
            return position_density(projector(state), g).values

        on_label = density(1.0, 1.0)
        assert np.abs(on_label - density(cmath.exp(1j), 0.0)).max() < 1e-14
        assert np.abs(on_label - density(1.0, 0.0)).max() > 0.01

    def test_incoherent_walk_is_a_sum_of_gaussians(self):
        # at xi = inf only the diagonal weights survive
        rho = walk_density(fig_pp(10), math.exp(-math.inf))
        np.testing.assert_array_equal(rho.weights, np.diag(np.diagonal(rho.weights)))
        g = default_grid()
        x = g.x_axis()
        expected = sum(rho.weights[j, j].real * np.abs(coherent_psi_x(a, x)) ** 2
                       for j, a in enumerate(rho.amplitudes))
        assert np.abs(position_density(rho, g).values - expected).max() < 1e-14

    def test_dephased_walk_is_the_wigner_marginal(self):
        g = default_grid()
        rho = walk_density(fig_pp(5), math.exp(-0.5))
        marginal = wigner_mixed(rho, g).values.sum(axis=1) * g.dp
        assert np.abs(marginal - position_density(rho, g).values).max() < 1e-4


class TestWignerPure:
    def test_vacuum(self):
        g = default_grid()
        W = wigner_pure(VACUUM, g)
        i0 = g.nx // 2
        assert W.values[i0, i0] == pytest.approx(1 / pi)
        assert W.norm == pytest.approx(1.0, abs=1e-6)
        assert W.values.min() > -1e-15

    def test_closed_form_vs_quadrature_dyads(self, rng):
        # 20 random dyads, closed form against direct quadrature on a
        # subsample of the default grid
        g = default_grid()
        xs = g.x_axis()[::10]
        ps = g.p_axis()[::10]
        for _ in range(20):
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            b = complex(*rng.uniform(-1.5, 1.5, 2))
            closed = wigner_dyad_closed(a, b, xs, ps)
            quad = wigner_dyad_quadrature(a, b, xs, ps)
            assert np.abs(closed - quad).max() < 1e-6

    def test_dyad_kernel_integrates_to_overlap(self, rng):
        # int W_ab dx dp = <b|a>
        from catwalk.algebra import overlap

        g = PhaseSpaceGrid(-8, 8, -8, 8, 401, 401)
        xs, ps = g.x_axis(), g.p_axis()
        for _ in range(5):
            a = complex(*rng.uniform(-1.2, 1.2, 2))
            b = complex(*rng.uniform(-1.2, 1.2, 2))
            K = wigner_dyad_closed(a, b, xs, ps)
            integral = K.sum() * g.dx * g.dp
            expected = overlap(CoherentLabel(b), CoherentLabel(a))
            assert abs(integral - expected) < 1e-6

    def test_reality_of_unsymmetrized_sum(self):
        # accumulate the complex kernels without Hermitian pairing; the
        # imaginary parts must cancel pointwise
        state = walk_state(fig_pp(5))
        g = default_grid()
        xs, ps = g.x_axis()[::5], g.p_axis()[::5]
        total = np.zeros((len(xs), len(ps)), dtype=complex)
        for cm, lm in state.components:
            for ck, lk in state.components:
                w = cm * ck.conjugate() * np.exp(1j * (lm.phase - lk.phase))
                total += w * wigner_dyad_closed(lm.amplitude, lk.amplitude, xs, ps)
        assert np.abs(total.imag).max() < 1e-10
        W = wigner_pure(state, g)
        assert np.abs(W.values[::5, ::5] - total.real).max() < 1e-12

    def test_normalization_and_bound(self):
        g = default_grid()
        for state in (VACUUM, walk_state(fig_pp(5)), walk_state(fig_pp(1))):
            W = wigner_pure(state, g)
            assert abs(W.norm - 1.0) < 1e-3
            assert np.abs(W.values).max() <= 1 / pi + 1e-9

    def test_marginal_matches_position_density(self):
        g = default_grid()
        state = walk_state(fig_pp(5))
        W = wigner_pure(state, g)
        marginal = W.values.sum(axis=1) * g.dp
        dens = position_density(projector(state), g).values
        assert np.abs(marginal - dens).max() < 1e-4

    def test_interference_negativity(self):
        W = wigner_pure(walk_state(fig_pp(5)), default_grid())
        assert W.values.min() < -0.1


class TestWignerMixed:
    def test_xi_zero_matches_pure(self):
        g = default_grid()
        pp = fig_pp(5)
        Wp = wigner_pure(walk_state(pp), g)
        Wm = wigner_mixed(walk_density(pp), g)
        assert np.abs(Wp.values - Wm.values).max() < 1e-9

    def test_negativity_collapse(self):
        g = default_grid()
        neg0 = negativity_volume(wigner_mixed(walk_density(fig_pp(5)), g))
        neg1 = negativity_volume(wigner_mixed(walk_density(fig_pp(5), math.exp(-1.0)), g))
        assert neg1 < 0.05 * neg0

    def test_cat_cross_dyad_fringes(self):
        from catwalk.dephasing import cat_density

        g = default_grid()
        pp = fig_pp(10)
        full = wigner_mixed(cat_density(pp)[0], g)
        damped = wigner_mixed(cat_density(pp, math.exp(-2.0))[0], g)
        assert negativity_volume(damped) < negativity_volume(full)
        assert abs(full.norm - 1.0) < 1e-3 and abs(damped.norm - 1.0) < 1e-3

    @staticmethod
    def dyad_loop(dyads, grid):
        """The per-dyad accumulation the contraction replaced: Hermitian
        pairs summed one full-grid outer product at a time.  Returns the
        field, the pointwise magnitude sum_d |const_d f_d(x) g_d(p)| of its
        terms and the global rounding scale sum_d |const_d| max|f_d| max|g_d|."""
        x, p = grid.x_axis(), grid.p_axis()
        acc = {}
        for w, a, b in dyads:
            key = (complex(a), complex(b))
            acc[key] = acc.get(key, 0j) + w
        W = np.zeros((grid.nx, grid.np))
        magnitude = np.zeros((grid.nx, grid.np))
        scale = 0.0
        done = set()
        for (a, b), w in acc.items():
            if (a, b) in done:
                continue
            z = w if a == b else w + acc.get((b, a), 0j).conjugate()
            done.add((b, a))
            const, fx, gp = _dyad_profiles(z, a, b, x, p)
            W += (const * np.outer(fx, gp)).real
            magnitude += abs(const) * np.outer(np.abs(fx), np.abs(gp))
            scale += abs(const) * np.abs(fx).max() * np.abs(gp).max()
        return W, magnitude, scale

    @staticmethod
    def wigner_mp(dyads, x, p):
        """W(x, p) from the closed-form dyad kernels at 40 digits, unpaired."""
        with mpmath.workdps(40):
            s2 = mpmath.sqrt(2)
            x, p = mpmath.mpf(x), mpmath.mpf(p)
            total = mpmath.mpf(0)
            for w, a, b in dyads:
                ar, ai, br, bi = (mpmath.mpf(v) for v in (a.real, a.imag, b.real, b.imag))
                exponent = (-(x - s2 * ar) ** 2 / 2 - (x - s2 * br) ** 2 / 2
                            + 1j * s2 * (ai - bi) * x
                            - (p - (ai + bi) / s2) ** 2 + 1j * s2 * (br - ar) * p
                            + (br - ar) ** 2 / 2 - 1j * (br - ar) * (ai + bi)
                            - 1j * (ar * ai - br * bi))
                total += (mpmath.mpc(w.real, w.imag) * mpmath.exp(exponent)).real
            return float(total / mpmath.pi)

    def test_contraction_matches_dyad_loop_within_rounding(self, rng):
        random_dyads = [(complex(*rng.normal(size=2)), complex(*rng.uniform(-1, 1, 2)),
                         complex(*rng.uniform(-1, 1, 2))) for _ in range(6)]
        # six dyads |ket_i><bra_i| of a non-Hermitian ensemble with 12 rows
        R = np.zeros((12, 12), dtype=complex)
        R[range(6), range(6, 12)] = [w for w, _, _ in random_dyads]
        amplitudes = [a for _, a, _ in random_dyads] + [b for _, _, b in random_dyads]
        walk = projector(walk_state(fig_pp(10)))
        dephased = walk_density(fig_pp(20), math.exp(-0.2))
        cases = [
            (DyadEnsemble(amplitudes, np.zeros(12), R), random_dyads,
             PhaseSpaceGrid(-4, 4, -3, 3, 41, 31)),
            (walk, dyad_triples(walk), default_grid()),
            (dephased, dyad_triples(dephased), default_grid()),
        ]
        for rho, dyads, g in cases:
            expected, _, scale = self.dyad_loop(dyads, g)
            bound = 64 * np.finfo(float).eps * scale
            assert np.abs(_accumulate_wigner(rho, g) - expected).max() <= bound

    @pytest.mark.parametrize("rho", [
        pytest.param(lambda: projector(walk_state(fig_pp(10))), id="walk-10"),
        pytest.param(lambda: projector(walk_state(fig_pp(20))), id="walk-20"),
        pytest.param(lambda: walk_density(fig_pp(20), math.exp(-0.2)), id="decohere-20"),
        pytest.param(lambda: cat_density(fig_pp(10), math.exp(-2.0))[0], id="cat-damped"),
    ])
    def test_contraction_error_against_mpmath(self, rho):
        # A rounding bound at each point that holds for any summation order:
        # |W - W_mp| <= 128 eps sum_d |const_d f_d(x) g_d(p)|.  Both the
        # contraction and the per-dyad loop stayed within 26 eps times that
        # sum for walk n = 10 and decohere n = 20 over ten draws of the kick
        # parameters.  Rounding errors gather where the terms are largest
        # and, relative to them, where the exponents are: the seeded points
        # are uniform, among the largest terms, the point where the two sums
        # differ most and the one where the terms are smallest.
        rho = rho()
        g = grid_for(rho).refined()
        dyads = dyad_triples(rho)
        W = _accumulate_wigner(rho, g)
        W_loop, magnitude, _ = self.dyad_loop(dyads, g)
        rng = np.random.default_rng(20261018)
        flat = np.concatenate([
            rng.choice(g.nx * g.np, 12, replace=False),
            rng.choice(np.argsort(magnitude, axis=None)[-2000:], 12, replace=False),
            [np.abs(W - W_loop).argmax(), magnitude.argmin()],
        ])
        rows, cols = np.unravel_index(flat, W.shape)
        x, p = g.x_axis(), g.p_axis()
        ref = np.array([self.wigner_mp(dyads, x[i], p[j]) for i, j in zip(rows, cols)])
        bound = 128 * np.finfo(float).eps * magnitude[rows, cols]
        assert np.all(np.abs(W[rows, cols] - ref) <= bound)

    def test_bits_do_not_depend_on_blas_threads(self):
        # the third child is pinned to one CPU, so it evaluates every field
        # in one band, where the others use up to one band per CPU
        import catwalk

        code = """
import hashlib, math, os, sys
if sys.argv[1:] == ["pin"] and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from catwalk.dephasing import projector, walk_density
from catwalk.observables import (PhaseSpaceGrid, grid_for, position_density, wigner_bands,
                                 wigner_mixed)
from catwalk.protocol import ProtocolParams, walk_state
def pp(n):
    return ProtocolParams(0.1, 0.01, 4.5 * math.pi, n)
print(wigner_bands(PhaseSpaceGrid(-6, 6, -6, 6, 401, 401)))
for rho in (projector(walk_state(pp(10))), walk_density(pp(20), math.exp(-0.2))):
    g = grid_for(rho)
    print(hashlib.sha256(position_density(rho, g).values.tobytes()).hexdigest())
    for grid in (g, g.refined(), PhaseSpaceGrid(g.x_min, g.x_max, g.p_min, g.p_max, 41, 31)):
        print(hashlib.sha256(wigner_mixed(rho, grid).values.tobytes()).hexdigest())
"""
        bands, hashes = [], []
        for threads, pin in (("1", []), ("2", []), ("2", ["pin"])):
            env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code, *pin], capture_output=True,
                                 text=True, env=env, check=True).stdout.split()
            bands.append(int(out[0]))
            hashes.append(out[1:])
        assert len(hashes[0]) == 8
        assert hashes[0] == hashes[1] == hashes[2]
        assert bands[:2] == [observables.wigner_bands(PhaseSpaceGrid(-6, 6, -6, 6, 401, 401))] * 2
        if hasattr(os, "sched_setaffinity"):
            assert bands[2] == 1

    @pytest.mark.skipif(observables._usable_cpus() < 2,
                        reason="a second BLAS thread needs a second usable CPU")
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="purity runs two complex matmuls (weights @ gram, then RG @ RG), "
        "which OpenBLAS splits over its threads from about 130 labels on: the "
        "n = 160, xi = 0.2 walk at the reference point reads "
        "0x1.d0677309047dap-1 at 1 BLAS thread and 0x1.d06772e6082ddp-1 at 2 "
        "(n = 100 and 120 agree), so catwalk decohere writes purity "
        "9.070392559536e-01 and 9.070392518807e-01.  ROADMAP item 18's window "
        "purity sum |R_mk|^2 is BLAS-free.",
    )
    def test_purity_bits_do_not_depend_on_blas_threads(self):
        import catwalk

        code = """
import math
from catwalk.dephasing import purity, walk_density
from catwalk.protocol import ProtocolParams
print(purity(walk_density(ProtocolParams(0.1, 0.01, 4.5 * math.pi, 160), math.exp(-0.2))).hex())
"""
        readings = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            readings.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                           text=True, env=env, check=True).stdout.strip())
        assert readings[0] == readings[1]


class TestBands:
    """The Wigner field is evaluated in row bands on parallel threads.  Its
    bytes must equal those of the serial loop that preceded the bands,
    copied here as the reference, for every band count."""

    @staticmethod
    def serial(rho, grid):
        w = observables._folded(rho)
        j, k = np.triu_indices(len(w))
        z = (np.triu(w) + np.triu(w.T.conj(), 1))[j, k]
        keep = z != 0
        z, kets, bras = z[keep], rho.amplitudes[j[keep]], rho.amplitudes[k[keep]]
        x = grid.x_axis()[:, None]
        p = grid.p_axis()[:, None]
        W = np.zeros((grid.nx, grid.np))
        for start in range(0, len(z), observables.DYAD_BLOCK):
            block = slice(start, start + observables.DYAD_BLOCK)
            const, fx, gp = _dyad_profiles(z[block], kets[block], bras[block], x, p)
            np.multiply(const, fx, out=fx)
            np.conjugate(gp, out=gp)
            W += np.einsum("ik,jk->ij", fx.view(float), gp.view(float))
        return W

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (41, 31), (401, 401), (4001, 9),
                                       (9, 4001), (700, 130)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("rho", [
        pytest.param(lambda: projector(walk_state(fig_pp(1))), id="walk-1"),
        pytest.param(lambda: projector(walk_state(fig_pp(10))), id="walk-10"),
        pytest.param(lambda: projector(walk_state(fig_pp(40))), id="walk-40"),
        pytest.param(lambda: walk_density(fig_pp(20), math.exp(-0.2)), id="decohere-20"),
        pytest.param(lambda: cat_density(fig_pp(5), 0.7)[0], id="cat-5"),
    ])
    def test_bytes_equal_serial_loop(self, monkeypatch, rho, shape):
        # bands of one row and up, so that every count runs on every grid
        # that has the rows; a short switch interval interleaves the threads
        rho = rho()
        base = grid_for(rho)
        g = PhaseSpaceGrid(base.x_min, base.x_max, base.p_min, base.p_max, *shape)
        want = self.serial(rho, g).tobytes()
        monkeypatch.setattr(observables, "BAND_ROWS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3, 4, 7):
                monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
                assert observables.wigner_bands(g) == min(cpus, g.nx)
                assert _accumulate_wigner(rho, g).tobytes() == want, cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, nx, bands", [(4, 2, 1), (4, 127, 1), (4, 128, 2),
                                                 (4, 401, 4), (7, 401, 6), (2, 4001, 2),
                                                 (1, 4001, 1)])
    def test_every_band_has_band_rows(self, monkeypatch, cpus, nx, bands):
        monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
        assert observables.wigner_bands(PhaseSpaceGrid(-6, 6, -6, 6, nx, 9)) == bands

    def test_usable_cpus(self):
        cpus = observables._usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))
        assert 1 <= cpus <= (os.cpu_count() or 1)

    class Failed(Exception):
        pass

    @pytest.mark.parametrize("failing, at_call", [("worker", 0), ("worker", 2),
                                                  ("caller", 1)])
    def test_failing_band_stops_every_band(self, monkeypatch, failing, at_call):
        # one band, the caller's (x row 0) or a worker's (x row 1), raises
        # in its first or a later dyad block; the others must leave
        # the barrier, the exception must reach the caller and no thread may
        # outlive the call
        rho = walk_density(fig_pp(20), math.exp(-0.2))  # 231 dyads: four blocks
        g = PhaseSpaceGrid(-6, 6, -6, 6, 401, 401)
        edge = g.x_axis()[0 if failing == "caller" else 1]
        real = observables._dyad_profiles
        threads, failing_calls, caught = set(), [], []

        def profiles(weight, alpha, beta, x, p):
            threads.add(threading.current_thread())
            if edge in x:
                if (threading.current_thread() is caller) != (failing == "caller"):
                    raise AssertionError("the band ran in the wrong thread")
                failing_calls.append(None)
                if len(failing_calls) > at_call:
                    raise self.Failed
            return real(weight, alpha, beta, x, p)

        def call():
            try:
                _accumulate_wigner(rho, g)
            except BaseException as exc:
                caught.append(exc)

        monkeypatch.setattr(observables, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(observables, "_dyad_profiles", profiles)
        before = threading.active_count()
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [type(exc) for exc in caught] == [self.Failed]
        assert threading.active_count() == before
        assert len(threads) == 4 and caller in threads

    def test_thread_that_cannot_start(self, monkeypatch):
        # the bands already started leave the barrier and are joined
        started, caught = [], []

        class Limited(threading.Thread):
            def start(self):
                if len(started) == 2:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        def call():
            try:
                _accumulate_wigner(walk_density(fig_pp(5)), PhaseSpaceGrid(-6, 6, -6, 6, 401, 41))
            except BaseException as exc:
                caught.append(exc)

        caller = threading.Thread(target=call)
        monkeypatch.setattr(observables, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(observables.threading, "Thread", Limited)
        before = threading.active_count()
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(exc) for exc in caught] == ["can't start new thread"]
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)


class TestProjector:
    """A pure state reaches every observable as its projector.  Its Wigner
    function and moments must match, within rounding, the loops that once
    summed the pure state's components directly, copied here as the
    reference."""

    @staticmethod
    def component_dyads(state):
        out = []
        for cm, lm in state.components:
            for ck, lk in state.components:
                w = cm * ck.conjugate() * np.exp(1j * (lm.phase - lk.phase))
                out.append((w, lm.amplitude, lk.amplitude))
        return out

    @staticmethod
    def component_moments(state):
        e_a = e_aa = e_ada = 0j
        for cm, lm in state.components:
            for ck, lk in state.components:
                w = ck.conjugate() * cm * overlap(lk, lm)
                am, ak = lm.amplitude, lk.amplitude
                e_a += w * am
                e_aa += w * am * am
                e_ada += w * ak.conjugate() * am
        return e_a, e_aa, e_ada

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_matches_component_loops_within_rounding(self, n):
        state = walk_state(fig_pp(n))
        rho = projector(state)
        g = default_grid()
        expected, _, scale = TestWignerMixed.dyad_loop(self.component_dyads(state), g)
        W = wigner_mixed(rho, g).values
        assert np.abs(W - expected).max() <= 64 * np.finfo(float).eps * scale
        bound = MOMENT_ROUNDING * moment_scale(rho)
        for got, want in zip(_moments(rho), self.component_moments(state)):
            assert abs(got - want) <= bound

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_dephased_walk_has_the_pure_grid(self, n):
        pp, s = fig_pp(n), math.exp(-0.5)
        small = PhaseSpaceGrid(-1, 1, -1, 1, 11, 11)  # forces expansion
        pure = projector(walk_state(pp))
        assert grid_for(walk_density(pp, s)) == grid_for(pure)
        assert grid_for(walk_density(pp, s), small) == grid_for(pure, small)

    def test_normalizes_and_has_unit_purity(self):
        raw = SuperposedState(((2.0, CoherentLabel(0.5)), (1j, CoherentLabel(-0.5))))
        rho = projector(raw)
        np.testing.assert_array_equal(rho.weights, projector(normalize(raw)).weights)
        assert diagnostics(rho)["purity"] == pytest.approx(1.0, abs=1e-14)


class TestDiagnostics:
    def test_vacuum(self):
        _, d = read_wigner(projector(VACUUM))
        assert d["mean_x"] == pytest.approx(0.0, abs=1e-14)
        assert d["var_x"] == pytest.approx(0.5, abs=1e-12)
        assert d["var_p"] == pytest.approx(0.5, abs=1e-12)
        assert d["negativity_volume"] == pytest.approx(0.0, abs=1e-12)
        assert d["purity"] == 1.0

    def test_grid_free_readings_only(self):
        d = diagnostics(walk_density(fig_pp(5), math.exp(-0.2)))
        assert sorted(d) == ["mean_p", "mean_x", "purity", "var_p", "var_x"]

    @pytest.mark.parametrize("rho", [
        walk_density(fig_pp(5)),
        walk_density(fig_pp(5), math.exp(-0.2)),
        cat_density(fig_pp(10))[0],
    ], ids=["walk", "dephased-walk", "cat"])
    def test_every_reading_is_a_python_float(self, rho):
        # np.float64 subclasses float, so the type itself is compared
        for d in (diagnostics(rho), read_wigner(rho)[1]):
            assert {k: type(v) for k, v in d.items()} == dict.fromkeys(d, float)

    def test_coherent_state_minimum_uncertainty(self):
        state = pure_state((1.0, CoherentLabel(0.8 - 0.3j)))
        d = diagnostics(projector(state))
        assert d["mean_x"] == pytest.approx(math.sqrt(2) * 0.8, abs=1e-12)
        assert d["mean_p"] == pytest.approx(-math.sqrt(2) * 0.3, abs=1e-12)
        assert d["var_x"] == pytest.approx(0.5, abs=1e-12)
        assert d["var_p"] == pytest.approx(0.5, abs=1e-12)

    def test_moments_match_grid_integrals(self):
        state = walk_state(fig_pp(5))
        g = PhaseSpaceGrid(-8, 8, -8, 8, 801, 801)
        d = diagnostics(projector(state))
        dens = position_density(projector(state), g)
        x = g.x_axis()
        mean_grid = (x * dens.values).sum() * g.dx
        var_grid = ((x - mean_grid) ** 2 * dens.values).sum() * g.dx
        assert d["mean_x"] == pytest.approx(mean_grid, abs=1e-6)
        assert d["var_x"] == pytest.approx(var_grid, abs=1e-6)

    def test_mixed_state_moments(self):
        d = diagnostics(walk_density(fig_pp(5), math.exp(-1.0)))
        assert abs(d["mean_x"]) < 0.1
        assert d["purity"] < 1.0

    def test_one_gram_per_density(self, monkeypatch):
        # moments and purity read the Gram the walk density carries, a slice
        # of the recursion's; the values are the bits of a freshly built one
        rho = walk_density(fig_pp(6), math.exp(-0.3))
        fresh = DyadEnsemble(rho.amplitudes, rho.phases, rho.weights)
        own = {"moments": _moments(fresh), "purity": dephasing.purity(fresh)}
        calls = []

        def counted(amplitudes, phases):
            calls.append(len(amplitudes))
            return gram_matrix(amplitudes, phases)

        for module in (dephasing, observables):
            monkeypatch.setattr(module, "gram_matrix", counted, raising=False)
        d = diagnostics(rho)
        assert calls == []
        e_a = own["moments"][0]
        assert (d["mean_x"], d["mean_p"]) == (math.sqrt(2) * e_a.real, math.sqrt(2) * e_a.imag)
        assert d["purity"] == own["purity"]

    @staticmethod
    def moments_mp(rho, R):
        """<a>, <a^2>, <a^dag a> at 40 digits, rho's labels and the weights R
        taken as exact, divided by the trace."""
        with mpmath.workdps(40):
            amp = [mpmath.mpc(a) for a in rho.amplitudes.tolist()]
            ph = [mpmath.mpf(t) for t in rho.phases.tolist()]
            tr = e_a = e_aa = e_ada = 0
            for j, aj in enumerate(amp):
                for k, ak in enumerate(amp):
                    # rho_jk <label_k|label_j>
                    t = R[j][k] * mpmath.exp(1j * (ph[j] - ph[k]) - (abs(aj) ** 2 + abs(ak) ** 2) / 2
                                             + mpmath.conj(ak) * aj)
                    tr += t
                    e_a += t * aj
                    e_aa += t * aj * aj
                    e_ada += t * mpmath.conj(ak) * aj
            return [complex(v / tr) for v in (e_a, e_aa, e_ada)]

    @pytest.mark.parametrize("kind, n, xi", [
        ("walk", 10, 0.0), ("walk", 20, 0.0), ("decohere", 20, 0.0), ("decohere", 20, 0.2),
    ], ids=["walk-10", "walk-20", "decohere-20-xi0", "decohere-20-xi0.2"])
    def test_moments_against_mpmath(self, kind, n, xi):
        # The reference starts from the same float labels, the walk's raw
        # coefficients or the recursion's cross factor and runs the rest
        # (normalization, recursion, overlaps, sums) at 40 digits.
        pp, s = fig_pp(n), math.exp(-xi)
        if kind == "walk":
            rho = projector(walk_state(pp))
            c = [mpmath.mpc(coeff) for coeff, _ in walk_components(pp)]
            R = [[cj * mpmath.conj(ck) for ck in c] for cj in c]
        else:
            rho = walk_density(pp, s)
            cross = mpmath.mpc(cmath.exp(2j * pp.phi) * s)
            weights = {(0, 0): mpmath.mpc(1)}
            for step in range(1, n + 1):
                w = lambda j, k: weights.get((j, k), 0)  # noqa: E731
                span = range(-step, step + 1, 2)
                weights = {(j, k): w(j - 1, k - 1) + w(j + 1, k + 1) + cross * w(j - 1, k + 1)
                           + mpmath.conj(cross) * w(j + 1, k - 1) for j in span for k in span}
            kicks = range(-n, n + 1, 2)
            R = [[weights[j, k] for k in kicks] for j in kicks]
        bound = MOMENT_ROUNDING * moment_scale(rho)
        for got, want in zip(_moments(rho), self.moments_mp(rho, R)):
            assert abs(got - want) <= bound

    # the skinny grids' step of 3.0 resolves no coherent state, on purpose
    @pytest.mark.filterwarnings("ignore::catwalk.errors.GridTooCoarse")
    @pytest.mark.parametrize("nx, np_, cpus", [
        pytest.param(nx, np_, cpus, id=name + ("" if cpus == 1 else f"-{cpus}cpus"))
        for nx, np_, name in [(201, 201, "201"), (401, 401, "401"), (2001, 5, "2001x5"),
                              (5, 2001, "5x2001")]
        for cpus in (1, 2, 4)])
    def test_peak_memory_within_wigner_bytes(self, monkeypatch, nx, np_, cpus):
        # the path a CLI run takes: the field on the 2x refined grid, its
        # even-index subgrid and the negativity volumes of both; on a skinny
        # grid the dyad profile blocks outweigh the field.  The bound holds
        # for any number of row bands, so the grid refusals do not depend
        # on the machine.  Bands of one row and up, so that the skinny grids
        # run in every band count too.
        monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(observables, "BAND_ROWS", 1)
        rho = walk_density(fig_pp(20), math.exp(-0.2))
        base = PhaseSpaceGrid(-6, 6, -6, 6, nx, np_)
        g = grid_for(rho, base)
        assert observables.wigner_bands(g.refined()) == cpus
        tracemalloc.start()
        try:
            cli._read(rho, base, {"wigner_s": 0.0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= wigner_bytes(g)

    def test_grid_too_coarse_warning(self):
        state = walk_state(fig_pp(5))
        coarse = PhaseSpaceGrid(-6, 6, -6, 6, 21, 21)
        with pytest.warns(GridTooCoarse, match="under 2x grid refinement"):
            read_wigner(projector(state), coarse)

    def test_fine_grid_no_warning(self, recwarn):
        state = walk_state(fig_pp(5))
        read_wigner(projector(state))
        assert not [w for w in recwarn.list if issubclass(w.category, GridTooCoarse)]


class TestReadGates:
    """``read_wigner`` warns GridTooCoarse from two gates and refuses an
    impossible purity."""

    # Fields resolved but negativities not, at the reference knobs on a 41^2
    # base grid over +-6: the cat's negativity reads 0.2340 there against a
    # converged 0.2841, and 2x refinement moves it 14.9%; the walk's moves
    # 21%.  A bound on the kernels' band limit alone reads 4e-27 and 2e-31
    # on these grids, so only the refinement sees the quadrature error.
    @pytest.mark.parametrize("rho", [
        pytest.param(lambda: cat_density(ProtocolParams(0.1, 0.01, 4.5 * pi, 10))[0], id="cat"),
        pytest.param(lambda: walk_density(ProtocolParams(0.1, 0.01, 0.3, 10)), id="walk-phi-0.3"),
    ])
    def test_refinement_gate_sees_an_unconverged_negativity(self, rho, recwarn):
        rho = rho()
        with pytest.warns(GridTooCoarse, match="under 2x grid refinement") as caught:
            read_wigner(rho, PhaseSpaceGrid(-6, 6, -6, 6, 41, 41))
        assert len(caught) == 1
        recwarn.clear()
        read_wigner(rho)
        assert not [w for w in recwarn.list if issubclass(w.category, GridTooCoarse)]

    @pytest.mark.parametrize("points, warns", [(15, True), (16, False), (201, False)])
    def test_resolution_gate_at_one_coherent_state(self, points, warns, recwarn):
        # steps 0.857, 0.8 and 0.06 about the 0.825 where a coherent state's
        # Riemann sum is 1e-6 off; the vacuum has no negativity to move
        field, _ = read_wigner(projector(VACUUM), PhaseSpaceGrid(-6, 6, -6, 6, points, points))
        warned = [str(w.message) for w in recwarn.list if issubclass(w.category, GridTooCoarse)]
        assert warned == (["grid step 0.857 resolves no coherent state: above 0.825 the "
                           "Riemann sum of its Gaussian is off by more than 1e-6"] if warns else [])
        assert abs(field.norm - 1) > 1e-6 if warns else abs(field.norm - 1) < 1e-6

    PURITY = "the purity reads"
    ROBERTSON = "below Robertson's bound"

    @pytest.mark.parametrize("weights, refused", [
        ([[1.0, 0.0], [0.0, 0.0]], None),
        ([[1.0, 0.02], [0.02, 0.0]], None),  # purity 1 + 8e-4, inside the margin
        # purity 1 + 8e-4, but the negative weight 5 away pulls var_x to 0.48
        ([[1.0004, 0.0], [0.0, -0.0004]], ROBERTSON),
        ([[1.0006, 0.0], [0.0, -0.0006]], PURITY),  # purity 1 + 1.2e-3
        ([[1.5, 0.0], [0.0, -0.5]], PURITY),  # purity 2.5
        ([[0.5, 0.6], [0.6, 0.5]], PURITY),  # purity 1.22
    ])
    def test_purity_outside_the_unit_interval_refused(self, weights, refused):
        # labels 5 apart: |<0|5>|^2 = e^-25
        rho = DyadEnsemble([0j, 5 + 0j], [0.0, 0.0], weights)
        if refused:
            with pytest.raises(DegenerateState, match=refused):
                read_wigner(rho)
        else:
            assert read_wigner(rho)[1]["purity"] == pytest.approx(np.sum(np.square(weights)))

    def test_refused_before_the_field_is_evaluated(self, monkeypatch):
        # the backstops read only diagnostics(rho), so a density they refuse
        # never pays for its field: purity 1 + 2 * 9 = 19
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return wigner_mixed(*args, **kwargs)

        monkeypatch.setattr(observables, "wigner_mixed", counted)
        rho = DyadEnsemble([0, 5], [0, 0], [[1, 3], [3, 0]])
        with pytest.raises(DegenerateState, match=self.PURITY):
            read_wigner(rho)
        assert calls == []
        read_wigner(DyadEnsemble([0], [0], [[1]]))  # the counter sees an accepted read
        assert len(calls) == 1
