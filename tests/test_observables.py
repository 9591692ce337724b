import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import pi
from pathlib import Path

import mpmath
import numpy as np
import pytest

from catwalk.algebra import CoherentLabel, SuperposedState, normalize, overlap
from catwalk.dephasing import projector, walk_density
from catwalk.errors import GridTooCoarse
from catwalk.observables import (
    PhaseSpaceGrid,
    _accumulate_wigner,
    _dyad_list,
    _dyad_profiles,
    _moments,
    default_grid,
    diagnostics,
    grid_for,
    negativity_volume,
    position_density,
    position_wavefunction,
    wigner_bytes,
    wigner_mixed,
    wigner_pure,
)
from catwalk.protocol import ProtocolParams, walk_state

from conftest import wigner_dyad_closed, wigner_dyad_quadrature


def fig_pp(n, xi=0.0):
    return ProtocolParams(0.1, 0.01, 4.5 * pi, n, xi)


def pure_state(*pairs):
    return normalize(SuperposedState(tuple(pairs)))


VACUUM = pure_state((1.0, CoherentLabel.vacuum()))


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


class TestPositionDensity:
    def test_vacuum_gaussian(self):
        g = default_grid()
        dens = position_density(VACUUM, g)
        x = g.x_axis()
        assert np.allclose(dens.values, np.exp(-(x**2)) / math.sqrt(pi), atol=1e-12)
        assert dens.values.max() == pytest.approx(1 / math.sqrt(pi))
        assert dens.norm == pytest.approx(1.0, abs=1e-6)

    def test_single_component_center(self):
        alpha = 0.311558267 + 1.96710148j
        state = pure_state((1.0, CoherentLabel(alpha)))
        g = default_grid()
        dens = position_density(state, g)
        center = g.x_axis()[np.argmax(dens.values)]
        assert center == pytest.approx(math.sqrt(2) * alpha.real, abs=g.dx)
        assert math.sqrt(2) * alpha.real == pytest.approx(0.4406, abs=2e-4)

    def test_two_symmetric_peaks_at_n1(self):
        g = PhaseSpaceGrid(-6, 6, -6, 6, 1201, 3)
        dens = position_density(walk_state(fig_pp(1)), g).values
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
        dens = position_density(state, g).values
        assert np.abs(marginal - dens).max() < 1e-4

    def test_interference_negativity(self):
        W = wigner_pure(walk_state(fig_pp(5)), default_grid())
        assert W.values.min() < -0.1


class TestWignerMixed:
    def test_xi_zero_matches_pure(self):
        g = default_grid()
        pp = fig_pp(5, xi=0.0)
        Wp = wigner_pure(walk_state(pp), g)
        Wm = wigner_mixed(walk_density(pp), g)
        assert np.abs(Wp.values - Wm.values).max() < 1e-9

    def test_negativity_collapse(self):
        g = default_grid()
        neg0 = negativity_volume(wigner_mixed(walk_density(fig_pp(5, 0.0)), g))
        neg1 = negativity_volume(wigner_mixed(walk_density(fig_pp(5, 1.0)), g))
        assert neg1 < 0.05 * neg0

    def test_cat_cross_dyad_fringes(self):
        from catwalk.dephasing import cat_density

        g = default_grid()
        pp = fig_pp(10)
        full = wigner_mixed(cat_density(pp), g)
        damped = wigner_mixed(cat_density(pp, math.exp(-2.0)), g)
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
        cases = [
            (random_dyads, PhaseSpaceGrid(-4, 4, -3, 3, 41, 31)),
            (_dyad_list(projector(walk_state(fig_pp(10)))), default_grid()),
            (_dyad_list(walk_density(fig_pp(20, xi=0.2))), default_grid()),
        ]
        for dyads, g in cases:
            expected, _, scale = self.dyad_loop(dyads, g)
            bound = 64 * np.finfo(float).eps * scale
            assert np.abs(_accumulate_wigner(dyads, g) - expected).max() <= bound

    @pytest.mark.parametrize("rho", [
        pytest.param(lambda: projector(walk_state(fig_pp(10))), id="walk-10"),
        pytest.param(lambda: projector(walk_state(fig_pp(20))), id="walk-20"),
        pytest.param(lambda: walk_density(fig_pp(20, xi=0.2)), id="decohere-20"),
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
        dyads = _dyad_list(rho)
        W = _accumulate_wigner(dyads, g)
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
        import catwalk

        code = """
import hashlib, math
from catwalk.dephasing import projector, walk_density
from catwalk.observables import PhaseSpaceGrid, grid_for, wigner_mixed
from catwalk.protocol import ProtocolParams, walk_state
def pp(n, xi):
    return ProtocolParams(0.1, 0.01, 4.5 * math.pi, n, xi)
for rho in (projector(walk_state(pp(10, 0.0))), walk_density(pp(20, 0.2))):
    g = grid_for(rho)
    for grid in (g, g.refined(), PhaseSpaceGrid(g.x_min, g.x_max, g.p_min, g.p_max, 41, 31)):
        print(hashlib.sha256(wigner_mixed(rho, grid).values.tobytes()).hexdigest())
"""
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, env=env, check=True).stdout
            hashes.append(out.split())
        assert len(hashes[0]) == 6
        assert hashes[0] == hashes[1]


class TestProjector:
    """A pure state reaches every observable as its projector.  Its Wigner
    function and moments must keep the bits of the loops that once summed
    the pure state's components directly, copied here as the reference."""

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
    def test_bits_match_component_loops(self, n):
        state = walk_state(fig_pp(n))
        rho = projector(state)
        g = default_grid()
        expected = _accumulate_wigner(self.component_dyads(state), g)
        np.testing.assert_array_equal(wigner_mixed(rho, g).values, expected)
        assert _moments(rho) == self.component_moments(state)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_dephased_walk_has_the_pure_grid(self, n):
        pp = fig_pp(n, xi=0.5)
        small = PhaseSpaceGrid(-1, 1, -1, 1, 11, 11)  # forces expansion
        pure = projector(walk_state(replace(pp, xi=0.0)))
        assert grid_for(walk_density(pp)) == grid_for(pure)
        assert grid_for(walk_density(pp), small) == grid_for(pure, small)

    def test_normalizes_and_has_unit_purity(self):
        raw = SuperposedState(((2.0, CoherentLabel(0.5)), (1j, CoherentLabel(-0.5))))
        rho = projector(raw)
        assert rho.entries == projector(normalize(raw)).entries
        assert diagnostics(rho)["purity"] == pytest.approx(1.0, abs=1e-14)


class TestDiagnostics:
    def test_vacuum(self):
        d = diagnostics(projector(VACUUM), wigner_pure(VACUUM, default_grid()),
                        check_grid=False)
        assert d["mean_x"] == pytest.approx(0.0, abs=1e-14)
        assert d["var_x"] == pytest.approx(0.5, abs=1e-12)
        assert d["var_p"] == pytest.approx(0.5, abs=1e-12)
        assert d["negativity_volume"] == pytest.approx(0.0, abs=1e-12)
        assert d["purity"] == 1.0

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
        dens = position_density(state, g)
        x = g.x_axis()
        mean_grid = (x * dens.values).sum() * g.dx
        var_grid = ((x - mean_grid) ** 2 * dens.values).sum() * g.dx
        assert d["mean_x"] == pytest.approx(mean_grid, abs=1e-6)
        assert d["var_x"] == pytest.approx(var_grid, abs=1e-6)

    def test_mixed_state_moments(self):
        d = diagnostics(walk_density(fig_pp(5, xi=1.0)))
        assert abs(d["mean_x"]) < 0.1
        assert d["purity"] < 1.0

    @pytest.mark.filterwarnings("ignore::catwalk.errors.GridTooCoarse")
    @pytest.mark.parametrize("nx, np_", [(201, 201), (401, 401), (2001, 5), (5, 2001)],
                             ids=["201", "401", "2001x5", "5x2001"])
    def test_peak_memory_within_wigner_bytes(self, nx, np_):
        # the field, its 2x refinement and the negativity volumes of both;
        # on a skinny grid the dyad profile blocks outweigh the field
        rho = walk_density(fig_pp(20, xi=0.2))
        g = grid_for(rho, PhaseSpaceGrid(-6, 6, -6, 6, nx, np_))
        tracemalloc.start()
        try:
            diagnostics(rho, wigner_mixed(rho, g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= wigner_bytes(g)

    def test_grid_too_coarse_warning(self):
        state = walk_state(fig_pp(5))
        coarse = PhaseSpaceGrid(-6, 6, -6, 6, 21, 21)
        with pytest.warns(GridTooCoarse):
            diagnostics(projector(state), wigner_pure(state, coarse))

    def test_fine_grid_no_warning(self, recwarn):
        state = walk_state(fig_pp(5))
        diagnostics(projector(state), wigner_pure(state, default_grid()))
        assert not [w for w in recwarn.list if issubclass(w.category, GridTooCoarse)]


class TestWavefunction:
    def test_phase_tracked(self):
        lab = CoherentLabel(0.5 + 0j, 1.0)
        state = SuperposedState(((1.0, lab),), normalized=True)
        x = np.array([0.0, 0.7])
        psi = position_wavefunction(state, x)
        bare = SuperposedState(((1.0, CoherentLabel(0.5 + 0j)),), normalized=True)
        psi0 = position_wavefunction(bare, x)
        assert np.allclose(psi, np.exp(1j) * psi0)
