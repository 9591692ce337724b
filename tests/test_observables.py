import math
from math import pi

import numpy as np
import pytest

from catwalk.algebra import CoherentLabel, SuperposedState, normalize
from catwalk.dephasing import walk_density
from catwalk.errors import GridTooCoarse
from catwalk.observables import (
    PhaseSpaceGrid,
    _accumulate_wigner,
    _dyad_profiles,
    default_grid,
    diagnostics,
    grid_for,
    negativity_volume,
    position_density,
    position_wavefunction,
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

    def test_default(self):
        g = default_grid()
        assert g.x_min == -6 and g.x_max == 6 and g.nx == 201
        assert g.dx == pytest.approx(0.06)

    def test_auto_expansion(self):
        # n = 20 drives labels out to |alpha| ~ 3.9; the box must follow
        state = walk_state(fig_pp(20))
        g = grid_for(state)
        need = max(math.sqrt(2) * abs(l.amplitude) for l in state.labels) + 3
        assert g.x_max == pytest.approx(need)
        assert g.nx == 201

    def test_no_expansion_when_contained(self):
        assert grid_for(VACUUM) == default_grid()


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

    def test_scratch_kernel_matches_fresh_temporaries(self, rng):
        # the accumulator reuses one scratch array; its sum must equal the
        # plain expression with a fresh temporary per dyad, bit for bit
        g = PhaseSpaceGrid(-4, 4, -3, 3, 41, 31)
        x, p = g.x_axis(), g.p_axis()
        dyads = [(complex(*rng.normal(size=2)), complex(*rng.uniform(-1, 1, 2)),
                  complex(*rng.uniform(-1, 1, 2))) for _ in range(6)]
        expected = np.zeros((g.nx, g.np))
        for w, a, b in dyads:
            const, fx, gp = _dyad_profiles(w, a, b, x, p)
            expected += (const * np.outer(fx, gp)).real
        np.testing.assert_array_equal(_accumulate_wigner(dyads, g), expected)


class TestDiagnostics:
    def test_vacuum(self):
        d = diagnostics(VACUUM, wigner_pure(VACUUM, default_grid()), check_grid=False)
        assert d["mean_x"] == pytest.approx(0.0, abs=1e-14)
        assert d["var_x"] == pytest.approx(0.5, abs=1e-12)
        assert d["var_p"] == pytest.approx(0.5, abs=1e-12)
        assert d["negativity_volume"] == pytest.approx(0.0, abs=1e-12)
        assert d["purity"] == 1.0

    def test_coherent_state_minimum_uncertainty(self):
        state = pure_state((1.0, CoherentLabel(0.8 - 0.3j)))
        d = diagnostics(state)
        assert d["mean_x"] == pytest.approx(math.sqrt(2) * 0.8, abs=1e-12)
        assert d["mean_p"] == pytest.approx(-math.sqrt(2) * 0.3, abs=1e-12)
        assert d["var_x"] == pytest.approx(0.5, abs=1e-12)
        assert d["var_p"] == pytest.approx(0.5, abs=1e-12)

    def test_moments_match_grid_integrals(self):
        state = walk_state(fig_pp(5))
        g = PhaseSpaceGrid(-8, 8, -8, 8, 801, 801)
        d = diagnostics(state)
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

    def test_grid_too_coarse_warning(self):
        state = walk_state(fig_pp(5))
        coarse = PhaseSpaceGrid(-6, 6, -6, 6, 21, 21)
        with pytest.warns(GridTooCoarse):
            diagnostics(state, wigner_pure(state, coarse))

    def test_fine_grid_no_warning(self, recwarn):
        state = walk_state(fig_pp(5))
        diagnostics(state, wigner_pure(state, default_grid()))
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
