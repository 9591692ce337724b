import cmath
import math
from itertools import product
from math import pi

import numpy as np
import pytest

from catwalk.dephasing import (
    DyadEnsemble,
    _normalized,
    cat_density,
    cross_term_weight,
    dyad_trace,
    evolve_dyads,
    min_eigenvalue,
    pure_walk_density,
    purity,
    qubit_coherence_decay,
    trace_distance,
    walk_density,
    walk_density_steps,
)
from catwalk.protocol import ProtocolParams


def fig_pp(n, xi=0.0):
    return ProtocolParams(0.1, 0.01, 4.5 * pi, n, xi)


def classical_path_mixture(l1, l2, n):
    """Independent oracle for the fully dephased limit.

    Enumerates all 2^n kick-sign paths with its own complex arithmetic;
    paths with equal net sign land on the same endpoint, so the mixture
    collapses onto n+1 diagonal dyads with binomial weights.
    """
    rot = cmath.exp(-1j * l2 * pi)
    weights = {}
    endpoints = {}
    for path in product((+1, -1), repeat=n):
        alpha = 0j
        for s in path:
            alpha = (alpha + 1j * s * l1) * rot**s + 1j * s * l1
        j = sum(path)
        weights[j] = weights.get(j, 0.0) + 1.0 / 2**n
        endpoints[j] = alpha
    return weights, endpoints


class TestStepInvariants:
    def test_hermiticity_trace_psd_each_step(self):
        for step, rho in walk_density_steps(fig_pp(6, xi=0.3)):
            idx, R, _ = rho.as_matrices()
            assert np.linalg.norm(R - R.conj().T) < 1e-12
            assert abs(dyad_trace(rho).real - 1.0) < 1e-10
            assert abs(dyad_trace(rho).imag) < 1e-12
            assert min_eigenvalue(rho) > -1e-10

    def test_entry_count_bound(self):
        for n in (3, 6, 8):
            rho = walk_density(fig_pp(n, xi=0.4))
            assert len(rho.entries) <= (n + 1) ** 2
            assert len(rho.labels) == n + 1

    def test_xi_zero_single_step_is_pure(self):
        pp = fig_pp(1, xi=0.0)
        rho = walk_density(pp)
        assert trace_distance(rho, pure_walk_density(pp)) < 1e-12


class TestPureLimit:
    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_xi_zero_matches_projector(self, n):
        pp = fig_pp(n, xi=0.0)
        assert trace_distance(walk_density(pp), pure_walk_density(pp)) < 1e-9

    @pytest.mark.parametrize("n", [2, 5])
    def test_xi_zero_purity_is_one(self, n):
        assert purity(walk_density(fig_pp(n, xi=0.0))) == pytest.approx(1.0, abs=1e-10)


class TestClassicalLimit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_infinite_xi_matches_path_sum(self, n):
        pp = ProtocolParams(0.1, 0.01, 4.5 * pi, n, xi=float("inf"))
        rho = walk_density(pp)
        weights, endpoints = classical_path_mixture(0.1, 0.01, n)
        for (j, k), w in rho.entries.items():
            if j == k:
                assert w.real == pytest.approx(weights[j], abs=1e-12)
                assert abs(w.imag) < 1e-14
            else:
                assert abs(w) < 1e-14
        for j, alpha in endpoints.items():
            assert abs(rho.labels[j].amplitude - alpha) < 1e-12


class TestMonotones:
    def test_purity_drops_under_dephasing(self):
        # Purity is NOT monotone in xi: it dips while interference dies and
        # then climbs back toward the classical binomial mixture's purity
        # (whose strongly overlapping components keep Tr rho^2 well above
        # the naive 1/(n+1)).  Measured at n=5: 1.0, 0.409, 0.340, 0.525
        # over xi = 0, 0.2, 0.5, 1.  What is monotone is the cross-term
        # weight, tested below.
        values = [purity(walk_density(fig_pp(5, xi))) for xi in (0.0, 0.2, 0.5, 1.0)]
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert all(v < 0.6 for v in values[1:])
        assert values[1] > values[2] < values[3]

    def test_cross_weight_non_increasing_in_xi(self):
        values = [
            cross_term_weight(walk_density(fig_pp(5, xi)))
            for xi in (0.0, 0.2, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_displacement_killed_by_dephasing(self):
        from catwalk.observables import diagnostics

        diag = diagnostics(walk_density(fig_pp(5, xi=1.0)))
        assert abs(diag["mean_x"]) < 0.1


class TestCoherenceDecay:
    def test_no_decay(self):
        assert qubit_coherence_decay(5.0, 0.0) == 1.0

    def test_reference_points(self):
        # 3 Gamma t / 4 = 2  ->  e^{-2}
        assert qubit_coherence_decay(2.0, 4.0 / 3.0) == pytest.approx(math.exp(-2))
        # per-pulse factor at xi = 0.2
        assert math.exp(-0.2) == pytest.approx(0.8187, abs=5e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            qubit_coherence_decay(-1.0, 1.0)


class TestCatDensity:
    def test_pure_limit(self):
        pp = fig_pp(10)
        rho = cat_density(pp)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_cross_dyad_suppression_exact(self):
        pp = fig_pp(10)
        factor = math.exp(-2.0)
        pure = cat_density(pp)
        damped = cat_density(pp, cross_suppression=factor)
        # suppression applies exactly to the off-diagonal dyads, up to the
        # common renormalization constant
        r_pure = pure.entries[(-10, 10)] / pure.entries[(10, 10)]
        r_damped = damped.entries[(-10, 10)] / damped.entries[(10, 10)]
        assert abs(r_damped / r_pure - factor) < 1e-12

    def test_damped_cat_invariants(self):
        rho = cat_density(fig_pp(10), cross_suppression=math.exp(-2.0))
        assert abs(dyad_trace(rho).real - 1.0) < 1e-12
        assert min_eigenvalue(rho) > -1e-12
        assert purity(rho) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cat_density(fig_pp(2), cross_suppression=1.5)


class TestEvolveDyads:
    def test_single_step_from_custom_ensemble(self):
        pp = fig_pp(1, xi=0.7)
        rho0 = pure_walk_density(fig_pp(0))
        rho1 = evolve_dyads(rho0, pp)
        assert set(rho1.labels) == {-1, 1}
        damp = math.exp(-0.7)
        # cross terms carry e^{+-2i phi} e^{-xi} relative to the diagonals
        c = rho1.entries[(1, -1)] / rho1.entries[(1, 1)]
        assert abs(c) == pytest.approx(damp, rel=1e-12)

    def test_trace_renormalized_every_step(self):
        pp = fig_pp(4, xi=0.5)
        for _, rho in walk_density_steps(pp):
            assert abs(dyad_trace(rho).real - 1.0) < 1e-12

    def test_one_final_normalization_is_the_same_map(self, monkeypatch):
        # the step map is linear, so where the trace is restored cannot matter
        pp = fig_pp(12, xi=0.3)
        expected = walk_density(pp)
        monkeypatch.setattr("catwalk.dephasing._normalized", DyadEnsemble)
        raw = walk_density(pp)
        monkeypatch.undo()
        rho = _normalized(raw.labels, raw.entries)
        assert rho.entries.keys() == expected.entries.keys()
        scale = max(abs(w) for w in expected.entries.values())
        assert all(abs(rho.entries[jk] - w) <= 1e-9 * scale
                   for jk, w in expected.entries.items())
