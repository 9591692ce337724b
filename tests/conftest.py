"""Shared test helpers: small independent oracles.

Everything here is deliberately written from scratch (dense matrices,
explicit quadrature) so tests never validate the package against itself.
The one exception is overlap_matrix: it holds the vectorised Gram to the
package's scalar overlap, call by call.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from catwalk.algebra import CoherentLabel, overlap


def destroy_matrix(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def displacement_matrix(beta: complex, n: int) -> np.ndarray:
    """D(beta) = expm(beta a^dag - conj(beta) a) on a truncated Fock space."""
    a = destroy_matrix(n)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def rotation_matrix(theta: float, n: int) -> np.ndarray:
    """exp(-i theta a^dag a)."""
    return np.diag(np.exp(-1j * theta * np.arange(n)))


def coherent_column(alpha: complex, n: int) -> np.ndarray:
    v = np.empty(n, dtype=complex)
    term = math.exp(-abs(alpha) ** 2 / 2.0)
    for k in range(n):
        v[k] = term
        term = term * alpha / math.sqrt(k + 1)
    return v


def coherent_psi_x(alpha: complex, x: np.ndarray) -> np.ndarray:
    """Position wavefunction of |alpha> in the x = (a + a^dag)/sqrt(2) convention."""
    ar, ai = alpha.real, alpha.imag
    return (
        math.pi**-0.25
        * np.exp(-((x - math.sqrt(2) * ar) ** 2) / 2
                 + 1j * math.sqrt(2) * ai * x
                 - 1j * ar * ai)
    )


def wigner_dyad_quadrature(alpha, beta, xs, ps, y_half=8.0, y_points=2001):
    """(1/pi) int e^{2ipy} psi_a(x-y) conj(psi_b(x+y)) dy by trapezoid rule."""
    y = np.linspace(-y_half, y_half, y_points)
    dy = y[1] - y[0]
    out = np.empty((len(xs), len(ps)), dtype=complex)
    for i, xv in enumerate(xs):
        fa = coherent_psi_x(alpha, xv - y)
        fb = np.conj(coherent_psi_x(beta, xv + y))
        prod = fa * fb
        for j, pv in enumerate(ps):
            integrand = np.exp(2j * pv * y) * prod
            out[i, j] = np.trapezoid(integrand) * dy / math.pi
    return out


def wigner_dyad_closed(alpha, beta, xs, ps):
    """Complex closed-form dyad kernel, written independently of the package."""
    sqrt2 = math.sqrt(2.0)
    ar, ai = alpha.real, alpha.imag
    br, bi = beta.real, beta.imag
    fx = np.exp(-((xs - sqrt2 * ar) ** 2) / 2 - ((xs - sqrt2 * br) ** 2) / 2
                + 1j * sqrt2 * (ai - bi) * xs)
    gp = np.exp(-((ps - (ai + bi) / sqrt2) ** 2) + 1j * sqrt2 * (br - ar) * ps)
    const = np.exp((br - ar) ** 2 / 2 - 1j * (br - ar) * (ai + bi)
                   - 1j * (ar * ai - br * bi)) / math.pi
    return const * np.outer(fx, gp)


def overlap_matrix(amplitudes, phases) -> np.ndarray:
    """The Gram matrix of scalar overlap calls: <label_i|label_j> above the
    diagonal, its conjugate below and 1.0 on it."""
    labels = [CoherentLabel(a, t) for a, t in zip(np.asarray(amplitudes).tolist(),
                                                   np.asarray(phases).tolist())]
    G = np.ones((len(labels), len(labels)), dtype=complex)
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            G[i, j] = overlap(a, labels[j])
            G[j, i] = G[i, j].conjugate()
    return G


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
