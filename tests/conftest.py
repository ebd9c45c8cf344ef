"""Shared fixtures and FFT-independent quadrature oracles.

The oracles evaluate trigonometric polynomials by direct mode summation
and integrate with the (exact, for resolved bands) equal-weight rule on
an oversampled grid.  They deliberately avoid the library's padded-FFT
product path so the two sides of every check are independent.
"""

import numpy as np
import pytest

from nlcsim.ldp import rate_objective
from nlcsim.spectral import TWO_PI, TorusGrid, full_from_half


@pytest.fixture
def grid16():
    return TorusGrid(16)


@pytest.fixture
def grid32():
    return TorusGrid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def direct_eval(field: np.ndarray, m: int) -> np.ndarray:
    """Evaluate sum_k c_k exp(i k.x) of (N, N//2+1) coefficients on an m x m grid by direct summation."""
    n = field.shape[-2]
    kvec = np.fft.fftfreq(n, d=1.0 / n)
    x = np.arange(m) * (TWO_PI / m)
    e1 = np.exp(1j * np.outer(x, kvec))  # (m, n)
    e2 = np.exp(1j * np.outer(kvec, x))  # (n, m)
    return np.real(e1 @ full_from_half(field) @ e2)


def quad_integral(values: np.ndarray) -> float:
    """Equal-weight quadrature of samples on a uniform periodic grid."""
    m = values.shape[0]
    return float(np.sum(values) * (TWO_PI / m) ** 2)


def oracle_integral_product(*fields: np.ndarray, m: int = 192) -> float:
    """Integral of a pointwise product, via oversampled direct evaluation."""
    prod = np.ones((m, m))
    for f in fields:
        prod = prod * direct_eval(f, m)
    return quad_integral(prod)


def oracle_l2_inner(a, b, m: int = 192) -> float:
    if a.ndim == 3:
        return sum(oracle_integral_product(x, y, m=m) for x, y in zip(a, b))
    return oracle_integral_product(a, b, m=m)


def oracle_derivative(field: np.ndarray, axis: int) -> np.ndarray:
    """Derivative of a trig polynomial by explicit i*k coefficient scaling."""
    n = field.shape[-2]
    kvec = np.fft.fftfreq(n, d=1.0 / n)
    kvec[n // 2] = 0.0
    k = kvec[:, None] if axis == 0 else kvec[None, : n // 2 + 1]
    return 1j * k * field


def oracle_trilinear_b(u: np.ndarray, v: np.ndarray, w: np.ndarray, m: int = 192) -> float:
    total = 0.0
    for vj, wj in zip(v, w):
        wj_vals = direct_eval(wj, m)
        for i, ui in enumerate(u):
            vals = direct_eval(ui, m) * direct_eval(oracle_derivative(vj, i), m) * wj_vals
            total += quad_integral(vals)
    return total


def oracle_trilinear_m(t1: np.ndarray, t2: np.ndarray, u: np.ndarray, m: int = 192) -> float:
    total = 0.0
    for k in range(2):
        for i in range(2):
            d_i = direct_eval(oracle_derivative(t1[k], i), m)
            for j in range(2):
                vals = (
                    d_i
                    * direct_eval(oracle_derivative(t2[k], j), m)
                    * direct_eval(oracle_derivative(u[i], j), m)
                )
                total -= quad_integral(vals)
    return total


def central_difference_gradient(prob, w: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the rate objective in w = log g: the adjoint's oracle.

    Two skeleton solves per control coordinate, each through the public
    ``rate_objective``; the truncation error is O(step^2).
    """
    def objective(x):
        return rate_objective(prob.control_from_flat(np.exp(x)), prob)

    grad = np.zeros_like(w)
    for d in range(w.size):
        e = np.zeros_like(w)
        e[d] = step
        grad[d] = (objective(w + e) - objective(w - e)) / (2 * step)
    return grad
