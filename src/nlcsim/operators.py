"""Bilinear and trilinear operators of the coupled velocity/director system.

Weak forms are realized as fields paired through the L2 inner product:
the convection term satisfies <B(u,v), w> = b(u,v,w), the director stress
satisfies <M(t1,t2), u> = m(t1,t2,u) for divergence-free u, and both
trilinear forms are evaluated with exact (dealiased) quadrature.  The
polynomial nonlinearity f(theta) = f_tilde(|theta|^2) theta and its
potential drive the energy functional used by the solver ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    TORUS_AREA,
    TWO_PI,
    DivergenceFreeField,
    ScalarField,
    VectorField,
    dealias_product,
    derivative,
    h1_seminorm,
    integrate_product,
    l2_norm,
    laplacian_vec,
    leray_project,
    lq_norm,
    pad_coeffs,
    truncate_coeffs,
)


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """f_tilde(r) = sum_j b_j r^j with strictly positive coefficients b_0..b_N."""

    coefficients: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise ValueError("need at least the constant coefficient b_0")
        if len(self.coefficients) > 4:
            raise ValueError("polynomial degree limited to 3")
        if any(b <= 0 for b in self.coefficients):
            raise ValueError(f"all coefficients must be > 0, got {self.coefficients}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def growth_exponent(self) -> int:
        """q = 4N + 2, the Lebesgue exponent of the growth bound on f."""
        return 4 * self.degree + 2

    def f_tilde(self, r):
        out = np.zeros_like(np.asarray(r, dtype=float))
        for b in reversed(self.coefficients):
            out = out * r + b
        return out

    def phi(self, r):
        """Antiderivative of f_tilde: phi(r) = sum_j b_j r^(j+1)/(j+1), phi(0)=0."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for j in reversed(range(len(self.coefficients))):
            out = (out + self.coefficients[j] / (j + 1)) * r
        return out


DEFAULT_NONLINEARITY = PolynomialNonlinearity((1.0, 1.0))


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    elastic: float
    potential: float
    psi_total: float
    dissipation: float


@dataclass(frozen=True)
class CoercivityReport:
    lhs: float
    rhs_main: float
    constant: float
    margin: float
    guaranteed: bool


# ---------------------------------------------------------------------------
# convection and director stress


def trilinear_b(u: VectorField, v: VectorField, w: VectorField) -> float:
    """b(u,v,w) = sum_{i,j} int u_i (d_i v_j) w_j dx, exact quadrature."""
    total = 0.0
    for j, (vj, wj) in enumerate(zip(v.components(), w.components())):
        for i, ui in enumerate(u.components()):
            total += integrate_product(ui, derivative(vj, i), wj)
    return total


def convection_B(u: DivergenceFreeField, v: VectorField) -> DivergenceFreeField:
    """Leray projection of (u . grad) v."""
    comps = []
    for vj in v.components():
        dv1 = derivative(vj, 0)
        dv2 = derivative(vj, 1)
        comps.append(dealias_product(u.c1, dv1) + dealias_product(u.c2, dv2))
    return leray_project(VectorField(comps[0], comps[1]))


def advection_Btilde(u: DivergenceFreeField, theta: VectorField) -> VectorField:
    """(u . grad) theta, no projection."""
    comps = []
    for tj in theta.components():
        comps.append(
            dealias_product(u.c1, derivative(tj, 0)) + dealias_product(u.c2, derivative(tj, 1))
        )
    return VectorField(comps[0], comps[1])


def trilinear_m(theta1: VectorField, theta2: VectorField, u: VectorField) -> float:
    """m(t1,t2,u) = -sum_{i,j,k} int (d_i t1_k)(d_j t2_k)(d_j u_i) dx."""
    total = 0.0
    for k in range(2):
        t1k = theta1.components()[k]
        t2k = theta2.components()[k]
        for i in range(2):
            d_i_t1k = derivative(t1k, i)
            ui = u.components()[i]
            for j in range(2):
                total -= integrate_product(d_i_t1k, derivative(t2k, j), derivative(ui, j))
    return total


def director_stress_M(theta1: VectorField, theta2: VectorField) -> DivergenceFreeField:
    """Field with <M(t1,t2), u> = m(t1,t2,u) for all divergence-free u.

    Assembled as the Leray projection of div(S) with the stress tensor
    S_ij = sum_k (d_i t1_k)(d_j t2_k) built from dealiased products.
    """
    grid = theta1.grid
    grads1 = [[derivative(c, i) for i in range(2)] for c in theta1.components()]
    grads2 = [[derivative(c, j) for j in range(2)] for c in theta2.components()]
    comps = []
    for i in range(2):
        acc = ScalarField.zeros(grid)
        for j in range(2):
            s_ij = dealias_product(grads1[0][i], grads2[0][j]) + dealias_product(
                grads1[1][i], grads2[1][j]
            )
            acc = acc + derivative(s_ij, j)
        comps.append(acc)
    return leray_project(VectorField(comps[0], comps[1]))


# ---------------------------------------------------------------------------
# polynomial nonlinearity and energies


def polynomial_f(
    theta: VectorField, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY, factor: float | None = None
) -> VectorField:
    """Pointwise f(theta) = f_tilde(|theta|^2) theta on a padded grid.

    ``factor`` defaults to the grid's dealias factor; passing degree + 1
    makes the evaluation alias-free.
    """
    grid = theta.grid
    m = grid.padded_size(factor)
    v1 = np.real(np.fft.ifft2(pad_coeffs(theta.c1.coeffs, m)) * m * m)
    v2 = np.real(np.fft.ifft2(pad_coeffs(theta.c2.coeffs, m)) * m * m)
    w = nl.f_tilde(v1**2 + v2**2)
    out = []
    for v in (v1, v2):
        c = truncate_coeffs(np.fft.fft2(w * v) / (m * m), grid.n)
        out.append(ScalarField.from_coeffs(grid, c))
    return VectorField(out[0], out[1])


def f_aliasing_error(theta: VectorField, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY) -> float:
    """L2 distance between f at the default padding and at exact padding."""
    approx = polynomial_f(theta, nl)
    exact = polynomial_f(theta, nl, factor=nl.degree + 1.0)
    return l2_norm(approx - exact)


def potential_energy(theta: VectorField, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY) -> float:
    """(1/2) int phi(|theta|^2) dx with exact quadrature."""
    grid = theta.grid
    m = grid.padded_size(factor=nl.degree + 2.0)
    v1 = np.real(np.fft.ifft2(pad_coeffs(theta.c1.coeffs, m)) * m * m)
    v2 = np.real(np.fft.ifft2(pad_coeffs(theta.c2.coeffs, m)) * m * m)
    vals = nl.phi(v1**2 + v2**2)
    return 0.5 * float(np.sum(vals) * (TWO_PI / m) ** 2)


def energy_psi(
    u: DivergenceFreeField | None,
    theta: VectorField,
    nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY,
) -> EnergyReport:
    """Kinetic/elastic/potential split of the scalar energy and its dissipation.

    psi_total = (1/2)||theta||^2 + (1/2) int phi(|theta|^2) dx, the quantity
    whose decay the solver ledger tracks; dissipation pairs the velocity
    gradient norm with |Delta theta - f(theta)|^2.
    """
    kinetic = 0.0 if u is None else 0.5 * l2_norm(u) ** 2
    elastic = 0.5 * h1_seminorm(theta) ** 2
    potential = potential_energy(theta, nl)
    resid = laplacian_vec(theta) - polynomial_f(theta, nl)
    dissipation = (0.0 if u is None else h1_seminorm(u) ** 2) + l2_norm(resid) ** 2
    return EnergyReport(
        kinetic=kinetic,
        elastic=elastic,
        potential=potential,
        psi_total=elastic + potential,
        dissipation=dissipation,
    )


def coercivity_check(
    theta: VectorField, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY
) -> CoercivityReport:
    """Margin of <f(theta), theta> >= |theta|^{2N+2}_{L^{2N+2}} - C |theta|^2.

    With leading coefficient b_N >= 1 the bound holds with C = 0 and the
    margin is guaranteed nonnegative; otherwise the margin is reported
    as measured (no universal constant exists in that regime).
    """
    grid = theta.grid
    m = grid.padded_size(factor=nl.degree + 2.0)
    v1 = np.real(np.fft.ifft2(pad_coeffs(theta.c1.coeffs, m)) * m * m)
    v2 = np.real(np.fft.ifft2(pad_coeffs(theta.c2.coeffs, m)) * m * m)
    r = v1**2 + v2**2
    lhs = float(np.sum(nl.f_tilde(r) * r) * (TWO_PI / m) ** 2)
    rhs_main = lq_norm(theta, 2 * nl.degree + 2) ** (2 * nl.degree + 2)
    constant = 0.0
    guaranteed = nl.coefficients[-1] >= 1.0
    margin = lhs - rhs_main + constant * l2_norm(theta) ** 2
    return CoercivityReport(lhs, rhs_main, constant, margin, guaranteed)


# ---------------------------------------------------------------------------
# dual norms for the continuity-bound checks


def dual_vprime_norm(w: VectorField) -> float:
    """Discrete V' norm: sum over modes of |w_k|^2 / (1 + |k|^2)."""
    ksq = w.grid.ksq()
    weight = 1.0 / (1.0 + ksq)
    total = 0.0
    for c in w.components():
        total += float(np.sum(weight * np.abs(c.coeffs) ** 2))
    return float(np.sqrt(TORUS_AREA * total))
