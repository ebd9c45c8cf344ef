"""Bilinear and trilinear operators of the coupled velocity/director system.

``explicit_rhs`` is the solver's form of the explicit terms on half-layout
(rfft) arrays, for one path or a batch along a leading path axis: one
batched inverse transform of u, grad theta and theta to the padded grid,
and one batched forward transform of the symmetric tensor
chi1 u (x) u + chi2 grad theta^T grad theta (which merges convection and
the director stress into -P div) and of chi1 (u . grad) theta + f(theta).
``explicit_rhs_transpose`` is the transpose of its linearization, for the
adjoint of the skeleton step: the same two transforms around the
transposed pointwise Jacobian.  The polynomial nonlinearity
f(theta) = f_tilde(|theta|^2) theta and its potential drive the energy
functional of the solver ledger.

``convection_B``, ``director_stress_M``, ``advection_Btilde``,
``polynomial_f`` and ``energy_psi`` are the reference of the fused form,
term by term on the same (..., 2, N, N//2+1) arrays: weak forms pair
through the L2 inner product, <B(u,v), w> = b(u,v,w) and
<M(t1,t2), u> = m(t1,t2,u) for divergence-free u, with each product
dealiased on its own (``dealias_product``).  ``verify`` checks the fused
form against them, and the tracer binds them (and ``leray_project``) by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    TorusGrid,
    from_grid,
    half_tables,
    leray_half,
    pad_half,
    scratch,
    to_grid,
    truncate_half,
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
        if not all(0 < b < np.inf for b in self.coefficients):
            raise ValueError(f"all coefficients must be > 0 and finite, got {self.coefficients}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def f_tilde(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.coefficients[-1])
        for b in reversed(self.coefficients[:-1]):
            out *= r
            out += b
        return out

    def f_tilde_prime(self, r):
        """Derivative of f_tilde: sum_j j b_j r^(j-1)."""
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.degree * self.coefficients[-1])
        for j in range(self.degree - 1, 0, -1):
            out *= r
            out += j * self.coefficients[j]
        return out

    def phi(self, r):
        """Antiderivative of f_tilde: phi(r) = sum_j b_j r^(j+1)/(j+1), phi(0)=0."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for j in reversed(range(len(self.coefficients))):
            out += self.coefficients[j] / (j + 1)
            out *= r
        return out


DEFAULT_NONLINEARITY = PolynomialNonlinearity((1.0, 1.0))


def potential_energy_hat(theta_hat: np.ndarray, grid: TorusGrid, nl: PolynomialNonlinearity):
    """(1/2) int phi(|theta|^2) dx of a (..., 2, N, N//2+1) director, one value per leading index.

    One batched inverse transform at padding degree + 1: the state's
    Nyquist lines are zero, so the integrand's band (degree + 1)(N - 2)
    stays below the padded size and the quadrature is exact.
    """
    m = grid.padded_size(factor=nl.degree + 1.0)
    # the step's grid buffer: the step is done with it when the diagnostic runs
    v = to_grid(theta_hat, m, out=scratch("grid", theta_hat.shape[:-2] + (m, m)))
    vals = nl.phi(np.sum(np.multiply(v, v, out=v), axis=-3))
    return 0.5 * (vals.reshape(vals.shape[:-2] + (m * m,)).sum(axis=-1) * (TWO_PI / m) ** 2)


def _state_fields(u_hat: np.ndarray, theta_hat: np.ndarray, ik1, ik2) -> tuple:
    """The 8 fields of a state that the explicit step takes to the padded grid, in grid order."""
    return (u_hat[..., :1, :, :], ik1 * theta_hat, u_hat[..., 1:, :, :], ik2 * theta_hat, theta_hat)


def _chi_scaled(x, y, chi1, chi2):
    """(cx, cy, chi1 factor): chi1 on the velocity and chi2 on the director gradients."""
    if isinstance(chi1, float) and isinstance(chi2, float) and chi1 == chi2 == 1.0:
        return x, y, 1.0
    chi = np.stack(np.broadcast_arrays(chi1, chi2, chi2), axis=-1)[..., None, None]
    return chi * x, chi * y, chi[..., :1, :, :]


def explicit_rhs(
    u_hat: np.ndarray,
    theta_hat: np.ndarray,
    grid: TorusGrid,
    chi1=1.0,
    chi2=1.0,
    nl: PolynomialNonlinearity | None = DEFAULT_NONLINEARITY,
    with_f: bool = False,
):
    """(nu, ntheta, f) of the explicit step on (..., 2, N, N//2+1) half-layout arrays.

    nu = -P div(chi1 u (x) u + chi2 grad theta^T grad theta) and
    ntheta = -(chi1 (u . grad) theta + f(theta)), with every product formed
    on the grid's padded grid: 8 fields per path go there in one ``to_grid``
    call and 5 products per path come back in one ``from_grid`` call, for a
    whole batch of paths at once.  The padded arrays are per-thread
    ``scratch`` buffers; the returned arrays are new.  ``chi1``/``chi2``
    are scalars or one value per path.  The divergence form of convection
    needs u divergence-free with zero Nyquist lines.  With ``with_f`` two
    more products return f(theta) alone (else f is None); ``nl=None``
    drops the relaxation.
    """
    n, m = grid.n, grid.padded_size()
    k1, k2 = half_tables(n)[:2]
    ik1, ik2 = 1j * k1, 1j * k2
    lead = u_hat.shape[:-3]
    fields = scratch("fields", lead + (8,) + u_hat.shape[-2:], complex)
    np.concatenate(_state_fields(u_hat, theta_hat, ik1, ik2), axis=-3, out=fields)
    grids = to_grid(fields, m, out=scratch("grid", lead + (8, m, m)))
    # x = (u1, d1 theta1, d1 theta2), y = (u2, d2 theta1, d2 theta2), t = theta on the padded grid
    x, y, t = grids[..., 0:3, :, :], grids[..., 3:6, :, :], grids[..., 6:8, :, :]
    cx, cy, _ = _chi_scaled(x, y, chi1, chi2)
    n_out = 7 if with_f and nl is not None else 5
    out = scratch("products", lead + (n_out, m, m))
    terms = scratch("terms", lead + (3, m, m))
    # symmetric tensor T_ab = chi1 u_a u_b + chi2 d_a theta . d_b theta, then chi1 (u . grad) theta
    np.sum(np.multiply(cx, x, out=terms), axis=-3, out=out[..., 0, :, :])
    np.sum(np.multiply(cx, y, out=terms), axis=-3, out=out[..., 1, :, :])
    np.sum(np.multiply(cy, y, out=terms), axis=-3, out=out[..., 2, :, :])
    adv = out[..., 3:5, :, :]
    np.multiply(cx[..., :1, :, :], x[..., 1:, :, :], out=adv)
    adv += np.multiply(cy[..., :1, :, :], y[..., 1:, :, :], out=terms[..., :2, :, :])
    if nl is not None:
        w = nl.f_tilde(np.sum(np.multiply(t, t, out=terms[..., :2, :, :]), axis=-3))
        adv += np.multiply(w[..., None, :, :], t, out=out[..., 5:7, :, :] if n_out == 7 else terms[..., :2, :, :])
        del w
    coeffs = from_grid(out, n)
    # nu = -P div T, with div T = (d1 T11 + d2 T12, d1 T12 + d2 T22) and T = (T11, T12, T22)
    div = np.multiply(-ik1, coeffs[..., 0:2, :, :])
    div -= ik2 * coeffs[..., 1:3, :, :]
    nu = leray_half(div)
    return nu, -coeffs[..., 3:5, :, :], coeffs[..., 5:7, :, :] if n_out == 7 else None


def explicit_rhs_transpose(
    u_hat: np.ndarray,
    theta_hat: np.ndarray,
    mu_u: np.ndarray,
    mu_theta: np.ndarray,
    grid: TorusGrid,
    chi1=1.0,
    chi2=1.0,
    nl: PolynomialNonlinearity | None = DEFAULT_NONLINEARITY,
    with_chi: bool = False,
):
    """Transpose of the linearized :func:`explicit_rhs` at (u, theta), applied to (mu_u, mu_theta).

    Returns (a_u, a_theta, dchi) such that, for every perturbation
    (du, dtheta) with chi1 and chi2 held fixed,
    <D nu[du, dtheta], mu_u> + <D ntheta[du, dtheta], mu_theta> = <du, a_u> + <dtheta, a_theta>
    in the Parseval inner product of ``half_inner``.

    The discrete chain is transposed, not the PDE.  Between ``half_inner``
    and the grid quadrature, pad + ``irfft2`` and ``rfft2`` + truncate
    (both ``norm="forward"``) are each other's transpose, so the transpose
    makes the same two transform calls around the transposed pointwise
    Jacobian: ik becomes -ik, the Leray projection is self-adjoint, and the
    relaxation's Jacobian f~ I + 2 f~' theta theta^T is symmetric.  The 8
    state fields and the 5 adjoint fields share one ``to_grid`` call, the 8
    results one ``from_grid`` call.  With ``with_chi``, dchi holds
    (d/dchi1, d/dchi2) of <nu, mu_u> + <ntheta, mu_theta>, one value per
    path, for the chain rule through the norm cutoffs; else it is None.
    """
    n, m = grid.n, grid.padded_size()
    k1, k2 = half_tables(n)[:2]
    ik1, ik2 = 1j * k1, 1j * k2
    # nu = -P div T: the adjoint of T11, T12, T22 is ik applied to P mu_u
    proj = leray_half(mu_u)
    p1, p2 = proj[..., 0, :, :], proj[..., 1, :, :]
    tensor = np.stack((ik1 * p1, ik2 * p1 + ik1 * p2, ik2 * p2), axis=-3)
    fields = np.concatenate(_state_fields(u_hat, theta_hat, ik1, ik2) + (tensor, -mu_theta), axis=-3)
    grids = to_grid(fields, m, out=scratch("grid", fields.shape[:-2] + (m, m)))
    x, y, t = grids[..., 0:3, :, :], grids[..., 3:6, :, :], grids[..., 6:8, :, :]
    s11, s12, s22 = grids[..., 8:9, :, :], grids[..., 9:10, :, :], grids[..., 10:11, :, :]
    sa = grids[..., 11:13, :, :]  # adjoint of chi1 (u . grad) theta + f(theta)
    cx, cy, c1 = _chi_scaled(x, y, chi1, chi2)
    out = scratch("products", grids.shape[:-3] + (8, m, m))
    gx, gy, gt = out[..., 0:3, :, :], out[..., 3:6, :, :], out[..., 6:8, :, :]
    # T11 = cx . x, T12 = cx . y, T22 = cy . y
    np.multiply(cx, 2.0 * s11, out=gx)
    gx += cy * s12
    np.multiply(cy, 2.0 * s22, out=gy)
    gy += cx * s12
    # A_j = chi1 (u1 d1 theta_j + u2 d2 theta_j)
    adv_x = np.sum(x[..., 1:, :, :] * sa, axis=-3, keepdims=True)
    adv_y = np.sum(y[..., 1:, :, :] * sa, axis=-3, keepdims=True)
    gx[..., :1, :, :] += c1 * adv_x
    gx[..., 1:, :, :] += cx[..., :1, :, :] * sa
    gy[..., :1, :, :] += c1 * adv_y
    gy[..., 1:, :, :] += cy[..., :1, :, :] * sa
    if nl is None:
        gt[...] = 0.0
    else:
        r = np.sum(t * t, axis=-3, keepdims=True)
        np.multiply(nl.f_tilde(r), sa, out=gt)
        gt += (2.0 * nl.f_tilde_prime(r) * np.sum(t * sa, axis=-3, keepdims=True)) * t
    coeffs = from_grid(out, n)
    a_u = coeffs[..., [0, 3], :, :]
    a_theta = coeffs[..., 6:8, :, :] - ik1 * coeffs[..., 1:3, :, :] - ik2 * coeffs[..., 4:6, :, :]
    dchi = None
    if with_chi:
        u1, u2 = x[..., :1, :, :], y[..., :1, :, :]
        dx, dy = x[..., 1:, :, :], y[..., 1:, :, :]
        o1 = s11 * u1 * u1 + s12 * u1 * u2 + s22 * u2 * u2 + u1 * adv_x + u2 * adv_y
        o2 = np.sum(s11 * dx * dx + s12 * dx * dy + s22 * dy * dy, axis=-3, keepdims=True)
        quad = (TWO_PI / m) ** 2
        dchi = tuple(quad * o.reshape(o.shape[:-3] + (m * m,)).sum(axis=-1) for o in (o1, o2))
    return a_u, a_theta, dchi


# ---------------------------------------------------------------------------
# reference operators
#
# bench/tracer.py wraps these names (here and where ``dynamics`` re-exports them); ``verify``
# checks the fused step against them.  Each forms its products with numpy's allocating irfft2/rfft2
# between pad_half and truncate_half, sharing no transform, buffer or DFT factor with the step.

# the tracer binds ``leray_project``: the one Leray projection under that name
leray_project = leray_half


def _values(a: np.ndarray, factor: float | None = None) -> np.ndarray:
    """Samples of (..., N, N//2+1) coefficients on the padded grid of ``factor`` (default 3/2)."""
    m = TorusGrid(a.shape[-2]).padded_size(factor)
    return np.fft.irfft2(pad_half(a, m), s=(m, m), norm="forward")


def _integral(a: np.ndarray, factor: float = 1.0, fn=None):
    """int fn(|a(x)|^2) dx over the torus of a (..., C, N, N//2+1) stack, by grid quadrature."""
    v = _values(a, factor)
    r = np.sum(v * v, axis=-3)
    r = r if fn is None else fn(r)
    return r.sum(axis=(-2, -1)) * (TWO_PI / v.shape[-1]) ** 2


def _gradient(a: np.ndarray):
    """(d1 a, d2 a) of (..., N, N//2+1) coefficients."""
    k1, k2 = half_tables(a.shape[-2])[:2]
    return 1j * k1 * a, 1j * k2 * a


def dealias_product(*fields: np.ndarray, factor: float | None = None) -> np.ndarray:
    """Pointwise product of (..., N, N//2+1) coefficient arrays on a padded grid, truncated back.

    ``factor`` defaults to 3/2; a product of more than two fields is exact
    for (n_fields + 1)/2 or larger.
    """
    prod = _values(fields[0], factor)
    for a in fields[1:]:
        prod = prod * _values(a, factor)
    return truncate_half(np.fft.rfft2(prod, norm="forward"), fields[0].shape[-2])


def advection_Btilde(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(u . grad) theta of (..., 2, N, N//2+1) arrays, no projection."""
    d1, d2 = _gradient(theta)
    return dealias_product(u[..., :1, :, :], d1) + dealias_product(u[..., 1:, :, :], d2)


def convection_B(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Leray projection of (u . grad) v."""
    return leray_project(advection_Btilde(u, v))


def director_stress_M(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """The field with <M(t1,t2), u> = m(t1,t2,u) for all divergence-free u.

    The Leray projection of div S, with the stress tensor
    S_ij = sum_k (d_i t1_k)(d_j t2_k) built from dealiased products.
    """
    grads1, grads2 = _gradient(theta1), _gradient(theta2)
    div = [
        sum(_gradient(dealias_product(grads1[i], grads2[j]).sum(axis=-3))[j] for j in range(2))
        for i in range(2)
    ]
    return leray_project(np.stack(div, axis=-3))


def polynomial_f(
    theta: np.ndarray, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY, factor: float | None = None
) -> np.ndarray:
    """Pointwise f(theta) = f_tilde(|theta|^2) theta of (..., 2, N, N//2+1) coefficients on a padded grid.

    ``factor`` defaults to 3/2; degree + 1 makes the evaluation alias-free.
    """
    v = _values(theta, factor)
    w = nl.f_tilde(np.sum(v * v, axis=-3, keepdims=True))
    return truncate_half(np.fft.rfft2(w * v, norm="forward"), theta.shape[-2])


def energy_psi(u: np.ndarray | None, theta: np.ndarray, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY):
    """(psi_total, dissipation) of a state: the reference of the solver ledger's energy row.

    psi_total = (1/2)|grad theta|^2 + (1/2) int phi(|theta|^2) dx and
    dissipation = |grad u|^2 + |Delta theta - f(theta)|^2, every integral by
    quadrature on a grid that resolves its integrand; ``u`` may be None.
    """
    grad = np.concatenate(_gradient(theta), axis=-3)
    potential = _integral(theta, nl.degree + 2.0, nl.phi)
    resid = -half_tables(theta.shape[-2])[2] * theta - polynomial_f(theta, nl)
    dissipation = _integral(resid) + (0.0 if u is None else _integral(np.concatenate(_gradient(u), axis=-3)))
    return 0.5 * (_integral(grad) + potential), dissipation
