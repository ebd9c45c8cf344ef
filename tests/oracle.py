"""Array-level oracle of the test suite.

The package steps half-layout (rfft) coefficient arrays, (N, N//2+1) for
a scalar and (2, N, N//2+1) for a vector, and every helper here takes and
returns the same arrays.  Inner products and norms are summed over the
full spectrum (``full_from_half``) with wavenumbers computed here, and
integrals by quadrature on a padded grid through numpy's ``irfft2``, so
neither goes through the ``half_norms_sq``/``half_inner`` or the padded
transform pair they check.  The helpers: norms, trilinear forms, the
coercivity and dual-norm checks, random fields, the explicit terms of one
step from the package's reference operators (``nonlinear_terms``), the
one-path jump-driven run with every snapshot kept (``jump_path``), and the
allocate-per-call padded transform pair (``plain_to_grid``/
``plain_from_grid``) that the package's workspace-backed pair must equal,
bit for bit where it runs numpy's FFT and to rounding where it runs dense
DFT products.  ``path_major_rhs`` and ``path_major_rhs_transpose`` are the
fused step and its transpose on path-major padded stacks, the layout
oracle the package's plane-major pair must equal bit for bit.
``shear_iterates`` is the scheme on shear flows, where it reduces to a
scalar recursion per coefficient, driven by the tables
``skeleton_shear_table`` and ``jump_shear_table``.  ``sample_prm`` (the
untilted Poisson draw C6 checks thinning against) and ``brute_force_rate``
(the grid search C8 checks the rate optimizer against) are the acceptance
oracles.  ``state_of`` and ``spec_of`` build the package's inputs from
arrays, and ``embed_state`` moves a state onto a finer grid.  The
package writes its artifacts (``nlcsim.cli``) and reads back only the
echoed config; the minimal readers the round-trip tests use are at the
end of this file.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from nlcsim.cli import _COMPONENTS
from nlcsim.dynamics import SolverConfig, SolverError, SpectralState, _jump_table, _run, cutoff_chi
from nlcsim.ldp import RateProblem, RateSolution, rate_objective_parts
from nlcsim.noise import Control, JumpCoefficientSpec, JumpSample, MarkSpace, NoiseError
from nlcsim.operators import (
    DEFAULT_NONLINEARITY,
    PolynomialNonlinearity,
    advection_Btilde,
    convection_B,
    director_stress_M,
    polynomial_f,
)
from nlcsim.spectral import (
    TORUS_AREA,
    TWO_PI,
    SpectralError,
    TorusGrid,
    from_grid,
    full_from_half,
    half_tables,
    leray_half,
    pad_half,
    to_grid,
    truncate_half,
)


# ---------------------------------------------------------------------------
# states and jump coefficients from arrays


def state_of(u: np.ndarray, theta: np.ndarray, time: float = 0.0) -> SpectralState:
    """The state of a velocity and a director array, on the grid of their shape."""
    return SpectralState(TorusGrid(u.shape[-2]), u, theta, time)


def zero_state(grid: TorusGrid, time: float = 0.0) -> SpectralState:
    zeros = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    return SpectralState(grid, zeros, zeros, time)


def embed_state(state: SpectralState, fine_grid: TorusGrid) -> SpectralState:
    """Exact embedding of a coarse-grid state into a finer grid."""
    if fine_grid.n < state.grid.n:
        raise SolverError("target grid must be at least as fine")
    m = fine_grid.n
    return SpectralState(fine_grid, pad_half(state.u_hat, m), pad_half(state.theta_hat, m), state.time)


def spec_of(shapes, gains) -> JumpCoefficientSpec:
    """Jump coefficient with one (2, N, N//2+1) velocity array per mark as its shapes."""
    return JumpCoefficientSpec(shapes=np.stack(shapes), gains=tuple(gains))


# ---------------------------------------------------------------------------
# differential operators, grid values and norms


def wavenumbers(n: int):
    """(k1, k2) of the (N, N//2+1) layout: an (N, 1) column in FFT order and the row 0 .. N/2."""
    return np.fft.fftfreq(n, d=1.0 / n)[:, None], np.arange(n // 2 + 1.0)


def derivative(a: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along axis 0 (x1) or 1 (x2)."""
    return 1j * wavenumbers(a.shape[-2])[axis] * a


def gradient(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return derivative(a, 0), derivative(a, 1)


def divergence(w: np.ndarray) -> np.ndarray:
    return derivative(w[0], 0) + derivative(w[1], 1)


def laplacian(a: np.ndarray) -> np.ndarray:
    """Laplacian of a (multiplier -|k|^2)."""
    k1, k2 = wavenumbers(a.shape[-2])
    return -(k1**2 + k2**2) * a


def grid_values(a: np.ndarray, m: int | None = None) -> np.ndarray:
    """Samples of (..., N, N//2+1) coefficients on the m x m grid (default N), one ``irfft2``."""
    m = a.shape[-2] if m is None else m
    return np.fft.irfft2(pad_half(a, m), s=(m, m), norm="forward")


def _parseval(a: np.ndarray, b: np.ndarray, weight=1.0) -> float:
    """(2pi)^2 sum_k conj(a_k) weight_k b_k over the full N x N spectrum, component by component."""
    n = a.shape[-2]
    pairs = zip(full_from_half(a).reshape(-1, n, n), full_from_half(b).reshape(-1, n, n))
    return float(sum(TORUS_AREA * np.real(np.vdot(x, weight * y)) for x, y in pairs))


def _full_ksq(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None] ** 2 + k[None, :] ** 2


def l2_inner(a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product on the torus (Parseval)."""
    return _parseval(a, b)


def l2_norm(a: np.ndarray) -> float:
    return float(np.sqrt(_parseval(a, a)))


def h1_seminorm(a: np.ndarray) -> float:
    """|grad a|_{L2}."""
    return float(np.sqrt(max(_parseval(a, a, _full_ksq(a.shape[-2])), 0.0)))


def divergence_residual(w: np.ndarray) -> float:
    """Relative L2 norm of the spectral divergence of ``w``."""
    div = l2_norm(divergence(w))
    scale = h1_seminorm(w)
    return div / scale if scale > 0 else div


def v_norm(a: np.ndarray) -> float:
    """Graph norm sqrt(|a|^2 + |grad a|^2)."""
    return float(np.sqrt(l2_norm(a) ** 2 + h1_seminorm(a) ** 2))


def _magnitude_sq(a: np.ndarray, factor: float):
    """(|a(x)|^2 on the padded grid of ``factor``, its size m) of a scalar or vector array."""
    m = TorusGrid(a.shape[-2]).padded_size(factor)
    return np.sum(grid_values(a.reshape((-1,) + a.shape[-2:]), m) ** 2, axis=0), m


def lq_norm(a: np.ndarray, q: int) -> float:
    """L^q norm for even q >= 2, via exact padded-grid quadrature.

    For vector fields the pointwise Euclidean magnitude is used.  The
    integrand |a|^q has polynomial degree q, so padding by (q + 2)/2
    makes the quadrature exact for band-limited fields.
    """
    if q < 2 or q % 2 != 0:
        raise SpectralError(f"lq norm requires even q >= 2, got {q}")
    mag_sq, m = _magnitude_sq(a, (q + 2) / 2.0)
    integral = float(np.sum(mag_sq ** (q // 2)) * (TWO_PI / m) ** 2)
    return integral ** (1.0 / q)


def norms(a: np.ndarray, lq: Iterable[int] = ()) -> dict:
    """Bundle of the norms used by the energy estimates."""
    out = {
        "l2": l2_norm(a),
        "h1_semi": h1_seminorm(a),
        "v_norm": v_norm(a),
    }
    for q in lq:
        out[f"l{q}"] = lq_norm(a, q)
    return out


def integrate_product(*fields: np.ndarray) -> float:
    """Exact integral of a pointwise product of band-limited scalar fields.

    Pads by (n_fields + 1)/2 so no aliasing can reach the mean mode.
    """
    m = TorusGrid(fields[0].shape[-2]).padded_size((len(fields) + 1) / 2.0)
    prod = np.ones((m, m))
    for f in fields:
        prod = prod * grid_values(f, m)
    return float(np.sum(prod) * (TWO_PI / m) ** 2)


def potential(theta: np.ndarray, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY) -> float:
    """(1/2) int phi(|theta|^2) dx with exact quadrature."""
    r, m = _magnitude_sq(theta, nl.degree + 2.0)
    return 0.5 * float(np.sum(nl.phi(r)) * (TWO_PI / m) ** 2)


# ---------------------------------------------------------------------------
# trilinear forms, coercivity, dual norms


def trilinear_b(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """b(u,v,w) = sum_{i,j} int u_i (d_i v_j) w_j dx, exact quadrature."""
    total = 0.0
    for vj, wj in zip(v, w):
        for i, ui in enumerate(u):
            total += integrate_product(ui, derivative(vj, i), wj)
    return total


def trilinear_m(theta1: np.ndarray, theta2: np.ndarray, u: np.ndarray) -> float:
    """m(t1,t2,u) = -sum_{i,j,k} int (d_i t1_k)(d_j t2_k)(d_j u_i) dx."""
    total = 0.0
    for t1k, t2k in zip(theta1, theta2):
        for i in range(2):
            d_i_t1k = derivative(t1k, i)
            for j in range(2):
                total -= integrate_product(d_i_t1k, derivative(t2k, j), derivative(u[i], j))
    return total


def f_aliasing_error(theta: np.ndarray, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY) -> float:
    """L2 distance between f at the default padding and at exact padding."""
    approx = polynomial_f(theta, nl)
    exact = polynomial_f(theta, nl, factor=nl.degree + 1.0)
    return l2_norm(approx - exact)


@dataclass(frozen=True)
class CoercivityReport:
    lhs: float
    rhs_main: float
    constant: float
    margin: float
    guaranteed: bool


def coercivity_check(
    theta: np.ndarray, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY
) -> CoercivityReport:
    """Margin of <f(theta), theta> >= |theta|^{2N+2}_{L^{2N+2}} - C |theta|^2.

    With leading coefficient b_N >= 1 the bound holds with C = 0 and the
    margin is guaranteed nonnegative; otherwise the margin is reported
    as measured (no universal constant exists in that regime).
    """
    r, m = _magnitude_sq(theta, nl.degree + 2.0)
    lhs = float(np.sum(nl.f_tilde(r) * r) * (TWO_PI / m) ** 2)
    rhs_main = lq_norm(theta, 2 * nl.degree + 2) ** (2 * nl.degree + 2)
    constant = 0.0
    guaranteed = nl.coefficients[-1] >= 1.0
    margin = lhs - rhs_main + constant * l2_norm(theta) ** 2
    return CoercivityReport(lhs, rhs_main, constant, margin, guaranteed)


def dual_vprime_norm(w: np.ndarray) -> float:
    """Discrete V' norm: sum over modes of |w_k|^2 / (1 + |k|^2)."""
    return float(np.sqrt(_parseval(w, w, 1.0 / (1.0 + _full_ksq(w.shape[-2])))))


# ---------------------------------------------------------------------------
# the padded transform pair, one allocating 2-D transform per call


def plain_to_grid(a: np.ndarray, m: int, out=None) -> np.ndarray:
    """``spectral.to_grid`` as one ``irfft2`` of freshly zero-padded band columns.

    ``out`` is accepted and ignored, so the pair can stand in for the
    package's own in ``nlcsim.operators``.
    """
    padded = pad_half(a, m, out=np.zeros(a.shape[:-2] + (m, a.shape[-2] // 2), dtype=complex))
    return np.fft.irfft2(padded, s=(m, m), norm="forward")


def plain_from_grid(values: np.ndarray, n: int) -> np.ndarray:
    """``spectral.from_grid`` as one ``rfft2`` and a band truncation."""
    return truncate_half(np.fft.rfft2(values, norm="forward"), n)


# ---------------------------------------------------------------------------
# the fused explicit step and its transpose on a path-major padded stack
#
# ``operators.explicit_rhs`` and ``explicit_rhs_transpose`` keep their padded fields plane-major,
# (fields, *paths, m, m); these keep them path-major, (*paths, fields, m, m), and reduce over the
# field axis with ``np.sum``.  Both make the same transform calls and the same products in the same
# order, so the package must equal them bit for bit.


def _state_fields(u_hat: np.ndarray, theta_hat: np.ndarray, ik1, ik2) -> tuple:
    """The 8 fields of a state that the explicit step takes to the padded grid, in grid order."""
    return (u_hat[..., :1, :, :], ik1 * theta_hat, u_hat[..., 1:, :, :], ik2 * theta_hat, theta_hat)


def _chi_scaled(x, y, chi1, chi2):
    """(cx, cy, chi1 factor): chi1 on the velocity and chi2 on the director gradients."""
    if isinstance(chi1, float) and isinstance(chi2, float) and chi1 == chi2 == 1.0:
        return x, y, 1.0
    chi = np.stack(np.broadcast_arrays(chi1, chi2, chi2), axis=-1)[..., None, None]
    return chi * x, chi * y, chi[..., :1, :, :]


def path_major_rhs(u_hat, theta_hat, grid, chi1=1.0, chi2=1.0, nl=DEFAULT_NONLINEARITY, with_f=False):
    """``operators.explicit_rhs`` on a (*paths, 8, m, m) padded stack."""
    n, m = grid.n, grid.padded_size()
    k1, k2 = half_tables(n)[:2]
    ik1, ik2 = 1j * k1, 1j * k2
    lead = u_hat.shape[:-3]
    fields = np.concatenate(_state_fields(u_hat, theta_hat, ik1, ik2), axis=-3)
    grids = to_grid(fields, m, out=np.empty(lead + (8, m, m)))
    x, y, t = grids[..., 0:3, :, :], grids[..., 3:6, :, :], grids[..., 6:8, :, :]
    cx, cy, _ = _chi_scaled(x, y, chi1, chi2)
    n_out = 7 if with_f and nl is not None else 5
    out = np.empty(lead + (n_out, m, m))
    terms = np.empty(lead + (3, m, m))
    np.sum(np.multiply(cx, x, out=terms), axis=-3, out=out[..., 0, :, :])
    np.sum(np.multiply(cx, y, out=terms), axis=-3, out=out[..., 1, :, :])
    np.sum(np.multiply(cy, y, out=terms), axis=-3, out=out[..., 2, :, :])
    adv = out[..., 3:5, :, :]
    np.multiply(cx[..., :1, :, :], x[..., 1:, :, :], out=adv)
    adv += np.multiply(cy[..., :1, :, :], y[..., 1:, :, :], out=terms[..., :2, :, :])
    if nl is not None:
        w = nl.f_tilde(np.sum(np.multiply(t, t, out=terms[..., :2, :, :]), axis=-3))
        adv += np.multiply(w[..., None, :, :], t, out=out[..., 5:7, :, :] if n_out == 7 else terms[..., :2, :, :])
    coeffs = from_grid(out, n)
    div = np.multiply(-ik1, coeffs[..., 0:2, :, :])
    div -= ik2 * coeffs[..., 1:3, :, :]
    return leray_half(div), -coeffs[..., 3:5, :, :], coeffs[..., 5:7, :, :] if n_out == 7 else None


def path_major_rhs_transpose(
    u_hat, theta_hat, mu_u, mu_theta, grid, chi1=1.0, chi2=1.0, nl=DEFAULT_NONLINEARITY, with_chi=False
):
    """``operators.explicit_rhs_transpose`` on a (*paths, 13, m, m) padded stack, allocating per product."""
    n, m = grid.n, grid.padded_size()
    k1, k2 = half_tables(n)[:2]
    ik1, ik2 = 1j * k1, 1j * k2
    proj = leray_half(mu_u)
    p1, p2 = proj[..., 0, :, :], proj[..., 1, :, :]
    tensor = np.stack((ik1 * p1, ik2 * p1 + ik1 * p2, ik2 * p2), axis=-3)
    fields = np.concatenate(_state_fields(u_hat, theta_hat, ik1, ik2) + (tensor, -mu_theta), axis=-3)
    grids = to_grid(fields, m, out=np.empty(fields.shape[:-2] + (m, m)))
    x, y, t = grids[..., 0:3, :, :], grids[..., 3:6, :, :], grids[..., 6:8, :, :]
    s11, s12, s22 = grids[..., 8:9, :, :], grids[..., 9:10, :, :], grids[..., 10:11, :, :]
    sa = grids[..., 11:13, :, :]
    cx, cy, c1 = _chi_scaled(x, y, chi1, chi2)
    out = np.empty(grids.shape[:-3] + (8, m, m))
    gx, gy, gt = out[..., 0:3, :, :], out[..., 3:6, :, :], out[..., 6:8, :, :]
    np.multiply(cx, 2.0 * s11, out=gx)
    gx += cy * s12
    np.multiply(cy, 2.0 * s22, out=gy)
    gy += cx * s12
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
# the explicit terms of one step, term by term


def nonlinear_terms(u: np.ndarray, theta: np.ndarray, cfg: SolverConfig):
    """Explicit part of both equations (no control drift, no noise).

    ``nonlinearity=None`` drops the polynomial relaxation entirely (a test
    configuration; the modeled system always carries positive coefficients).
    """
    chi1 = chi2 = 1.0
    if cfg.cutoff_level is not None:
        chi1 = cutoff_chi(l2_norm(u), cfg.cutoff_level)
        chi2 = cutoff_chi(l2_norm(theta), cfg.cutoff_level)
    nu = -chi1 * convection_B(u, u) - chi2 * director_stress_M(theta, theta)
    ntheta = -chi1 * advection_Btilde(u, theta)
    if cfg.nonlinearity is not None:
        ntheta = ntheta - polynomial_f(theta, cfg.nonlinearity)
    return nu, ntheta


def jump_path(init: SpectralState, epsilon: float, jumps: JumpSample, cfg: SolverConfig, convolution_phi=None):
    """One jump-driven path on ``jumps`` with every snapshot kept, from the stepping core.

    The SDE trajectory, or with ``convolution_phi`` the convolution's: the
    one-path reference ``solve_path_batch`` must equal bit for bit.
    """
    out = _run(init, cfg, "sde", *_jump_table(epsilon, [jumps], cfg, convolution_phi))
    return out[0] if convolution_phi is None else out[1][0]


# ---------------------------------------------------------------------------
# shear flows: the scheme as a scalar recursion per coefficient

# With a zero director, a velocity (g(x2), 0) and marks of the same kind with zero gains, convection,
# stress and relaxation vanish and the director stays zero, so each velocity coefficient follows
# c <- F (c + sum_i t_i shape_i), F = exp(-|k|^2 dt), t_i the mark's forcing over the step.


def skeleton_shear_table(control: Control, weights, dt: float, n_steps: int) -> np.ndarray:
    """(steps, marks) t = dt w (g - 1), g the tilt's value at the step's start t = k dt."""
    cells = np.minimum((np.arange(n_steps) * dt / control.cell_width).astype(int), control.n_cells - 1)
    return dt * np.asarray(weights) * (control.values[cells] - 1.0)


def jump_shear_table(sample: JumpSample, epsilon: float, weights, dt: float, n_steps: int) -> np.ndarray:
    """(steps, marks) t = eps n - dt w, n the jumps per mark in [k dt, (k + 1) dt) (the last step takes t_final)."""
    counts = np.zeros((n_steps, len(weights)))
    for t, mark in zip(sample.times, sample.marks):
        counts[min(int(t / dt), n_steps - 1), mark] += 1.0
    return epsilon * counts - dt * np.asarray(weights)


def shear_iterates(u0: np.ndarray, shapes: np.ndarray, table: np.ndarray, dt: float) -> np.ndarray:
    """(steps + 1, 2, N, N//2+1) iterates of c <- F (c + sum_i t_i shape_i) from u0, one table row a step."""
    k1, k2 = wavenumbers(u0.shape[-2])
    factor = np.exp(-(k1**2 + k2**2) * dt)
    out = [u0]
    for row in table:
        out.append(factor * (out[-1] + sum(t * shape for t, shape in zip(row, shapes))))
    return np.array(out)


# ---------------------------------------------------------------------------
# the C6 and C8 oracles: an untilted Poisson draw and a grid-search rate


def sample_prm(ms: MarkSpace, horizon: float, scale: float, rng: np.random.Generator) -> JumpSample:
    """Poisson random measure on (0,T] x marks with intensity scale * theta.

    Event count is Poisson(scale * total_mass * T); times are iid uniform,
    marks categorical with probabilities theta_i / total_mass.
    """
    if horizon <= 0 or scale <= 0:
        raise NoiseError("horizon and scale must be positive")
    total_mass = float(sum(ms.weights))
    lam = scale * total_mass * horizon
    n = int(rng.poisson(lam))
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    if n and times[0] == 0.0:
        times[times == 0.0] = np.nextafter(0.0, horizon)
    probs = ms.weight_array() / total_mass
    marks = rng.choice(ms.size, size=n, p=probs)
    return JumpSample(times, marks)


def brute_force_rate(prob: RateProblem, grid_values: Sequence[float]) -> RateSolution:
    """Exhaustive objective evaluation on a value grid (<= 2 control dims)."""
    if prob.n_dims > 2:
        raise ValueError("grid search supports at most two control coordinates")
    if any(v < 0 for v in grid_values):
        raise ValueError("grid values must be nonnegative")
    best = None
    history = []
    for it, combo in enumerate(itertools.product(grid_values, repeat=prob.n_dims)):
        g = prob.control_from_flat(np.asarray(combo))
        obj, cost, mis = rate_objective_parts(g, prob)
        history.append((it, obj, cost, mis))
        if best is None or obj < best[0]:
            best = (obj, g, cost, mis)
    obj, g, cost, mis = best
    return RateSolution(g_star=g, cost=cost, mismatch=mis, objective=obj, converged=True, history=history)


# ---------------------------------------------------------------------------
# field constructors


def _half_of_full(coeffs: np.ndarray) -> np.ndarray:
    """(..., N, N) full spectra -> (..., N, N//2+1) half layout, Nyquist lines zeroed."""
    h = coeffs.shape[-1] // 2
    out = np.array(coeffs[..., : h + 1], dtype=complex)
    out[..., h, :] = 0.0
    out[..., h] = 0.0
    return out


def field_from_function(grid: TorusGrid, *fns) -> np.ndarray:
    """Half-layout coefficients of functions of (x1, x2) sampled on the grid nodes.

    One function gives a scalar (N, N//2+1) array; several give their
    stack, with None for a zero component.
    """
    x1, x2 = grid.nodes()
    values = [np.zeros_like(x1) if fn is None else np.broadcast_to(fn(x1, x2), x1.shape) for fn in fns]
    out = _half_of_full(np.fft.fft2(np.array(values, dtype=float)) / (grid.n * grid.n))
    return out[0] if len(fns) == 1 else out


def constant_field(grid: TorusGrid, *values: float) -> np.ndarray:
    """The (C, N, N//2+1) coefficients of a constant C-vector."""
    out = np.zeros((len(values), grid.n, grid.n // 2 + 1), dtype=complex)
    out[:, 0, 0] = values
    return out


def random_scalar_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    amplitude: float = 1.0,
    decay: float = 0.0,
    zero_mean: bool = False,
) -> np.ndarray:
    """Real random field with coefficients in the band |k|_inf <= kmax.

    Coefficient magnitudes fall off like exp(-decay |k|); symmetrization
    keeps the field exactly real.
    """
    n = grid.n
    kmax = kmax if kmax is not None else n // 3
    if kmax > n // 2 - 1:
        raise SpectralError(f"kmax={kmax} not representable on N={n} grid")
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= mask * np.exp(-decay * np.sqrt(k1**2 + k2**2))
    # c(-k) = conj(c(k)) by averaging with the reflected conjugate
    refl = np.conj(raw[np.ix_((-np.arange(n)) % n, (-np.arange(n)) % n)])
    coeffs = 0.5 * (raw + refl)
    coeffs[0, 0] = 0.0 if zero_mean else coeffs[0, 0].real
    f = _half_of_full(coeffs)
    cur = l2_norm(f)
    return f * (amplitude / cur) if cur > 0 else f


def random_vector_field(grid, rng, kmax=None, amplitude=1.0, decay=0.0) -> np.ndarray:
    a = amplitude / np.sqrt(2.0)
    return np.stack((random_scalar_field(grid, rng, kmax, a, decay), random_scalar_field(grid, rng, kmax, a, decay)))


def random_divergence_free_field(grid, rng, kmax=None, amplitude=1.0, decay=0.0) -> np.ndarray:
    u = leray_half(random_vector_field(grid, rng, kmax, 1.0, decay))
    cur = l2_norm(u)
    return u * (amplitude / cur) if cur > 0 else u


# ---------------------------------------------------------------------------
# readers of the artifact formats (well-formed input only)


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def state_from_text(text: str) -> SpectralState:
    """The state of a ``cli.state_to_text`` checkpoint.

    Coefficients with k2 < 0 are the conjugates of listed ones and are skipped.
    """
    for line in text.splitlines():
        if line.startswith("# modes="):
            head = dict(tok.split("=", 1) for tok in line[2:].split())
            n, time = int(head["modes"]), float(head["time"])
            arrays = np.zeros((4, n, n // 2 + 1), dtype=complex)
        elif line.startswith("# component "):
            comp = arrays[_COMPONENTS.index(line.split()[-1])]
        elif line and not line.startswith("#"):
            k1, k2, re, im = line.split()
            if int(k2) >= 0:
                comp[int(k1) % n, int(k2)] = complex(float(re), float(im))
    return SpectralState(TorusGrid(n), arrays[:2], arrays[2:], time)


def jumps_from_text(text: str) -> JumpSample:
    """The jump configuration of a ``jumps.txt`` table."""
    rows = [line.split() for line in _data_lines(text)]
    return JumpSample(np.array([float(t) for t, _ in rows]), np.array([int(m) for _, m in rows]))


def control_from_csv(text: str) -> Control:
    """The tilt of a ``control.csv`` or ``g_star.csv`` artifact."""
    horizon = next(float(tok[len("horizon="):]) for tok in text.split() if tok.startswith("horizon="))
    rows = [[float(v) for v in line.split(",")] for line in _data_lines(text)[1:]]
    return Control(horizon, np.array(rows))
