"""Field-level oracle of the test suite, and conversions between fields and states.

The package steps half-layout coefficient arrays.  The field classes of
``nlcsim.spectral`` and the named field operators of ``nlcsim.operators``
and ``nlcsim.noise`` stay in the package as the reference the array core is
checked against; the field helpers that only the tests call live here:
norms, trilinear forms, the coercivity and dual-norm checks, random
fields, the field-level explicit terms of one step
(``nonlinear_terms``), and the allocate-per-call padded transform pair
(``plain_to_grid``/``plain_from_grid``) that the package's
workspace-backed pair must equal, bit for bit where it runs numpy's FFT
and to rounding where it runs dense DFT products.  ``half``/``state_of``/``u_of``/``theta_of``/
``spec_of`` convert between fields and the arrays the package takes, and
``embed_state`` moves a state onto a finer grid.  The package writes its
artifacts (``nlcsim.cli``) and reads back only the echoed config; the
minimal readers the round-trip tests use are at the end of this file.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from nlcsim.cli import _COMPONENTS
from nlcsim.dynamics import SolverConfig, SolverError, SpectralState, cutoff_chi
from nlcsim.noise import Control, JumpCoefficientSpec, JumpSample
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
    DivergenceFreeField,
    ScalarField,
    SpectralError,
    TorusGrid,
    VectorField,
    derivative,
    h1_seminorm,
    half_from_full,
    l2_norm,
    leray_project,
    pad_coeffs,
    pad_half,
    truncate_half,
    vector_field,
)


# ---------------------------------------------------------------------------
# fields <-> half-layout arrays


def half(w: VectorField) -> np.ndarray:
    """(2, N, N//2+1) half-layout coefficients of a vector field, Nyquist lines zeroed."""
    return half_from_full(np.stack((w.c1.coeffs, w.c2.coeffs)))


def state_of(u: VectorField, theta: VectorField, time: float = 0.0) -> SpectralState:
    """The state of a velocity and a director field."""
    return SpectralState(u.grid, half(u), half(theta), time)


def zero_state(grid: TorusGrid, time: float = 0.0) -> SpectralState:
    zeros = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    return SpectralState(grid, zeros, zeros, time)


def embed_state(state: SpectralState, fine_grid: TorusGrid) -> SpectralState:
    """Exact embedding of a coarse-grid state into a finer grid."""
    if fine_grid.n < state.grid.n:
        raise SolverError("target grid must be at least as fine")
    m = fine_grid.n
    return SpectralState(fine_grid, pad_half(state.u_hat, m), pad_half(state.theta_hat, m), state.time)


def u_of(state: SpectralState) -> DivergenceFreeField:
    return vector_field(state.grid, state.u_hat, DivergenceFreeField)


def theta_of(state: SpectralState) -> VectorField:
    return vector_field(state.grid, state.theta_hat)


def spec_of(shapes, gains) -> JumpCoefficientSpec:
    """Jump coefficient with one velocity field per mark as its shapes."""
    return JumpCoefficientSpec(shapes=np.stack([half(s) for s in shapes]), gains=tuple(gains))


def shape_field(spec: JumpCoefficientSpec, mark: int, grid: TorusGrid) -> DivergenceFreeField:
    return vector_field(grid, spec.shapes[mark], DivergenceFreeField)


# ---------------------------------------------------------------------------
# differential operators and norms


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    return derivative(f, 0), derivative(f, 1)


def divergence(w: VectorField) -> ScalarField:
    return derivative(w.c1, 0) + derivative(w.c2, 1)


def divergence_residual(w: VectorField) -> float:
    """Relative L2 norm of the spectral divergence of ``w``."""
    div = l2_norm(divergence(w))
    scale = h1_seminorm(w)
    return div / scale if scale > 0 else div


def v_norm(f: ScalarField | VectorField) -> float:
    """Graph norm sqrt(|f|^2 + |grad f|^2)."""
    return float(np.sqrt(l2_norm(f) ** 2 + h1_seminorm(f) ** 2))


def lq_norm(f: ScalarField | VectorField, q: int) -> float:
    """L^q norm for even q >= 2, via exact padded-grid quadrature.

    For vector fields the pointwise Euclidean magnitude is used.  The
    integrand |f|^q has polynomial degree q, so padding by (q + 2)/2
    makes the quadrature exact for band-limited fields.
    """
    if q < 2 or q % 2 != 0:
        raise SpectralError(f"lq norm requires even q >= 2, got {q}")
    grid = f.grid if isinstance(f, VectorField) else f.grid
    m = grid.padded_size(factor=(q + 2) / 2.0)
    if isinstance(f, VectorField):
        v1 = np.real(np.fft.ifft2(pad_coeffs(f.c1.coeffs, m)) * m * m)
        v2 = np.real(np.fft.ifft2(pad_coeffs(f.c2.coeffs, m)) * m * m)
        mag_sq = v1**2 + v2**2
    else:
        v = np.real(np.fft.ifft2(pad_coeffs(f.coeffs, m)) * m * m)
        mag_sq = v**2
    integral = float(np.sum(mag_sq ** (q // 2)) * (TWO_PI / m) ** 2)
    return integral ** (1.0 / q)


def norms(f: ScalarField | VectorField, lq: Iterable[int] = ()) -> dict:
    """Bundle of the norms used by the energy estimates."""
    out = {
        "l2": l2_norm(f),
        "h1_semi": h1_seminorm(f),
        "v_norm": v_norm(f),
    }
    for q in lq:
        out[f"l{q}"] = lq_norm(f, q)
    return out


def integrate_product(*fields: ScalarField) -> float:
    """Exact integral of a pointwise product of band-limited fields.

    Pads by (n_fields + 1)/2 so no aliasing can reach the mean mode.
    """
    grid = fields[0].grid
    m = grid.padded_size(factor=(len(fields) + 1) / 2.0)
    prod = np.ones((m, m))
    for f in fields:
        prod = prod * np.real(np.fft.ifft2(pad_coeffs(f.coeffs, m)) * m * m)
    return float(np.sum(prod) * (TWO_PI / m) ** 2)


# ---------------------------------------------------------------------------
# trilinear forms, coercivity, dual norms


def trilinear_b(u: VectorField, v: VectorField, w: VectorField) -> float:
    """b(u,v,w) = sum_{i,j} int u_i (d_i v_j) w_j dx, exact quadrature."""
    total = 0.0
    for j, (vj, wj) in enumerate(zip(v.components(), w.components())):
        for i, ui in enumerate(u.components()):
            total += integrate_product(ui, derivative(vj, i), wj)
    return total


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


def f_aliasing_error(theta: VectorField, nl: PolynomialNonlinearity = DEFAULT_NONLINEARITY) -> float:
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


def dual_vprime_norm(w: VectorField) -> float:
    """Discrete V' norm: sum over modes of |w_k|^2 / (1 + |k|^2)."""
    ksq = w.grid.ksq()
    weight = 1.0 / (1.0 + ksq)
    total = 0.0
    for c in w.components():
        total += float(np.sum(weight * np.abs(c.coeffs) ** 2))
    return float(np.sqrt(TORUS_AREA * total))


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
# the explicit terms of one step, field by field


def nonlinear_terms(u, theta, cfg: SolverConfig):
    """Explicit part of both equations (no control drift, no noise).

    ``nonlinearity=None`` drops the polynomial relaxation entirely (a test
    configuration; the modeled system always carries positive coefficients).
    """
    chi1 = chi2 = 1.0
    if cfg.cutoff_level is not None:
        chi1 = cutoff_chi(l2_norm(u), cfg.cutoff_level)
        chi2 = cutoff_chi(l2_norm(theta), cfg.cutoff_level)
    nu = -1.0 * (chi1 * convection_B(u, u)) - chi2 * director_stress_M(theta, theta)
    ntheta = -1.0 * (chi1 * advection_Btilde(u, theta))
    if cfg.nonlinearity is not None:
        ntheta = ntheta - polynomial_f(theta, cfg.nonlinearity)
    return nu, ntheta


# ---------------------------------------------------------------------------
# field constructors


def field_from_function(grid: TorusGrid, fn) -> ScalarField:
    x1, x2 = grid.nodes()
    return ScalarField.from_values(grid, np.asarray(fn(x1, x2), dtype=float))


def random_scalar_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    amplitude: float = 1.0,
    decay: float = 0.0,
    zero_mean: bool = False,
) -> ScalarField:
    """Real random field with coefficients in the band |k|_inf <= kmax.

    Coefficient magnitudes fall off like exp(-decay |k|); symmetrization
    keeps the field exactly real.
    """
    n = grid.n
    kmax = kmax if kmax is not None else n // 3
    if kmax > n // 2 - 1:
        raise SpectralError(f"kmax={kmax} not representable on N={n} grid")
    k1, k2 = grid.wavenumbers()
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= mask * np.exp(-decay * np.sqrt(k1**2 + k2**2))
    # c(-k) = conj(c(k)) by averaging with the reflected conjugate
    refl = np.conj(raw[np.ix_((-np.arange(n)) % n, (-np.arange(n)) % n)])
    coeffs = 0.5 * (raw + refl)
    coeffs[0, 0] = 0.0 if zero_mean else coeffs[0, 0].real
    coeffs[n // 2, :] = 0.0
    coeffs[:, n // 2] = 0.0
    f = ScalarField.from_coeffs(grid, coeffs)
    cur = l2_norm(f)
    if cur > 0:
        f = f * (amplitude / cur)
    return f


def random_vector_field(grid, rng, kmax=None, amplitude=1.0, decay=0.0) -> VectorField:
    a = amplitude / np.sqrt(2.0)
    return VectorField(
        random_scalar_field(grid, rng, kmax, a, decay),
        random_scalar_field(grid, rng, kmax, a, decay),
    )


def random_divergence_free_field(grid, rng, kmax=None, amplitude=1.0, decay=0.0) -> DivergenceFreeField:
    u = leray_project(random_vector_field(grid, rng, kmax, 1.0, decay))
    cur = l2_norm(u)
    if cur > 0:
        u = u * (amplitude / cur)
    return u


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
