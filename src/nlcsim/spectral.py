"""Periodic-torus fields and spectral operators.

Fields live on the torus [0, 2pi]^2 and are stored either as real samples
on an N x N uniform grid or as complex Fourier coefficients c_k with the
convention

    f(x) = sum_k c_k exp(i k.x),    k in {-N/2, ..., N/2 - 1}^2,

so that |f|^2_{L2} = (2pi)^2 sum_k |c_k|^2.

Two coefficient layouts coexist.  The field classes (``ScalarField``,
``VectorField``, ``DivergenceFreeField``) hold the full N x N spectrum,
convert to samples on demand, and back the named reference operators and
the invariant checks.  The solver works on the half (rfft) layout: a real
field is determined by its coefficients with k2 >= 0, so a stack of c
components is one (c, N, N//2 + 1) array in ``np.fft.rfft2`` order.  Rows
follow FFT order in k1, columns run k2 = 0 .. N/2, and Parseval sums count
every column except k2 = 0 (and N/2) twice for the implicit conjugates.
States in this layout keep their Nyquist lines (k1 = -N/2 or k2 = N/2)
at zero: odd derivatives are then exact, the spectrally divergence-free
velocity is divergence-free pointwise, and convection can be taken in the
divergence form (u . grad) u = div(u (x) u).

Nonlinear products are evaluated on a padded grid (zero-padding in Fourier
space) and truncated back, which makes them exact whenever the combined
polynomial degree is resolved on the padded grid (the 3/2 rule for
quadratic terms).  Truncation zeroes the unpaired Nyquist lines so
real-valuedness is preserved exactly.  Per-N wavenumber tables are built
on first use and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np


@lru_cache(maxsize=64)
def _wavenumber_arrays(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    ksq = k1**2 + k2**2
    for arr in (k1, k2, ksq):
        arr.setflags(write=False)
    return k1, k2, ksq

TWO_PI = 2.0 * np.pi
TORUS_AREA = TWO_PI**2


class SpectralError(ValueError):
    """Invalid field, grid, or norm request."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N x N grid on [0, 2pi]^2 with its Fourier bookkeeping.

    ``modes_per_dim`` must be even and >= 8 so that every retained
    wavenumber -N/2 .. N/2-1 has an exact quadrature on the nodes.
    ``dealias_factor`` sets the default padding for quadratic products
    (3/2 is exact for them).
    """

    modes_per_dim: int
    dealias_factor: float = 1.5

    def __post_init__(self):
        n = self.modes_per_dim
        if n % 2 != 0 or n < 8:
            raise SpectralError(f"modes_per_dim must be even and >= 8, got {n}")
        if self.dealias_factor < 1.0:
            raise SpectralError("dealias_factor must be >= 1")

    @property
    def n(self) -> int:
        return self.modes_per_dim

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    def nodes(self):
        """Meshgrid (x1, x2) of the grid nodes, 'ij' indexing."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def wavenumbers(self):
        """Integer wavenumber meshgrids (k1, k2) in FFT ordering (shared, read-only)."""
        k1, k2, _ = _wavenumber_arrays(self.n)
        return k1, k2

    def ksq(self) -> np.ndarray:
        return _wavenumber_arrays(self.n)[2]

    def padded_size(self, factor: float | None = None) -> int:
        """Smallest even grid size >= factor * N (factor defaults to dealias_factor)."""
        factor = self.dealias_factor if factor is None else factor
        m = int(np.ceil(self.n * factor))
        return m + (m % 2)


def pad_coeffs(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Embed an N x N coefficient array into an M x M one (M >= N), same modes.

    Block copy in FFT ordering: nonnegative frequencies stay at the front,
    negative frequencies move to the tail.
    """
    n = coeffs.shape[0]
    if m == n:
        return coeffs.copy()
    h = n // 2
    out = np.zeros((m, m), dtype=complex)
    out[:h, :h] = coeffs[:h, :h]
    out[:h, m - h :] = coeffs[:h, h:]
    out[m - h :, :h] = coeffs[h:, :h]
    out[m - h :, m - h :] = coeffs[h:, h:]
    return out


def truncate_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Restrict an M x M coefficient array to the N-grid band |k_j| <= N/2 - 1.

    The unpaired Nyquist lines k_j = -N/2 are zeroed so the result stays
    exactly conjugate-symmetric.
    """
    m = coeffs.shape[0]
    h = n // 2
    if m == n:
        out = coeffs.copy()
    else:
        out = np.empty((n, n), dtype=complex)
        out[:h, :h] = coeffs[:h, :h]
        out[:h, h:] = coeffs[:h, m - h :]
        out[h:, :h] = coeffs[m - h :, :h]
        out[h:, h:] = coeffs[m - h :, m - h :]
    out[h, :] = 0.0
    out[:, h] = 0.0
    return out


class ScalarField:
    """Real scalar field on a TorusGrid, dual sample/coefficient representation."""

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: TorusGrid, values: np.ndarray | None = None, coeffs: np.ndarray | None = None):
        if values is None and coeffs is None:
            raise SpectralError("ScalarField needs values or coefficients")
        n = grid.n
        for arr in (values, coeffs):
            if arr is not None and arr.shape != (n, n):
                raise SpectralError(f"field array must be {(n, n)}, got {arr.shape}")
        self.grid = grid
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._coeffs = None if coeffs is None else np.asarray(coeffs, dtype=complex)

    @classmethod
    def from_values(cls, grid: TorusGrid, values: np.ndarray) -> "ScalarField":
        return cls(grid, values=values)

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs: np.ndarray) -> "ScalarField":
        return cls(grid, coeffs=coeffs)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid, coeffs=np.zeros((grid.n, grid.n), dtype=complex))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            n = self.grid.n
            self._values = np.real(np.fft.ifft2(self._coeffs) * n * n)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            n = self.grid.n
            self._coeffs = np.fft.fft2(self._values) / (n * n)
        return self._coeffs

    def coeff_at(self, k1: int, k2: int) -> complex:
        n = self.grid.n
        return self.coeffs[k1 % n, k2 % n]

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, coeffs=self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    """Pair of scalar components on a common grid (R^2-valued field)."""

    c1: ScalarField
    c2: ScalarField

    def __post_init__(self):
        if self.c1.grid is not self.c2.grid and self.c1.grid != self.c2.grid:
            raise SpectralError("vector components must share a grid")

    @property
    def grid(self) -> TorusGrid:
        return self.c1.grid

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "VectorField":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))

    @classmethod
    def from_values(cls, grid: TorusGrid, v1: np.ndarray, v2: np.ndarray) -> "VectorField":
        return cls(ScalarField.from_values(grid, v1), ScalarField.from_values(grid, v2))

    def components(self):
        return (self.c1, self.c2)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.c1 - other.c1, self.c2 - other.c2)

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(self.c1 * scalar, self.c2 * scalar)

    __rmul__ = __mul__


class DivergenceFreeField(VectorField):
    """Vector field with zero spectral divergence and zero mean mode.

    Constructed by :func:`leray_project` (or trusted arithmetic on already
    projected fields); the constraint itself is checked by the test suite,
    not re-verified on every construction.
    """

    def __add__(self, other: VectorField) -> "VectorField":
        out = VectorField.__add__(self, other)
        if isinstance(other, DivergenceFreeField):
            return DivergenceFreeField(out.c1, out.c2)
        return out

    def __sub__(self, other: VectorField) -> "VectorField":
        out = VectorField.__sub__(self, other)
        if isinstance(other, DivergenceFreeField):
            return DivergenceFreeField(out.c1, out.c2)
        return out

    def __mul__(self, scalar: float) -> "DivergenceFreeField":
        out = VectorField.__mul__(self, scalar)
        return DivergenceFreeField(out.c1, out.c2)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# transforms and differential operators


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along axis 0 (x1) or 1 (x2).

    The unpaired Nyquist line is zeroed; an odd-order derivative is not
    representable there for a real field.
    """
    n = f.grid.n
    k1, k2 = f.grid.wavenumbers()
    k = k1 if axis == 0 else k2
    coeffs = 1j * k * f.coeffs
    if axis == 0:
        coeffs[n // 2, :] = 0.0
    else:
        coeffs[:, n // 2] = 0.0
    return ScalarField.from_coeffs(f.grid, coeffs)


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    return derivative(f, 0), derivative(f, 1)


def laplacian(f: ScalarField) -> ScalarField:
    """Laplacian of f (multiplier -|k|^2); the caller negates for -Delta."""
    return ScalarField.from_coeffs(f.grid, -f.grid.ksq() * f.coeffs)


def laplacian_vec(w: VectorField) -> VectorField:
    return VectorField(laplacian(w.c1), laplacian(w.c2))


def divergence(w: VectorField) -> ScalarField:
    return derivative(w.c1, 0) + derivative(w.c2, 1)


def leray_project(w: VectorField) -> DivergenceFreeField:
    """L2-orthogonal projection onto divergence-free, mean-zero fields.

    Per Fourier mode k != 0 applies I - k k^T / |k|^2 and zeroes the mean.
    Idempotent and self-adjoint.
    """
    grid = w.grid
    k1, k2 = grid.wavenumbers()
    ksq = k1**2 + k2**2
    ksq_safe = np.where(ksq == 0, 1.0, ksq)
    a1, a2 = w.c1.coeffs, w.c2.coeffs
    kdot = (k1 * a1 + k2 * a2) / ksq_safe
    p1 = a1 - k1 * kdot
    p2 = a2 - k2 * kdot
    p1[0, 0] = 0.0
    p2[0, 0] = 0.0
    return DivergenceFreeField(
        ScalarField.from_coeffs(grid, p1), ScalarField.from_coeffs(grid, p2)
    )


def divergence_residual(w: VectorField) -> float:
    """Relative L2 norm of the spectral divergence of ``w``."""
    div = l2_norm(divergence(w))
    scale = h1_seminorm(w)
    return div / scale if scale > 0 else div


# ---------------------------------------------------------------------------
# norms and inner products


def l2_inner(f: ScalarField | VectorField, g: ScalarField | VectorField) -> float:
    """L2 inner product on the torus, evaluated spectrally (Parseval)."""
    if isinstance(f, VectorField):
        return l2_inner(f.c1, g.c1) + l2_inner(f.c2, g.c2)
    return float(TORUS_AREA * np.real(np.vdot(f.coeffs, g.coeffs)))


def l2_norm(f: ScalarField | VectorField) -> float:
    if isinstance(f, VectorField):
        return float(np.sqrt(l2_inner(f.c1, f.c1) + l2_inner(f.c2, f.c2)))
    return float(np.sqrt(l2_inner(f, f)))


def h1_inner(f: ScalarField | VectorField, g: ScalarField | VectorField) -> float:
    """Gradient inner product ((f, g)) = (grad f, grad g)_{L2}."""
    if isinstance(f, VectorField):
        return h1_inner(f.c1, g.c1) + h1_inner(f.c2, g.c2)
    ksq = f.grid.ksq()
    return float(TORUS_AREA * np.real(np.vdot(f.coeffs, ksq * g.coeffs)))


def h1_seminorm(f: ScalarField | VectorField) -> float:
    return float(np.sqrt(max(h1_inner(f, f), 0.0)))


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


# ---------------------------------------------------------------------------
# dealiased products


def dealias_product(*fields: ScalarField, factor: float | None = None) -> ScalarField:
    """Pointwise product of fields on a padded grid, truncated back.

    ``factor`` defaults to the grid's dealias_factor; callers multiplying
    more than two fields should pass (n_fields + 1)/2 or larger for an
    exact result.
    """
    if not fields:
        raise SpectralError("dealias_product needs at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise SpectralError("all factors must share a grid")
    if len(fields) == 1:
        return fields[0]
    m = grid.padded_size(factor)
    prod = np.ones((m, m))
    for f in fields:
        prod = prod * np.real(np.fft.ifft2(pad_coeffs(f.coeffs, m)) * m * m)
    coeffs = truncate_coeffs(np.fft.fft2(prod) / (m * m), grid.n)
    return ScalarField.from_coeffs(grid, coeffs)


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
# half-spectrum (rfft) coefficient arrays


@lru_cache(maxsize=64)
def half_tables(n: int):
    """(k1, k2, ksq, weight, weight_ksq) of the (..., N, N//2+1) layout (read-only).

    k1 is a (N, 1) column in FFT order and k2 the row 0 .. N/2, so both
    broadcast against a coefficient array.  ``weight`` is the Parseval
    weight (2pi)^2 * (1 on the k2 = 0 and k2 = N/2 columns, 2 elsewhere);
    ``weight_ksq`` is weight * |k|^2 for gradient norms.
    """
    k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    k2 = np.arange(n // 2 + 1, dtype=float)
    ksq = k1**2 + k2**2
    weight = np.full((n, n // 2 + 1), 2.0 * TORUS_AREA)
    weight[:, 0] = weight[:, -1] = TORUS_AREA
    tables = (k1, k2, ksq, weight, weight * ksq)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def half_from_full(coeffs: np.ndarray) -> np.ndarray:
    """(..., N, N) full spectra -> (..., N, N//2+1) half layout, Nyquist lines zeroed."""
    h = coeffs.shape[-1] // 2
    out = np.array(coeffs[..., : h + 1], dtype=complex)
    out[..., h, :] = 0.0
    out[..., h] = 0.0
    return out


def full_from_half(half: np.ndarray) -> np.ndarray:
    """(..., N, N//2+1) half layout -> (..., N, N) full spectra by conjugate symmetry."""
    n = half.shape[-2]
    h = n // 2
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., : h + 1] = half
    out[..., h + 1 :] = np.conj(half[..., (-np.arange(n)) % n, h - 1 : 0 : -1])
    return out


def half_norms_sq(a: np.ndarray) -> tuple[float, float]:
    """(|a|^2_{L2}, |grad a|^2_{L2}) summed over every component of a half-layout stack."""
    _, _, _, weight, weight_ksq = half_tables(a.shape[-2])
    power = (a.real**2 + a.imag**2).reshape(-1, weight.size).sum(axis=0)
    return float(np.dot(weight.ravel(), power)), float(np.dot(weight_ksq.ravel(), power))


def half_inner(a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product of two half-layout stacks (Parseval)."""
    weight = half_tables(a.shape[-2])[3]
    prod = (a.real * b.real + a.imag * b.imag).reshape(-1, weight.size).sum(axis=0)
    return float(np.dot(weight.ravel(), prod))


def half_leray(a: np.ndarray) -> np.ndarray:
    """Leray projection of a (2, N, N//2+1) vector stack (mean mode zeroed)."""
    k1, k2, ksq, _, _ = half_tables(a.shape[-2])
    kdot = (k1 * a[0] + k2 * a[1]) / np.where(ksq == 0, 1.0, ksq)
    out = np.stack((a[0] - k1 * kdot, a[1] - k2 * kdot))
    out[:, 0, 0] = 0.0
    return out


def pad_half(a: np.ndarray, m: int) -> np.ndarray:
    """Embed (..., N, N//2+1) coefficients into (..., M, M//2+1), M >= N, same modes.

    The Nyquist lines of the source are skipped (they are zero).
    """
    n = a.shape[-2]
    h = n // 2
    out = np.zeros(a.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    out[..., :h, :h] = a[..., :h, :h]
    out[..., m - h + 1 :, :h] = a[..., h + 1 :, :h]
    return out


def truncate_half(a: np.ndarray, n: int) -> np.ndarray:
    """Restrict (..., M, M//2+1) coefficients to the N band |k_j| <= N/2 - 1 (Nyquist lines zero)."""
    m = a.shape[-2]
    h = n // 2
    out = np.zeros(a.shape[:-2] + (n, h + 1), dtype=complex)
    out[..., :h, :h] = a[..., :h, :h]
    out[..., h + 1 :, :h] = a[..., m - h + 1 :, :h]
    return out


# ---------------------------------------------------------------------------
# field constructors used across tests, configs, and experiments


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
