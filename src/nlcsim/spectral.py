"""Periodic-torus fields and spectral operators.

Fields live on the torus [0, 2pi]^2 and are stored either as real samples
on an N x N uniform grid or as complex Fourier coefficients c_k with the
convention

    f(x) = sum_k c_k exp(i k.x),    k in {-N/2, ..., N/2 - 1}^2,

so that |f|^2_{L2} = (2pi)^2 sum_k |c_k|^2.

The solver, its states and its inputs use the half (rfft) layout: a real
field is determined by its coefficients with k2 >= 0, so a stack of c
components is one (c, N, N//2 + 1) array in ``np.fft.rfft2`` order.  Rows
follow FFT order in k1, columns run k2 = 0 .. N/2, and Parseval sums count
every column except k2 = 0 (and N/2) twice for the implicit conjugates.
States in this layout keep their Nyquist lines (k1 = -N/2 or k2 = N/2)
at zero: odd derivatives are then exact, the spectrally divergence-free
velocity is divergence-free pointwise, and convection can be taken in the
divergence form (u . grad) u = div(u (x) u).  ``leray_half`` is the one
Leray projection.

The field classes (``ScalarField``, ``VectorField``,
``DivergenceFreeField``) hold the full N x N spectrum and convert to
samples on demand.  They back the named field-level reference operators
of ``operators`` and ``noise``, the oracle the array core is checked
against; ``vector_field`` views a half-layout array as a field.

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


def laplacian(f: ScalarField) -> ScalarField:
    """Laplacian of f (multiplier -|k|^2); the caller negates for -Delta."""
    return ScalarField.from_coeffs(f.grid, -f.grid.ksq() * f.coeffs)


def laplacian_vec(w: VectorField) -> VectorField:
    return VectorField(laplacian(w.c1), laplacian(w.c2))


def leray_project(w: VectorField) -> DivergenceFreeField:
    """:func:`leray_half` of a vector field; its Nyquist lines are dropped."""
    half = half_from_full(np.stack((w.c1.coeffs, w.c2.coeffs)))
    return vector_field(w.grid, leray_half(half), DivergenceFreeField)


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


# ---------------------------------------------------------------------------
# half-spectrum (rfft) coefficient arrays


@lru_cache(maxsize=64)
def half_tables(n: int):
    """(k1, k2, ksq, weights, inv_ksq, kvec) of the (..., N, N//2+1) layout (read-only).

    k1 is a (N, 1) column in FFT order and k2 the row 0 .. N/2, so both
    broadcast against a coefficient array.  ``weights[0]`` is the Parseval
    weight (2pi)^2 * (1 on the k2 = 0 and k2 = N/2 columns, 2 elsewhere)
    and ``weights[1]`` = weights[0] * |k|^2, for gradient norms;
    ``inv_ksq`` is 1/|k|^2 with 0 at the mean mode and ``kvec`` the
    (2, N, N//2+1) stack of k1 and k2, for the Leray projection.
    """
    k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    k2 = np.arange(n // 2 + 1, dtype=float)
    ksq = k1**2 + k2**2
    weight = np.full((n, n // 2 + 1), 2.0 * TORUS_AREA)
    weight[:, 0] = weight[:, -1] = TORUS_AREA
    inv_ksq = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq != 0)
    kvec = np.stack(np.broadcast_arrays(k1, k2))
    tables = (k1, k2, ksq, np.stack((weight, weight * ksq)), inv_ksq, kvec)
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


def vector_field(grid: TorusGrid, half: np.ndarray, cls=VectorField) -> VectorField:
    """Field view (``cls``, a VectorField class) of a (2, N, N//2+1) half-layout array."""
    c1, c2 = full_from_half(half)
    return cls(ScalarField.from_coeffs(grid, c1), ScalarField.from_coeffs(grid, c2))


def nyquist_free(a: np.ndarray) -> bool:
    """True when the k1 = -N/2 row and k2 = N/2 column of (..., N, N//2+1) coefficients are zero."""
    return not (a[..., a.shape[-2] // 2, :].any() or a[..., -1].any())


def leray_half(a: np.ndarray) -> np.ndarray:
    """Leray projection of (..., 2, N, N//2+1) vector coefficients.

    The L2-orthogonal projection onto divergence-free, mean-zero fields:
    per Fourier mode k != 0 it applies I - k k^T / |k|^2, and it zeroes the
    mean.  Idempotent and self-adjoint in ``half_inner``.
    """
    k1, k2, _, _, inv_ksq, kvec = half_tables(a.shape[-2])
    kdot = (k1 * a[..., 0, :, :] + k2 * a[..., 1, :, :]) * inv_ksq
    out = a - kvec * kdot[..., None, :, :]
    out[..., 0, 0] = 0.0
    return out


def half_norms_sq(a: np.ndarray):
    """(|a|^2_{L2}, |grad a|^2_{L2}) of a (..., C, N, N//2+1) half-layout stack.

    The C components are summed; any leading axes (paths) are kept, so a
    (P, 2, N, N//2+1) batch gives two (P,) arrays and a single stack two
    scalars.  Each path is reduced on its own (a pairwise sum along the
    last axis), so its value does not depend on the batch it sits in.
    """
    weights = half_tables(a.shape[-2])[3]
    power = (a.real**2 + a.imag**2).sum(axis=-3)
    power = power.reshape(power.shape[:-2] + (1, weights[0].size))
    sq = (power * weights.reshape(2, -1)).sum(axis=-1)
    return sq[..., 0], sq[..., 1]


def half_inner(a: np.ndarray, b: np.ndarray):
    """L2 inner product of two (..., C, N, N//2+1) stacks (Parseval), per leading index."""
    weight = half_tables(a.shape[-2])[3][0]
    prod = (a.real * b.real + a.imag * b.imag).sum(axis=-3)
    return (prod.reshape(prod.shape[:-2] + (weight.size,)) * weight.ravel()).sum(axis=-1)


def pad_half(a: np.ndarray, m: int, width: int | None = None) -> np.ndarray:
    """Embed (..., N, N//2+1) coefficients into (..., M, width), M >= N, same modes.

    ``width`` defaults to M//2+1, the full half layout of the M grid.
    ``width=N//2`` keeps only the source's columns: the input of
    ``irfft2(..., s=(M, M))``, which zero-fills the remaining columns
    itself instead of transforming them.  The Nyquist lines of the source
    are skipped (they are zero).
    """
    n = a.shape[-2]
    h = n // 2
    out = np.zeros(a.shape[:-2] + (m, m // 2 + 1 if width is None else width), dtype=complex)
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


def to_grid(a: np.ndarray, m: int) -> np.ndarray:
    """Values on the m x m grid of (..., N, N//2+1) coefficients with zero Nyquist lines (one ``irfft2``)."""
    return np.fft.irfft2(pad_half(a, m, width=a.shape[-2] // 2), s=(m, m), norm="forward")


def from_grid(values: np.ndarray, n: int) -> np.ndarray:
    """(..., n, n//2+1) coefficients of the band |k_j| <= n/2 - 1 of values on an m x m grid (one ``rfft2``)."""
    return truncate_half(np.fft.rfft2(values, norm="forward"), n)
