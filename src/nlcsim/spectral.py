"""Periodic-torus coefficient arrays and their spectral transforms.

Fields live on the torus [0, 2pi]^2 and are stored as real samples on an
N x N uniform grid or as complex Fourier coefficients c_k with the
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
Leray projection; ``full_from_half`` expands a stack to the full N x N
spectrum.

Nonlinear products are evaluated on a padded grid (zero-padding in Fourier
space, ``pad_half``) and truncated back (``truncate_half``), which makes
them exact whenever the combined polynomial degree is resolved on the
padded grid (the 3/2 rule for quadratic terms).  Truncation zeroes the
unpaired Nyquist lines so real-valuedness is preserved exactly.  Per-N
wavenumber tables are built on first use and cached.  The padded transform
pair ``to_grid``/``from_grid`` takes the band to the grid and back in two
one-axis passes each, through per-thread buffers (``scratch``) that are
reused from call to call, so the solver's step allocates no padded field
stack; ``from_grid`` returns a new band array, and ``to_grid`` writes into
a new array unless the caller passes a scratch ``out``.  Up to
``_DENSE_MAX_N`` modes per side each pass is one matrix product with a
cached dense DFT factor: for lines this short a BLAS product beats the
FFT's per-line overhead, agrees with it to rounding and, like it, does not
depend on the batch size or the thread count.  Larger grids run the
one-axis passes of ``irfft2``/``rfft2`` bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# per-thread transform buffers (see ``scratch`` and ``to_grid``)
_workspace = threading.local()
_MAX_PADS = 16
# grids of up to this many modes per side transform as dense DFT products (``_dense_factors``):
# single-threaded on a 2-core x86 VM they beat pocketfft at every even N <= 62 for 1 and 8 paths,
# tie at 64 and lose at 96 and 128
_DENSE_MAX_N = 62


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
        if not 1.0 <= self.dealias_factor < np.inf:
            raise SpectralError(f"dealias_factor must be >= 1 and finite, got {self.dealias_factor}")

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

    def padded_size(self, factor: float | None = None) -> int:
        """Smallest even grid size >= factor * N (factor defaults to dealias_factor)."""
        factor = self.dealias_factor if factor is None else factor
        m = int(np.ceil(self.n * factor))
        return m + (m % 2)


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


def full_from_half(half: np.ndarray) -> np.ndarray:
    """(..., N, N//2+1) half layout -> (..., N, N) full spectra by conjugate symmetry."""
    n = half.shape[-2]
    h = n // 2
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., : h + 1] = half
    out[..., h + 1 :] = np.conj(half[..., (-np.arange(n)) % n, h - 1 : 0 : -1])
    return out


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
    out = np.multiply(kvec, kdot[..., None, :, :])
    del kdot
    np.subtract(a, out, out=out)
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


def pad_half(a: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Embed (..., N, N//2+1) coefficients into (..., M, M//2+1), M >= N, same modes.

    The Nyquist lines of the source are skipped (they are zero).  With
    ``out``, of shape (..., M, W) with W >= N//2, only the band is written
    and every other entry of ``out`` is left as it is.  A zero
    (..., M, N//2) ``out`` is the input of ``irfft2(..., s=(M, M))``, which
    zero-fills the remaining columns itself instead of transforming them.
    """
    n = a.shape[-2]
    h = n // 2
    if out is None:
        out = np.zeros(a.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    out[..., :h, :h] = a[..., :h, :h]
    out[..., m - h + 1 :, :h] = a[..., h + 1 :, :h]
    return out


def truncate_half(a: np.ndarray, n: int) -> np.ndarray:
    """Restrict (..., M, W) coefficients, W >= N//2, to the N band |k_j| <= N/2 - 1 (Nyquist lines zero)."""
    m = a.shape[-2]
    h = n // 2
    out = np.zeros(a.shape[:-2] + (n, h + 1), dtype=complex)
    out[..., :h, :h] = a[..., :h, :h]
    out[..., h + 1 :, :h] = a[..., m - h + 1 :, :h]
    return out


@lru_cache(maxsize=16)
def _dense_factors(n: int, m: int):
    """The read-only DFT factors of the n band on the m x m grid, for ``to_grid``/``from_grid``.

    ``(cols_synth, rows_synth, rows_an, cols_an)``: the (m, n) complex
    column synthesis exp(i k1 x_j) (k1 in FFT order), the (n, m) real row
    synthesis of the interleaved (Re, Im) of k2 = 0 .. n/2 - 1 with the
    conjugate columns counted twice, the (m, n) real row analysis
    exp(-i k2 x_l) interleaved, and the (n, m) complex column analysis
    exp(-i k1 x_j) / m^2.  The Nyquist row k1 = -n/2 is zero in both column
    factors and the Im row of k2 = 0 in the row synthesis (c2r ignores Im
    there).  Angles come from the integer (k x) mod m.
    """
    h = n // 2
    k1 = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    x = np.arange(m)
    unit = np.exp(TWO_PI * 1j / m * x)
    cols_synth = unit[np.outer(x, k1) % m]
    cols_synth[:, h] = 0.0
    rot = unit[np.outer(np.arange(h), x) % m]  # (h, m): exp(i k2 x_l)
    twice = np.full((h, 1), 2.0)
    twice[0] = 1.0
    rows_synth = np.empty((n, m))
    rows_synth[0::2] = twice * rot.real
    rows_synth[1::2] = -twice * rot.imag
    rows_synth[1] = 0.0
    rows_an = np.empty((m, n))
    rows_an[:, 0::2] = rot.real.T
    rows_an[:, 1::2] = -rot.imag.T
    cols_an = np.conj(cols_synth.T) / (m * m)
    factors = (cols_synth, rows_synth, rows_an, cols_an)
    for arr in factors:
        arr.setflags(write=False)
    return factors


def scratch(role: str, shape: tuple, dtype=float) -> np.ndarray:
    """A per-thread work array of ``shape``, carved from the reusable buffer of ``role``.

    The buffer grows to the largest request and is then reused, so calls at
    different shapes share it; its contents are undefined on entry.  Two
    arrays live at the same time need two roles.
    """
    buffers = _workspace.__dict__.setdefault("buffers", {})
    size = math.prod(shape) * (2 if dtype is complex else 1)
    buf = buffers.get(role)
    if buf is None or buf.size < size:
        buf = buffers[role] = np.empty(size)
    out = buf[:size]
    return (out.view(complex) if dtype is complex else out).reshape(shape)


def _padded(shape: tuple) -> np.ndarray:
    """The per-thread zero-padded input of ``to_grid`` for ``shape``; only its band is ever written."""
    pads = _workspace.__dict__.setdefault("pads", {})
    buf = pads.get(shape)
    if buf is None:
        if len(pads) >= _MAX_PADS:
            del pads[next(iter(pads))]
        buf = pads[shape] = np.zeros(shape, dtype=complex)
    return buf


def to_grid(a: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Values on the m x m grid of (..., N, N//2+1) coefficients with zero Nyquist lines.

    Column synthesis down k1, then row synthesis along k2, into ``out``
    when given (for instance a ``scratch`` array) or a new array.  Up to
    ``_DENSE_MAX_N`` modes both are products with the ``_dense_factors`` of
    (N, m), through the complex ``scratch("spectrum")`` array and its
    interleaved real view.  Larger grids run the two one-axis passes of
    ``irfft2`` on ``pad_half`` of the N/2 band columns, bit for bit: ``ifft``
    down the columns of a reusable padded input, then ``irfft`` along the rows.
    """
    n = a.shape[-2]
    h = n // 2
    lead = a.shape[:-2]
    if n <= _DENSE_MAX_N:
        cols_synth, rows_synth = _dense_factors(n, m)[:2]
        cols = np.matmul(cols_synth, a[..., :h], out=scratch("spectrum", lead + (m, h), complex))
        return np.matmul(cols.view(float), rows_synth, out=out)
    pad = pad_half(a, m, out=_padded(lead + (m, h)))
    cols = np.fft.ifft(pad, axis=-2, norm="forward", out=scratch("spectrum", pad.shape, complex))
    return np.fft.irfft(cols, m, axis=-1, norm="forward", out=out)


def from_grid(values: np.ndarray, n: int) -> np.ndarray:
    """(..., n, n//2+1) coefficients of the band |k_j| <= n/2 - 1 of values on an m x m grid.

    Row analysis along the grid rows for k2 = 0 .. n/2 - 1 into a
    ``scratch`` array, then column analysis down them for the n band rows;
    the result is a new array.  Up to ``_DENSE_MAX_N`` modes both are
    products with the ``_dense_factors`` of (n, m), the second written
    straight into the band.  Larger grids run the two one-axis passes of
    ``rfft2`` followed by ``truncate_half``, bit for bit: ``rfft`` along the
    rows, then ``fft`` into a ``scratch`` array down only the n/2 columns
    the band keeps.
    """
    m = values.shape[-1]
    h = n // 2
    lead = values.shape[:-2]
    if n <= _DENSE_MAX_N:
        rows_an, cols_an = _dense_factors(n, m)[2:]
        rows = np.matmul(values, rows_an, out=scratch("rows", lead + (m, n)))
        band = np.empty(lead + (n, h + 1), dtype=complex)
        band[..., h] = 0.0
        np.matmul(cols_an, rows.view(complex), out=band[..., :h])
        return band
    rows = np.fft.rfft(values, axis=-1, norm="forward", out=scratch("rows", lead + (m, m // 2 + 1), complex))
    cols = np.fft.fft(rows[..., :h], axis=-2, norm="forward", out=scratch("spectrum", lead + (m, h), complex))
    return truncate_half(cols, n)
