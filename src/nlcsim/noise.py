"""Marked Poisson noise: sampling by thinning, entropy cost, and tilting.

The mark space is a finite set with strictly positive weights, realizing a
sigma-finite jump intensity at desk scale.  The jump coefficient is affine
per mark, G(t, u, v) = shape_v + gain_v * u, which keeps every Lipschitz
and growth constant computable in closed form.  The shapes are one
half-layout array; the solver forms its mark sums on it directly.
``eval_G`` (the increment of one jump), ``compensator_integral`` and
``control_drift`` are their reference, mark by mark on half-layout
velocity arrays; the benchmark tracer binds them by name.  ``verify``'s
coefficient checks call ``eval_G``; no command calls the other two.
Controls are nonnegative intensity tilts, piecewise constant over uniform
time cells of their horizon, priced by the relative-entropy functional
built on l(r) = r log r - r + 1.  ``thin_to_control(ms, control, scale,
rng)`` draws a ``JumpSample(times, marks)`` over the tilt's horizon; it is
the package's one draw, and the untilted Poisson draw it is checked against
lives with the test oracles.

All sampling takes an explicit seed and derives a counter-based (Philox)
stream per (purpose, path), so parallel Monte Carlo is reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .spectral import half_norms_sq, nyquist_free


class NoiseError(ValueError):
    """Invalid mark space, control, or sample."""


class InvalidChangeOfMeasure(NoiseError):
    """The tilt vanishes on a cell that carries an event, or an event falls after its horizon."""


# ---------------------------------------------------------------------------
# reproducible stream derivation


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Philox stream derived from a root seed and (purpose, index) labels."""
    material = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            material.append(int(lab) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(lab).encode()).digest()
            material.append(int.from_bytes(digest[:8], "little"))
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(material)))


# ---------------------------------------------------------------------------
# mark space, jump coefficient, controls, samples


@dataclass(frozen=True)
class MarkSpace:
    """Finite mark set with strictly positive intensity weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise NoiseError("mark space must contain at least one mark")
        if any(not np.isfinite(w) or w <= 0 for w in self.weights):
            raise NoiseError(f"mark weights must be positive and finite, got {self.weights}")

    @property
    def size(self) -> int:
        return len(self.weights)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True, eq=False)
class JumpCoefficientSpec:
    """Affine-in-velocity jump coefficient per mark: G(t,u,v) = shape_v + gain_v u.

    ``shapes`` is one read-only (marks, 2, N, N//2+1) array of half-layout
    velocity coefficients with zero Nyquist lines, one divergence-free
    shape per mark.
    """

    shapes: np.ndarray
    gains: tuple[float, ...]

    def __post_init__(self):
        shapes = np.array(self.shapes, dtype=complex)
        if shapes.ndim != 4 or shapes.shape[1] != 2 or shapes.shape[3] != shapes.shape[2] // 2 + 1:
            raise NoiseError(f"shapes must be a (marks, 2, N, N//2+1) array, got {shapes.shape}")
        if len(shapes) != len(self.gains):
            raise NoiseError("one shape and one gain per mark required")
        if not (np.all(np.isfinite(shapes)) and np.isfinite(self.gains).all() and nyquist_free(shapes)):
            raise NoiseError("shapes and gains must be finite, the shapes with zero Nyquist lines")
        shapes.setflags(write=False)
        object.__setattr__(self, "shapes", shapes)

    @property
    def size(self) -> int:
        return len(self.shapes)

    def g0_norm(self, idx: int) -> float:
        """sup_u |G(t,u,v)| / (1 + |u|), exact for the affine form."""
        return max(float(np.sqrt(half_norms_sq(self.shapes[idx])[0])), abs(self.gains[idx]))

    def lipschitz_bound(self, ms: MarkSpace) -> float:
        """L with int |G(t,u1,v)-G(t,u2,v)|^2 dtheta(v) = L |u1-u2|^2."""
        w = ms.weight_array()
        g = np.asarray(self.gains, dtype=float)
        return float(np.sum(w * g**2))

    def growth_constant(self, ms: MarkSpace, p: int) -> float:
        """C_p with int |G(t,u,v)|^p dtheta(v) <= C_p (1 + |u|^p)."""
        w = ms.weight_array()
        base = np.array([self.g0_norm(i) for i in range(self.size)])
        return float(2 ** (p - 1) * np.sum(w * base**p))


@dataclass(frozen=True)
class Control:
    """Nonnegative intensity tilt, piecewise constant on K uniform time cells."""

    horizon: float
    values: np.ndarray  # (K, m)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or 0 in vals.shape:
            raise NoiseError(f"control values must be a nonempty (cells x marks) matrix, got shape {vals.shape}")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise NoiseError("control values must be finite and >= 0")
        if not 0 < self.horizon < np.inf:
            raise NoiseError(f"control horizon must be positive and finite, got {self.horizon}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, horizon: float, value: float, n_cells: int = 1, n_marks: int = 1) -> "Control":
        return cls(horizon, np.full((n_cells, n_marks), float(value)))

    @classmethod
    def unit(cls, horizon: float, n_cells: int = 1, n_marks: int = 1) -> "Control":
        return cls.constant(horizon, 1.0, n_cells, n_marks)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def n_marks(self) -> int:
        return self.values.shape[1]

    @property
    def cell_width(self) -> float:
        return self.horizon / self.n_cells

    def cells_of(self, t):
        """The cell of each time in ``t``: min(int(t / cell_width), n_cells - 1), elementwise."""
        return np.minimum((np.asarray(t) / self.cell_width).astype(int), self.n_cells - 1)

    def sup_per_mark(self) -> np.ndarray:
        return self.values.max(axis=0)


@dataclass(frozen=True)
class JumpSample:
    """Realized point configuration: ordered (time, mark) events at positive times."""

    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.marks, dtype=int)
        if t.shape != m.shape or t.ndim != 1:
            raise NoiseError("times and marks must be 1-d arrays of equal length")
        if t.size and (not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0) or t[0] <= 0):
            raise NoiseError("event times must be finite, positive and increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", m)

    @property
    def size(self) -> int:
        return int(self.times.size)


# ---------------------------------------------------------------------------
# sampling


def thin_to_control(ms: MarkSpace, control: Control, scale: float, rng: np.random.Generator) -> JumpSample:
    """Counting process with intensity scale * g(t,v) theta(dv) dt on (0, T], by thinning.

    T is the tilt's horizon.  Per mark, a dominating process at rate
    scale * theta_i * sup_t g(.,i) is thinned with acceptance probability
    g(t,i) / sup_t g(.,i).
    """
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    horizon = control.horizon
    sups = control.sup_per_mark()
    all_times, all_marks = [], []
    for i in range(ms.size):
        s = float(sups[i])
        if s == 0.0:
            continue
        lam = scale * ms.weights[i] * s * horizon
        n = int(rng.poisson(lam))
        times = rng.uniform(0.0, horizon, size=n)
        accept_u = rng.uniform(0.0, 1.0, size=n)
        keep = accept_u * s < control.values[control.cells_of(times), i]
        all_times.append(times[keep])
        all_marks.append(np.full(int(keep.sum()), i, dtype=int))
    if all_times:
        times = np.concatenate(all_times)
        marks = np.concatenate(all_marks)
        order = np.argsort(times, kind="stable")
        times, marks = times[order], marks[order]
    else:
        times, marks = np.empty(0), np.empty(0, dtype=int)
    if times.size and times[0] == 0.0:
        times = times.copy()
        times[times == 0.0] = np.nextafter(0.0, horizon)
    return JumpSample(times, marks)


# ---------------------------------------------------------------------------
# entropy cost


def entropy_l(r):
    """l(r) = r log r - r + 1 elementwise for r >= 0, with l(0) = 1 by continuity."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise NoiseError(f"entropy_l requires r >= 0, got {r}")
    # r log r is 0 at r = 0: the log of the placeholder 1 keeps it finite
    return (r * np.log(np.where(r > 0, r, 1.0)) - r + 1.0)[()]


def cost_LT(control: Control, ms: MarkSpace) -> float:
    """Relative-entropy cost: sum over cells and marks of l(g) dt theta_i."""
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    return float(np.sum(entropy_l(control.values) * ms.weight_array()[None, :]) * control.cell_width)


# ---------------------------------------------------------------------------
# jump coefficient evaluation


def eval_G(t: float, u: np.ndarray, mark: int, spec: JumpCoefficientSpec) -> np.ndarray:
    """G(t, u, v_mark) = shape + gain * u of (..., 2, N, N//2+1) velocity coefficients."""
    if mark < 0 or mark >= spec.size:
        raise NoiseError(f"unknown mark index {mark}")
    return spec.shapes[mark] + spec.gains[mark] * u


def compensator_integral(t: float, u: np.ndarray, ms: MarkSpace, spec: JumpCoefficientSpec) -> np.ndarray:
    """int G(t,u,v) theta(dv) = sum_i theta_i G(t, u, v_i)."""
    return sum(w * eval_G(t, u, i, spec) for i, w in enumerate(ms.weights))


def control_drift(
    t: float, u: np.ndarray, control: Control, ms: MarkSpace, spec: JumpCoefficientSpec
) -> np.ndarray:
    """Skeleton drift: sum_i theta_i (g(t, v_i) - 1) G(t, u, v_i)."""
    coeffs = ms.weight_array() * (control.values[control.cells_of(t)] - 1.0)
    return sum(c * eval_G(t, u, i, spec) for i, c in enumerate(coeffs))


def apriori_control_constant(control: Control, ms: MarkSpace, spec: JumpCoefficientSpec) -> float:
    """int |G(s,v)|_0 |g(s,v) - 1| theta(dv) ds for the piecewise control."""
    g0 = np.array([spec.g0_norm(i) for i in range(spec.size)])
    dev = np.abs(control.values - 1.0)
    return float(np.sum(dev * (ms.weight_array() * g0)[None, :]) * control.cell_width)


# ---------------------------------------------------------------------------
# exponential tilt density


def girsanov_log_density(
    control: Control,
    sample: JumpSample,
    epsilon: float,
    ms: MarkSpace,
) -> float:
    """Log of the exponential tilt weight for a g-tilted sample.

    For a configuration drawn with intensity (1/epsilon) g theta_T, the
    weight

        sum_events log(1 / g(t_j, v_j))
        + (1/epsilon) sum_{cells, marks} (g - 1) dt theta_i

    is the likelihood ratio of the reference (g = 1) intensity against the
    tilted one; it has mean one over tilted samples, and weighting tilted
    path statistics by it recovers reference-measure expectations.  A
    vanishing tilt on a cell that carries an event makes the change of
    measure invalid, and so does an event after the tilt's horizon.
    """
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    vals = control.values
    total = 0.0
    if sample.size:
        if not (0 <= sample.marks.min() and sample.marks.max() < ms.size):
            raise NoiseError(f"unknown mark index in jumps (mark space has {ms.size} marks)")
        if sample.times[-1] > control.horizon:
            raise InvalidChangeOfMeasure(f"event at t = {sample.times[-1]:g} after the tilt's horizon")
        g_at_events = vals[control.cells_of(sample.times), sample.marks]
        if np.any(g_at_events <= 0.0):
            raise InvalidChangeOfMeasure("control vanishes at an event time")
        total += float(np.sum(-np.log(g_at_events)))
    comp = (vals - 1.0) * ms.weight_array()[None, :] * control.cell_width
    total += float(np.sum(comp) / epsilon)
    return total
