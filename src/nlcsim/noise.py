"""Marked Poisson noise: sampling, thinning, entropy cost, and tilting.

The mark space is a finite set with strictly positive weights, realizing a
sigma-finite jump intensity at desk scale.  The jump coefficient is affine
per mark, G(t, u, v) = shape_v + gain_v * u, which keeps every Lipschitz
and growth constant computable in closed form.  The shapes are one
half-layout array; the solver forms its mark sums on it directly.
``eval_G`` (the increment of one jump), ``compensator_integral`` and
``control_drift`` are their field-level reference: each is one affine
mark sum sum_i c_i shape_i + (sum_i c_i gain_i) u of a velocity field.
Controls are nonnegative intensity tilts, piecewise constant over uniform
time cells, priced by the relative-entropy functional built on
l(r) = r log r - r + 1.

All sampling takes an explicit seed and derives a counter-based (Philox)
stream per (purpose, path), so parallel Monte Carlo is reproducible.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .spectral import DivergenceFreeField, half_norms_sq, nyquist_free, vector_field


class NoiseError(ValueError):
    """Invalid mark space, control, or sample."""


class InvalidChangeOfMeasure(NoiseError):
    """The tilt vanishes on a cell that carries an event."""


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
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.weights) == 0:
            raise NoiseError("mark space must contain at least one mark")
        if any(not np.isfinite(w) or w <= 0 for w in self.weights):
            raise NoiseError(f"mark weights must be positive and finite, got {self.weights}")
        if self.labels and len(self.labels) != len(self.weights):
            raise NoiseError("labels and weights must have equal length")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"v{i+1}" for i in range(len(self.weights))))

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

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
        if not (np.all(np.isfinite(shapes)) and nyquist_free(shapes)):
            raise NoiseError("shapes must be finite with zero Nyquist lines")
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
        if vals.ndim != 2:
            raise NoiseError("control values must be a (cells x marks) matrix")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise NoiseError("control values must be finite and >= 0")
        if self.horizon <= 0:
            raise NoiseError("control horizon must be positive")
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

    def cell_of(self, t: float) -> int:
        return min(int(t / self.cell_width), self.n_cells - 1)

    def row(self, t: float) -> np.ndarray:
        return self.values[self.cell_of(t)]

    def sup_per_mark(self) -> np.ndarray:
        return self.values.max(axis=0)


@dataclass(frozen=True)
class JumpSample:
    """Realized point configuration: ordered (time, mark) events on (0, T]."""

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    intensity_scale: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.marks, dtype=int)
        if t.shape != m.shape or t.ndim != 1:
            raise NoiseError("times and marks must be 1-d arrays of equal length")
        if t.size and (np.any(np.diff(t) < 0) or t[0] <= 0 or t[-1] > self.horizon):
            raise NoiseError("event times must be increasing within (0, T]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", m)

    @property
    def size(self) -> int:
        return int(self.times.size)

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write("# t mark_index\n")
        for t, m in zip(self.times, self.marks):
            buf.write(f"{t:.17g} {m}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str, horizon: float, intensity_scale: float) -> "JumpSample":
        times, marks = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            t, m = line.split()
            times.append(float(t))
            marks.append(int(m))
        return cls(np.asarray(times), np.asarray(marks, dtype=int), horizon, intensity_scale)


# ---------------------------------------------------------------------------
# sampling


def sample_prm(
    ms: MarkSpace, horizon: float, intensity_scale: float, rng: np.random.Generator
) -> JumpSample:
    """Poisson random measure on (0,T] x marks with intensity scale * theta.

    Event count is Poisson(scale * total_mass * T); times are iid uniform,
    marks categorical with probabilities theta_i / total_mass.
    """
    if horizon <= 0 or intensity_scale <= 0:
        raise NoiseError("horizon and intensity_scale must be positive")
    lam = intensity_scale * ms.total_mass * horizon
    n = int(rng.poisson(lam))
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    if n and times[0] == 0.0:
        times[times == 0.0] = np.nextafter(0.0, horizon)
    probs = ms.weight_array() / ms.total_mass
    marks = rng.choice(ms.size, size=n, p=probs)
    return JumpSample(times, marks, horizon, intensity_scale)


def thin_to_control(
    ms: MarkSpace,
    horizon: float,
    control: Control,
    intensity_scale: float,
    rng: np.random.Generator,
) -> JumpSample:
    """Counting process with intensity scale * g(t,v) theta(dv) dt, by thinning.

    Per mark, a dominating process at rate scale * theta_i * sup_t g(.,i) is
    thinned with acceptance probability g(t,i) / sup_t g(.,i).
    """
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    sups = control.sup_per_mark()
    all_times, all_marks = [], []
    for i in range(ms.size):
        s = float(sups[i])
        if s == 0.0:
            continue
        lam = intensity_scale * ms.weights[i] * s * horizon
        n = int(rng.poisson(lam))
        times = rng.uniform(0.0, horizon, size=n)
        accept_u = rng.uniform(0.0, 1.0, size=n)
        cells = np.minimum((times / control.cell_width).astype(int), control.n_cells - 1)
        keep = accept_u * s < control.values[cells, i]
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
    return JumpSample(times, marks, horizon, intensity_scale)


# ---------------------------------------------------------------------------
# entropy cost


def entropy_l(r: float) -> float:
    """l(r) = r log r - r + 1 for r >= 0, with l(0) = 1 by continuity."""
    if r < 0:
        raise NoiseError(f"entropy_l requires r >= 0, got {r}")
    if r == 0.0:
        return 1.0
    return float(r * np.log(r) - r + 1.0)


def cost_LT(control: Control, ms: MarkSpace) -> float:
    """Relative-entropy cost: sum over cells and marks of l(g) dt theta_i."""
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    vals = control.values
    with np.errstate(divide="ignore", invalid="ignore"):
        lv = np.where(vals > 0, vals * np.log(np.where(vals > 0, vals, 1.0)) - vals + 1.0, 1.0)
    return float(np.sum(lv * ms.weight_array()[None, :]) * control.cell_width)


def check_SM(control: Control, ms: MarkSpace, budget: float) -> bool:
    """True iff the control lies in the entropy ball of radius ``budget``."""
    return cost_LT(control, ms) <= budget


# ---------------------------------------------------------------------------
# jump coefficient evaluation


def eval_G(
    t: float,
    u: DivergenceFreeField,
    mark: int,
    spec: JumpCoefficientSpec,
) -> DivergenceFreeField:
    """G(t, u, v_mark) = shape + gain * u (time-homogeneous by default)."""
    if mark < 0 or mark >= spec.size:
        raise NoiseError(f"unknown mark index {mark}")
    out = vector_field(u.grid, spec.shapes[mark]) + spec.gains[mark] * u
    return DivergenceFreeField(out.c1, out.c2)


def _mark_sum(
    coeffs: np.ndarray, u: DivergenceFreeField, spec: JumpCoefficientSpec
) -> DivergenceFreeField:
    """sum_i c_i G(t, u, v_i) = sum_i c_i shape_i + (sum_i c_i gain_i) u, as a field."""
    acc = vector_field(u.grid, np.tensordot(coeffs, spec.shapes, axes=1))
    acc = acc + float(np.dot(coeffs, spec.gains)) * u
    return DivergenceFreeField(acc.c1, acc.c2)


def compensator_integral(
    t: float, u: DivergenceFreeField, ms: MarkSpace, spec: JumpCoefficientSpec
) -> DivergenceFreeField:
    """Finite-sum realization of int G(t,u,v) theta(dv)."""
    return _mark_sum(ms.weight_array(), u, spec)


def control_drift(
    t: float,
    u: DivergenceFreeField,
    control: Control,
    ms: MarkSpace,
    spec: JumpCoefficientSpec,
) -> DivergenceFreeField:
    """Skeleton drift: sum_i theta_i (g(t, v_i) - 1) G(t, u, v_i)."""
    return _mark_sum(ms.weight_array() * (control.row(t) - 1.0), u, spec)


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
    measure invalid.
    """
    if control.n_marks != ms.size:
        raise NoiseError("control mark dimension does not match mark space")
    vals = control.values
    total = 0.0
    if sample.size:
        cells = np.minimum(
            (sample.times / control.cell_width).astype(int), control.n_cells - 1
        )
        g_at_events = vals[cells, sample.marks]
        if np.any(g_at_events <= 0.0):
            raise InvalidChangeOfMeasure("control vanishes at an event time")
        total += float(np.sum(-np.log(g_at_events)))
    comp = (vals - 1.0) * ms.weight_array()[None, :] * control.cell_width
    total += float(np.sum(comp) / epsilon)
    return total


# ---------------------------------------------------------------------------
# serialization


def control_to_csv(control: Control, header_lines: tuple[str, ...] = ()) -> str:
    """CSV with one row per time cell and one column per mark."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(f"# horizon={control.horizon:.17g} cells={control.n_cells} marks={control.n_marks}\n")
    buf.write(",".join(f"g_mark{i+1}" for i in range(control.n_marks)) + "\n")
    for row in control.values:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def control_from_csv(text: str) -> Control:
    horizon = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "horizon=" in line:
                for token in line.lstrip("# ").split():
                    if token.startswith("horizon="):
                        horizon = float(token.split("=", 1)[1])
            continue
        if line.startswith("g_mark"):
            continue
        rows.append([float(v) for v in line.split(",")])
    if horizon is None:
        raise NoiseError("control CSV is missing the horizon header")
    return Control(horizon, np.asarray(rows, dtype=float))
