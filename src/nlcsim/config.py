"""Experiment configuration: parsing, validation, and field vocabulary.

Configs are flat ``key = value`` text files with ``#`` comments and dotted
key names (documented in the README).  Each key is an ``ExperimentConfig``
field, named by the field with its first ``_`` as ``.`` and parsed after
its annotation.  Every diagnostic carries the line number it came from;
unknown keys are rejected.  Only ``seed`` is required -- everything else
has a documented default.  ``_RULES`` states each key's range once, as the
condition its value meets, so NaN, infinities and empty lists fail at their
line too; a few cross-key checks follow (t_final/dt integral, the noise
lengths, the descriptors, the control matrix).

Shape fields are described by a small vocabulary of named analytic fields
(amplitude-scaled, optionally Leray-projected low Fourier modes) rather
than raw coefficient dumps, so a config stays human-auditable.  Terms can
be summed with ``+``.  Each descriptor becomes a (2, N, N//2+1) half-layout
coefficient array; a wavenumber outside the grid's band |k| <= N/2 - 1 is
rejected, since it would alias onto another mode or onto a Nyquist line.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import SolverConfig, SpectralState
from .noise import Control, JumpCoefficientSpec, MarkSpace
from .operators import PolynomialNonlinearity
from .spectral import TorusGrid, from_grid, leray_half


class ConfigError(ValueError):
    """Config file rejected; message carries file and line when known."""

    def __init__(self, message: str, path: str = "<config>", line: int | None = None):
        loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(loc + message)
        self.message = message
        self.path = path
        self.line = line


# ---------------------------------------------------------------------------
# field vocabulary


def _sampled(grid: TorusGrid, c1, c2, *wavenumbers: float) -> np.ndarray:
    """(2, N, N//2+1) coefficients of two component functions of (x1, x2) sampled on the grid.

    ``wavenumbers`` are the descriptor's numbers that the functions use as
    wavenumbers; each must be an integer in the band |k| <= N/2 - 1, where
    sampling is exact.
    """
    band = grid.n // 2 - 1
    for k in wavenumbers:
        if not k.is_integer():
            raise ConfigError(f"wavenumber {k:g} is not an integer")
        if abs(k) > band:
            raise ConfigError(f"wavenumber {k:g} is outside the band |k| <= {band} of grid.modes = {grid.n}")
    x1, x2 = grid.nodes()
    return from_grid(np.stack([np.broadcast_to(c(x1, x2), x1.shape) for c in (c1, c2)]), grid.n)


def _terms(token: str):
    """(name, numeric args, term) per '+'-separated term; the first number (amplitude or value) must be finite."""
    for term in token.split("+"):
        parts = term.strip().split(":")
        args = [float(p) for p in parts[1:]]
        if args and not -np.inf < args[0] < np.inf:
            raise ConfigError(f"'{term}' has a non-finite amplitude or value")
        yield parts[0], args, term


def _amp_k(args, term: str) -> tuple[float, float]:
    """(amp, k) of a ``name:amp[:k]`` term; k defaults to 1."""
    if len(args) not in (1, 2):
        raise ConfigError(f"'{term}' needs amp[:k]")
    return args[0], args[1] if len(args) > 1 else 1.0


def velocity_shape(grid: TorusGrid, token: str) -> np.ndarray:
    """Divergence-free (2, N, N//2+1) velocity coefficients from a ``name:amp[:args]`` descriptor.

    zero | shear_x:amp[:k] | shear_y:amp[:k] | taylor_green:amp[:k]
    | mode:amp:k1:k2 ('+'-separated terms are summed).
    """
    total = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    for name, args, term in _terms(token):
        if name == "zero":
            continue
        if name == "shear_x":
            amp, k = _amp_k(args, term)
            f = _sampled(grid, lambda x1, x2: amp * np.sin(k * x2), lambda x1, x2: 0.0, k)
        elif name == "shear_y":
            amp, k = _amp_k(args, term)
            f = _sampled(grid, lambda x1, x2: 0.0, lambda x1, x2: amp * np.sin(k * x1), k)
        elif name == "taylor_green":
            amp, k = _amp_k(args, term)
            f = _sampled(
                grid,
                lambda x1, x2: amp * np.sin(k * x1) * np.cos(k * x2),
                lambda x1, x2: -amp * np.cos(k * x1) * np.sin(k * x2),
                k,
            )
        elif name == "mode":
            if len(args) != 3:
                raise ConfigError(f"mode shape needs amp:k1:k2, got '{term}'")
            amp, k1, k2 = args
            f = amp * _sampled(
                grid,
                lambda x1, x2: np.cos(k1 * x1 + k2 * x2),
                lambda x1, x2: np.sin(k1 * x1 + k2 * x2),
                k1,
                k2,
            )
        else:
            raise ConfigError(f"unknown velocity shape '{name}'")
        total += leray_half(f)
    return total


def director_shape(grid: TorusGrid, token: str) -> np.ndarray:
    """(2, N, N//2+1) director coefficients from a descriptor.

    zero | constant:a:b | stripe_x:amp[:k] | stripe_y:amp[:k]
    | mode:amp:k1:k2:comp ('+'-separated terms are summed).
    """
    total = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    for name, args, term in _terms(token):
        if name == "zero":
            continue
        if name == "constant":
            if len(args) != 2 or not -np.inf < args[1] < np.inf:
                raise ConfigError(f"constant director needs finite a:b, got '{term}'")
            a, b = args
            f = _sampled(grid, lambda x1, x2: a, lambda x1, x2: b)
        elif name == "stripe_x":
            amp, k = _amp_k(args, term)
            f = _sampled(grid, lambda x1, x2: amp * np.sin(k * x1), lambda x1, x2: 0.0, k)
        elif name == "stripe_y":
            amp, k = _amp_k(args, term)
            f = _sampled(grid, lambda x1, x2: 0.0, lambda x1, x2: amp * np.sin(k * x2), k)
        elif name == "mode":
            if len(args) != 4 or args[3] not in (1, 2):
                raise ConfigError(f"mode director needs amp:k1:k2:comp with comp 1 or 2, got '{term}'")
            amp, k1, k2, comp = args
            wave = lambda x1, x2: amp * np.cos(k1 * x1 + k2 * x2)  # noqa: E731
            zero = lambda x1, x2: 0.0  # noqa: E731
            f = _sampled(grid, *((wave, zero) if comp == 1 else (zero, wave)), k1, k2)
        else:
            raise ConfigError(f"unknown director shape '{name}'")
        total += f
    return total


# ---------------------------------------------------------------------------
# schema


@dataclass
class ExperimentConfig:
    """Validated free constants of an experiment; builders materialize objects."""

    seed: int
    grid_modes: int = 16
    grid_dealias_factor: float = 1.5
    nonlinearity_coefficients: tuple[float, ...] = (1.0, 1.0)
    solver_dt: float = 0.01
    solver_t_final: float = 0.5
    solver_diag_stride: int = 0  # 0 = automatic
    solver_cutoff_level: float = 0.0  # 0 = disabled
    init_u: str = "taylor_green:0.3"
    init_theta: str = "stripe_x:0.5:1"
    noise_weights: tuple[float, ...] = (1.0, 0.5, 0.5, 0.25)
    noise_shapes: tuple[str, ...] = (
        "shear_x:0.05",
        "shear_y:0.05",
        "taylor_green:0.03",
        "mode:0.03:1:1",
    )
    noise_gains: tuple[float, ...] = (0.0, 0.0, 0.05, 0.05)
    control_cells: int = 1
    control_values: tuple[float, ...] = (1.0,)
    experiment_eps_list: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    experiment_n_paths: int = 32
    simulate_eps: float = 0.25
    rate_penalty: float = 100.0
    rate_cells: int = 1
    rate_max_iters: int = 40
    rate_tolerance: float = 1e-6
    rate_target_tilt: float = 1.5
    importance_eps: float = 0.25
    importance_phi: float = 1.5
    importance_threshold: float = 0.3
    importance_n_paths: int = 400

    # ------------------------------------------------------------------
    # builders

    def build_grid(self) -> TorusGrid:
        return TorusGrid(self.grid_modes, self.grid_dealias_factor)

    def build_jump_spec(self, grid: TorusGrid) -> JumpCoefficientSpec:
        shapes = np.stack([velocity_shape(grid, token) for token in self.noise_shapes])
        return JumpCoefficientSpec(shapes=shapes, gains=self.noise_gains)

    def build_solver_config(self, energy_diagnostics: bool = True) -> SolverConfig:
        grid = self.build_grid()
        return SolverConfig(
            grid=grid,
            dt=self.solver_dt,
            t_final=self.solver_t_final,
            nonlinearity=PolynomialNonlinearity(self.nonlinearity_coefficients),
            mark_space=MarkSpace(weights=self.noise_weights),
            jump_spec=self.build_jump_spec(grid),
            cutoff_level=self.solver_cutoff_level if self.solver_cutoff_level > 0 else None,
            diag_stride=self.solver_diag_stride if self.solver_diag_stride > 0 else None,
            energy_diagnostics=energy_diagnostics,
        )

    def build_init(self, grid: TorusGrid) -> SpectralState:
        return SpectralState(grid, velocity_shape(grid, self.init_u), director_shape(grid, self.init_theta))

    def build_control(self) -> Control:
        """The (cells x marks) tilt: one value broadcast, or cells*marks values row by row."""
        k, m, vals = self.control_cells, len(self.noise_weights), self.control_values
        if len(vals) not in (1, k * m):
            raise ConfigError(f"control.values needs 1 or cells*marks={k * m} entries, got {len(vals)}")
        return Control(self.solver_t_final, np.resize(vals, (k, m)))

    def build_importance_phi(self) -> Control:
        m = len(self.noise_weights)
        return Control.constant(self.solver_t_final, self.importance_phi, 1, m)


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# the parser of each annotation an ExperimentConfig field may carry
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, ...]": lambda raw: tuple(map(float, _strs(raw))),
    "tuple[str, ...]": _strs,
}

# config key -> (field name, parser); the key is the field name with its first '_' as '.'
_SCHEMA = {f.name.replace("_", ".", 1): (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)}


# config key -> (the condition its value meets, what the key must be); a condition that
# holds only for finite values rejects NaN and +-inf too, and a tuple must also be nonempty
_RULES = {
    # the root seed must fit the 64 bits the Philox streams are derived from (noise.rng_for)
    "seed": (lambda v: 0 <= v < 2**64, "be >= 0 and < 2**64"),
    "grid.modes": (lambda v: v >= 8 and v % 2 == 0, "be even and >= 8"),
    "grid.dealias_factor": (lambda v: 1 <= v < np.inf, "be >= 1 and finite"),
    "nonlinearity.coefficients": (
        lambda v: len(v) <= 4 and all(0 < b < np.inf for b in v),
        "all be > 0 and finite, 1 to 4 of them (degree <= 3)",
    ),
    "solver.dt": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "solver.t_final": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "solver.diag_stride": (lambda v: v >= 0, "be >= 0 (0 = auto)"),
    "solver.cutoff_level": (lambda v: v == 0 or 1 <= v < np.inf, "be 0 or >= 1 and finite"),
    "noise.weights": (lambda v: all(0 < w < np.inf for w in v), "all be positive and finite, at least one"),
    "noise.gains": (lambda v: all(-np.inf < g < np.inf for g in v), "all be finite"),
    "control.cells": (lambda v: v >= 1, "be >= 1"),
    "control.values": (lambda v: all(0 <= g < np.inf for g in v), "all be >= 0 and finite, at least one"),
    "experiment.eps_list": (
        lambda v: all(0 < e < np.inf for e in v) and all(a > b for a, b in zip(v, v[1:])),
        "be nonempty, positive, finite and strictly decreasing",
    ),
    "experiment.n_paths": (lambda v: v >= 8, "be >= 8"),
    "simulate.eps": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "rate.penalty": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "rate.cells": (lambda v: v >= 1, "be >= 1"),
    "rate.max_iters": (lambda v: v >= 1, "be >= 1"),
    "rate.tolerance": (lambda v: 0 <= v < np.inf, "be >= 0 and finite"),
    "rate.target_tilt": (lambda v: 0 <= v < np.inf, "be >= 0 and finite"),
    "importance.eps": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "importance.phi": (lambda v: 0 < v < np.inf, "be > 0 and finite"),
    "importance.threshold": (lambda v: -np.inf < v < np.inf, "be finite"),
    "importance.n_paths": (lambda v: v >= 1, "be >= 1"),
}


def _validate(cfg: ExperimentConfig, lines: dict[str, int], path: str):
    def fail(key: str, message: str):
        raise ConfigError(message, path, lines.get(key))

    for key, (holds, what) in _RULES.items():
        value = getattr(cfg, _SCHEMA[key][0])
        if value == () or not holds(value):
            fail(key, f"{key} must {what}, got {value}")
    steps = cfg.solver_t_final / cfg.solver_dt
    if not (round(steps) >= 1 and abs(steps - round(steps)) <= 1e-6):
        fail("solver.dt", f"t_final/dt = {steps} is not a positive integer within rounding")
    m = len(cfg.noise_weights)
    for key, value in (("noise.shapes", cfg.noise_shapes), ("noise.gains", cfg.noise_gains)):
        if len(value) != m:
            fail(key, f"noise.shapes and noise.gains must match noise.weights length {m}")
    # build what the lines describe, each once, so a bad descriptor or control fails at its line
    grid = cfg.build_grid()
    for key, build in (
        ("init.u", lambda: velocity_shape(grid, cfg.init_u)),
        ("init.theta", lambda: director_shape(grid, cfg.init_theta)),
        ("noise.shapes", lambda: cfg.build_jump_spec(grid)),
        ("control.values", cfg.build_control),
    ):
        try:
            build()
        except (ValueError, IndexError) as exc:
            fail(key, f"bad {key}: {getattr(exc, 'message', exc)}")


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got '{line}'", path, lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.split("#", 1)[0].strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'", path, lineno)
        if key in lines:
            raise ConfigError(f"duplicate key '{key}' (first at line {lines[key]})", path, lineno)
        name, parse = _SCHEMA[key]
        try:
            values[name] = parse(raw_value)
        except ValueError as exc:
            raise ConfigError(f"cannot parse value for '{key}': {exc}", path, lineno) from exc
        lines[key] = lineno
    if "seed" not in lines:
        raise ConfigError("missing required key 'seed'", path)
    cfg = ExperimentConfig(**values)
    _validate(cfg, lines, path)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config_text(text, path=str(path))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it returns an equal config."""
    buf = io.StringIO()
    buf.write("# experiment configuration (canonical form)\n")
    for key, (name, _) in _SCHEMA.items():
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            rendered = ", ".join(str(v) for v in value)
        else:
            rendered = str(value)
        buf.write(f"{key} = {rendered}\n")
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
