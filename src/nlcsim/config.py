"""Experiment configuration: parsing, validation, and field vocabulary.

Configs are flat ``key = value`` text files with ``#`` comments and dotted
key names (documented in the README).  Every diagnostic carries the line
number it came from; unknown keys are rejected.  Only ``seed`` is
required -- everything else has a documented default.

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
    """(name, numeric args, term) of each '+'-separated term of a descriptor."""
    for term in token.split("+"):
        parts = term.strip().split(":")
        yield parts[0], [float(p) for p in parts[1:]], term


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
            if len(args) != 2:
                raise ConfigError(f"constant director needs a:b, got '{term}'")
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
    solver_snapshot_stride: int = 1
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
    rate_step_size: float = 0.5
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

    def build_nonlinearity(self) -> PolynomialNonlinearity:
        return PolynomialNonlinearity(self.nonlinearity_coefficients)

    def build_mark_space(self) -> MarkSpace:
        return MarkSpace(weights=self.noise_weights)

    def build_jump_spec(self, grid: TorusGrid) -> JumpCoefficientSpec:
        shapes = np.stack([velocity_shape(grid, token) for token in self.noise_shapes])
        return JumpCoefficientSpec(shapes=shapes, gains=self.noise_gains)

    def build_solver_config(self, energy_diagnostics: bool = True) -> SolverConfig:
        grid = self.build_grid()
        return SolverConfig(
            grid=grid,
            dt=self.solver_dt,
            t_final=self.solver_t_final,
            nonlinearity=self.build_nonlinearity(),
            mark_space=self.build_mark_space(),
            jump_spec=self.build_jump_spec(grid),
            cutoff_level=self.solver_cutoff_level if self.solver_cutoff_level > 0 else None,
            snapshot_stride=self.solver_snapshot_stride,
            diag_stride=self.solver_diag_stride if self.solver_diag_stride > 0 else None,
            energy_diagnostics=energy_diagnostics,
        )

    def build_init(self, grid: TorusGrid) -> SpectralState:
        return SpectralState(grid, velocity_shape(grid, self.init_u), director_shape(grid, self.init_theta))

    def build_control(self) -> Control:
        k, m = self.control_cells, len(self.noise_weights)
        vals = self.control_values
        if len(vals) == 1:
            matrix = np.full((k, m), vals[0])
        elif len(vals) == k * m:
            matrix = np.asarray(vals).reshape(k, m)
        else:
            raise ConfigError(
                f"control.values needs 1 or cells*marks={k * m} entries, got {len(vals)}"
            )
        return Control(self.solver_t_final, matrix)

    def build_importance_phi(self) -> Control:
        m = len(self.noise_weights)
        return Control.constant(self.solver_t_final, self.importance_phi, 1, m)


_KEYMAP = {
    "seed": ("seed", int),
    "grid.modes": ("grid_modes", int),
    "grid.dealias_factor": ("grid_dealias_factor", float),
    "nonlinearity.coefficients": ("nonlinearity_coefficients", "floats"),
    "solver.dt": ("solver_dt", float),
    "solver.t_final": ("solver_t_final", float),
    "solver.snapshot_stride": ("solver_snapshot_stride", int),
    "solver.diag_stride": ("solver_diag_stride", int),
    "solver.cutoff_level": ("solver_cutoff_level", float),
    "init.u": ("init_u", str),
    "init.theta": ("init_theta", str),
    "noise.weights": ("noise_weights", "floats"),
    "noise.shapes": ("noise_shapes", "strs"),
    "noise.gains": ("noise_gains", "floats"),
    "control.cells": ("control_cells", int),
    "control.values": ("control_values", "floats"),
    "experiment.eps_list": ("experiment_eps_list", "floats"),
    "experiment.n_paths": ("experiment_n_paths", int),
    "simulate.eps": ("simulate_eps", float),
    "rate.penalty": ("rate_penalty", float),
    "rate.cells": ("rate_cells", int),
    "rate.max_iters": ("rate_max_iters", int),
    "rate.step_size": ("rate_step_size", float),
    "rate.tolerance": ("rate_tolerance", float),
    "rate.target_tilt": ("rate_target_tilt", float),
    "importance.eps": ("importance_eps", float),
    "importance.phi": ("importance_phi", float),
    "importance.threshold": ("importance_threshold", float),
    "importance.n_paths": ("importance_n_paths", int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYMAP.items()}


def _convert(raw: str, kind, key: str, path: str, line: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "floats":
            return tuple(float(p.strip()) for p in raw.split(",") if p.strip())
        if kind == "strs":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for '{key}': {exc}", path, line) from exc
    raise ConfigError(f"internal: unhandled kind for '{key}'", path, line)


def _validate(cfg: ExperimentConfig, lines: dict[str, int], path: str):
    def fail(key: str, message: str):
        raise ConfigError(message, path, lines.get(key))

    if cfg.seed < 0:
        fail("seed", "seed must be a nonnegative integer")
    if cfg.grid_modes % 2 != 0 or cfg.grid_modes < 8:
        fail("grid.modes", f"grid.modes must be even and >= 8, got {cfg.grid_modes}")
    if cfg.grid_dealias_factor < 1.0:
        fail("grid.dealias_factor", "dealias factor must be >= 1")
    if any(b <= 0 for b in cfg.nonlinearity_coefficients):
        fail(
            "nonlinearity.coefficients",
            f"polynomial coefficients must all be > 0, got {cfg.nonlinearity_coefficients}",
        )
    if len(cfg.nonlinearity_coefficients) > 4:
        fail("nonlinearity.coefficients", "polynomial degree limited to 3")
    if cfg.solver_dt <= 0:
        fail("solver.dt", f"solver.dt must be > 0, got {cfg.solver_dt}")
    if cfg.solver_t_final <= 0:
        fail("solver.t_final", "solver.t_final must be > 0")
    steps = cfg.solver_t_final / cfg.solver_dt
    if abs(steps - round(steps)) > 1e-6:
        fail("solver.dt", f"t_final/dt = {steps} is not integral within rounding")
    if any(w <= 0 for w in cfg.noise_weights):
        fail("noise.weights", f"mark weights must be positive, got {cfg.noise_weights}")
    m = len(cfg.noise_weights)
    if len(cfg.noise_shapes) != m or len(cfg.noise_gains) != m:
        fail(
            "noise.shapes",
            f"noise.shapes and noise.gains must match noise.weights length {m}",
        )
    if any(v < 0 for v in cfg.control_values):
        fail("control.values", "control values must be >= 0")
    if cfg.control_cells < 1:
        fail("control.cells", "control.cells must be >= 1")
    if any(e <= 0 for e in cfg.experiment_eps_list) or any(
        a <= b for a, b in zip(cfg.experiment_eps_list, cfg.experiment_eps_list[1:])
    ):
        fail("experiment.eps_list", "eps list must be positive and strictly decreasing")
    if cfg.experiment_n_paths < 8:
        fail("experiment.n_paths", "experiment.n_paths must be >= 8")
    if cfg.simulate_eps <= 0 or cfg.importance_eps <= 0:
        fail("simulate.eps", "noise sizes must be > 0")
    if cfg.importance_phi <= 0:
        fail("importance.phi", "importance tilt must be > 0")
    if cfg.rate_penalty <= 0:
        fail("rate.penalty", "rate.penalty must be > 0")
    # vocabulary check: build on a throwaway grid so bad descriptors fail here
    grid = cfg.build_grid()
    for key, what, build in (
        ("init.u", "bad init descriptor", lambda: velocity_shape(grid, cfg.init_u)),
        ("init.theta", "bad init descriptor", lambda: director_shape(grid, cfg.init_theta)),
        ("noise.shapes", "bad noise shape", lambda: cfg.build_jump_spec(grid)),
    ):
        try:
            build()
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{what}: {getattr(exc, 'message', exc)}", path, lines.get(key)) from exc


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    seen_seed = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got '{line}'", path, lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.split("#", 1)[0].strip()
        if key not in _KEYMAP:
            raise ConfigError(f"unknown key '{key}'", path, lineno)
        if key in lines:
            raise ConfigError(f"duplicate key '{key}' (first at line {lines[key]})", path, lineno)
        attr, kind = _KEYMAP[key]
        values[attr] = _convert(raw_value, kind, key, path, lineno)
        lines[key] = lineno
        if key == "seed":
            seen_seed = True
    if not seen_seed:
        raise ConfigError("missing required key 'seed'", path)
    cfg = ExperimentConfig(**values)
    _validate(cfg, lines, path)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config_text(text, path=str(path))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it returns an equal config."""
    buf = io.StringIO()
    buf.write("# experiment configuration (canonical form)\n")
    for f in fields(ExperimentConfig):
        key = _ATTR_TO_KEY[f.name]
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ", ".join(str(v) for v in value)
        else:
            rendered = str(value)
        buf.write(f"{key} = {rendered}\n")
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
