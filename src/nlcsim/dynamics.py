"""Time integration of the coupled velocity/director system.

One first-order IMEX scheme drives everything: the linear (Stokes and
director Laplacian) parts are integrated exactly per Fourier mode with the
factor exp(-|k|^2 dt), while convection, director stress, the polynomial
relaxation, and the forcing (control drift or jump increments) enter
explicitly.

The solver state is array-native: a ``SpectralState`` holds u and theta
as (2, N, N//2+1) rfft coefficient arrays (the half layout of
``spectral``) with zero Nyquist lines, checked when the state is built, so
the divergence form of convection is exact on the grid.

The skeleton flow, the small-noise jump SDE and the auxiliary jump
convolution differ only in the increment over a step of the measure that
drives the velocity, so each driver is one (steps, paths, marks) table of
coefficients c of the forcing sum_i c_i G(u, v_i) = sum_i c_i (shape_i +
gain_i u): dt w (g - 1) for the skeleton's controlled drift
(``_skeleton_table``), eps n - dt w for the SDE's compensated jumps and
eps n - dt w phi for the convolution's (``_jump_table``).  ``_run``, the
one stepping loop, steps the tables it is given and knows nothing else of
the drivers, so zeroing the noise makes the SDE agree with the skeleton
bit for bit.  It runs one path per table column along a leading path
axis, (P, 2, N, N//2+1): each step makes one batched inverse and one
batched forward transform call for the whole batch
(``operators.explicit_rhs``).  The norms computed for the blow-up check
serve the next diagnostic row and the per-path cutoffs.  No operation
mixes paths, so path k of a batch equals its one-path run bit for bit; a
path that diverges is dropped from the batch and the tables, and the rest
continue.

A run records a snapshot of the state at the start of every step and
one of the final state, n_steps + 1 in all; ``keep_snapshots=False``
keeps only the final one.  ``solve_skeleton`` runs one skeleton path;
``solve_path_batch`` runs jump-driven paths (a one-element list for one),
each keeping only its diagnostic rows and final state (an ``on_snapshot``
hook sees the others as they pass).  ``draw_jumps`` is the one draw of a
seed's jump configuration, ``thin_to_control(ms, tilt, 1/epsilon, rng)``.
``SolverConfig`` declares a run's one horizon [0, t_final] and its marks,
and ``SolverConfig.tilt`` gives every solver its tilt (the unit tilt for
None) or rejects one that does not fit; a replayed ``JumpSample(times,
marks)`` may not jump after t_final.  ``skeleton_adjoint`` is the
backward sweep of the skeleton step: the n_steps + 1 snapshots of one
skeleton solve are its tape, and it gives the gradient of a function of
the final state in every tilt value and in the initial state.

Jumps realized in [t, t + dt) are aggregated at the step boundary using
the pre-step left limit of the velocity.  Every update leaves the velocity
spectrally divergence-free with a zero mean mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

# eval_G, compensator_integral, control_drift, energy_psi, convection_B, director_stress_M,
# advection_Btilde and polynomial_f are the stepping core's array references; bench/tracer.py
# wraps them under these module attributes, and of the commands only verify calls any of them.
from .noise import (
    Control,
    JumpCoefficientSpec,
    JumpSample,
    MarkSpace,
    NoiseError,
    apriori_control_constant,
    compensator_integral,
    control_drift,
    eval_G,
    rng_for,
    thin_to_control,
)
from .operators import (
    DEFAULT_NONLINEARITY,
    PolynomialNonlinearity,
    advection_Btilde,
    convection_B,
    director_stress_M,
    energy_psi,
    explicit_rhs,
    explicit_rhs_transpose,
    polynomial_f,
    potential_energy_hat,
)
from .spectral import (
    TorusGrid,
    half_inner,
    half_norms_sq,
    half_tables,
    nyquist_free,
)


class SolverError(ValueError):
    """Invalid solver configuration or state."""


# a path whose |u| or H1 norm of theta exceeds this after a step is reported diverged
_BLOWUP_THRESHOLD = 1.0e6


class SpectralState:
    """Velocity/director pair at a fixed time, as half-layout coefficient arrays.

    ``SpectralState(grid, u_hat, theta_hat, time)`` stores read-only copies
    of two (2, N, N//2+1) rfft coefficient arrays.  It rejects a wrong
    shape, non-finite coefficients and nonzero Nyquist lines; that the
    velocity is divergence-free is the caller's to ensure (the config
    vocabulary projects it, and every step keeps it).
    """

    def __init__(self, grid: TorusGrid, u_hat: np.ndarray, theta_hat: np.ndarray, time: float = 0.0):
        shape = (2, grid.n, grid.n // 2 + 1)
        if np.shape(u_hat) != shape or np.shape(theta_hat) != shape:
            raise SolverError(
                f"u_hat and theta_hat must have shape {shape}, got {np.shape(u_hat)} and {np.shape(theta_hat)}"
            )
        pair = np.array((u_hat, theta_hat), dtype=complex)
        if not np.isfinite(pair).all():
            raise SolverError("state contains non-finite coefficients")
        if not nyquist_free(pair):
            raise SolverError("state has nonzero Nyquist lines")
        pair.setflags(write=False)
        self.grid, self.time = grid, time
        self.u_hat, self.theta_hat = pair

    @classmethod
    def _wrap(cls, grid: TorusGrid, u_hat: np.ndarray, theta_hat: np.ndarray, time: float) -> "SpectralState":
        """A state over read-only views of arrays the stepping loop has already checked.

        No copy and no validation: the loop's arrays passed the blow-up
        guard, keep zero Nyquist lines by construction and are never
        written in place once made.
        """
        state = cls.__new__(cls)
        state.grid, state.time = grid, time
        state.u_hat, state.theta_hat = u_hat.view(), theta_hat.view()
        state.u_hat.setflags(write=False)
        state.theta_hat.setflags(write=False)
        return state


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and model parameters shared by all solvers.

    ``cutoff_level`` (>= 1) enables the smooth norm cutoffs on the
    convection, stress, and advection terms (disabled when None, the
    default: the cutoffs exist to globalize local solutions and must not
    alter trajectories whose norms stay below the level).  ``diag_stride``
    defaults to every step for horizons up to 2, every 10th otherwise.
    ``energy_diagnostics=False`` skips the energy and dissipation columns
    (recorded as zero) -- Monte Carlo paths that only need norms use it.
    The blow-up guard's threshold is the module constant ``_BLOWUP_THRESHOLD``.
    """

    grid: TorusGrid
    dt: float
    t_final: float
    nonlinearity: PolynomialNonlinearity | None = DEFAULT_NONLINEARITY
    mark_space: MarkSpace | None = None
    jump_spec: JumpCoefficientSpec | None = None
    cutoff_level: float | None = None
    diag_stride: int | None = None
    energy_diagnostics: bool = True

    def __post_init__(self):
        if not (0 < self.dt <= self.t_final < np.inf):
            raise SolverError(f"need 0 < dt <= t_final < inf, got dt={self.dt} and t_final={self.t_final}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise SolverError(f"t_final/dt = {steps} is not integral within rounding")
        if self.cutoff_level is not None and not 1 <= self.cutoff_level < np.inf:
            raise SolverError(f"cutoff level must be >= 1 and finite, got {self.cutoff_level}")
        stride = self.diag_stride
        if stride is not None and not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise SolverError(f"diag_stride must be an integer >= 1 (None = automatic), got {stride}")
        if (self.mark_space is None) != (self.jump_spec is None):
            raise SolverError("mark_space and jump_spec must be provided together")
        spec = self.jump_spec
        if spec is not None and (spec.size, spec.shapes.shape[2]) != (self.mark_space.size, self.grid.n):
            raise SolverError(f"jump spec has {spec.size} marks on an N={spec.shapes.shape[2]} grid, not the run's")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def effective_diag_stride(self) -> int:
        if self.diag_stride is not None:
            return self.diag_stride
        return 1 if self.t_final <= 2.0 else 10

    def tilt(self, control: Control | None) -> Control:
        """The run's tilt: the unit tilt for None, else ``control`` if it fits the run.

        It fits if its horizon is t_final (to 1e-12 relative) and it has the mark space's marks.
        """
        if self.mark_space is None:
            raise SolverError("config carries no mark space / jump spec")
        if control is None:
            return Control.unit(self.t_final, 1, self.mark_space.size)
        if abs(control.horizon - self.t_final) > 1e-12 * self.t_final:
            raise SolverError(f"tilt horizon {control.horizon:g} differs from t_final {self.t_final:g}")
        if control.n_marks != self.mark_space.size:
            raise SolverError(f"tilt has {control.n_marks} marks, the mark space has {self.mark_space.size}")
        return control


@dataclass
class Trajectory:
    """Diagnostics time series plus the state snapshots the run kept (see ``_run``).

    ``energy_residual`` at a row holds the one-step balance defect of the
    step starting there (skeleton runs with per-step diagnostics only;
    zero in the final row and for jump-driven runs, where the pathwise
    balance has a martingale part).
    """

    kind: str
    dt: float
    status: str
    times: np.ndarray
    u_l2: np.ndarray
    u_h1: np.ndarray
    theta_l2: np.ndarray
    theta_h1: np.ndarray
    psi: np.ndarray
    dissipation: np.ndarray
    energy_residual: np.ndarray
    drift_pairing: np.ndarray
    snapshots: list[SpectralState] = field(default_factory=list)

    @property
    def snapshot_times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def final_state(self) -> SpectralState:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# cutoffs


def cutoff_chi(norm_value, level: float):
    """C^1 smoothstep cutoff, elementwise: 1 up to the level, 0 beyond level + 1."""
    s = np.clip(norm_value - level, 0.0, 1.0)
    # float_power is libm pow on every element, so an array agrees with its scalars bit for bit
    return 1.0 - 3.0 * np.float_power(s, 2) + 2.0 * np.float_power(s, 3)


def _cutoff_slope(norm_value, level: float):
    """Derivative of :func:`cutoff_chi` in the norm, elementwise (zero outside (level, level + 1))."""
    s = np.clip(norm_value - level, 0.0, 1.0)
    return 6.0 * s * (s - 1.0)


# ---------------------------------------------------------------------------
# right-hand side


def _psi(theta_hat: np.ndarray, theta_h1, grid: TorusGrid, nl):
    """psi_total = |grad theta|^2 / 2 + potential, the scalar energy of the ledger (per path)."""
    elastic = 0.5 * theta_h1**2
    return elastic if nl is None else elastic + potential_energy_hat(theta_hat, grid, nl)


def _energy_row(theta_hat, u_h1, theta_h1, grid: TorusGrid, nl, f_hat):
    """(psi_total, dissipation) of ``energy_psi`` from arrays and the step's f(theta).

    ``f_hat`` is the f(theta) of ``explicit_rhs(..., with_f=True)`` at the
    same state (ignored when ``nl`` is None).  A (P, 2, N, N//2+1) batch
    gives one value per path.
    """
    resid = -half_tables(grid.n)[2] * theta_hat
    if nl is not None:
        resid = resid - f_hat
    return _psi(theta_hat, theta_h1, grid, nl), u_h1**2 + half_norms_sq(resid)[0]


def _state_norms(u_hat: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """(|u|, |grad u|, |theta|, |grad theta|) in L2, stacked on a new first axis (then paths).

    One pass over both fields; like ``half_norms_sq`` it reduces each path
    on its own.
    """
    weights = half_tables(u_hat.shape[-2])[3]
    power = np.concatenate((u_hat, theta_hat), axis=-3)
    power = power.real**2 + power.imag**2
    modes = weights[0].size
    power = power.reshape(power.shape[:-3] + (2, 1, 2, modes)).sum(axis=-2)  # (..., field, 1, mode)
    sq = (power * weights.reshape(2, modes)).sum(axis=-1)  # (..., field, l2/h1)
    return np.sqrt(sq.reshape(sq.shape[:-2] + (4,)).T)


# ---------------------------------------------------------------------------
# the shared stepping core


def _require_noise(epsilon: float, cfg: SolverConfig):
    if not 0 < epsilon < np.inf:
        raise SolverError(f"epsilon must be positive and finite, got {epsilon}")
    if cfg.mark_space is None:
        raise SolverError("config carries no mark space / jump spec")


def draw_jumps(epsilon: float, phi: Control | None, cfg: SolverConfig, seed: int) -> JumpSample:
    """The seed's jump configuration at intensity (1/epsilon) phi theta, phi = ``cfg.tilt(phi)``.

    Deterministic given the seed: the configuration is drawn once by
    thinning, and :func:`solve_path_batch` replays it.
    """
    _require_noise(epsilon, cfg)
    return thin_to_control(cfg.mark_space, cfg.tilt(phi), 1.0 / epsilon, rng_for(seed, "sde-jumps"))


def _jump_table(epsilon: float, jumps: Sequence[JumpSample], cfg: SolverConfig, phi: Control | None = None):
    """(table, xi_table): the (steps, paths, marks) forcing of the jump SDE and of its convolution.

    ``table`` is eps n - dt w, n the step's jump count per path (one per
    sample in ``jumps``) and mark: a jump in [t, t + dt) (or at t_final)
    counts at the step at t.  ``xi_table`` is eps n - dt w phi, the
    convolution's table under the compensator tilt ``phi``, or None
    without it.
    """
    _require_noise(epsilon, cfg)
    ms, dt, n_steps = cfg.mark_space, cfg.dt, cfg.n_steps
    counts = np.zeros((n_steps, len(jumps), ms.size))
    for p, sample in enumerate(jumps):
        if sample.size and not (0 <= sample.marks.min() and sample.marks.max() < ms.size):
            raise NoiseError(f"unknown mark index in jumps (mark space has {ms.size} marks)")
        if sample.size and sample.times[-1] > cfg.t_final:
            raise NoiseError(f"jump at t = {sample.times[-1]:g} after t_final = {cfg.t_final:g}")
        step_of = np.minimum((sample.times / dt).astype(int), n_steps - 1)
        np.add.at(counts[:, p], (step_of, sample.marks), 1.0)
    counts, dt_w = epsilon * counts, dt * ms.weight_array()
    if phi is None:
        return counts - dt_w, None
    phi = cfg.tilt(phi)
    return counts - dt_w, counts - (dt_w * phi.values[phi.cells_of(np.arange(n_steps) * dt)])[:, None]


# per-row diagnostics recorded by _run, in row order
_ROW_FIELDS = (
    "times", "u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation", "drift_pairing"
)


def _trajectory(kind: str, cfg: SolverConfig, status: str, rows: np.ndarray, snaps: list) -> Trajectory:
    """Column arrays from the (fields, rows) values, plus the skeleton's balance residuals.

    Skeleton rows one step apart get E[k+1] - E[k] + dt D[k] - dt W[k],
    with E = psi + |u|^2/2, D the dissipation and W the drift pairing.
    """
    cols = dict(zip(_ROW_FIELDS, rows.copy()))
    residual = np.zeros_like(cols["times"])
    if kind == "skeleton":
        energy = cols["psi"] + 0.5 * cols["u_l2"] ** 2
        diss, pairing = cols["dissipation"][:-1], cols["drift_pairing"][:-1]
        delta = energy[1:] - energy[:-1] + cfg.dt * diss - cfg.dt * pairing
        residual[:-1] = np.where(np.abs(np.diff(cols["times"]) - cfg.dt) < 1e-12, delta, 0.0)
    return Trajectory(kind, cfg.dt, status, energy_residual=residual, snapshots=snaps, **cols)


def _skeleton_table(control: Control, cfg: SolverConfig):
    """(cells, table): the control cell of t = k dt and the skeleton's forcing coefficients.

    For k = 0 .. n_steps, ``table[k, 0, i]`` is dt w_i (g(t, v_i) - 1), the
    increment of the controlled drift over step k: shape (n_steps + 1, 1,
    marks), one path.  The last row forces no step; it gives the final
    diagnostic row its drift pairing.
    """
    cells = control.cells_of(np.arange(cfg.n_steps + 1) * cfg.dt)
    return cells, (cfg.dt * cfg.mark_space.weight_array() * (control.values[cells] - 1.0))[:, None]


def _mark_sum(c: np.ndarray, spec: JumpCoefficientSpec, u_hat: np.ndarray) -> np.ndarray:
    """sum_i c_i (shape_i + gain_i u) for each path, from (paths, marks) rows c.

    Mark by mark, so no path's sum depends on the batch it sits in; a real
    coefficient scales both parts of the complex shapes and velocity.
    """
    shapes, gains, u_real = spec.shapes.view(float), np.asarray(spec.gains, dtype=float), u_hat.view(float)
    acc, gain = c[:, 0, None, None, None] * shapes[0], c[:, 0] * gains[0]
    for i in range(1, c.shape[1]):
        acc += c[:, i, None, None, None] * shapes[i]
        gain = gain + c[:, i] * gains[i]
    acc += gain[:, None, None, None] * u_real
    return acc.view(complex)


def _run(
    init: SpectralState,
    cfg: SolverConfig,
    kind: str = "skeleton",
    table: np.ndarray | None = None,
    xi_table: np.ndarray | None = None,
    keep_snapshots: bool = True,
    on_snapshot: Callable | None = None,
):
    """IMEX-Euler loop shared by every solver, one path per column of ``table``.

    Every path makes the same update

        u <- F (u + dt nu(u, theta) + sum_i c_i (shape_i + gain_i u)),

    with F = exp(-|k|^2 dt) and c the path's row of ``table`` at the step:
    a (steps, paths, marks) table of the increments over each step of the
    measure that drives the velocity, dt w (g - 1) for the skeleton (from
    ``_skeleton_table``) and eps n - dt w for the jump SDE (from
    ``_jump_table``).  ``table=None`` runs one unforced path.  ``kind``
    names the trajectories; a "skeleton" run with a table records its drift
    pairing.  With ``xi_table`` (eps n - dt w phi) each path also runs its
    convolution xi <- F (xi + sum_i c_i G(u, v_i)).

    The state of P paths is (P, 2, N, N//2+1): each step makes one inverse
    and one forward transform call for the whole batch, and the norms,
    cutoffs and forcing rows are vectors over P.  No operation mixes paths,
    so path k of a batch equals a one-path run of it bit for bit.  A path
    that fails the blow-up guard is reported diverged and its row leaves
    the batch and the tables; the others continue.

    Returns one Trajectory per path, plus one convolution Trajectory per
    path with ``xi_table``.  A path keeps a snapshot at the start of every
    step and one of its final state (n_steps + 1 for a finished path);
    ``keep_snapshots=False`` keeps only the final snapshot of each path
    that did not diverge.  ``on_snapshot(k, paths, u_hat, theta_hat)`` sees
    the snapshot of step k of the paths still in the batch (``paths`` their
    indices), whether kept or not.
    """
    grid, dt, n_steps, diag_stride = cfg.grid, cfg.dt, cfg.n_steps, cfg.effective_diag_stride
    if init.grid != grid:
        raise SolverError("initial state grid does not match config grid")
    n_paths = 1 if table is None else table.shape[1]
    spec, nl, level = cfg.jump_spec, cfg.nonlinearity, cfg.cutoff_level
    pairing = kind == "skeleton" and table is not None  # the skeleton's drift pairing <drift, u>
    factor = np.exp(-half_tables(grid.n)[2] * dt)
    threshold = _BLOWUP_THRESHOLD

    # C-contiguous copies, so each path's reductions run over one memory layout in any batch
    u = np.repeat(init.u_hat[None], n_paths, axis=0)
    theta = np.repeat(init.theta_hat[None], n_paths, axis=0)
    xi = np.zeros(u.shape, dtype=complex)
    zero = np.zeros_like(init.u_hat)
    paths = np.arange(n_paths)  # path index of each batch row
    norms = _state_norms(u, theta)
    row_steps = list(range(0, n_steps, diag_stride)) + [n_steps]
    n_rows = len(row_steps)
    rows = np.zeros((len(_ROW_FIELDS), n_rows, n_paths))  # fields x rows x paths
    rows[0] = np.array([k * dt for k in row_steps])[:, None]
    xi_rows = rows.copy()
    rows_kept = np.full(n_paths, n_rows)
    snaps = [[] for _ in range(n_paths)]
    xi_snaps = [[] for _ in range(n_paths)]

    def record(r: int, forcing, f_hat):
        rows[1:5, r, paths] = norms
        if cfg.energy_diagnostics:
            rows[5:7, r, paths] = _energy_row(theta, norms[1], norms[3], grid, nl, f_hat)
        if pairing:
            rows[7, r, paths] = half_inner(forcing, u) / dt
        if xi_table is not None:
            xi_rows[1:3, r, paths] = np.sqrt(np.stack(half_norms_sq(xi)))

    def snapshot(k: int):
        if on_snapshot is not None:
            on_snapshot(k, paths, u, theta)
        if keep_snapshots or k == n_steps:
            for i, p in enumerate(paths.tolist()):
                snaps[p].append(SpectralState._wrap(grid, u[i], theta[i], k * dt))
                if xi_table is not None:
                    xi_snaps[p].append(SpectralState._wrap(grid, xi[i], zero, k * dt))

    # a path that overflows is caught by the blow-up guard below, so its overflow and NaN go unreported
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            row_due = k % diag_stride == 0
            chi1 = chi2 = 1.0
            if level is not None:
                chi1, chi2 = cutoff_chi(norms[0], level), cutoff_chi(norms[2], level)
            nu, ntheta, f_hat = explicit_rhs(
                u, theta, grid, chi1, chi2, nl, with_f=row_due and cfg.energy_diagnostics
            )
            forcing = 0.0 if table is None else _mark_sum(table[k], spec, u)
            if row_due:
                record(k // diag_stride, forcing, f_hat)
            snapshot(k)

            if xi_table is not None:
                xi = factor * (xi + _mark_sum(xi_table[k], spec, u))
            u = factor * (u + dt * nu + forcing)
            theta = factor * (theta + dt * ntheta)

            norms = _state_norms(u, theta)
            # NaN and infinite norms fail the comparisons
            ok = (norms[0] <= threshold) & (np.sqrt(norms[2] ** 2 + norms[3] ** 2) <= threshold)
            if not ok.all():
                rows_kept[paths[~ok]] = k // diag_stride + 1
                paths, u, theta, xi, norms = paths[ok], u[ok], theta[ok], xi[ok], norms[:, ok]
                table, xi_table = (c if c is None else c[:, ok] for c in (table, xi_table))
                if not paths.size:
                    break

    if paths.size:
        f_hat = None
        if cfg.energy_diagnostics and nl is not None:
            f_hat = explicit_rhs(u, theta, grid, nl=nl, with_f=True)[2]
        record(n_rows - 1, _mark_sum(table[n_steps], spec, u) if pairing else None, f_hat)
        snapshot(n_steps)

    status = ["ok" if kept == n_rows else "diverged" for kept in rows_kept.tolist()]
    main = [
        _trajectory(kind, cfg, status[p], rows[:, : rows_kept[p], p], snaps[p])
        for p in range(n_paths)
    ]
    if xi_table is not None:
        return main, [
            _trajectory("convolution", cfg, status[p], xi_rows[:, : rows_kept[p], p], xi_snaps[p])
            for p in range(n_paths)
        ]
    return main


# ---------------------------------------------------------------------------
# public solvers (each calls only private helpers: one solver call, one run)


def solve_skeleton(
    init: SpectralState, g: Control | None, cfg: SolverConfig, keep_snapshots: bool = True
) -> Trajectory:
    """Deterministic controlled flow; g = None means the unit (zero-cost) tilt.

    ``keep_snapshots=False`` keeps only the final state.
    """
    table = None if g is None else _skeleton_table(cfg.tilt(g), cfg)[1]
    return _run(init, cfg, "skeleton", table, keep_snapshots=keep_snapshots)[0]


def solve_path_batch(
    init: SpectralState,
    epsilon: float,
    jumps: Sequence[JumpSample],
    cfg: SolverConfig,
    convolution_phi: Control | None = None,
    on_snapshot: Callable | None = None,
) -> list[Trajectory]:
    """Jump-driven paths from one state, one per sample in ``jumps``, stepped as one batch.

    Path k replays ``jumps[k]`` (see :func:`draw_jumps`), equals its one-path
    run bit for bit and keeps only its final snapshot.  With
    ``convolution_phi`` (the compensator tilt) the paths' jump convolutions
    are returned instead: velocity slot the convolution, director slot zero;
    the paths, which are then discarded, are stepped without energy rows.
    ``on_snapshot(j, paths, u_hat, theta_hat)`` sees the snapshot of every
    step of the paths still running, for statistics that would otherwise
    need all snapshots kept.
    """
    tables = _jump_table(epsilon, jumps, cfg, convolution_phi)
    if convolution_phi is not None:
        cfg = replace(cfg, energy_diagnostics=False)
    out = _run(init, cfg, "sde", *tables, keep_snapshots=False, on_snapshot=on_snapshot)
    return out if convolution_phi is None else out[1]


# ---------------------------------------------------------------------------
# adjoint of the skeleton step


def skeleton_adjoint(
    traj: Trajectory,
    control: Control | None,
    cfg: SolverConfig,
    lam_u: np.ndarray,
    lam_theta: np.ndarray,
):
    """Backward sweep of the skeleton's IMEX-Euler step: (dJ/dg, lam_u(0), lam_theta(0)).

    ``traj`` is ``solve_skeleton(init, control, cfg)`` with its snapshots
    kept: its n_steps + 1 snapshots are the tape, ``cfg.tilt(control)`` its
    tilt.  (lam_u, lam_theta) is the gradient of a function J of the final state in the Parseval
    inner product of ``half_inner``.  The forward step is
    u <- F (u + dt nu + sum_i c_i (shape_i + gain_i u)) with the forcing
    row c_k of ``_skeleton_table``, the table ``_run`` steps with; from the
    last step to the first the sweep applies its transpose,

        mu = F lam_{k+1},   lam_k = mu + dt (D rhs_k)^T mu + (c_k . gain) mu_u,

    with F = exp(-|k|^2 dt) (self-adjoint) and ``explicit_rhs_transpose``
    for (D rhs_k)^T (plus the chain rule through the norm cutoffs when
    ``cutoff_level`` is set).  c_k = dt w (g - 1) is affine in the tilt of
    step k's cell, so dJ/dg_{c,i} = sum over the steps k of cell c of
    dt w_i <F lam_{k+1}, shape_i + gain_i u_k>: one sweep gives the
    (cells, marks) gradient, whatever its size.  The returned lam at step 0
    is the gradient with respect to the initial state.
    """
    grid, dt, n_steps, nl, level = cfg.grid, cfg.dt, cfg.n_steps, cfg.nonlinearity, cfg.cutoff_level
    control, snaps, ms, spec = cfg.tilt(control), traj.snapshots, cfg.mark_space, cfg.jump_spec
    if traj.kind != "skeleton" or traj.diverged or len(snaps) != n_steps + 1:
        raise SolverError("the adjoint sweep needs a finished skeleton run with a snapshot per step")
    weights, gains, shapes = ms.weight_array(), np.asarray(spec.gains, dtype=float), spec.shapes
    cells, table = _skeleton_table(control, cfg)
    factor = np.exp(-half_tables(grid.n)[2] * dt)
    grad = np.zeros(control.values.shape)
    for k in range(n_steps - 1, -1, -1):
        u, theta = snaps[k].u_hat, snaps[k].theta_hat
        mu_u, mu_theta = factor * lam_u, factor * lam_theta
        chi1 = chi2 = 1.0
        if level is not None:
            u_l2, _, theta_l2, _ = _state_norms(u, theta)
            chi1, chi2 = cutoff_chi(u_l2, level), cutoff_chi(theta_l2, level)
        a_u, a_theta, dchi = explicit_rhs_transpose(
            u, theta, mu_u, mu_theta, grid, chi1, chi2, nl, with_chi=level is not None
        )
        c = cells[k]
        grad[c] += dt * weights * (half_inner(shapes, mu_u) + gains * half_inner(mu_u, u))
        lam_u = mu_u + dt * a_u + (table[k, 0] @ gains) * mu_u
        lam_theta = mu_theta + dt * a_theta
        if level is not None:  # chi1 = chi(|u|), chi2 = chi(|theta|), d|v| = <v, dv> / |v|
            slope_u, slope_theta = _cutoff_slope(u_l2, level), _cutoff_slope(theta_l2, level)
            if slope_u:
                lam_u = lam_u + (dt * dchi[0] * slope_u / u_l2) * u
            if slope_theta:
                lam_theta = lam_theta + (dt * dchi[1] * slope_theta / theta_l2) * theta
    return grad, lam_u, lam_theta


# ---------------------------------------------------------------------------
# projections, ledgers, bounds


def galerkin_project(state: SpectralState, n_modes: int) -> SpectralState:
    """Zero every coefficient outside the band |k_j| <= n_modes/2 - 1.

    That is the band of an n_modes grid with its Nyquist lines zero, the
    convention of every state; orthogonal projection, so no norm increases.
    """
    grid = state.grid
    if not 2 <= n_modes <= grid.n or n_modes % 2 != 0:
        raise SolverError(f"n_modes must be even, >= 2 and at most the grid resolution, got {n_modes}")
    k1, k2 = half_tables(grid.n)[:2]
    half = n_modes // 2
    mask = (np.abs(k1) <= half - 1) & (k2 <= half - 1)
    return SpectralState(
        grid, np.where(mask, state.u_hat, 0.0), np.where(mask, state.theta_hat, 0.0), state.time
    )


def energy_ledger(traj: Trajectory) -> dict:
    """Largest per-step balance residual of a skeleton trajectory, and its rate.

    residual_k = [psi + |u|^2/2]_{k+1} - [psi + |u|^2/2]_k
                 + dt * dissipation_k - dt * <drift, u>_k,
    left-endpoint quadrature; requires per-step diagnostics.  ``max_abs``
    is max_k |residual_k|; ``max_rate`` divides it by dt (the defect of the
    instantaneous balance, in units of power), the quantity with
    first-order decay under time-step refinement.
    """
    if traj.kind != "skeleton":
        raise SolverError("energy ledger applies to skeleton trajectories")
    if len(traj.times) > 1 and not np.allclose(np.diff(traj.times), traj.dt, atol=1e-12):
        raise SolverError("energy ledger needs diagnostics at every step")
    residuals = traj.energy_residual[:-1] if len(traj.times) > 1 else traj.energy_residual
    max_abs = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    return {"max_abs": max_abs, "max_rate": max_abs / traj.dt}


def apriori_bound(init: SpectralState, g: Control | None, cfg: SolverConfig) -> float:
    """Closed-form energy ceiling [E0 + C] T exp(C T) from the control cost.

    C integrates the linear-growth norm of the jump coefficient against
    |g - 1| over time and marks; E0 is the initial scalar energy.
    """
    u_l2, _, _, theta_h1 = _state_norms(init.u_hat, init.theta_hat)
    e0 = _psi(init.theta_hat, theta_h1, init.grid, cfg.nonlinearity) + u_l2**2
    c = 0.0 if g is None else apriori_control_constant(cfg.tilt(g), cfg.mark_space, cfg.jump_spec)
    t = cfg.t_final
    return (e0 + c) * t * float(np.exp(c * t))


def trajectory_sup_energy(traj: Trajectory) -> float:
    """sup over diagnostics of psi + |u|^2 (the quantity the ceiling bounds)."""
    return float(np.max(traj.psi + traj.u_l2**2))


# ---------------------------------------------------------------------------
# trajectory comparisons


def state_distances(u_hat: np.ndarray, theta_hat: np.ndarray, ref: SpectralState):
    """|u - u_ref|_{L2} + H1 distance of the directors, per path of a (..., 2, N, N//2+1) batch."""
    du_l2sq, _ = half_norms_sq(u_hat - ref.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(theta_hat - ref.theta_hat)
    return np.sqrt(du_l2sq) + np.sqrt(dth_l2sq + dth_h1sq)


def state_distance_sq_split(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|^2 + ||theta_a - theta_b||^2_{H1} (squared-sum form)."""
    du_l2sq, _ = half_norms_sq(a.u_hat - b.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(a.theta_hat - b.theta_hat)
    return float(du_l2sq + (dth_l2sq + dth_h1sq))


def sup_state_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """sup over matching snapshots of :func:`state_distances`."""
    if len(traj_a.snapshots) != len(traj_b.snapshots):
        raise SolverError("trajectories carry different snapshot counts")
    if not np.allclose(traj_a.snapshot_times, traj_b.snapshot_times, atol=1e-12):
        raise SolverError("snapshot times differ")
    return max(float(state_distances(a.u_hat, a.theta_hat, b)) for a, b in zip(traj_a.snapshots, traj_b.snapshots))
