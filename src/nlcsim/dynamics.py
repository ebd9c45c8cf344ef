"""Time integration of the coupled velocity/director system.

One first-order IMEX scheme drives everything: the linear (Stokes and
director Laplacian) parts are integrated exactly per Fourier mode with the
factor exp(-|k|^2 dt), while convection, director stress, the polynomial
relaxation, control drift, and jump increments enter explicitly.

The solver state is array-native: a ``SpectralState`` holds u and theta
as (2, N, N//2+1) rfft coefficient arrays (the half layout of
``spectral``) with zero Nyquist lines, checked when the state is built, so
the divergence form of convection is exact on the grid.

``_run`` is the one stepping loop: the skeleton flow, the small-noise jump
SDE, and the auxiliary jump convolution all pass through it, so zeroing
the noise makes the SDE agree with the skeleton bit for bit.  It steps a
batch of paths along a leading path axis, (P, 2, N, N//2+1): each step
makes one batched inverse and one batched forward transform call for the
whole batch (``operators.explicit_rhs``).  The control drift and the
compensated jumps are each one affine mark sum
sum_i c_i shape_i + (sum_i c_i gain_i) u, with per-step coefficients that
are shared (the drift) or per path (the jumps, from a per-path
steps x marks count matrix); the convolution increment reuses the jump
sum and adds one shared-row sum.  The norms computed for the blow-up check
serve the next diagnostic row and the per-path cutoffs.  No operation
mixes paths, so path k of a batch equals its one-path run bit for bit; a
path that diverges is dropped from the batch and the rest continue.

The public ``solve_*`` functions are one-path calls of ``_run`` and call
no other public solver; ``solve_path_batch`` runs many jump-driven paths
at once for the Monte Carlo studies, keeping per path only its diagnostic
rows and final state (an ``on_snapshot`` hook sees the others as they
pass).  ``draw_jumps`` is the one draw of a seed's jump configuration.
``skeleton_adjoint`` is the backward sweep of the skeleton step, run on
the snapshots of one skeleton solve: it gives the gradient of a function
of the final state in every tilt value and in the initial state.

Jumps realized in [t, t + dt) are aggregated at the step boundary using
the pre-step left limit of the velocity.  Every update leaves the velocity
spectrally divergence-free with a zero mean mode.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# The loop calls none of eval_G, compensator_integral, control_drift, energy_psi and
# the field operators below (they are the field-level reference of its array code);
# bench/tracer.py wraps them under these module attributes, so they stay importable here.
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
    full_from_half,
    half_inner,
    half_norms_sq,
    half_tables,
    nyquist_free,
    pad_half,
)


class SolverError(ValueError):
    """Invalid solver configuration or state."""


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


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and model parameters shared by all solvers.

    ``cutoff_level`` enables the smooth norm cutoffs on the convection,
    stress, and advection terms (disabled when None, the default: the
    cutoffs exist to globalize local solutions and must not alter
    trajectories whose norms stay below the level).  ``diag_stride``
    defaults to every step for horizons up to 2, every 10th otherwise.
    ``energy_diagnostics=False`` skips the energy and dissipation columns
    (recorded as zero) -- Monte Carlo paths that only need norms use it.
    """

    grid: TorusGrid
    dt: float
    t_final: float
    nonlinearity: PolynomialNonlinearity | None = DEFAULT_NONLINEARITY
    mark_space: MarkSpace | None = None
    jump_spec: JumpCoefficientSpec | None = None
    cutoff_level: float | None = None
    snapshot_stride: int = 1
    diag_stride: int | None = None
    freeze_velocity: bool = False
    blowup_threshold: float = 1.0e6
    energy_diagnostics: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise SolverError("dt and t_final must be positive")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise SolverError(f"t_final/dt = {steps} is not integral within rounding")
        if self.snapshot_stride < 1:
            raise SolverError("snapshot_stride must be >= 1")
        if (self.mark_space is None) != (self.jump_spec is None):
            raise SolverError("mark_space and jump_spec must be provided together")
        if self.jump_spec is not None and self.jump_spec.size != self.mark_space.size:
            raise SolverError("jump spec size does not match mark space")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def effective_diag_stride(self) -> int:
        if self.diag_stride is not None:
            return self.diag_stride
        return 1 if self.t_final <= 2.0 else 10


DIAG_COLUMNS = ("t", "u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation", "energy_residual")


@dataclass
class Trajectory:
    """Diagnostics time series plus strided state snapshots.

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
    snapshot_times: np.ndarray
    snapshots: list[SpectralState] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def final_state(self) -> SpectralState:
        return self.snapshots[-1]

    def to_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        buf = io.StringIO()
        for line in header_lines:
            buf.write(f"# {line}\n")
        buf.write(",".join(DIAG_COLUMNS) + "\n")
        cols = [self.times] + [getattr(self, name) for name in DIAG_COLUMNS[1:]]
        for row in zip(*cols):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# cutoffs


def cutoff_chi(norm_value: float, level: float) -> float:
    """C^1 smoothstep cutoff: 1 up to the level, 0 beyond level + 1."""
    if level < 1:
        raise SolverError("cutoff level must be >= 1")
    if norm_value <= level:
        return 1.0
    if norm_value > level + 1.0:
        return 0.0
    s = norm_value - level
    return 1.0 - 3.0 * s**2 + 2.0 * s**3


def _cutoff_slope(norm_value: float, level: float) -> float:
    """Derivative of :func:`cutoff_chi` in the norm (zero outside (level, level + 1])."""
    s = norm_value - level
    return 6.0 * s * (s - 1.0) if 0.0 < s <= 1.0 else 0.0


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
    if epsilon <= 0:
        raise SolverError("epsilon must be positive")
    if cfg.mark_space is None:
        raise SolverError("config carries no mark space / jump spec")


def draw_jumps(epsilon: float, phi: Control | None, cfg: SolverConfig, seed: int):
    """(tilt, jumps): the seed's configuration at intensity (1/epsilon) phi theta.

    The one draw behind :func:`solve_small_noise_sde` and
    :func:`solve_stochastic_convolution`; ``phi=None`` is the unit tilt.
    """
    _require_noise(epsilon, cfg)
    if phi is None:
        phi = Control.unit(cfg.t_final, 1, cfg.mark_space.size)
    rng = rng_for(seed, "sde-jumps")
    return phi, thin_to_control(cfg.mark_space, cfg.t_final, phi, 1.0 / epsilon, rng)


def _jump_counts(jumps, cfg: SolverConfig) -> np.ndarray:
    """(steps, paths, marks) jump counts: a jump in [t, t + dt) counts at the step at t."""
    ms, dt, n_steps = cfg.mark_space, cfg.dt, cfg.n_steps
    counts = np.zeros((n_steps, len(jumps), ms.size))
    for p, sample in enumerate(jumps):
        if sample.size and not (0 <= sample.marks.min() and sample.marks.max() < ms.size):
            raise NoiseError(f"unknown mark index in jumps (mark space has {ms.size} marks)")
        step_of = np.minimum((sample.times / dt).astype(int), n_steps - 1)
        np.add.at(counts[:, p], (step_of, sample.marks), 1.0)
    return counts


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
    return Trajectory(
        kind, cfg.dt, status, energy_residual=residual,
        snapshot_times=np.array([s.time for s in snaps]), snapshots=snaps, **cols,
    )


def _step_cells(control: Control, dt: float, n_rows: int) -> np.ndarray:
    """The control cell of t = k dt for k = 0 .. n_rows - 1 (its rows are the tilt of step k)."""
    return np.array([control.cell_of(k * dt) for k in range(n_rows)])


def _run(
    init: SpectralState,
    cfg: SolverConfig,
    control: Control | None = None,
    epsilon: float | None = None,
    jumps: Sequence[JumpSample] = (),
    track_convolution: bool = False,
    keep_snapshots: bool = True,
    on_snapshot: Callable | None = None,
):
    """IMEX-Euler loop shared by every solver, over a leading path axis.

    Without ``epsilon`` one path runs the skeleton flow and the control
    enters through its deterministic drift.  With it, one path per sample
    in ``jumps`` runs the jump SDE from ``init``: the velocity receives the
    aggregated jump increments minus the unit compensator (the control tilt
    is then carried by the realized jumps, and only sets the convolution's
    compensator).  Each of these is the affine mark sum
    sum_i c_i G(u, v_i) at the pre-step velocity, with per-step
    coefficients w (g - 1) (skeleton drift, shared by the paths) and
    eps n - dt w (compensated jumps, n the step's jump count per path and
    mark).  The convolution's coefficients eps n - dt w phi are the jumps'
    plus the shared row dt w (1 - phi), so its increment reuses the jump sum.

    The state of P paths is (P, 2, N, N//2+1): each step makes one inverse
    and one forward transform call for the whole batch, and the norms,
    cutoffs and mark-sum coefficients are vectors over P.  No operation
    mixes paths, so path k of a batch equals a one-path run of it bit for
    bit.  A path that fails the blow-up guard is reported diverged and
    dropped from the batch; the others continue.

    Returns one Trajectory per path, plus one convolution Trajectory per
    path with ``track_convolution``.  ``keep_snapshots=False`` keeps only
    the final snapshot of each path that did not diverge;
    ``on_snapshot(j, paths, u_hat, theta_hat)`` sees the j-th strided
    snapshot of the paths still in the batch (``paths`` their indices).
    """
    grid, dt, n_steps, diag_stride = cfg.grid, cfg.dt, cfg.n_steps, cfg.effective_diag_stride
    if init.grid != grid:
        raise SolverError("initial state grid does not match config grid")
    stochastic = epsilon is not None
    if stochastic:
        _require_noise(epsilon, cfg)
    n_paths = len(jumps) if stochastic else 1
    ms, spec, nl, level = cfg.mark_space, cfg.jump_spec, cfg.nonlinearity, cfg.cutoff_level
    drifted = control is not None and ms is not None and not stochastic
    if ms is not None:
        weights = ms.weight_array()
        # real views of the complex coefficients: a real coefficient scales both parts
        shapes = spec.shapes.view(float)
        flat_shapes = shapes.reshape(ms.size, -1)
        gains = np.asarray(spec.gains, dtype=float)

        def mark_sum(c: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
            """sum_i c_i shape_i + (sum_i c_i gain_i) u for a shared row c or per-path rows."""
            u_real = u_hat.view(float)
            if c.ndim == 1:
                acc = (c @ flat_shapes).reshape(shapes.shape[1:]) + float(c @ gains) * u_real
                return acc.view(complex)
            # mark by mark, so no path's sum depends on the batch it sits in
            acc, gain = c[:, 0, None, None, None] * shapes[0], c[:, 0] * gains[0]
            for i in range(1, ms.size):
                acc += c[:, i, None, None, None] * shapes[i]
                gain = gain + c[:, i] * gains[i]
            acc += gain[:, None, None, None] * u_real
            return acc.view(complex)

    if drifted:
        drift_coeffs = weights * (control.values[_step_cells(control, dt, n_steps + 1)] - 1.0)
    if stochastic:
        jump_coeffs = epsilon * _jump_counts(jumps, cfg) - dt * weights
        if track_convolution:
            # the convolution's coefficients eps n - dt w phi are the jumps' plus this shared row
            xi_shift = dt * weights * (1.0 - control.values[_step_cells(control, dt, n_steps)])
    factor = np.exp(-half_tables(grid.n)[2] * dt)
    threshold = cfg.blowup_threshold

    # C-contiguous copies, so each path's reductions run over one memory layout in any batch
    u = np.repeat(init.u_hat[None], n_paths, axis=0)
    theta = np.repeat(init.theta_hat[None], n_paths, axis=0)
    xi = np.zeros(u.shape, dtype=complex)
    zero = np.zeros_like(init.u_hat)
    paths = np.arange(n_paths)  # path index of each batch row
    sel = slice(None)  # batch rows in the row tables: all of them until a path diverges
    norms = _state_norms(u, theta)
    row_steps = list(range(0, n_steps, diag_stride)) + [n_steps]
    n_rows = len(row_steps)
    rows = np.zeros((len(_ROW_FIELDS), n_rows, n_paths))  # fields x rows x paths
    rows[0] = np.array([k * dt for k in row_steps])[:, None]
    xi_rows = rows.copy()
    rows_kept = np.full(n_paths, n_rows)
    snaps = [[] for _ in range(n_paths)]
    xi_snaps = [[] for _ in range(n_paths)]
    n_snaps = 0

    def record(r: int, drift, f_hat):
        rows[1:5, r, sel] = norms
        if cfg.energy_diagnostics:
            rows[5:7, r, sel] = _energy_row(theta, norms[1], norms[3], grid, nl, f_hat)
        if drift is not None:
            rows[7, r, sel] = half_inner(drift, u)
        if track_convolution:
            xi_rows[1:3, r, sel] = np.sqrt(np.stack(half_norms_sq(xi)))

    def snapshot(t: float, final: bool = False):
        nonlocal n_snaps
        if on_snapshot is not None:
            on_snapshot(n_snaps, paths, u, theta)
        n_snaps += 1
        if keep_snapshots or final:
            for i, p in enumerate(paths.tolist()):
                snaps[p].append(SpectralState(grid, u[i], theta[i], t))
                if track_convolution:
                    xi_snaps[p].append(SpectralState(grid, xi[i], zero, t))

    for k in range(n_steps):
        t = k * dt
        row_due = k % diag_stride == 0
        chi1 = chi2 = 1.0
        if level is not None:
            chi1 = np.array([cutoff_chi(x, level) for x in norms[0]])
            chi2 = np.array([cutoff_chi(x, level) for x in norms[2]])
        nu, ntheta, f_hat = explicit_rhs(
            u, theta, grid, chi1, chi2, nl, with_f=row_due and cfg.energy_diagnostics
        )
        drift = mark_sum(drift_coeffs[k], u) if drifted else None
        if row_due:
            record(k // diag_stride, drift, f_hat)
        if k % cfg.snapshot_stride == 0:
            snapshot(t)

        if drift is not None:
            nu = nu + drift
        if stochastic:
            jump = mark_sum(jump_coeffs[k], u)
        if track_convolution:
            xi = factor * (xi + jump + mark_sum(xi_shift[k], u))
        if not cfg.freeze_velocity:
            incr = u + dt * nu
            if stochastic:
                incr = incr + jump
            u = factor * incr
        theta = factor * (theta + dt * ntheta)

        norms = _state_norms(u, theta)
        # NaN and infinite norms fail the comparisons
        ok = (norms[0] <= threshold) & (np.sqrt(norms[2] ** 2 + norms[3] ** 2) <= threshold)
        if not ok.all():
            rows_kept[paths[~ok]] = k // diag_stride + 1
            paths, u, theta, xi, norms = paths[ok], u[ok], theta[ok], xi[ok], norms[:, ok]
            sel = paths
            if stochastic:
                jump_coeffs = jump_coeffs[:, ok]
            if not paths.size:
                break

    if paths.size:
        t_end = n_steps * dt
        f_hat = None
        if cfg.energy_diagnostics and nl is not None:
            f_hat = explicit_rhs(u, theta, grid, nl=nl, with_f=True)[2]
        drift = mark_sum(drift_coeffs[n_steps], u) if drifted else None
        record(n_rows - 1, drift, f_hat)
        snapshot(t_end, final=True)

    kind = "sde" if stochastic else "skeleton"
    status = ["ok" if kept == n_rows else "diverged" for kept in rows_kept.tolist()]
    main = [
        _trajectory(kind, cfg, status[p], rows[:, : rows_kept[p], p], snaps[p])
        for p in range(n_paths)
    ]
    if track_convolution:
        return main, [
            _trajectory("convolution", cfg, status[p], xi_rows[:, : rows_kept[p], p], xi_snaps[p])
            for p in range(n_paths)
        ]
    return main


# ---------------------------------------------------------------------------
# public solvers (each calls only private helpers: one solver call, one run)


def solve_skeleton(init: SpectralState, g: Control | None, cfg: SolverConfig) -> Trajectory:
    """Deterministic controlled flow; g = None means the unit (zero-cost) tilt."""
    return _run(init, cfg, control=g)[0]


def solve_small_noise_sde(
    init: SpectralState,
    epsilon: float,
    phi: Control | None,
    cfg: SolverConfig,
    seed: int,
) -> Trajectory:
    """Jump-driven system at noise size epsilon, intensity (1/epsilon) phi theta.

    Deterministic given the seed: the jump configuration is drawn once by
    thinning and replayed through the fixed-step loop.
    """
    _, jumps = draw_jumps(epsilon, phi, cfg, seed)
    return _run(init, cfg, epsilon=epsilon, jumps=[jumps])[0]


def solve_sde_with_jumps(
    init: SpectralState,
    epsilon: float,
    jumps: JumpSample,
    cfg: SolverConfig,
) -> Trajectory:
    """Jump-driven system on a caller-supplied point configuration.

    Used by importance sampling, where the jump configuration is coupled
    to the base configuration the tilt weight is computed from, and to
    replay a saved ``jumps.txt``.
    """
    return _run(init, cfg, epsilon=epsilon, jumps=[jumps])[0]


def solve_stochastic_convolution(
    init: SpectralState,
    epsilon: float,
    phi: Control | None,
    cfg: SolverConfig,
    seed: int,
) -> Trajectory:
    """Linear jump convolution driven by the concurrently solved SDE path.

    Shares the seed-derived jump configuration with
    :func:`solve_small_noise_sde`, freezing the velocity argument of the
    jump coefficient to that path; returns the convolution trajectory
    (velocity slot holds the convolution, director slot is zero).
    """
    phi, jumps = draw_jumps(epsilon, phi, cfg, seed)
    _, conv = _run(init, cfg, control=phi, epsilon=epsilon, jumps=[jumps], track_convolution=True)
    return conv[0]


def solve_path_batch(
    init: SpectralState,
    epsilon: float,
    jumps: Sequence[JumpSample],
    cfg: SolverConfig,
    convolution_phi: Control | None = None,
    on_snapshot: Callable | None = None,
) -> list[Trajectory]:
    """Jump-driven paths from one state, one per sample in ``jumps``, stepped as one batch.

    Path k equals ``solve_sde_with_jumps(init, epsilon, jumps[k], cfg)``
    bit for bit, except that it keeps only its final snapshot; with
    ``convolution_phi`` the convolution trajectories (compensator tilt
    ``convolution_phi``) are returned instead, as by
    :func:`solve_stochastic_convolution`.  ``on_snapshot(j, paths, u_hat,
    theta_hat)`` sees every strided snapshot of the paths still running,
    for statistics that would otherwise need all snapshots kept.
    """
    out = _run(
        init, cfg, control=convolution_phi, epsilon=epsilon, jumps=jumps,
        track_convolution=convolution_phi is not None, keep_snapshots=False,
        on_snapshot=on_snapshot,
    )
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

    ``traj`` is ``solve_skeleton(init, control, cfg)`` run with
    ``snapshot_stride=1``: its snapshots are the tape.  (lam_u, lam_theta)
    is the gradient of a function J of the final state in the Parseval
    inner product of ``half_inner``.  From the last step to the first the
    sweep applies the transposed linearized step,

        mu = F lam_{k+1},   lam_k = mu + dt (D rhs_k)^T mu + dt c_k mu_u,

    with F = exp(-|k|^2 dt) (self-adjoint), ``explicit_rhs_transpose`` for
    (D rhs_k)^T (plus the chain rule through the norm cutoffs when
    ``cutoff_level`` is set) and c_k = sum_i w_i (g_i - 1) gain_i the
    drift's gain.  The tilt enters the step affinely, so
    dJ/dg_{c,i} = sum over the steps k of cell c of
    dt w_i <F lam_{k+1}, shape_i + gain_i u_k>: one sweep gives the
    (cells, marks) gradient, whatever its size.  The returned lam at step 0
    is the gradient with respect to the initial state.
    """
    grid, dt, n_steps, nl, level = cfg.grid, cfg.dt, cfg.n_steps, cfg.nonlinearity, cfg.cutoff_level
    snaps, ms, spec = traj.snapshots, cfg.mark_space, cfg.jump_spec
    if ms is None:
        raise SolverError("config carries no mark space / jump spec")
    if traj.kind != "skeleton" or traj.diverged or len(snaps) != n_steps + 1:
        raise SolverError("the adjoint sweep needs a finished skeleton run with snapshot_stride 1")
    if control is None:
        control = Control.unit(cfg.t_final, 1, ms.size)
    weights, gains = ms.weight_array(), np.asarray(spec.gains, dtype=float)
    shapes = spec.shapes
    cells = _step_cells(control, dt, n_steps)
    drift_gain = (weights * (control.values - 1.0)) @ gains  # c_k, per cell
    factor = np.exp(-half_tables(grid.n)[2] * dt)
    frozen = cfg.freeze_velocity
    grad = np.zeros(control.values.shape)
    for k in range(n_steps - 1, -1, -1):
        u, theta = snaps[k].u_hat, snaps[k].theta_hat
        # a frozen velocity is carried over unchanged: no factor, no drift, no velocity equation
        mu_u = np.zeros_like(lam_u) if frozen else factor * lam_u
        mu_theta = factor * lam_theta
        chi1 = chi2 = 1.0
        if level is not None:
            u_l2, _, theta_l2, _ = _state_norms(u, theta)
            chi1, chi2 = cutoff_chi(u_l2, level), cutoff_chi(theta_l2, level)
        a_u, a_theta, dchi = explicit_rhs_transpose(
            u, theta, mu_u, mu_theta, grid, chi1, chi2, nl, with_chi=level is not None
        )
        if frozen:
            lam_u = lam_u + dt * a_u
        else:
            c = cells[k]
            grad[c] += dt * weights * (half_inner(shapes, mu_u) + gains * half_inner(mu_u, u))
            lam_u = mu_u + dt * (drift_gain[c] * mu_u + a_u)
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
    if n_modes > grid.n or n_modes % 2 != 0:
        raise SolverError("n_modes must be even and at most the grid resolution")
    k1, k2 = half_tables(grid.n)[:2]
    half = n_modes // 2
    mask = (np.abs(k1) <= half - 1) & (k2 <= half - 1)
    return SpectralState(
        grid, np.where(mask, state.u_hat, 0.0), np.where(mask, state.theta_hat, 0.0), state.time
    )


def energy_ledger(traj: Trajectory) -> dict:
    """Per-step balance residuals of a skeleton trajectory.

    residual_k = [psi + |u|^2/2]_{k+1} - [psi + |u|^2/2]_k
                 + dt * dissipation_k - dt * <drift, u>_k,
    left-endpoint quadrature; requires per-step diagnostics.  ``rates``
    divides by dt (the defect of the instantaneous balance, in units of
    power): that is the quantity with first-order decay under time-step
    refinement, and ``max_rate`` is the headline refinement metric.
    """
    if traj.kind != "skeleton":
        raise SolverError("energy ledger applies to skeleton trajectories")
    if len(traj.times) > 1 and not np.allclose(np.diff(traj.times), traj.dt, atol=1e-12):
        raise SolverError("energy ledger needs diagnostics at every step")
    residuals = traj.energy_residual[:-1] if len(traj.times) > 1 else traj.energy_residual
    max_abs = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    return {
        "residuals": residuals,
        "rates": residuals / traj.dt,
        "max_abs": max_abs,
        "max_rate": max_abs / traj.dt,
        "total_drift": float(np.sum(residuals)) if residuals.size else 0.0,
    }


def apriori_bound(init: SpectralState, g: Control | None, cfg: SolverConfig) -> float:
    """Closed-form energy ceiling [E0 + C] T exp(C T) from the control cost.

    C integrates the linear-growth norm of the jump coefficient against
    |g - 1| over time and marks; E0 is the initial scalar energy.
    """
    u_l2, _, _, theta_h1 = _state_norms(init.u_hat, init.theta_hat)
    e0 = _psi(init.theta_hat, theta_h1, init.grid, cfg.nonlinearity) + u_l2**2
    c = 0.0
    if g is not None and cfg.mark_space is not None:
        c = apriori_control_constant(g, cfg.mark_space, cfg.jump_spec)
    t = cfg.t_final
    return (e0 + c) * t * float(np.exp(c * t))


def trajectory_sup_energy(traj: Trajectory) -> float:
    """sup over diagnostics of psi + |u|^2 (the quantity the ceiling bounds)."""
    return float(np.max(traj.psi + traj.u_l2**2))


# ---------------------------------------------------------------------------
# trajectory comparisons


def state_distances(u_hat: np.ndarray, theta_hat: np.ndarray, ref: SpectralState):
    """:func:`state_distance` to ``ref`` of each path in a (..., 2, N, N//2+1) batch."""
    du_l2sq, _ = half_norms_sq(u_hat - ref.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(theta_hat - ref.theta_hat)
    return np.sqrt(du_l2sq) + np.sqrt(dth_l2sq + dth_h1sq)


def state_distance(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|_{L2} + H1 distance of the directors."""
    return float(state_distances(a.u_hat, a.theta_hat, b))


def state_distance_sq_split(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|^2 + ||theta_a - theta_b||^2_{H1} (squared-sum form)."""
    du_l2sq, _ = half_norms_sq(a.u_hat - b.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(a.theta_hat - b.theta_hat)
    return float(du_l2sq + (dth_l2sq + dth_h1sq))


def sup_state_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """sup over matching snapshots of the combined state distance."""
    if len(traj_a.snapshots) != len(traj_b.snapshots):
        raise SolverError("trajectories carry different snapshot counts")
    if not np.allclose(traj_a.snapshot_times, traj_b.snapshot_times, atol=1e-12):
        raise SolverError("snapshot times differ")
    return max(state_distance(x, y) for x, y in zip(traj_a.snapshots, traj_b.snapshots))


def embed_state(state: SpectralState, fine_grid: TorusGrid) -> SpectralState:
    """Exact embedding of a coarse-grid state into a finer grid."""
    if fine_grid.n < state.grid.n:
        raise SolverError("target grid must be at least as fine")
    m = fine_grid.n
    return SpectralState(fine_grid, pad_half(state.u_hat, m), pad_half(state.theta_hat, m), state.time)


# ---------------------------------------------------------------------------
# checkpoint serialization

_COMPONENTS = ("u1", "u2", "theta1", "theta2")


def state_to_text(state: SpectralState) -> str:
    """Flat text checkpoint: per component, lines of k1 k2 re im.

    Every nonzero coefficient of the full N x N spectrum is listed, in
    FFT (row-major) order.
    """
    n = state.grid.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    parts = [f"# modes={n} time={state.time:.17g}\n"]
    spectra = full_from_half(np.concatenate((state.u_hat, state.theta_hat)))
    for name, c in zip(_COMPONENTS, spectra):
        i, j = np.nonzero(c)
        z = c[i, j]
        rows = np.column_stack((k[i], k[j], z.real, z.imag))
        parts.append(f"# component {name}\n")
        parts.append("%d %d %.17g %.17g\n" * len(i) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def state_from_text(text: str) -> SpectralState:
    """The state of a :func:`state_to_text` checkpoint; malformed text raises SolverError.

    Coefficients with k2 < 0 are the conjugates of listed ones and are
    skipped; a wavenumber outside the band |k_j| <= N/2 - 1 is rejected.
    """
    modes = arrays = current = None
    time = 0.0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        try:
            if line.startswith("# modes="):
                head = dict(tok.split("=", 1) for tok in line[1:].split())
                modes, time = int(head["modes"]), float(head["time"])
                grid = TorusGrid(modes)
                arrays = np.zeros((4, modes, modes // 2 + 1), dtype=complex)
            elif line.startswith("# component"):
                name = line.split()[-1]
                if name not in _COMPONENTS:
                    raise SolverError(f"unknown component '{name}'")
                current = _COMPONENTS.index(name)
            elif line and not line.startswith("#"):
                if arrays is None:
                    raise SolverError("checkpoint is missing the modes header")
                if current is None:
                    raise SolverError("coefficient line before any component header")
                k1, k2, re, im = line.split()
                k1, k2, value = int(k1), int(k2), complex(float(re), float(im))
                if max(abs(k1), abs(k2)) > modes // 2 - 1:
                    raise SolverError(f"wavenumber ({k1}, {k2}) is outside the band of N={modes}")
                if k2 >= 0:
                    arrays[current, k1 % modes, k2] = value
        except (ValueError, KeyError) as exc:
            msg = exc.args[0] if isinstance(exc, SolverError) else f"cannot parse '{line}' ({exc})"
            raise SolverError(f"checkpoint line {lineno}: {msg}") from None
    if modes is None:
        raise SolverError("checkpoint is missing the modes header")
    return SpectralState(grid, arrays[:2], arrays[2:], time)
