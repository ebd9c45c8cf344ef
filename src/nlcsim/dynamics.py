"""Time integration of the coupled velocity/director system.

One first-order IMEX scheme drives everything: the linear (Stokes and
director Laplacian) parts are integrated exactly per Fourier mode with the
factor exp(-|k|^2 dt), while convection, director stress, the polynomial
relaxation, control drift, and jump increments enter explicitly.

The solver state is array-native: a ``SpectralState`` holds u and theta
as (2, N, N//2+1) rfft coefficient arrays (the half layout of
``spectral``), with the Nyquist lines zeroed once, when the state is
built, so the divergence form of convection is exact on the grid.  Field
views (``state.u``, ``state.theta``) are built on demand for the
field-level reference operators and checks.

``_run`` is the one stepping loop: the skeleton flow, the small-noise jump
SDE, and the auxiliary jump convolution all pass through it, so zeroing
the noise makes the SDE agree with the skeleton bit for bit.  Each step
makes one batched inverse and one batched forward transform
(``operators.explicit_rhs``); the control drift, the compensated jumps
and the convolution increment are each one affine mark sum
sum_i c_i shape_i + (sum_i c_i gain_i) u over per-step coefficients, and
the norms computed for the blow-up check serve the next diagnostic row
and the cutoffs.  ``_trajectory`` turns the rows into columns once.
``_draw_jumps`` is the one draw of a seed's jump configuration, and each
public ``solve_*`` calls only these private helpers, never another public
solver.

Jumps realized in [t, t + dt) are aggregated at the step boundary using
the pre-step left limit of the velocity.  Every update leaves the velocity
spectrally divergence-free with a zero mean mode.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

# The loop calls none of eval_G, compensator_integral, control_drift and energy_psi
# (they are the field-level reference of its array code); bench/tracer.py wraps
# them under these module attributes, so they stay importable from here.
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
    polynomial_f,
    potential_energy_hat,
)
from .spectral import (
    DivergenceFreeField,
    ScalarField,
    TorusGrid,
    VectorField,
    full_from_half,
    half_from_full,
    half_inner,
    half_norms_sq,
    half_tables,
    l2_norm,
    pad_half,
)


class SolverError(ValueError):
    """Invalid solver configuration or state."""


def _field_coeffs(w: VectorField) -> np.ndarray:
    """(2, N, N//2+1) half-layout coefficients of a vector field, Nyquist lines zeroed."""
    return half_from_full(np.stack((w.c1.coeffs, w.c2.coeffs)))


class SpectralState:
    """Velocity/director pair at a fixed time, as half-layout coefficient arrays.

    ``SpectralState(u, theta, time)`` takes the two fields and stores
    ``u_hat`` and ``theta_hat``, (2, N, N//2+1) read-only rfft coefficient
    arrays with zero Nyquist lines.  ``u`` and ``theta`` are field views of
    those arrays, built on each access.
    """

    def __init__(self, u: VectorField, theta: VectorField, time: float = 0.0):
        if u.grid != theta.grid:
            raise SolverError("velocity and director must share a grid")
        u_hat, theta_hat = _field_coeffs(u), _field_coeffs(theta)
        if not (np.all(np.isfinite(u_hat)) and np.all(np.isfinite(theta_hat))):
            raise SolverError("state contains non-finite coefficients")
        self._set(u.grid, u_hat, theta_hat, time)

    def _set(self, grid: TorusGrid, u_hat: np.ndarray, theta_hat: np.ndarray, time: float):
        u_hat.setflags(write=False)
        theta_hat.setflags(write=False)
        self.grid, self.u_hat, self.theta_hat, self.time = grid, u_hat, theta_hat, time

    @classmethod
    def from_arrays(
        cls, grid: TorusGrid, u_hat: np.ndarray, theta_hat: np.ndarray, time: float = 0.0
    ) -> "SpectralState":
        """Wrap half-layout arrays that already meet the state's conventions (no copy)."""
        state = cls.__new__(cls)
        state._set(grid, u_hat, theta_hat, time)
        return state

    @classmethod
    def zero(cls, grid: TorusGrid, time: float = 0.0) -> "SpectralState":
        zeros = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
        return cls.from_arrays(grid, zeros, zeros, time)

    @property
    def u(self) -> DivergenceFreeField:
        c1, c2 = full_from_half(self.u_hat)
        return DivergenceFreeField(
            ScalarField.from_coeffs(self.grid, c1), ScalarField.from_coeffs(self.grid, c2)
        )

    @property
    def theta(self) -> VectorField:
        c1, c2 = full_from_half(self.theta_hat)
        return VectorField(
            ScalarField.from_coeffs(self.grid, c1), ScalarField.from_coeffs(self.grid, c2)
        )


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


# ---------------------------------------------------------------------------
# right-hand side


def _nonlinear_terms(u, theta, cfg: SolverConfig):
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


def _psi(theta_hat: np.ndarray, theta_h1: float, grid: TorusGrid, nl) -> float:
    """psi_total = |grad theta|^2 / 2 + potential, the scalar energy of the ledger."""
    elastic = 0.5 * theta_h1**2
    return elastic if nl is None else elastic + potential_energy_hat(theta_hat, grid, nl)


def _energy_row(theta_hat, u_h1: float, theta_h1: float, grid: TorusGrid, nl, f_hat):
    """(psi_total, dissipation) of ``energy_psi`` from arrays and the step's f(theta).

    ``f_hat`` is the f(theta) of ``explicit_rhs(..., with_f=True)`` at the
    same state (ignored when ``nl`` is None).
    """
    resid = -half_tables(grid.n)[2] * theta_hat
    if nl is not None:
        resid = resid - f_hat
    return _psi(theta_hat, theta_h1, grid, nl), u_h1**2 + half_norms_sq(resid)[0]


def _state_norms(u_hat: np.ndarray, theta_hat: np.ndarray) -> tuple[float, float, float, float]:
    """(|u|, |grad u|, |theta|, |grad theta|) in L2."""
    return tuple(np.sqrt([*half_norms_sq(u_hat), *half_norms_sq(theta_hat)]).tolist())


# ---------------------------------------------------------------------------
# the shared stepping core


def _require_noise(epsilon: float, cfg: SolverConfig):
    if epsilon <= 0:
        raise SolverError("epsilon must be positive")
    if cfg.mark_space is None:
        raise SolverError("config carries no mark space / jump spec")


def _draw_jumps(epsilon: float, phi: Control | None, cfg: SolverConfig, seed: int):
    """(tilt, jumps): the seed's configuration at intensity (1/epsilon) phi theta."""
    _require_noise(epsilon, cfg)
    if phi is None:
        phi = Control.unit(cfg.t_final, 1, cfg.mark_space.size)
    rng = rng_for(seed, "sde-jumps")
    return phi, thin_to_control(cfg.mark_space, cfg.t_final, phi, 1.0 / epsilon, rng)


# per-row diagnostics recorded by _run, in row-tuple order
_ROW_FIELDS = (
    "times", "u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation", "drift_pairing"
)


def _trajectory(kind: str, cfg: SolverConfig, status: str, rows: list, snaps: list) -> Trajectory:
    """Column arrays from the row tuples, plus the skeleton's balance residuals.

    Skeleton rows one step apart get E[k+1] - E[k] + dt D[k] - dt W[k],
    with E = psi + |u|^2/2, D the dissipation and W the drift pairing.
    """
    cols = dict(zip(_ROW_FIELDS, np.array(rows, dtype=float).T.copy()))
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


def _tilt_rows(control: Control, dt: float, n_rows: int) -> np.ndarray:
    """The control's mark row at t = k dt for k = 0 .. n_rows - 1."""
    return np.array([control.row(k * dt) for k in range(n_rows)])


def _run(
    init: SpectralState,
    cfg: SolverConfig,
    control: Control | None = None,
    epsilon: float | None = None,
    jumps: JumpSample | None = None,
    track_convolution: bool = False,
):
    """IMEX-Euler loop shared by the skeleton, SDE, and convolution solvers.

    With ``epsilon`` set, the velocity receives the aggregated jump
    increments minus the unit compensator (the control tilt is then carried
    by the realized jump intensity, not by an explicit drift, and only sets
    the convolution's compensator); without it, the control enters through
    the deterministic drift of the skeleton flow.  Each of these is the
    affine mark sum sum_i c_i G(u, v_i) at the pre-step velocity, with
    per-step coefficients w (g - 1) (skeleton drift), eps n - dt w
    (compensated jumps, n the step's jump count per mark) and
    eps n - dt w phi (convolution).
    """
    grid, dt, n_steps, diag_stride = cfg.grid, cfg.dt, cfg.n_steps, cfg.effective_diag_stride
    if init.grid != grid:
        raise SolverError("initial state grid does not match config grid")
    stochastic = epsilon is not None
    if stochastic:
        _require_noise(epsilon, cfg)
    ms, spec, nl = cfg.mark_space, cfg.jump_spec, cfg.nonlinearity
    drifted = control is not None and ms is not None and not stochastic
    if ms is not None:
        weights = ms.weight_array()
        shapes = np.stack([_field_coeffs(s) for s in spec.shapes]).reshape(ms.size, -1)
        gains = np.asarray(spec.gains, dtype=float)

        def mark_sum(c: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
            return (c @ shapes).reshape(u_hat.shape) + float(c @ gains) * u_hat

    if drifted:
        drift_coeffs = weights * (_tilt_rows(control, dt, n_steps + 1) - 1.0)
    if stochastic:
        if jumps.size and not (0 <= jumps.marks.min() and jumps.marks.max() < ms.size):
            raise NoiseError(f"unknown mark index in jumps (mark space has {ms.size} marks)")
        counts = np.zeros((n_steps, ms.size))
        step_of = np.minimum((jumps.times / dt).astype(int), n_steps - 1)
        np.add.at(counts, (step_of, jumps.marks), 1.0)
        jump_coeffs = epsilon * counts - dt * weights
        if track_convolution:
            xi_coeffs = epsilon * counts - dt * weights * _tilt_rows(control, dt, n_steps)
    factor = np.exp(-half_tables(grid.n)[2] * dt)
    threshold = cfg.blowup_threshold

    u, theta = init.u_hat, init.theta_hat
    xi = zero = np.zeros_like(u)
    norms = _state_norms(u, theta)
    rows, snaps, xi_rows, xi_snaps = [], [], [], []
    status = "ok"

    def record(t: float, drift, f_hat):
        psi_val = diss_val = 0.0
        if cfg.energy_diagnostics:
            psi_val, diss_val = _energy_row(theta, norms[1], norms[3], grid, nl, f_hat)
        pairing = half_inner(drift, u) if drift is not None else 0.0
        rows.append((t, *norms, psi_val, diss_val, pairing))
        if track_convolution:
            xi_norms = np.sqrt(half_norms_sq(xi))
            xi_rows.append((t, *xi_norms, 0.0, 0.0, 0.0, 0.0, 0.0))

    def snapshot(t: float):
        snaps.append(SpectralState.from_arrays(grid, u, theta, t))
        if track_convolution:
            xi_snaps.append(SpectralState.from_arrays(grid, xi, zero, t))

    for k in range(n_steps):
        t = k * dt
        row_due = k % diag_stride == 0
        chi1 = chi2 = 1.0
        if cfg.cutoff_level is not None:
            chi1 = cutoff_chi(norms[0], cfg.cutoff_level)
            chi2 = cutoff_chi(norms[2], cfg.cutoff_level)
        nu, ntheta, f_hat = explicit_rhs(
            u, theta, grid, chi1, chi2, nl, with_f=row_due and cfg.energy_diagnostics
        )
        drift = mark_sum(drift_coeffs[k], u) if drifted else None
        if row_due:
            record(t, drift, f_hat)
        if k % cfg.snapshot_stride == 0:
            snapshot(t)

        if drift is not None:
            nu = nu + drift
        if track_convolution:
            xi = factor * (xi + mark_sum(xi_coeffs[k], u))
        if not cfg.freeze_velocity:
            incr = u + dt * nu
            if stochastic:
                incr = incr + mark_sum(jump_coeffs[k], u)
            u = factor * incr
        theta = factor * (theta + dt * ntheta)

        norms = _state_norms(u, theta)
        v_theta = float(np.sqrt(norms[2] ** 2 + norms[3] ** 2))
        # NaN fails both comparisons; infinite norms fail the isfinite test
        if not (norms[0] <= threshold and v_theta <= threshold and np.isfinite(norms[0] + v_theta)):
            status = "diverged"
            break

    if status == "ok":
        t_end = n_steps * dt
        f_hat = None
        if cfg.energy_diagnostics and nl is not None:
            f_hat = explicit_rhs(u, theta, grid, nl=nl, with_f=True)[2]
        record(t_end, mark_sum(drift_coeffs[n_steps], u) if drifted else None, f_hat)
        snapshot(t_end)

    main = _trajectory("sde" if stochastic else "skeleton", cfg, status, rows, snaps)
    if track_convolution:
        return main, _trajectory("convolution", cfg, status, xi_rows, xi_snaps)
    return main


# ---------------------------------------------------------------------------
# public solvers (each calls only private helpers: one solver call, one run)


def solve_skeleton(init: SpectralState, g: Control | None, cfg: SolverConfig) -> Trajectory:
    """Deterministic controlled flow; g = None means the unit (zero-cost) tilt."""
    return _run(init, cfg, control=g)


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
    _, jumps = _draw_jumps(epsilon, phi, cfg, seed)
    return _run(init, cfg, epsilon=epsilon, jumps=jumps)


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
    return _run(init, cfg, epsilon=epsilon, jumps=jumps)


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
    phi, jumps = _draw_jumps(epsilon, phi, cfg, seed)
    _, conv = _run(init, cfg, control=phi, epsilon=epsilon, jumps=jumps, track_convolution=True)
    return conv


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
    return SpectralState.from_arrays(
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


def state_distance(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|_{L2} + H1 distance of the directors."""
    du_l2sq, _ = half_norms_sq(a.u_hat - b.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(a.theta_hat - b.theta_hat)
    return float(np.sqrt(du_l2sq) + np.sqrt(dth_l2sq + dth_h1sq))


def state_distance_sq_split(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|^2 + ||theta_a - theta_b||^2_{H1} (squared-sum form)."""
    du_l2sq, _ = half_norms_sq(a.u_hat - b.u_hat)
    dth_l2sq, dth_h1sq = half_norms_sq(a.theta_hat - b.theta_hat)
    return du_l2sq + (dth_l2sq + dth_h1sq)


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
    return SpectralState.from_arrays(
        fine_grid, pad_half(state.u_hat, m), pad_half(state.theta_hat, m), state.time
    )


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
    modes = None
    time = 0.0
    arrays: dict[str, np.ndarray] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# modes="):
            parts = line.lstrip("# ").split()
            modes = int(parts[0].split("=")[1])
            time = float(parts[1].split("=")[1])
            for name in _COMPONENTS:
                arrays[name] = np.zeros((modes, modes), dtype=complex)
        elif line.startswith("# component"):
            current = line.split()[-1]
        elif line.startswith("#"):
            continue
        else:
            k1, k2, re, im = line.split()
            arrays[current][int(k1) % modes, int(k2) % modes] = float(re) + 1j * float(im)
    if modes is None:
        raise SolverError("checkpoint is missing the modes header")
    grid = TorusGrid(modes)
    fields = [ScalarField.from_coeffs(grid, arrays[name]) for name in _COMPONENTS]
    return SpectralState(DivergenceFreeField(*fields[:2]), VectorField(*fields[2:]), time)
