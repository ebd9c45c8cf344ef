"""Time integration of the coupled velocity/director system.

One first-order IMEX scheme drives everything: the linear (Stokes and
director Laplacian) parts are integrated exactly per Fourier mode with the
factor exp(-|k|^2 dt), while convection, director stress, the polynomial
relaxation, control drift, and jump increments enter explicitly.

``_run`` is the one stepping loop: the skeleton flow, the small-noise jump
SDE, and the auxiliary jump convolution all pass through it, so zeroing
the noise makes the SDE agree with the skeleton bit for bit.  It evaluates
the control drift once per step and turns its diagnostic rows into columns
once, in ``_trajectory``.  ``_draw_jumps`` is the one draw of a seed's jump
configuration, and each public ``solve_*`` calls only these private
helpers, never another public solver.

Jumps realized in [t, t + dt) are aggregated at the step boundary using
the pre-step left limit of the velocity.  Every update leaves the velocity
spectrally divergence-free with a zero mean mode.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .noise import (
    Control,
    JumpCoefficientSpec,
    JumpSample,
    MarkSpace,
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
    polynomial_f,
)
from .spectral import (
    DivergenceFreeField,
    ScalarField,
    TorusGrid,
    VectorField,
    h1_seminorm,
    l2_inner,
    l2_norm,
    laplacian_vec,
    v_norm,
)


class SolverError(ValueError):
    """Invalid solver configuration or state."""


@dataclass(frozen=True)
class SpectralState:
    """Velocity/director pair at a fixed time."""

    u: DivergenceFreeField
    theta: VectorField
    time: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.theta.grid:
            raise SolverError("velocity and director must share a grid")
        if not (self.u.is_finite() and self.theta.is_finite()):
            raise SolverError("state contains non-finite coefficients")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid

    @classmethod
    def zero(cls, grid: TorusGrid, time: float = 0.0) -> "SpectralState":
        return cls(
            DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid)),
            VectorField.zeros(grid),
            time,
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


def _energy_row(u, theta, nl: PolynomialNonlinearity | None):
    """(psi_total, dissipation) with the nonlinearity optionally absent."""
    if nl is not None:
        rep = energy_psi(u, theta, nl)
        return rep.psi_total, rep.dissipation
    elastic = 0.5 * h1_seminorm(theta) ** 2
    dissipation = h1_seminorm(u) ** 2 + l2_norm(laplacian_vec(theta)) ** 2
    return elastic, dissipation


# ---------------------------------------------------------------------------
# the shared stepping core


def _apply_factor_vec(w: VectorField, factor: np.ndarray, divfree: bool) -> VectorField:
    c1 = ScalarField.from_coeffs(w.grid, factor * w.c1.coeffs)
    c2 = ScalarField.from_coeffs(w.grid, factor * w.c2.coeffs)
    return DivergenceFreeField(c1, c2) if divfree else VectorField(c1, c2)


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
    the deterministic drift of the skeleton flow.
    """
    grid, dt, diag_stride = cfg.grid, cfg.dt, cfg.effective_diag_stride
    if init.grid != grid:
        raise SolverError("initial state grid does not match config grid")
    stochastic = epsilon is not None
    if stochastic:
        _require_noise(epsilon, cfg)
        step_of = np.minimum((jumps.times / dt).astype(int), cfg.n_steps - 1)
        first_event = np.searchsorted(step_of, np.arange(cfg.n_steps + 1))
    ms, spec = cfg.mark_space, cfg.jump_spec
    drifted = control is not None and ms is not None and not stochastic
    factor = np.exp(-grid.ksq() * dt)

    u, theta = init.u, init.theta
    xi = DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid))
    rows, snaps, xi_rows, xi_snaps = [], [], [], []
    status = "ok"

    def record(t: float, drift):
        if cfg.energy_diagnostics:
            psi_val, diss_val = _energy_row(u, theta, cfg.nonlinearity)
        else:
            psi_val = diss_val = 0.0
        pairing = l2_inner(drift, u) if drift is not None else 0.0
        norms = (l2_norm(u), h1_seminorm(u), l2_norm(theta), h1_seminorm(theta))
        rows.append((t, *norms, psi_val, diss_val, pairing))
        if track_convolution:
            xi_rows.append((t, l2_norm(xi), h1_seminorm(xi), 0.0, 0.0, 0.0, 0.0, 0.0))

    def snapshot(t: float):
        snaps.append(SpectralState(u, theta, t))
        if track_convolution:
            xi_snaps.append(SpectralState(xi, VectorField.zeros(grid), t))

    for k in range(cfg.n_steps):
        t = k * dt
        drift = control_drift(t, u, control, ms, spec) if drifted else None
        if k % diag_stride == 0:
            record(t, drift)
        if k % cfg.snapshot_stride == 0:
            snapshot(t)

        nu, ntheta = _nonlinear_terms(u, theta, cfg)
        if drift is not None:
            nu = nu + drift

        jump_u = jump_xi = None
        if stochastic:
            comp = compensator_integral(t, u, ms, spec)
            jump_u = (-dt) * comp
            if track_convolution:
                # sum_i w_i phi_i G(u, v_i) = compensator + drift of the tilt phi
                jump_xi = (-dt) * (comp + control_drift(t, u, control, ms, spec))
            for j in range(first_event[k], first_event[k + 1]):
                g_field = epsilon * eval_G(float(jumps.times[j]), u, int(jumps.marks[j]), spec)
                jump_u = jump_u + g_field
                if track_convolution:
                    jump_xi = jump_xi + g_field

        if not cfg.freeze_velocity:
            incr = u + dt * nu
            if jump_u is not None:
                incr = incr + jump_u
            u = _apply_factor_vec(incr, factor, divfree=True)
        theta = _apply_factor_vec(theta + dt * ntheta, factor, divfree=False)
        if track_convolution:
            xi = _apply_factor_vec(xi + jump_xi, factor, divfree=True)

        if not (u.is_finite() and theta.is_finite()) or (
            l2_norm(u) > cfg.blowup_threshold or v_norm(theta) > cfg.blowup_threshold
        ):
            status = "diverged"
            break

    if status == "ok":
        t_end = cfg.n_steps * dt
        record(t_end, control_drift(t_end, u, control, ms, spec) if drifted else None)
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
    """Zero every coefficient outside the centered n_modes band.

    Keeps wavenumbers -n/2 <= k_j <= n/2 - 1 (the band of an n_modes grid);
    orthogonal projection, so no norm increases.
    """
    grid = state.grid
    if n_modes > grid.n or n_modes % 2 != 0:
        raise SolverError("n_modes must be even and at most the grid resolution")
    k1, k2 = grid.wavenumbers()
    half = n_modes // 2
    mask = (k1 >= -half) & (k1 <= half - 1) & (k2 >= -half) & (k2 <= half - 1)

    def proj(sf: ScalarField) -> ScalarField:
        return ScalarField.from_coeffs(grid, np.where(mask, sf.coeffs, 0.0))

    u = DivergenceFreeField(proj(state.u.c1), proj(state.u.c2))
    theta = VectorField(proj(state.theta.c1), proj(state.theta.c2))
    return SpectralState(u, theta, state.time)


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
    psi0, _ = _energy_row(init.u, init.theta, cfg.nonlinearity)
    e0 = psi0 + l2_norm(init.u) ** 2
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
    du = l2_norm(a.u - b.u)
    dth = v_norm(a.theta - b.theta)
    return du + dth


def state_distance_sq_split(a: SpectralState, b: SpectralState) -> float:
    """|u_a - u_b|^2 + ||theta_a - theta_b||^2_{H1} (squared-sum form)."""
    return l2_norm(a.u - b.u) ** 2 + v_norm(a.theta - b.theta) ** 2


def sup_state_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """sup over matching snapshots of the combined state distance."""
    if len(traj_a.snapshots) != len(traj_b.snapshots):
        raise SolverError("trajectories carry different snapshot counts")
    if not np.allclose(traj_a.snapshot_times, traj_b.snapshot_times, atol=1e-12):
        raise SolverError("snapshot times differ")
    return max(state_distance(x, y) for x, y in zip(traj_a.snapshots, traj_b.snapshots))


def embed_state(state: SpectralState, fine_grid: TorusGrid) -> SpectralState:
    """Exact embedding of a coarse-grid state into a finer grid."""
    from .spectral import pad_coeffs

    if fine_grid.n < state.grid.n:
        raise SolverError("target grid must be at least as fine")

    def up(sf: ScalarField) -> ScalarField:
        return ScalarField.from_coeffs(fine_grid, pad_coeffs(sf.coeffs, fine_grid.n))

    u = DivergenceFreeField(up(state.u.c1), up(state.u.c2))
    theta = VectorField(up(state.theta.c1), up(state.theta.c2))
    return SpectralState(u, theta, state.time)


# ---------------------------------------------------------------------------
# checkpoint serialization


def state_to_text(state: SpectralState) -> str:
    """Flat text checkpoint: per component, lines of k1 k2 re im."""
    buf = io.StringIO()
    grid = state.grid
    buf.write(f"# modes={grid.n} time={state.time:.17g}\n")
    k1g, k2g = grid.wavenumbers()
    comps = {
        "u1": state.u.c1,
        "u2": state.u.c2,
        "theta1": state.theta.c1,
        "theta2": state.theta.c2,
    }
    for name, comp in comps.items():
        buf.write(f"# component {name}\n")
        c = comp.coeffs
        for i in range(grid.n):
            for j in range(grid.n):
                z = c[i, j]
                if z != 0:
                    buf.write(f"{int(k1g[i, j])} {int(k2g[i, j])} {z.real:.17g} {z.imag:.17g}\n")
    return buf.getvalue()


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
            for name in ("u1", "u2", "theta1", "theta2"):
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
    u = DivergenceFreeField(
        ScalarField.from_coeffs(grid, arrays["u1"]), ScalarField.from_coeffs(grid, arrays["u2"])
    )
    theta = VectorField(
        ScalarField.from_coeffs(grid, arrays["theta1"]),
        ScalarField.from_coeffs(grid, arrays["theta2"]),
    )
    return SpectralState(u, theta, time)
