"""The array-native stepping core against its field-level reference.

``operators.explicit_rhs`` and the array loop in ``dynamics._run`` replace
per-component field arithmetic; the field operators (``nonlinear_terms``,
``energy_psi``, ``control_drift``, ``compensator_integral``, ``eval_G``)
stay as the oracle they are checked against here, at 1e-12 relative.
The FFT budget of a forward and of a backward (adjoint) step and the
checkpoint text format are pinned too.
"""

import io

import numpy as np
import pytest

from nlcsim.dynamics import (
    SolverConfig,
    SpectralState,
    _energy_row,
    _run,
    _state_norms,
    cutoff_chi,
    skeleton_adjoint,
    solve_sde_with_jumps,
    solve_skeleton,
    state_from_text,
    state_to_text,
)
from nlcsim.noise import (
    Control,
    JumpSample,
    MarkSpace,
    NoiseError,
    compensator_integral,
    control_drift,
    eval_G,
)
from nlcsim.operators import PolynomialNonlinearity, energy_psi, explicit_rhs, polynomial_f
from nlcsim.spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    h1_seminorm,
    l2_inner,
    l2_norm,
    laplacian_vec,
    leray_project,
    vector_field,
)

from oracle import (
    field_from_function,
    nonlinear_terms,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_of,
    theta_of,
    u_of,
    zero_state,
)

TOL = 1e-12
CUBIC = PolynomialNonlinearity((1.0, 0.5, 0.3, 0.2))

# the transforms bench/tracer.py counts
FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)


def random_state(grid, rng, u_amp=0.4, th_amp=0.6):
    kmax = grid.n // 2 - 1
    u = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=u_amp, decay=0.2)
    th = random_vector_field(grid, rng, kmax=kmax, amplitude=th_amp, decay=0.2)
    return state_of(u, th, 0.0)


def make_noise(grid):
    shapes = (
        0.05 * leray_project(
            VectorField(field_from_function(grid, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid))
        ),
        0.04 * leray_project(
            VectorField(ScalarField.zeros(grid), field_from_function(grid, lambda x1, x2: np.cos(2 * x1)))
        ),
    )
    return MarkSpace(weights=(1.0, 0.5)), spec_of(shapes, (0.02, 0.1))


def rel_err(a, b):
    return l2_norm(a - b) / l2_norm(b)


# ---------------------------------------------------------------------------
# fused right-hand side


RHS_CASES = {
    "default": dict(),
    "cutoff-active": dict(cutoff_level=1.0),
    "no-relaxation": dict(nonlinearity=None),
    "cubic": dict(nonlinearity=CUBIC),
}


@pytest.mark.parametrize("n", (16, 32))
@pytest.mark.parametrize("case", sorted(RHS_CASES))
def test_explicit_rhs_matches_nonlinear_terms(n, case, rng):
    grid = TorusGrid(n)
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.1, **RHS_CASES[case])
    # with the cutoff at level 1, these L2 norms sit inside its transition band
    state = random_state(grid, rng, 1.4, 1.7) if case == "cutoff-active" else random_state(grid, rng)
    chi1 = chi2 = 1.0
    if cfg.cutoff_level is not None:
        chi1 = cutoff_chi(l2_norm(u_of(state)), cfg.cutoff_level)
        chi2 = cutoff_chi(l2_norm(theta_of(state)), cfg.cutoff_level)
        assert 0.0 < chi1 < 1.0 and 0.0 < chi2 < 1.0
    nu_ref, nth_ref = nonlinear_terms(u_of(state), theta_of(state), cfg)
    nu, nth, f_hat = explicit_rhs(
        state.u_hat, state.theta_hat, grid, chi1, chi2, cfg.nonlinearity, with_f=True
    )
    assert rel_err(vector_field(grid, nu), nu_ref) <= TOL
    assert rel_err(vector_field(grid, nth), nth_ref) <= TOL
    if cfg.nonlinearity is None:
        assert f_hat is None
    else:
        assert rel_err(vector_field(grid, f_hat), polynomial_f(theta_of(state), cfg.nonlinearity)) <= TOL


def test_with_f_leaves_the_step_unchanged(rng):
    grid = TorusGrid(16)
    state = random_state(grid, rng)
    plain = explicit_rhs(state.u_hat, state.theta_hat, grid)
    diag = explicit_rhs(state.u_hat, state.theta_hat, grid, with_f=True)
    assert plain[2] is None
    assert np.array_equal(plain[0], diag[0]) and np.array_equal(plain[1], diag[1])


# ---------------------------------------------------------------------------
# diagnostic row


@pytest.mark.parametrize("nl", (PolynomialNonlinearity((1.0, 1.0)), CUBIC, None))
def test_diagnostic_row_matches_energy_psi(nl, rng):
    grid = TorusGrid(32)
    state = random_state(grid, rng)
    u, theta = u_of(state), theta_of(state)
    norms = _state_norms(state.u_hat, state.theta_hat)
    expect = (l2_norm(u), h1_seminorm(u), l2_norm(theta), h1_seminorm(theta))
    assert norms == pytest.approx(expect, rel=TOL)
    f_hat = explicit_rhs(state.u_hat, state.theta_hat, grid, nl=nl, with_f=True)[2]
    psi, dissipation = _energy_row(state.theta_hat, norms[1], norms[3], grid, nl, f_hat)
    if nl is None:
        ref_psi = 0.5 * h1_seminorm(theta) ** 2
        ref_diss = h1_seminorm(u) ** 2 + l2_norm(laplacian_vec(theta)) ** 2
    else:
        rep = energy_psi(u, theta, nl)
        ref_psi, ref_diss = rep.psi_total, rep.dissipation
    assert psi == pytest.approx(ref_psi, rel=TOL)
    assert dissipation == pytest.approx(ref_diss, rel=TOL)


# ---------------------------------------------------------------------------
# one full step against the field-level step


def reference_step(state, cfg, drift=None, jump=None):
    """exp(-|k|^2 dt) applied to u + dt (N(u) + drift) + jump and theta + dt N(theta)."""
    grid, dt = cfg.grid, cfg.dt
    nu, nth = nonlinear_terms(u_of(state), theta_of(state), cfg)
    if drift is not None:
        nu = nu + drift
    incr = u_of(state) + dt * nu
    if jump is not None:
        incr = incr + jump
    factor = np.exp(-grid.ksq() * dt)

    def apply(w):
        return VectorField(*(ScalarField.from_coeffs(grid, factor * c.coeffs) for c in w.components()))

    return apply(incr), apply(theta_of(state) + dt * nth)


def assert_states_close(state, ref_u, ref_theta):
    assert rel_err(u_of(state), ref_u) <= TOL
    assert rel_err(theta_of(state), ref_theta) <= TOL


@pytest.fixture
def step_setup(rng):
    grid = TorusGrid(16)
    ms, spec = make_noise(grid)
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=2e-2, mark_space=ms, jump_spec=spec)
    return cfg, random_state(grid, rng)


def test_skeleton_step_matches_field_step(step_setup):
    cfg, init = step_setup
    ms, spec = cfg.mark_space, cfg.jump_spec
    g = Control(cfg.t_final, np.array([[1.6, 0.4], [0.7, 1.3]]))  # one cell per step
    traj = solve_skeleton(init, g, cfg)
    for k in range(2):
        start, t = traj.snapshots[k], k * cfg.dt
        drift = control_drift(t, u_of(start), g, ms, spec)
        assert_states_close(traj.snapshots[k + 1], *reference_step(start, cfg, drift=drift))
        assert traj.drift_pairing[k] == pytest.approx(l2_inner(drift, u_of(start)), rel=TOL)


def test_sde_and_convolution_steps_match_field_steps(step_setup):
    cfg, init = step_setup
    ms, spec = cfg.mark_space, cfg.jump_spec
    eps = 0.2
    phi = Control(cfg.t_final, np.array([[1.5, 0.8]]))
    jumps = JumpSample(
        np.array([0.002, 0.004, 0.0071, 0.013, 0.018, 0.0195]),
        np.array([0, 1, 1, 0, 0, 1]),
        cfg.t_final,
        1.0 / eps,
    )
    traj = solve_sde_with_jumps(init, eps, jumps, cfg)
    _, (conv,) = _run(init, cfg, control=phi, epsilon=eps, jumps=[jumps], track_convolution=True)
    xi = VectorField.zeros(cfg.grid)
    factor = np.exp(-cfg.grid.ksq() * cfg.dt)
    for k in range(2):
        start, t = traj.snapshots[k], k * cfg.dt
        in_step = (jumps.times >= t) & (jumps.times < t + cfg.dt)
        jump_sum = VectorField.zeros(cfg.grid)
        for tj, mark in zip(jumps.times[in_step], jumps.marks[in_step]):
            jump_sum = jump_sum + eps * eval_G(tj, u_of(start), int(mark), spec)
        comp = compensator_integral(t, u_of(start), ms, spec)
        jump = (-cfg.dt) * comp + jump_sum
        assert_states_close(traj.snapshots[k + 1], *reference_step(start, cfg, jump=jump))
        xi_incr = xi + jump_sum + (-cfg.dt) * (comp + control_drift(t, u_of(start), phi, ms, spec))
        xi = VectorField(*(ScalarField.from_coeffs(cfg.grid, factor * c.coeffs) for c in xi_incr.components()))
        assert rel_err(u_of(conv.snapshots[k + 1]), xi) <= TOL


def test_replay_rejects_unknown_marks(step_setup):
    cfg, init = step_setup
    for bad in (-1, 2):
        jumps = JumpSample(np.array([0.005]), np.array([bad]), cfg.t_final, 5.0)
        with pytest.raises(NoiseError, match="unknown mark index"):
            solve_sde_with_jumps(init, 0.2, jumps, cfg)


# ---------------------------------------------------------------------------
# FFT budget: two batched transforms per explicit step


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("diagnostics", (False, True))
def test_fft_budget_per_step(step_setup, fft_calls, diagnostics):
    cfg, init = step_setup
    cfg = SolverConfig(
        grid=cfg.grid, dt=cfg.dt, t_final=10 * cfg.dt, mark_space=cfg.mark_space,
        jump_spec=cfg.jump_spec, energy_diagnostics=diagnostics,
    )
    g = Control(cfg.t_final, np.array([[1.6, 0.4]]))
    fft_calls.clear()
    traj = solve_skeleton(init, g, cfg)
    explicit = 2 * cfg.n_steps
    if diagnostics:
        # each diagnostic row (one per step, plus the final state) adds at most 2
        assert explicit < len(fft_calls) <= explicit + 2 * len(traj.times)
    else:
        assert len(fft_calls) == explicit
        assert sorted(set(fft_calls)) == ["irfft2", "rfft2"]


def test_fft_budget_backward_step(step_setup, fft_calls):
    cfg, init = step_setup
    cfg = SolverConfig(
        grid=cfg.grid, dt=cfg.dt, t_final=10 * cfg.dt, mark_space=cfg.mark_space,
        jump_spec=cfg.jump_spec, energy_diagnostics=False,
    )
    g = Control(cfg.t_final, np.array([[1.6, 0.4]]))
    traj = solve_skeleton(init, g, cfg)
    final = traj.final_state()
    fft_calls.clear()
    skeleton_adjoint(traj, g, cfg, final.u_hat, final.theta_hat)
    assert fft_calls == ["irfft2", "rfft2"] * cfg.n_steps


def test_fft_budget_sde_step(step_setup, fft_calls):
    cfg, init = step_setup
    cfg = SolverConfig(
        grid=cfg.grid, dt=cfg.dt, t_final=10 * cfg.dt, mark_space=cfg.mark_space,
        jump_spec=cfg.jump_spec, energy_diagnostics=False,
    )
    jumps = JumpSample(np.array([0.015, 0.05, 0.07]), np.array([1, 0, 1]), cfg.t_final, 5.0)
    fft_calls.clear()
    solve_sde_with_jumps(init, 0.2, jumps, cfg)
    assert len(fft_calls) == 2 * cfg.n_steps


# ---------------------------------------------------------------------------
# checkpoint text


def loop_state_to_text(state):
    """The per-coefficient loop the vectorized writer replaced."""
    buf = io.StringIO()
    grid = state.grid
    buf.write(f"# modes={grid.n} time={state.time:.17g}\n")
    k1g, k2g = grid.wavenumbers()
    u, theta = u_of(state), theta_of(state)
    comps = {"u1": u.c1, "u2": u.c2, "theta1": theta.c1, "theta2": theta.c2}
    for name, comp in comps.items():
        buf.write(f"# component {name}\n")
        c = comp.coeffs
        for i in range(grid.n):
            for j in range(grid.n):
                z = c[i, j]
                if z != 0:
                    buf.write(f"{int(k1g[i, j])} {int(k2g[i, j])} {z.real:.17g} {z.imag:.17g}\n")
    return buf.getvalue()


def test_state_text_matches_loop_and_round_trips(rng):
    grid = TorusGrid(32)
    sparse = random_state(grid, rng)
    sparse = SpectralState(grid, sparse.u_hat, sparse.theta_hat, 0.125)
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=3e-2)
    dense = solve_skeleton(sparse, None, cfg).final_state()
    for state in (sparse, dense, zero_state(grid)):
        text = state_to_text(state)
        assert text == loop_state_to_text(state)
        back = state_from_text(text)
        assert back.time == state.time
        assert np.array_equal(back.u_hat, state.u_hat)
        assert np.array_equal(back.theta_hat, state.theta_hat)
