"""The array-native stepping core against its term-by-term reference.

``operators.explicit_rhs`` and the array loop in ``dynamics._run`` fuse
the explicit terms; the reference operators (``nonlinear_terms``,
``energy_psi``, ``control_drift``, ``compensator_integral``, ``eval_G``)
form them one by one, and the core is checked against them here, at
1e-12 relative, and they are checked to stay off the transform path
they are the reference of.  The FFT budget of a forward and of a backward (adjoint) step and the
checkpoint text format are pinned too.
"""

import io
import sys

import numpy as np
import pytest

from nlcsim import dynamics, noise, operators
from nlcsim.cli import state_to_text
from nlcsim.dynamics import (
    SolverConfig,
    SpectralState,
    _energy_row,
    _jump_table,
    _run,
    _state_norms,
    cutoff_chi,
    skeleton_adjoint,
    solve_sde_with_jumps,
    solve_skeleton,
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
from nlcsim.operators import PolynomialNonlinearity, energy_psi, explicit_rhs, leray_project, polynomial_f
from nlcsim.spectral import TorusGrid, full_from_half

from oracle import (
    field_from_function,
    h1_seminorm,
    l2_inner,
    l2_norm,
    laplacian,
    nonlinear_terms,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_from_text,
    state_of,
    wavenumbers,
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
        0.05 * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None)),
        0.04 * leray_project(field_from_function(grid, None, lambda x1, x2: np.cos(2 * x1))),
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
        chi1 = cutoff_chi(l2_norm(state.u_hat), cfg.cutoff_level)
        chi2 = cutoff_chi(l2_norm(state.theta_hat), cfg.cutoff_level)
        assert 0.0 < chi1 < 1.0 and 0.0 < chi2 < 1.0
    nu_ref, nth_ref = nonlinear_terms(state.u_hat, state.theta_hat, cfg)
    nu, nth, f_hat = explicit_rhs(
        state.u_hat, state.theta_hat, grid, chi1, chi2, cfg.nonlinearity, with_f=True
    )
    assert rel_err(nu, nu_ref) <= TOL
    assert rel_err(nth, nth_ref) <= TOL
    if cfg.nonlinearity is None:
        assert f_hat is None
    else:
        assert rel_err(f_hat, polynomial_f(state.theta_hat, cfg.nonlinearity)) <= TOL


def test_with_f_leaves_the_step_unchanged(rng):
    grid = TorusGrid(16)
    state = random_state(grid, rng)
    plain = explicit_rhs(state.u_hat, state.theta_hat, grid)
    diag = explicit_rhs(state.u_hat, state.theta_hat, grid, with_f=True)
    assert plain[2] is None
    assert np.array_equal(plain[0], diag[0]) and np.array_equal(plain[1], diag[1])


def test_the_references_stay_off_the_fast_transform_path(rng, monkeypatch):
    # every name bench/tracer.py binds, at the attribute it binds, with the padded transform pair,
    # its work buffers and the dense DFT factors raising wherever the package imported them
    def fast_path(*args, **kwargs):
        raise AssertionError("a reference reached the fast transform path")

    for name, module in list(sys.modules.items()):
        if name == "nlcsim" or name.startswith("nlcsim."):
            for attr in ("to_grid", "from_grid", "scratch", "_dense_factors"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fast_path)
    grid = TorusGrid(16)
    ms, spec = make_noise(grid)
    state = random_state(grid, rng)
    u, th = state.u_hat, state.theta_hat
    g = Control(1.0, np.array([[1.6, 0.4]]))
    calls = [
        (operators.dealias_product, (u[0], th[1])),
        (operators.leray_project, (th,)),
        (dynamics.convection_B, (u, u)),
        (dynamics.director_stress_M, (th, th)),
        (dynamics.advection_Btilde, (u, th)),
        (dynamics.polynomial_f, (th,)),
        (operators.polynomial_f, (th, CUBIC)),
        (dynamics.energy_psi, (u, th)),
        (dynamics.eval_G, (0.0, u, 1, spec)),
        (noise.eval_G, (0.0, u, 0, spec)),
        (dynamics.compensator_integral, (0.0, u, ms, spec)),
        (dynamics.control_drift, (0.5, u, g, ms, spec)),
    ]
    with pytest.raises(AssertionError, match="fast transform path"):
        explicit_rhs(u, th, grid)
    for fn, args in calls:
        assert np.all(np.isfinite(fn(*args)))


# ---------------------------------------------------------------------------
# diagnostic row


@pytest.mark.parametrize("nl", (PolynomialNonlinearity((1.0, 1.0)), CUBIC, None))
def test_diagnostic_row_matches_energy_psi(nl, rng):
    grid = TorusGrid(32)
    state = random_state(grid, rng)
    u, theta = state.u_hat, state.theta_hat
    norms = _state_norms(state.u_hat, state.theta_hat)
    expect = (l2_norm(u), h1_seminorm(u), l2_norm(theta), h1_seminorm(theta))
    assert norms == pytest.approx(expect, rel=TOL)
    f_hat = explicit_rhs(state.u_hat, state.theta_hat, grid, nl=nl, with_f=True)[2]
    psi, dissipation = _energy_row(state.theta_hat, norms[1], norms[3], grid, nl, f_hat)
    if nl is None:
        ref_psi = 0.5 * h1_seminorm(theta) ** 2
        ref_diss = h1_seminorm(u) ** 2 + l2_norm(laplacian(theta)) ** 2
    else:
        ref_psi, ref_diss = energy_psi(u, theta, nl)
    assert psi == pytest.approx(ref_psi, rel=TOL)
    assert dissipation == pytest.approx(ref_diss, rel=TOL)


# ---------------------------------------------------------------------------
# one full step against the reference step


def heat_factor(cfg):
    """exp(-|k|^2 dt) per Fourier mode."""
    k1, k2 = wavenumbers(cfg.grid.n)
    return np.exp(-(k1**2 + k2**2) * cfg.dt)


def reference_step(state, cfg, drift=None, jump=None):
    """exp(-|k|^2 dt) applied to u + dt (N(u) + drift) + jump and theta + dt N(theta)."""
    dt = cfg.dt
    nu, nth = nonlinear_terms(state.u_hat, state.theta_hat, cfg)
    if drift is not None:
        nu = nu + drift
    incr = state.u_hat + dt * nu
    if jump is not None:
        incr = incr + jump
    factor = heat_factor(cfg)
    return factor * incr, factor * (state.theta_hat + dt * nth)


def assert_states_close(state, ref_u, ref_theta):
    assert rel_err(state.u_hat, ref_u) <= TOL
    assert rel_err(state.theta_hat, ref_theta) <= TOL


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
        drift = control_drift(t, start.u_hat, g, ms, spec)
        assert_states_close(traj.snapshots[k + 1], *reference_step(start, cfg, drift=drift))
        assert traj.drift_pairing[k] == pytest.approx(l2_inner(drift, start.u_hat), rel=TOL)


def test_sde_and_convolution_steps_match_field_steps(step_setup):
    cfg, init = step_setup
    ms, spec = cfg.mark_space, cfg.jump_spec
    eps = 0.2
    phi = Control(cfg.t_final, np.array([[1.5, 0.8]]))
    jumps = JumpSample(
        np.array([0.002, 0.004, 0.0071, 0.013, 0.018, 0.0195]),
        np.array([0, 1, 1, 0, 0, 1]),
    )
    traj = solve_sde_with_jumps(init, eps, jumps, cfg)
    _, (conv,) = _run(init, cfg, "sde", *_jump_table(eps, [jumps], cfg, phi))
    xi = np.zeros_like(init.u_hat)
    for k in range(2):
        start, t = traj.snapshots[k], k * cfg.dt
        in_step = (jumps.times >= t) & (jumps.times < t + cfg.dt)
        jump_sum = np.zeros_like(start.u_hat)
        for tj, mark in zip(jumps.times[in_step], jumps.marks[in_step]):
            jump_sum = jump_sum + eps * eval_G(tj, start.u_hat, int(mark), spec)
        comp = compensator_integral(t, start.u_hat, ms, spec)
        jump = (-cfg.dt) * comp + jump_sum
        assert_states_close(traj.snapshots[k + 1], *reference_step(start, cfg, jump=jump))
        xi = heat_factor(cfg) * (xi + jump_sum + (-cfg.dt) * (comp + control_drift(t, start.u_hat, phi, ms, spec)))
        assert rel_err(conv.snapshots[k + 1].u_hat, xi) <= TOL


def test_replay_rejects_unknown_marks(step_setup):
    cfg, init = step_setup
    for bad in (-1, 2):
        jumps = JumpSample(np.array([0.005]), np.array([bad]))
        with pytest.raises(NoiseError, match="unknown mark index"):
            solve_sde_with_jumps(init, 0.2, jumps, cfg)


def test_replay_rejects_a_jump_after_t_final(step_setup):
    cfg, init = step_setup
    at_end = JumpSample(np.array([0.005, cfg.t_final]), np.array([0, 1]))
    assert not solve_sde_with_jumps(init, 0.2, at_end, cfg).diverged  # a jump at t_final counts
    late = JumpSample(np.array([0.005, 2 * cfg.t_final]), np.array([0, 1]))
    with pytest.raises(NoiseError, match="after t_final"):
        solve_sde_with_jumps(init, 0.2, late, cfg)


# ---------------------------------------------------------------------------
# FFT budget: two batched transforms per explicit step


@pytest.fixture
def transform_calls(monkeypatch):
    """Names of the transform pair calls ``operators`` makes and of the numpy passes, in order."""
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in FFT_NAMES:
        spy(np.fft, name)
    for name in ("to_grid", "from_grid"):
        spy(operators, name)
    return calls


def budget_setup(n, rng, diagnostics=False):
    grid = TorusGrid(n)
    ms, spec = make_noise(grid)
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.1, mark_space=ms, jump_spec=spec, energy_diagnostics=diagnostics)
    return cfg, random_state(grid, rng)


# each grid's (to_grid, from_grid) calls, each followed by its numpy passes: the dense DFT
# products at N = 16 make none, the FFT at N = 64 two
PAIR_CALLS = {
    16: (["to_grid"], ["from_grid"]),
    64: (["to_grid", "ifft", "irfft"], ["from_grid", "rfft", "fft"]),
}


@pytest.mark.parametrize("diagnostics", (False, True))
def test_fft_budget_per_step(rng, transform_calls, diagnostics):
    for n, (to_grid_calls, from_grid_calls) in PAIR_CALLS.items():
        cfg, init = budget_setup(n, rng, diagnostics)
        g = Control(cfg.t_final, np.array([[1.6, 0.4]]))
        transform_calls.clear()
        traj = solve_skeleton(init, g, cfg)
        if diagnostics:
            # a diagnostic row at every step and at the final state: the step's transforms (f(theta)
            # comes back with the step's products), then one to_grid for the potential
            assert len(traj.times) == cfg.n_steps + 1
            assert transform_calls == (to_grid_calls + from_grid_calls + to_grid_calls) * (cfg.n_steps + 1)
        else:
            assert transform_calls == (to_grid_calls + from_grid_calls) * cfg.n_steps


def test_fft_budget_backward_step(rng, transform_calls):
    for n, (to_grid_calls, from_grid_calls) in PAIR_CALLS.items():
        cfg, init = budget_setup(n, rng)
        g = Control(cfg.t_final, np.array([[1.6, 0.4]]))
        traj = solve_skeleton(init, g, cfg)
        final = traj.final_state()
        transform_calls.clear()
        skeleton_adjoint(traj, g, cfg, final.u_hat, final.theta_hat)
        assert transform_calls == (to_grid_calls + from_grid_calls) * cfg.n_steps


def test_fft_budget_sde_step(rng, transform_calls):
    for n, (to_grid_calls, from_grid_calls) in PAIR_CALLS.items():
        cfg, init = budget_setup(n, rng)
        jumps = JumpSample(np.array([0.015, 0.05, 0.07]), np.array([1, 0, 1]))
        transform_calls.clear()
        solve_sde_with_jumps(init, 0.2, jumps, cfg)
        assert transform_calls == (to_grid_calls + from_grid_calls) * cfg.n_steps


# ---------------------------------------------------------------------------
# checkpoint text


def loop_state_to_text(state):
    """The per-coefficient loop the vectorized writer replaced."""
    buf = io.StringIO()
    grid = state.grid
    buf.write(f"# modes={grid.n} time={state.time:.17g}\n")
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k1g, k2g = np.meshgrid(k, k, indexing="ij")
    spectra = full_from_half(np.concatenate((state.u_hat, state.theta_hat)))
    for name, c in zip(("u1", "u2", "theta1", "theta2"), spectra):
        buf.write(f"# component {name}\n")
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
