"""The discrete adjoint of the skeleton step and the rate gradient built on it.

The oracle of the transposed step is the tangent-linear step formed from
the forward code itself: an 8-point central stencil of ``explicit_rhs``
(exact for its nonlinearity, a polynomial of degree at most 7 in the
state, when the cutoffs are held fixed), plus the derivative through the
cutoffs, which enter affinely.  The dot-product identity
<J d, lam> = <d, J^T lam> then checks ``explicit_rhs_transpose`` and
``dynamics.skeleton_adjoint`` to 1e-10.  The rate gradient is checked
against the central-difference oracle, a Taylor remainder and its exact
zero at the unit tilt.
"""

import numpy as np
import pytest

from conftest import central_difference_gradient
from nlcsim import ldp, verify
from nlcsim.config import parse_config_text
from nlcsim.dynamics import (
    SolverConfig,
    SolverError,
    cutoff_chi,
    skeleton_adjoint,
    solve_skeleton,
)
from nlcsim.ldp import RateProblem, rate_gradient, rate_objective
from nlcsim.noise import Control, MarkSpace
from nlcsim.operators import PolynomialNonlinearity, explicit_rhs, explicit_rhs_transpose, leray_project
from nlcsim.spectral import TorusGrid, half_inner, half_norms_sq, half_tables

from oracle import (
    field_from_function,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_of,
)

DOT_TOL = 1e-10
CUBIC = PolynomialNonlinearity((1.0, 0.5, 0.3, 0.2))
# central weights of the first derivative on +-h .. +-4h: exact for polynomials of degree <= 8
STENCIL = ((1, 4 / 5), (2, -1 / 5), (3, 4 / 105), (4, -1 / 280))

CASES = {
    "default": dict(),
    "cubic": dict(nonlinearity=CUBIC),
    "no-relaxation": dict(nonlinearity=None),
    "cutoff-active": dict(cutoff_level=1.0),
}


def random_state(grid, rng, u_amp=0.4, th_amp=0.6):
    kmax = grid.n // 2 - 1
    u = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=u_amp, decay=0.3)
    th = random_vector_field(grid, rng, kmax=kmax, amplitude=th_amp, decay=0.3)
    return state_of(u, th, 0.0)


def make_noise(grid):
    """Two marks with nonzero gains, so the drift also acts linearly on u."""
    shapes = (
        0.05 * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None)),
        0.04 * leray_project(field_from_function(grid, None, lambda x1, x2: np.cos(2 * x1))),
    )
    return MarkSpace(weights=(1.0, 0.5)), spec_of(shapes, (0.02, 0.1))


def l2(a):
    return float(np.sqrt(half_norms_sq(a)[0]))


def chi_slope(norm_value, level):
    s = norm_value - level
    return -6.0 * s + 6.0 * s * s if 0.0 < s <= 1.0 else 0.0


def stencil_tangent(u, th, du, dth, grid, chi, nl, h=1e-2):
    """D (nu, ntheta)[du, dtheta] at (u, theta) with the cutoff values ``chi`` held fixed."""
    ju = jt = 0.0
    for j, c in STENCIL:
        pu, pt, _ = explicit_rhs(u + j * h * du, th + j * h * dth, grid, *chi, nl)
        mu, mt, _ = explicit_rhs(u - j * h * du, th - j * h * dth, grid, *chi, nl)
        ju, jt = ju + c * (pu - mu), jt + c * (pt - mt)
    return ju / h, jt / h


def chi_partials(u, th, grid, nl):
    """d (nu, ntheta) / d chi1 and d chi2: the right-hand side is affine in each cutoff value."""
    base = explicit_rhs(u, th, grid, 0.0, 0.0, nl)
    units = (explicit_rhs(u, th, grid, 1.0, 0.0, nl), explicit_rhs(u, th, grid, 0.0, 1.0, nl))
    return [(unit[0] - base[0], unit[1] - base[1]) for unit in units]


def rhs_tangent(u, th, du, dth, cfg):
    """D (nu, ntheta)[du, dtheta] at (u, theta), cutoffs included, from ``explicit_rhs`` alone."""
    grid, nl, level = cfg.grid, cfg.nonlinearity, cfg.cutoff_level
    if level is None:
        return stencil_tangent(u, th, du, dth, grid, (1.0, 1.0), nl)
    ju, jt = stencil_tangent(u, th, du, dth, grid, (cutoff_chi(l2(u), level), cutoff_chi(l2(th), level)), nl)
    for (pu, pt), v, dv in zip(chi_partials(u, th, grid, nl), (u, th), (du, dth)):
        dchi = chi_slope(l2(v), level) * half_inner(v, dv) / l2(v)
        ju, jt = ju + dchi * pu, jt + dchi * pt
    return ju, jt


def tangent_step(state, k, du, dth, dg, control, cfg):
    """The tangent-linear IMEX step k around ``state``, with the tilt perturbed by ``dg``."""
    dt, ms, spec = cfg.dt, cfg.mark_space, cfg.jump_spec
    u, th = state.u_hat, state.theta_hat
    ju, jt = rhs_tangent(u, th, du, dth, cfg)
    factor = np.exp(-half_tables(cfg.grid.n)[2] * dt)
    cell = control.cells_of(k * dt)
    w, gains = ms.weight_array(), np.asarray(spec.gains)
    drift = float(np.sum(w * (control.values[cell] - 1.0) * gains)) * du
    for i, shape in enumerate(spec.shapes):
        drift = drift + w[i] * dg[cell, i] * (shape + gains[i] * u)
    return factor * (du + dt * (ju + drift)), factor * (dth + dt * jt)


def case_setup(n, case, n_steps, rng):
    grid = TorusGrid(n)
    ms, spec = make_noise(grid)
    dt = 1e-2
    cfg = SolverConfig(
        grid=grid, dt=dt, t_final=n_steps * dt, mark_space=ms, jump_spec=spec,
        energy_diagnostics=False, **CASES[case],
    )
    # with the cutoff at level 1, these L2 norms sit inside its transition band
    init = random_state(grid, rng, 1.4, 1.7) if case == "cutoff-active" else random_state(grid, rng)
    if cfg.cutoff_level is not None:
        assert 0.0 < cutoff_chi(l2(init.u_hat), 1.0) < 1.0
        assert 0.0 < cutoff_chi(l2(init.theta_hat), 1.0) < 1.0
    control = Control(cfg.t_final, np.array([[1.6, 0.4], [0.7, 1.3]]))
    return cfg, init, control


@pytest.mark.parametrize("n_steps", (1, 20))
@pytest.mark.parametrize("n", (16, 32))
@pytest.mark.parametrize("case", sorted(CASES))
def test_dot_product_identity(case, n, n_steps, rng):
    cfg, init, control = case_setup(n, case, n_steps, rng)
    traj = solve_skeleton(init, control, cfg)
    assert not traj.diverged and len(traj.snapshots) == n_steps + 1
    d0, lam = random_state(cfg.grid, rng), random_state(cfg.grid, rng)
    dg = rng.standard_normal(control.values.shape)
    du, dth = d0.u_hat, d0.theta_hat
    for k in range(n_steps):
        du, dth = tangent_step(traj.snapshots[k], k, du, dth, dg, control, cfg)
    lhs = half_inner(du, lam.u_hat) + half_inner(dth, lam.theta_hat)
    grad, lam_u0, lam_th0 = skeleton_adjoint(traj, control, cfg, lam.u_hat, lam.theta_hat)
    rhs = half_inner(d0.u_hat, lam_u0) + half_inner(d0.theta_hat, lam_th0) + float(np.sum(dg * grad))
    assert abs(lhs - rhs) <= DOT_TOL * abs(lhs)


@pytest.mark.parametrize("nl", (PolynomialNonlinearity((1.0, 1.0)), CUBIC, None))
def test_transposed_rhs_dot_product_at_fixed_cutoffs(nl, rng):
    grid = TorusGrid(32)
    state, d, mu = (random_state(grid, rng) for _ in range(3))
    u, th = state.u_hat, state.theta_hat
    chi = (0.7, 0.4)
    ju, jt = stencil_tangent(u, th, d.u_hat, d.theta_hat, grid, chi, nl)
    a_u, a_th, dchi = explicit_rhs_transpose(u, th, mu.u_hat, mu.theta_hat, grid, *chi, nl, with_chi=True)
    lhs = half_inner(ju, mu.u_hat) + half_inner(jt, mu.theta_hat)
    assert abs(lhs - half_inner(d.u_hat, a_u) - half_inner(d.theta_hat, a_th)) <= DOT_TOL * abs(lhs)
    for got, (pu, pt) in zip(dchi, chi_partials(u, th, grid, nl)):
        pairing = half_inner(pu, mu.u_hat) + half_inner(pt, mu.theta_hat)
        assert abs(got - pairing) <= DOT_TOL * abs(pairing)
    assert explicit_rhs_transpose(u, th, mu.u_hat, mu.theta_hat, grid, *chi, nl)[2] is None


# ---------------------------------------------------------------------------
# the rate gradient


def rate_n16_problem(target_tilt: float | None = 1.5) -> RateProblem:
    """The benchmark's rate problem: N=16, T=0.25, dt=0.0125, 2 cells x the 4 default marks."""
    cfg = parse_config_text(
        "seed = 1\ngrid.modes = 16\nsolver.t_final = 0.25\nsolver.dt = 0.0125\nrate.cells = 2\n"
    )
    scfg = cfg.build_solver_config(energy_diagnostics=False)
    init = cfg.build_init(scfg.grid)
    g_target = None
    if target_tilt is not None:
        g_target = Control.constant(scfg.t_final, target_tilt, 1, scfg.mark_space.size)
    target = solve_skeleton(init, g_target, scfg).final_state()
    return RateProblem(init=init, target=target, cfg=scfg, penalty_weight=cfg.rate_penalty, n_cells=2)


def test_adjoint_gradient_matches_central_differences(rng):
    prob = rate_n16_problem()
    assert prob.n_dims == 8
    for w in (np.zeros(8), 0.2 * rng.standard_normal(8)):
        grad = rate_gradient(prob.control_from_flat(np.exp(w)), prob)
        oracle = central_difference_gradient(prob, w)
        assert np.max(np.abs(grad - oracle)) <= 1e-6 * np.max(np.abs(oracle))


def test_taylor_remainder_decays_at_second_order(rng):
    prob = rate_n16_problem()
    w = 0.2 * rng.standard_normal(8)
    direction = rng.standard_normal(8)

    def objective(x):
        return rate_objective(prob.control_from_flat(np.exp(x)), prob)

    base = objective(w)
    slope = float(np.dot(rate_gradient(prob.control_from_flat(np.exp(w)), prob), direction))
    rems = [abs(objective(w + h * direction) - base - h * slope) for h in (0.04, 0.02, 0.01)]
    for big, small in zip(rems, rems[1:]):
        assert 3.5 <= big / small <= 4.5


def test_gradient_is_exactly_zero_at_the_unit_tilts_endpoint():
    prob = rate_n16_problem(target_tilt=None)
    assert np.all(rate_gradient(prob.unit_control(), prob) == 0.0)


def test_each_iteration_sweeps_the_run_of_its_iterate(monkeypatch):
    """One backward sweep per iteration, on the kept run of the iterate; no solve besides the trials."""
    prob = rate_n16_problem()
    prob.max_iters, prob.tolerance = 3, 1e-12
    objective_of_run, sweeps, solves = {}, [], []
    evaluate, adjoint, solve = ldp._evaluate, ldp.skeleton_adjoint, ldp.solve_skeleton

    def traced_evaluate(g, p, keep_snapshots):
        parts, traj = evaluate(g, p, keep_snapshots)
        objective_of_run[id(traj)] = parts[0]
        return parts, traj

    def traced_adjoint(traj, *args):
        sweeps.append(objective_of_run[id(traj)])
        return adjoint(traj, *args)

    def traced_solve(init, g, cfg, keep_snapshots=True):
        solves.append(keep_snapshots)
        return solve(init, g, cfg, keep_snapshots)

    monkeypatch.setattr(ldp, "_evaluate", traced_evaluate)
    monkeypatch.setattr(ldp, "skeleton_adjoint", traced_adjoint)
    monkeypatch.setattr(ldp, "solve_skeleton", traced_solve)
    sol = ldp.optimize_control(prob)
    assert len(sol.history) == 4
    assert sweeps == [row[1] for row in sol.history[:3]]
    assert set(solves) == {True} and len(solves) < 1 + 2 * prob.n_dims


def test_adjoint_needs_a_snapshot_per_step():
    prob = rate_n16_problem()
    g = prob.unit_control()
    sparse = solve_skeleton(prob.init, g, prob.cfg, keep_snapshots=False)
    with pytest.raises(SolverError):
        rate_gradient(g, prob, sparse)


def test_verify_lists_and_passes_the_adjoint_check():
    results = {r.name: r for r in verify.check_ldp(7)}
    assert results["adjoint-gradient-matches-fd"].passed
