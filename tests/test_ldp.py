import numpy as np
import pytest

from nlcsim.cli import main
from nlcsim.config import parse_config_text
from nlcsim.dynamics import (
    SolverConfig,
    draw_jumps,
    solve_skeleton,
    sup_state_distance,
)
from nlcsim.ldp import (
    RateProblem,
    StudyError,
    _weighted_estimate,
    brute_force_rate,
    convolution_scaling_study,
    importance_weights,
    mc_small_noise_study,
    optimize_control,
    plain_mc_probability,
    rate_objective,
    rate_objective_parts,
    sup_velocity_indicator,
)
from nlcsim.noise import (
    Control,
    MarkSpace,
    cost_LT,
    girsanov_log_density,
    rng_for,
    thin_to_control,
)
from nlcsim.operators import leray_project
from nlcsim.spectral import TorusGrid

from oracle import (
    field_from_function,
    jump_path,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_of,
    zero_state,
)

ELL2 = 0.3862943611198906


def one_mark_setup(grid, shape_amp=0.15, gain=0.0, weight=1.0):
    shape = shape_amp * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None))
    ms = MarkSpace(weights=(weight,))
    spec = spec_of((shape,), (gain,))
    return ms, spec


def small_problem(rng, horizon=0.25, dt=0.0125, penalty=100.0, target_tilt=None):
    grid = TorusGrid(8)
    ms, spec = one_mark_setup(grid)
    cfg = SolverConfig(
        grid=grid,
        dt=dt,
        t_final=horizon,
        mark_space=ms,
        jump_spec=spec,
        diag_stride=1000,
        energy_diagnostics=False,
    )
    init = state_of(
        random_divergence_free_field(grid, rng, kmax=2, amplitude=0.3, decay=0.3),
        random_vector_field(grid, rng, kmax=2, amplitude=0.4, decay=0.3),
    )
    g_target = Control.constant(horizon, target_tilt) if target_tilt else Control.unit(horizon)
    target = solve_skeleton(init, g_target, cfg, keep_snapshots=False).final_state()
    return RateProblem(init=init, target=target, cfg=cfg, penalty_weight=penalty)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestRateObjective:
    def test_unit_target_zero(self, rng):
        prob = small_problem(rng)
        assert rate_objective(prob.unit_control(), prob) == pytest.approx(0.0, abs=1e-24)

    def test_cost_only_when_target_matched(self, rng):
        prob = small_problem(rng, horizon=1.0, dt=0.025, target_tilt=2.0)
        g2 = Control.constant(1.0, 2.0)
        obj, cost, mis = rate_objective_parts(g2, prob)
        assert mis == pytest.approx(0.0, abs=1e-24)
        assert obj == pytest.approx(ELL2, abs=1e-12)

    def test_recomputation_oracle(self, rng):
        prob = small_problem(rng)
        g = Control(prob.cfg.t_final, np.array([[1.37]]))
        obj = rate_objective(g, prob)
        cost = cost_LT(g, prob.cfg.mark_space)
        traj = solve_skeleton(prob.init, g, prob.cfg, keep_snapshots=False)
        from nlcsim.dynamics import state_distance_sq_split

        mis = state_distance_sq_split(traj.final_state(), prob.target)
        assert obj == pytest.approx(cost + prob.penalty_weight * mis, rel=1e-14)


class TestOptimizer:
    @pytest.mark.parametrize(
        "bad",
        (
            {"penalty_weight": -0.5}, {"penalty_weight": 0.0}, {"max_iters": 0},
            # not finite, or a negative tolerance
            {"penalty_weight": float("nan")}, {"penalty_weight": float("inf")},
            {"tolerance": float("nan")}, {"tolerance": float("inf")}, {"tolerance": -1.0},
        ),
    )
    def test_nonpositive_step_or_iterations_rejected(self, rng, bad):
        prob = small_problem(rng)
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be"):
            RateProblem(init=prob.init, target=prob.target, cfg=prob.cfg, **bad)

    def test_unit_target_recovered(self, rng):
        prob = small_problem(rng)
        sol = optimize_control(prob)
        assert sol.cost <= 1e-6
        assert sol.objective <= rate_objective(prob.unit_control(), prob) + 1e-15

    def test_a_trial_tilt_that_overflows_backtracks(self):
        # at target tilt 100 a trial of the second line search has exp(w) = inf: it used to end
        # the run in Control's "control values must be finite" error instead of backtracking
        cfg = parse_config_text("seed = 1\ngrid.modes = 8\n")
        solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
        init = cfg.build_init(solver_cfg.grid)
        target = solve_skeleton(init, Control.constant(solver_cfg.t_final, 100.0, 1, 4), solver_cfg).final_state()
        sol = optimize_control(RateProblem(init, target, solver_cfg, max_iters=2))
        objectives = [row[1] for row in sol.history]
        assert len(objectives) == 3 and np.all(np.isfinite(objectives))
        assert objectives == sorted(objectives, reverse=True)
        assert np.all(np.isfinite(sol.g_star.values))

    def test_matches_brute_force_1d(self, rng):
        prob = small_problem(rng, target_tilt=1.7, penalty=200.0)
        grid_vals = np.linspace(0.2, 3.0, 15)
        oracle = brute_force_rate(prob, grid_vals)
        sol = optimize_control(prob)
        assert sol.objective <= oracle.objective + 1e-3

    def test_monotone_history(self, rng):
        prob = small_problem(rng, target_tilt=1.5)
        sol = optimize_control(prob)
        objs = [h[1] for h in sol.history]
        assert all(a >= b - 1e-15 for a, b in zip(objs, objs[1:]))

    def test_penalty_increase_reduces_mismatch(self, rng):
        prob_lo = small_problem(rng, target_tilt=1.6, penalty=50.0)
        sol_lo = optimize_control(prob_lo)
        prob_hi = RateProblem(
            init=prob_lo.init,
            target=prob_lo.target,
            cfg=prob_lo.cfg,
            penalty_weight=100.0,
        )
        sol_hi = optimize_control(prob_hi)
        assert sol_hi.mismatch <= sol_lo.mismatch + 1e-8

    def test_fd_gradient_richardson(self, rng):
        prob = small_problem(rng, target_tilt=1.4)
        base = np.array([0.2])  # w = log g around g ~ 1.22
        direction = np.array([1.0])

        def f(w):
            return rate_objective(prob.control_from_flat(np.exp(w)), prob)

        vals = {}
        for h in (0.2, 0.1, 0.05):
            vals[h] = (f(base + h * direction) - f(base - h * direction)) / (2 * h)
        num = abs(vals[0.2] - vals[0.1])
        den = abs(vals[0.1] - vals[0.05])
        assert 3.0 <= num / den <= 5.0  # second-order centered stencil


class TestBruteForce:
    def test_contains_unit(self, rng):
        prob = small_problem(rng)
        sol = brute_force_rate(prob, [0.5, 1.0, 2.0])
        assert sol.g_star.values[0, 0] == 1.0
        assert sol.objective == pytest.approx(0.0, abs=1e-20)

    def test_singleton_grid(self, rng):
        prob = small_problem(rng)
        sol = brute_force_rate(prob, [0.7])
        assert sol.g_star.values[0, 0] == 0.7

    def test_dimension_guard(self, rng):
        prob = small_problem(rng)
        prob_big = RateProblem(
            init=prob.init, target=prob.target, cfg=prob.cfg, n_cells=3
        )
        with pytest.raises(ValueError):
            brute_force_rate(prob_big, [1.0])


class TestSmallNoiseStudy:
    def _study_cfg(self, rng, shape_amp=0.15, gain=0.05):
        grid = TorusGrid(8)
        ms, spec = one_mark_setup(grid, shape_amp=shape_amp, gain=gain)
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.3,
            mark_space=ms,
            jump_spec=spec,
            diag_stride=1000,
            energy_diagnostics=False,
        )
        init = state_of(
            random_divergence_free_field(grid, rng, kmax=2, amplitude=0.3, decay=0.3),
            random_vector_field(grid, rng, kmax=2, amplitude=0.4, decay=0.3),
        )
        return cfg, init

    def test_zero_noise_zero_distance(self, rng):
        grid = TorusGrid(8)
        ms, spec = one_mark_setup(grid, shape_amp=0.0, gain=0.0)
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.2,
            mark_space=ms,
            jump_spec=spec,
            diag_stride=1000,
            energy_diagnostics=False,
        )
        init = zero_state(grid)
        rows = mc_small_noise_study([0.4, 0.2], 8, cfg, init, seed=1)
        assert all(r["median"] == 0.0 for r in rows)

    def test_medians_decrease(self, rng):
        cfg, init = self._study_cfg(rng)
        rows = mc_small_noise_study([0.4, 0.05], 12, cfg, init, seed=7)
        assert rows[0]["median"] > rows[1]["median"]

    def test_validation(self, rng):
        cfg, init = self._study_cfg(rng)
        with pytest.raises(StudyError):
            mc_small_noise_study([0.1, 0.4], 8, cfg, init, seed=1)
        with pytest.raises(StudyError):
            mc_small_noise_study([0.4, 0.1], 4, cfg, init, seed=1)

    def test_csv(self, tmp_path):
        config = tmp_path / "study.ini"
        config.write_text(
            "seed = 3\ngrid.modes = 8\nsolver.t_final = 0.05\n"
            "experiment.eps_list = 0.4, 0.2\nexperiment.n_paths = 8\n"
        )
        assert main(["mc-ldp", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "mc_ldp.csv").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "eps,median,q25,q75,n_diverged"
        assert len(lines) == 3

    def test_threaded_study_matches_sequential(self, rng):
        # per-path seeds are independent of batching: the batched study equals
        # the same statistics over one-path solves, bit for bit
        cfg, init = self._study_cfg(rng)
        eps_list, n, seed = [0.4, 0.2], 8, 9
        batched = mc_small_noise_study(eps_list, n, cfg, init, seed=seed)
        skel = solve_skeleton(init, None, cfg)
        path_seeds = rng_for(seed, "mc-small-noise").integers(0, 2**62, size=(len(eps_list), n))
        for row, eps, seeds in zip(batched, eps_list, path_seeds):
            dists = np.array(
                [sup_state_distance(jump_path(init, eps, draw_jumps(eps, None, cfg, int(s)), cfg), skel) for s in seeds]
            )
            assert row["median"] == float(np.median(dists))
            assert row["q25"] == float(np.quantile(dists, 0.25))
            assert row["q75"] == float(np.quantile(dists, 0.75))

    def test_convolution_study_decreasing(self, rng):
        # jump mass large enough that many jumps land per path: the sup is
        # martingale-dominated and shrinks with the noise size
        grid = TorusGrid(8)
        shape = 0.2 * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None))
        ms = MarkSpace(weights=(3.0,))
        spec = spec_of((shape,), (0.05,))
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.5,
            mark_space=ms,
            jump_spec=spec,
            diag_stride=1000,
            energy_diagnostics=False,
        )
        init = zero_state(grid)
        rows = convolution_scaling_study([0.4, 0.05], 12, cfg, init, seed=5)
        assert rows[0]["mean_sup_sq"] > rows[1]["mean_sup_sq"]

    def test_convolution_study_gates_diverged_paths(self):
        # every path passes the tiny blow-up guard within its first steps; the
        # study must fail rather than average the truncated series
        grid = TorusGrid(8)
        ms, spec = one_mark_setup(grid, shape_amp=0.2, gain=0.05, weight=3.0)
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.1,
            mark_space=ms,
            jump_spec=spec,
            blowup_threshold=1e-3,
            energy_diagnostics=False,
        )
        with pytest.raises(StudyError, match="diverged"):
            convolution_scaling_study([0.4, 0.2], 8, cfg, zero_state(grid), seed=5)


class TestImportance:
    def _is_cfg(self, rng):
        grid = TorusGrid(8)
        ms, spec = one_mark_setup(grid, shape_amp=0.2, gain=0.0)
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.5,
            mark_space=ms,
            jump_spec=spec,
            energy_diagnostics=False,
        )
        init = zero_state(grid)
        return cfg, init

    def test_indicator_one_mean_one(self, rng):
        cfg, init = self._is_cfg(rng)
        phi = Control.constant(cfg.t_final, 1.5)
        out = importance_weights(lambda traj: 1.0, phi, 0.5, 400, cfg, init, seed=11)
        assert abs(out["estimate"] - 1.0) <= 3 * out["std_error"]

    def test_unit_tilt_weights_one(self, rng):
        cfg, init = self._is_cfg(rng)
        phi = Control.unit(cfg.t_final)
        out = importance_weights(lambda traj: 1.0, phi, 0.5, 50, cfg, init, seed=13)
        assert out["estimate"] == pytest.approx(1.0, abs=1e-14)
        assert out["std_error"] == pytest.approx(0.0, abs=1e-14)

    def test_log_domain_survives_weight_underflow(self):
        # about 2250 tilted events per path: each log-weight lies near -970,
        # below log of the smallest double (-745), so exp() of it is 0.0
        grid = TorusGrid(8)
        ms, spec = one_mark_setup(grid, shape_amp=0.2, weight=3.0)
        cfg = SolverConfig(
            grid=grid,
            dt=1e-2,
            t_final=0.25,
            mark_space=ms,
            jump_spec=spec,
            energy_diagnostics=False,
        )
        phi = Control.constant(cfg.t_final, 3.0)
        n = 8
        out = importance_weights(lambda traj: 1.0, phi, 0.001, n, cfg, zero_state(grid), seed=31)
        assert np.isfinite(out["log_estimate"])
        assert out["log_estimate"] < np.log(np.finfo(float).tiny)
        assert 1.0 <= out["ess"] <= n
        assert 1.0 / n <= out["max_weight_share"] <= 1.0

    def test_threaded_matches_sequential(self, rng):
        # per-path streams are keyed by path index: the batched estimate equals
        # the one built from one-path solves, bit for bit
        cfg, init = self._is_cfg(rng)
        phi = Control.constant(cfg.t_final, 1.5)
        indicator = sup_velocity_indicator(0.3)
        batched = importance_weights(indicator, phi, 0.5, 8, cfg, init, seed=3)
        rows = []
        for k in range(8):
            jumps = thin_to_control(cfg.mark_space, phi, 2.0, rng_for(3, "importance", k))
            traj = jump_path(init, 0.5, jumps, cfg)
            rows.append((girsanov_log_density(phi, jumps, 0.5, cfg.mark_space), indicator(traj)))
        assert batched == _weighted_estimate(np.array(rows), 0)

    def test_positive_tilt_required(self, rng):
        cfg, init = self._is_cfg(rng)
        phi = Control(cfg.t_final, np.array([[0.0]]))
        with pytest.raises(ValueError):
            importance_weights(lambda traj: 1.0, phi, 0.5, 10, cfg, init, seed=1)

    def test_agrees_with_plain_mc(self, rng):
        cfg, init = self._is_cfg(rng)
        threshold = 0.35
        indicator = sup_velocity_indicator(threshold)
        plain = plain_mc_probability(indicator, 0.25, 600, cfg, init, seed=17)
        tilted = importance_weights(indicator, Control.constant(cfg.t_final, 2.0), 0.25, 600, cfg, init, seed=19)
        se = np.hypot(plain["std_error"], tilted["std_error"])
        assert abs(plain["estimate"] - tilted["estimate"]) <= 3.5 * se

    def test_variance_reduction_for_exceedance_event(self, rng):
        # a tilt aimed at the event beats plain MC at the same budget
        cfg, init = self._is_cfg(rng)
        indicator = sup_velocity_indicator(0.55)
        n = 400
        plain = plain_mc_probability(indicator, 0.25, n, cfg, init, seed=23)
        tilted = importance_weights(indicator, Control.constant(cfg.t_final, 2.0), 0.25, n, cfg, init, seed=29)
        assert tilted["sample_variance"] <= plain["sample_variance"]


class TestDegenerateEvent:
    """Hit counts and the degenerate flag on the default ``importance`` problem."""

    def _estimates(self, threshold=None, n_paths=16):
        text = "seed = 7\ngrid.modes = 8\n"
        if threshold is not None:
            text += f"importance.threshold = {threshold}\n"
        cfg = parse_config_text(text)
        solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
        init = cfg.build_init(solver_cfg.grid)
        indicator = sup_velocity_indicator(cfg.importance_threshold)
        args = (cfg.importance_eps, n_paths, solver_cfg, init)
        tilted = importance_weights(indicator, cfg.build_importance_phi(), *args, seed=cfg.seed)
        plain = plain_mc_probability(indicator, *args, seed=cfg.seed)
        return tilted, plain

    def test_no_path_hits_is_flagged(self):
        # |u| stays near 1.33 < 1.4: the estimators print 0 with standard error 0
        for res in self._estimates(threshold=1.4):
            assert res["hits"] == 0
            assert res["degenerate"] is True
            assert res["estimate"] == 0.0 and res["std_error"] == 0.0

    def test_default_event_is_certain(self):
        # |u(0)| = 1.33 already exceeds the default threshold 0.3
        tilted, plain = self._estimates(n_paths=8)
        assert plain["hits"] == plain["n_paths"] == 8
        assert plain["degenerate"] is True and plain["estimate"] == 1.0
        assert tilted["hits"] == 8 and tilted["degenerate"] is True

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0), ids=str)
    @pytest.mark.parametrize("estimator", (importance_weights, plain_mc_probability), ids=lambda f: f.__name__)
    def test_an_indicator_value_that_is_not_finite_and_nonnegative_is_rejected(self, estimator, value):
        # no path diverges here: a NaN indicator is the indicator's fault, not a diverged path
        cfg = parse_config_text("seed = 1\ngrid.modes = 8\nsolver.t_final = 0.05\n")
        solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
        args = (0.25, 8, solver_cfg, cfg.build_init(solver_cfg.grid))
        tilt = (cfg.build_importance_phi(),) if estimator is importance_weights else ()
        with pytest.raises(ValueError, match="^event indicator values must be finite and nonnegative$"):
            estimator(lambda traj: value, *tilt, *args, seed=cfg.seed)

    def test_mixed_sample_is_not_degenerate(self, rng):
        cfg, init = TestImportance()._is_cfg(rng)
        out = plain_mc_probability(sup_velocity_indicator(0.35), 0.25, 40, cfg, init, seed=17)
        assert 0 < out["hits"] < out["n_paths"]
        assert out["degenerate"] is False
        assert out["estimate"] == pytest.approx(out["hits"] / out["n_paths"], rel=1e-15)
