from dataclasses import replace

import numpy as np
import pytest

from nlcsim.cli import _trajectory_csv, state_to_text
from nlcsim.config import ExperimentConfig
from nlcsim.dynamics import (
    SolverConfig,
    SolverError,
    SpectralState,
    apriori_bound,
    cutoff_chi,
    energy_ledger,
    galerkin_project,
    solve_skeleton,
    solve_small_noise_sde,
    solve_stochastic_convolution,
    state_distance_sq_split,
    sup_state_distance,
    trajectory_sup_energy,
)
from nlcsim.noise import Control, MarkSpace, control_drift
from nlcsim.operators import leray_project
from nlcsim.spectral import TorusGrid

from oracle import (
    constant_field,
    divergence_residual,
    embed_state,
    field_from_function,
    l2_inner,
    l2_norm,
    laplacian,
    nonlinear_terms,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_from_text,
    state_of,
    zero_state,
)


def make_noise(grid, shape_amp=(0.05, 0.05), gains=(0.0, 0.1), weights=(1.0, 0.5)):
    shapes = (
        shape_amp[0] * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None)),
        shape_amp[1] * leray_project(field_from_function(grid, None, lambda x1, x2: np.sin(x1))),
    )
    return MarkSpace(weights=weights), spec_of(shapes, gains)


def smooth_state(grid, rng, u_amp=0.4, th_amp=0.6, kmax=3):
    u = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=u_amp, decay=0.4)
    th = random_vector_field(grid, rng, kmax=kmax, amplitude=th_amp, decay=0.4)
    return state_of(u, th, 0.0)


@pytest.fixture
def cfg16():
    grid = TorusGrid(16)
    ms, spec = make_noise(grid)
    return SolverConfig(grid=grid, dt=1e-2, t_final=0.5, mark_space=ms, jump_spec=spec)


class TestState:
    def test_arrays_are_read_only_copies(self, rng):
        grid = TorusGrid(16)
        u, theta = smooth_state(grid, rng).u_hat, smooth_state(grid, rng).theta_hat
        u_in = u.copy()
        state = SpectralState(grid, u_in, theta, 0.5)
        u_in[0, 1, 1] = 7.0
        assert np.array_equal(state.u_hat, u) and state.time == 0.5
        assert not state.u_hat.flags.writeable and not state.theta_hat.flags.writeable

    def test_validation(self, rng):
        grid = TorusGrid(16)
        good = smooth_state(grid, rng)
        with pytest.raises(SolverError, match="shape"):
            SpectralState(grid, good.u_hat[:, :, :8], good.theta_hat)
        with pytest.raises(SolverError, match="shape"):
            SpectralState(TorusGrid(32), good.u_hat, good.theta_hat)
        bad = good.theta_hat.copy()
        bad[1, 2, 3] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            SpectralState(grid, good.u_hat, bad)
        for idx in ((0, 8, 1), (1, 3, 8)):  # the k1 = -N/2 row and the k2 = N/2 column
            bad = good.u_hat.copy()
            bad[idx] = 1e-3
            with pytest.raises(SolverError, match="Nyquist"):
                SpectralState(grid, bad, good.theta_hat)


    def test_run_snapshots_are_read_only_and_never_rewritten(self, rng, cfg16):
        # snapshot k of a long run equals the final state of a k-step run: no later step writes into it
        init = smooth_state(cfg16.grid, rng)
        traj = solve_skeleton(init, None, cfg16)
        assert len(traj.snapshots) == cfg16.n_steps + 1
        for k in (1, 7, cfg16.n_steps // 2):
            end = solve_skeleton(init, None, replace(cfg16, t_final=k * cfg16.dt)).final_state()
            snap = traj.snapshots[k]
            assert snap.time == end.time
            assert np.array_equal(snap.u_hat, end.u_hat) and np.array_equal(snap.theta_hat, end.theta_hat)
        for snap in traj.snapshots:
            assert not snap.u_hat.flags.writeable and not snap.theta_hat.flags.writeable

    def test_skeleton_without_snapshots_keeps_the_final_state(self, rng, cfg16):
        init = smooth_state(cfg16.grid, rng)
        full = solve_skeleton(init, None, cfg16)
        final_only = solve_skeleton(init, None, cfg16, keep_snapshots=False)
        assert len(final_only.snapshots) == 1
        assert np.array_equal(final_only.snapshot_times, full.snapshot_times[-1:])
        a, b = final_only.final_state(), full.final_state()
        assert np.array_equal(a.u_hat, b.u_hat) and np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(final_only.psi, full.psi)


class TestCutoff:
    def test_plateau_and_tail(self):
        assert cutoff_chi(3.0, 3) == 1.0
        assert cutoff_chi(5.0, 3) == 0.0
        assert cutoff_chi(3.5, 3) == pytest.approx(0.5)

    def test_smoothstep_interior(self):
        # 1 - 3 s^2 + 2 s^3 at s = 0.25
        assert cutoff_chi(4.25, 4) == pytest.approx(1 - 3 * 0.0625 + 2 * 0.015625)

    def test_continuity(self):
        eps = 1e-9
        assert cutoff_chi(3 + eps, 3) == pytest.approx(1.0, abs=1e-8)
        assert cutoff_chi(4 - eps, 3) == pytest.approx(0.0, abs=1e-8)

    def test_level_validation(self):
        for level in (0, 0.5, -2):
            with pytest.raises(SolverError, match="cutoff level must be >= 1"):
                SolverConfig(grid=TorusGrid(8), dt=1e-2, t_final=0.1, cutoff_level=level)

    @pytest.mark.parametrize("level", (float("nan"), float("inf")))
    def test_a_level_that_is_not_finite_is_rejected(self, level):
        with pytest.raises(SolverError, match="cutoff level must be >= 1"):
            SolverConfig(grid=TorusGrid(8), dt=1e-2, t_final=0.1, cutoff_level=level)


class TestConfig:
    def test_validation(self):
        grid = TorusGrid(16)
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=-1e-2, t_final=1.0)
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=3e-3, t_final=1.0)  # not integral
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=1e-2, t_final=1.0, mark_space=MarkSpace(weights=(1.0,)))
        for dt, t_final in ((float("nan"), 1.0), (1e-2, float("nan")), (1e-2, float("inf"))):
            with pytest.raises(SolverError, match="dt"):
                SolverConfig(grid=grid, dt=dt, t_final=t_final)
        for stride in (0, -2):
            with pytest.raises(SolverError, match="diag_stride"):
                SolverConfig(grid=grid, dt=1e-2, t_final=1.0, diag_stride=stride)
        for threshold in (-1.0, 0.0, float("nan")):
            with pytest.raises(SolverError, match="blowup_threshold"):
                SolverConfig(grid=grid, dt=1e-2, t_final=1.0, blowup_threshold=threshold)

    @pytest.mark.parametrize("stride", (float("nan"), 1.5, float("inf"), 2.0), ids=str)
    def test_a_diag_stride_that_is_not_an_integer_is_rejected(self, stride):
        # a float stride used to pass and end the first solve in a TypeError from range()
        with pytest.raises(SolverError, match="diag_stride must be an integer >= 1"):
            SolverConfig(grid=TorusGrid(16), dt=1e-2, t_final=1.0, diag_stride=stride)

    def test_a_jump_spec_built_on_another_grid_is_rejected(self, cfg16):
        # N=16 shapes on an N=8 run would fail the first forced step with a broadcast error
        with pytest.raises(SolverError, match="jump spec has 2 marks on an N=16 grid"):
            replace(cfg16, grid=TorusGrid(8))

    def test_diag_stride_default(self):
        grid = TorusGrid(16)
        short = SolverConfig(grid=grid, dt=1e-2, t_final=1.0)
        long = SolverConfig(grid=grid, dt=1e-2, t_final=4.0)
        assert short.effective_diag_stride == 1
        assert long.effective_diag_stride == 10


class TestSkeletonRhs:
    """The skeleton right-hand side as the stepping core assembles it:
    explicit terms from the oracle's ``nonlinear_terms``, the control drift, and the
    linear part -|k|^2 applied through the integrating factor."""

    def test_zero_state(self, cfg16):
        state = zero_state(cfg16.grid)
        g = Control.unit(cfg16.t_final, 1, cfg16.mark_space.size)
        nu, nth = nonlinear_terms(state.u_hat, state.theta_hat, cfg16)
        drift = control_drift(0.0, state.u_hat, g, cfg16.mark_space, cfg16.jump_spec)
        assert l2_norm(nu + drift) == 0.0
        assert l2_norm(nth) == 0.0

    def test_pure_heat_mode(self):
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.1, nonlinearity=None)
        theta = field_from_function(grid, lambda x1, x2: np.sin(2 * x1), None)
        _, nth = nonlinear_terms(np.zeros_like(theta), theta, cfg)
        dth = nth + laplacian(theta)
        assert l2_norm(dth - (-4.0) * theta) < 1e-12

    def test_convection_orthogonal_to_velocity(self, cfg16, rng):
        # the B contribution to the velocity right-hand side is L2-orthogonal to u
        from nlcsim.operators import convection_B

        u = smooth_state(cfg16.grid, rng).u_hat
        assert abs(l2_inner(convection_B(u, u), u)) <= 1e-10


class TestSkeletonSolver:
    def test_zero_init_stays_zero(self, cfg16):
        traj = solve_skeleton(zero_state(cfg16.grid), None, cfg16)
        assert traj.status == "ok"
        assert np.all(traj.u_l2 == 0.0)
        assert np.all(traj.psi == 0.0)
        assert np.all(traj.energy_residual == 0.0)

    def test_heat_decay_exact(self):
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=1.0, nonlinearity=None)
        theta = field_from_function(grid, lambda x1, x2: np.sin(x1), None)
        init = state_of(np.zeros_like(theta), theta)
        traj = solve_skeleton(init, None, cfg)
        final = traj.final_state()
        expect = float(np.exp(-1.0))
        assert l2_norm(final.theta_hat) / l2_norm(theta) == pytest.approx(expect, rel=1e-12)

    def test_director_mean_mode_retained(self):
        # constants lie in the kernel of the director Laplacian and, with the
        # relaxation disabled, persist exactly; the velocity mean stays zero
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.5, nonlinearity=None)
        theta = constant_field(grid, 0.25, -0.5)
        init = state_of(np.zeros_like(theta), theta)
        final = solve_skeleton(init, None, cfg).final_state()
        assert final.theta_hat[0, 0, 0] == pytest.approx(0.25, abs=1e-15)
        assert final.theta_hat[1, 0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert final.u_hat[0, 0, 0] == 0.0

    def test_divergence_free_preserved(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        g = Control(cfg16.t_final, np.array([[1.5, 0.5]]))
        traj = solve_skeleton(init, g, cfg16)
        for snap in traj.snapshots[:: max(len(traj.snapshots) // 5, 1)]:
            assert divergence_residual(snap.u_hat) <= 1e-11

    def test_self_convergence_first_order(self, rng):
        grid = TorusGrid(16)
        init = smooth_state(grid, rng)
        ms, spec = make_noise(grid)
        g = Control(0.25, np.array([[1.8, 0.4]]))
        dists = []
        runs = {}
        for level, dt in enumerate((2e-3, 1e-3, 5e-4)):
            r = 2**level * 25  # every r-th step: t = 0.05 j at each dt
            cfg = SolverConfig(
                grid=grid, dt=dt, t_final=0.25, mark_space=ms, jump_spec=spec, diag_stride=r
            )
            traj = solve_skeleton(init, g, cfg)
            runs[dt] = replace(traj, snapshots=traj.snapshots[::r], snapshot_times=traj.snapshot_times[::r])
        d1 = sup_state_distance(runs[2e-3], runs[1e-3])
        d2 = sup_state_distance(runs[1e-3], runs[5e-4])
        ratio = d1 / d2
        assert 1.7 <= ratio <= 2.3

    def test_blowup_guard(self, rng):
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=0.05, t_final=1.0, blowup_threshold=1e6)
        u = random_divergence_free_field(grid, rng, kmax=4, amplitude=3e4)
        th = random_vector_field(grid, rng, kmax=4, amplitude=3e4)
        traj = solve_skeleton(state_of(u, th), None, cfg)
        assert traj.status == "diverged"


class TestStochasticSolver:
    def test_determinism(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        a = solve_small_noise_sde(init, 0.2, None, cfg16, seed=99)
        b = solve_small_noise_sde(init, 0.2, None, cfg16, seed=99)
        assert np.array_equal(a.u_l2, b.u_l2)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.u_hat[0], sb.u_hat[0])
            assert np.array_equal(sa.theta_hat[1], sb.theta_hat[1])

    def test_zero_noise_matches_skeleton(self, rng):
        grid = TorusGrid(16)
        ms, spec = make_noise(grid, shape_amp=(0.0, 0.0), gains=(0.0, 0.0))
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.3, mark_space=ms, jump_spec=spec)
        init = smooth_state(grid, rng)
        phi = Control(0.3, np.array([[1.4, 0.7]]))
        sde = solve_small_noise_sde(init, 0.25, phi, cfg, seed=5)
        skel = solve_skeleton(init, phi, cfg)
        for sa, sb in zip(sde.snapshots, skel.snapshots):
            assert np.array_equal(sa.u_hat[0], sb.u_hat[0])
            assert np.array_equal(sa.u_hat[1], sb.u_hat[1])
            assert np.array_equal(sa.theta_hat[0], sb.theta_hat[0])

    def test_noise_perturbs_and_shrinks_with_eps(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        skel = solve_skeleton(init, None, cfg16)
        meds = []
        for eps in (0.4, 0.05):
            dists = [
                sup_state_distance(
                    solve_small_noise_sde(init, eps, None, cfg16, seed=1000 + k), skel
                )
                for k in range(8)
            ]
            meds.append(float(np.median(dists)))
        assert meds[0] > meds[1] > 0.0

    def test_divergence_free_preserved(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        traj = solve_small_noise_sde(init, 0.2, None, cfg16, seed=3)
        for snap in traj.snapshots[::10]:
            assert divergence_residual(snap.u_hat) <= 1e-11


class TestCutoffBehavior:
    def test_inactive_cutoff_identical(self, rng):
        grid = TorusGrid(16)
        init = smooth_state(grid, rng)
        base_cfg = dict(grid=grid, dt=1e-2, t_final=0.3)
        plain = solve_skeleton(init, None, SolverConfig(**base_cfg))
        cut = solve_skeleton(init, None, SolverConfig(**base_cfg, cutoff_level=50))
        for sa, sb in zip(plain.snapshots, cut.snapshots):
            assert np.array_equal(sa.u_hat[0], sb.u_hat[0])
            assert np.array_equal(sa.theta_hat[0], sb.theta_hat[0])


class TestConvolution:
    def test_zero_coefficient_zero_path(self, rng):
        grid = TorusGrid(16)
        ms, spec = make_noise(grid, shape_amp=(0.0, 0.0), gains=(0.0, 0.0))
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.3, mark_space=ms, jump_spec=spec)
        init = smooth_state(grid, rng)
        conv = solve_stochastic_convolution(init, 0.2, None, cfg, seed=7)
        assert np.all(conv.u_l2 == 0.0)

    def test_reproducible(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        a = solve_stochastic_convolution(init, 0.2, None, cfg16, seed=11)
        b = solve_stochastic_convolution(init, 0.2, None, cfg16, seed=11)
        assert np.array_equal(a.u_l2, b.u_l2)

    def test_scaling_trend_two_rungs(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        means = []
        for eps in (0.4, 0.1):
            sups = [
                np.max(solve_stochastic_convolution(init, eps, None, cfg16, seed=50 + k).u_l2) ** 2
                for k in range(8)
            ]
            means.append(float(np.mean(sups)))
        assert means[0] > means[1]


class TestGalerkinProject:
    def test_identity_at_full_resolution(self, rng):
        grid = TorusGrid(16)
        state = smooth_state(grid, rng, kmax=5)
        out = galerkin_project(state, 16)
        assert np.array_equal(out.u_hat[0], state.u_hat[0])
        assert np.array_equal(out.theta_hat[1], state.theta_hat[1])

    def test_single_retained_mode(self):
        grid = TorusGrid(16)
        u = leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None))
        out = galerkin_project(state_of(u, np.zeros_like(u)), 8)
        assert l2_norm(out.u_hat - u) < 1e-14

    def test_norm_non_increasing(self, rng):
        grid = TorusGrid(32)
        state = smooth_state(grid, rng, kmax=10)
        out = galerkin_project(state, 8)
        assert l2_norm(out.u_hat) <= l2_norm(state.u_hat) + 1e-14
        assert l2_norm(out.theta_hat) <= l2_norm(state.theta_hat) + 1e-14

    def test_validation(self, rng):
        grid = TorusGrid(16)
        state = smooth_state(grid, rng)
        with pytest.raises(SolverError):
            galerkin_project(state, 32)

    @pytest.mark.parametrize("n_modes", (0, -4))
    def test_a_band_with_no_modes_is_rejected(self, rng, n_modes):
        # it used to return an all-zero state
        state = smooth_state(TorusGrid(16), rng)
        with pytest.raises(SolverError, match="n_modes must be even, >= 2"):
            galerkin_project(state, n_modes)


class TestEnergyLedger:
    def test_zero_trajectory(self, cfg16):
        traj = solve_skeleton(zero_state(cfg16.grid), None, cfg16)
        ledger = energy_ledger(traj)
        assert ledger["max_abs"] == 0.0

    def test_residual_refines(self, rng):
        grid = TorusGrid(16)
        init = smooth_state(grid, rng, u_amp=0.5, th_amp=0.8)
        maxima = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(grid=grid, dt=dt, t_final=0.25)
            ledger = energy_ledger(solve_skeleton(init, None, cfg, keep_snapshots=False))
            maxima.append(ledger["max_abs"])
        assert maxima[0] > maxima[1] > 0.0

    def test_requires_per_step_diagnostics(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        cfg = SolverConfig(
            grid=cfg16.grid, dt=cfg16.dt, t_final=cfg16.t_final, diag_stride=5
        )
        traj = solve_skeleton(init, None, cfg)
        with pytest.raises(SolverError):
            energy_ledger(traj)


class TestAprioriBound:
    def test_zero_init_unit_control(self, cfg16):
        init = zero_state(cfg16.grid)
        assert apriori_bound(init, None, cfg16) == 0.0

    def test_formula_matches_manual(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        g = Control(cfg16.t_final, np.array([[2.0, 0.5]]))
        from nlcsim.noise import apriori_control_constant
        from nlcsim.operators import energy_psi

        c = apriori_control_constant(g, cfg16.mark_space, cfg16.jump_spec)
        e0 = energy_psi(init.u_hat, init.theta_hat, cfg16.nonlinearity)[0] + l2_norm(init.u_hat) ** 2
        expect = (e0 + c) * cfg16.t_final * np.exp(c * cfg16.t_final)
        assert apriori_bound(init, g, cfg16) == pytest.approx(expect, rel=1e-14)

    def test_trajectory_below_ceiling(self, rng):
        grid = TorusGrid(16)
        ms, spec = make_noise(grid)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=1.0, mark_space=ms, jump_spec=spec)
        init = smooth_state(grid, rng, u_amp=0.3, th_amp=0.5)
        g = Control(1.0, np.array([[1.6, 0.7]]))
        traj = solve_skeleton(init, g, cfg)
        assert trajectory_sup_energy(traj) < apriori_bound(init, g, cfg)


class TestComparisons:
    def test_embed_exact(self, rng):
        coarse = TorusGrid(16)
        fine = TorusGrid(32)
        state = smooth_state(coarse, rng, kmax=5)
        up = embed_state(state, fine)
        assert l2_norm(up.u_hat) == pytest.approx(l2_norm(state.u_hat), rel=1e-14)
        assert l2_norm(up.theta_hat) == pytest.approx(l2_norm(state.theta_hat), rel=1e-14)

    def test_distance_split(self, rng):
        grid = TorusGrid(16)
        a = smooth_state(grid, rng)
        b = smooth_state(grid, rng)
        d = state_distance_sq_split(a, b)
        assert d > 0
        assert state_distance_sq_split(a, a) == 0.0


class TestSerialization:
    def test_state_roundtrip(self, rng):
        grid = TorusGrid(16)
        state = smooth_state(grid, rng)
        back = state_from_text(state_to_text(state))
        assert np.allclose(back.u_hat[0], state.u_hat[0], atol=1e-16)
        assert np.allclose(back.theta_hat[0], state.theta_hat[0], atol=1e-16)
        assert back.time == state.time

    def test_trajectory_csv(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        traj = solve_skeleton(init, None, cfg16)
        text = _trajectory_csv(ExperimentConfig(seed=1), traj, "kind=skeleton")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "t",
            "u_l2",
            "u_h1",
            "theta_l2",
            "theta_h1",
            "psi",
            "dissipation",
            "energy_residual",
        ]
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(l2_norm(init.u_hat), rel=1e-15)
