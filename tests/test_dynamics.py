import numpy as np
import pytest

from nlcsim.dynamics import (
    SolverConfig,
    SolverError,
    SpectralState,
    apriori_bound,
    cutoff_chi,
    embed_state,
    energy_ledger,
    galerkin_project,
    solve_skeleton,
    solve_small_noise_sde,
    solve_stochastic_convolution,
    state_distance_sq_split,
    state_from_text,
    state_to_text,
    sup_state_distance,
    trajectory_sup_energy,
)
from nlcsim.noise import Control, MarkSpace, control_drift
from nlcsim.spectral import (
    DivergenceFreeField,
    ScalarField,
    TorusGrid,
    VectorField,
    l2_norm,
    leray_project,
)

from oracle import (
    divergence_residual,
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


def make_noise(grid, shape_amp=(0.05, 0.05), gains=(0.0, 0.1), weights=(1.0, 0.5)):
    shapes = (
        shape_amp[0]
        * leray_project(
            VectorField(field_from_function(grid, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid))
        ),
        shape_amp[1]
        * leray_project(
            VectorField(ScalarField.zeros(grid), field_from_function(grid, lambda x1, x2: np.sin(x1)))
        ),
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
        with pytest.raises(SolverError):
            cutoff_chi(1.0, 0)


class TestConfig:
    def test_validation(self):
        grid = TorusGrid(16)
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=-1e-2, t_final=1.0)
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=3e-3, t_final=1.0)  # not integral
        with pytest.raises(SolverError):
            SolverConfig(grid=grid, dt=1e-2, t_final=1.0, mark_space=MarkSpace(weights=(1.0,)))

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
        nu, nth = nonlinear_terms(u_of(state), theta_of(state), cfg16)
        drift = control_drift(0.0, u_of(state), g, cfg16.mark_space, cfg16.jump_spec)
        assert l2_norm(nu + drift) == 0.0
        assert l2_norm(nth) == 0.0

    def test_pure_heat_mode(self):
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.1, nonlinearity=None)
        theta = VectorField(
            field_from_function(grid, lambda x1, x2: np.sin(2 * x1)), ScalarField.zeros(grid)
        )
        zero_u = DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid))
        _, nth = nonlinear_terms(zero_u, theta, cfg)
        linear = VectorField(
            ScalarField.from_coeffs(grid, grid.ksq() * theta.c1.coeffs),
            ScalarField.from_coeffs(grid, grid.ksq() * theta.c2.coeffs),
        )
        dth = nth - linear
        assert l2_norm(dth - (-4.0) * theta) < 1e-12

    def test_convection_orthogonal_to_velocity(self, cfg16, rng):
        # the B contribution to the velocity right-hand side is L2-orthogonal to u
        from nlcsim.operators import convection_B
        from nlcsim.spectral import l2_inner

        state = smooth_state(cfg16.grid, rng)
        assert abs(l2_inner(convection_B(u_of(state), u_of(state)), u_of(state))) <= 1e-10


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
        theta = VectorField(
            field_from_function(grid, lambda x1, x2: np.sin(x1)), ScalarField.zeros(grid)
        )
        init = state_of(
            DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid)), theta
        )
        traj = solve_skeleton(init, None, cfg)
        final = traj.final_state()
        expect = float(np.exp(-1.0))
        assert l2_norm(theta_of(final)) / l2_norm(theta) == pytest.approx(expect, rel=1e-12)

    def test_director_mean_mode_retained(self):
        # constants lie in the kernel of the director Laplacian and, with the
        # relaxation disabled, persist exactly; the velocity mean stays zero
        grid = TorusGrid(16)
        cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.5, nonlinearity=None)
        theta = VectorField.from_values(
            grid, np.full((16, 16), 0.25), np.full((16, 16), -0.5)
        )
        init = state_of(
            DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid)), theta
        )
        final = solve_skeleton(init, None, cfg).final_state()
        assert theta_of(final).c1.coeff_at(0, 0) == pytest.approx(0.25, abs=1e-15)
        assert theta_of(final).c2.coeff_at(0, 0) == pytest.approx(-0.5, abs=1e-15)
        assert u_of(final).c1.coeff_at(0, 0) == 0.0

    def test_divergence_free_preserved(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        g = Control(cfg16.t_final, np.array([[1.5, 0.5]]))
        traj = solve_skeleton(init, g, cfg16)
        for snap in traj.snapshots[:: max(len(traj.snapshots) // 5, 1)]:
            assert divergence_residual(u_of(snap)) <= 1e-11

    def test_self_convergence_first_order(self, rng):
        grid = TorusGrid(16)
        init = smooth_state(grid, rng)
        ms, spec = make_noise(grid)
        g = Control(0.25, np.array([[1.8, 0.4]]))
        dists = []
        runs = {}
        for level, dt in enumerate((2e-3, 1e-3, 5e-4)):
            cfg = SolverConfig(
                grid=grid,
                dt=dt,
                t_final=0.25,
                mark_space=ms,
                jump_spec=spec,
                snapshot_stride=2**level * 25,
                diag_stride=2**level * 25,
            )
            runs[dt] = solve_skeleton(init, g, cfg)
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
            assert divergence_residual(u_of(snap)) <= 1e-11


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
        u = leray_project(
            VectorField(field_from_function(grid, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid))
        )
        th = VectorField.zeros(grid)
        out = galerkin_project(state_of(u, th), 8)
        assert l2_norm(u_of(out) - u) < 1e-14

    def test_norm_non_increasing(self, rng):
        grid = TorusGrid(32)
        state = smooth_state(grid, rng, kmax=10)
        out = galerkin_project(state, 8)
        assert l2_norm(u_of(out)) <= l2_norm(u_of(state)) + 1e-14
        assert l2_norm(theta_of(out)) <= l2_norm(theta_of(state)) + 1e-14

    def test_validation(self, rng):
        grid = TorusGrid(16)
        state = smooth_state(grid, rng)
        with pytest.raises(SolverError):
            galerkin_project(state, 32)


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
            cfg = SolverConfig(grid=grid, dt=dt, t_final=0.25, snapshot_stride=1000)
            ledger = energy_ledger(solve_skeleton(init, None, cfg))
            maxima.append(ledger["max_abs"])
        assert maxima[0] > maxima[1] > 0.0

    def test_director_only_identity(self, rng):
        # frozen velocity: d psi + |Delta theta - f(theta)|^2 dt balances alone
        grid = TorusGrid(16)
        init = state_of(
            DivergenceFreeField(ScalarField.zeros(grid), ScalarField.zeros(grid)),
            random_vector_field(grid, rng, kmax=3, amplitude=0.8, decay=0.4),
        )
        maxima = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(
                grid=grid, dt=dt, t_final=0.25, freeze_velocity=True, snapshot_stride=1000
            )
            ledger = energy_ledger(solve_skeleton(init, None, cfg))
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
        e0 = energy_psi(u_of(init), theta_of(init), cfg16.nonlinearity).psi_total + l2_norm(u_of(init)) ** 2
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
        assert l2_norm(u_of(up)) == pytest.approx(l2_norm(u_of(state)), rel=1e-14)
        assert l2_norm(theta_of(up)) == pytest.approx(l2_norm(theta_of(state)), rel=1e-14)

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
        assert np.allclose(u_of(back).c1.coeffs, u_of(state).c1.coeffs, atol=1e-16)
        assert np.allclose(theta_of(back).c1.coeffs, theta_of(state).c1.coeffs, atol=1e-16)
        assert back.time == state.time

    # malformed checkpoints raise SolverError, not a KeyError or a silent wrap

    def test_coefficient_before_component_rejected(self):
        with pytest.raises(SolverError, match="line 2: coefficient line before any component"):
            state_from_text("# modes=8 time=0\n1 0 0.5 0\n")

    def test_unknown_component_rejected(self):
        with pytest.raises(SolverError, match="line 2: unknown component 'w9'"):
            state_from_text("# modes=8 time=0\n# component w9\n1 0 0.5 0\n")

    def test_missing_modes_header_rejected(self):
        with pytest.raises(SolverError, match="missing the modes header"):
            state_from_text("# component theta1\n1 0 0.5 0\n")
        with pytest.raises(SolverError, match="missing the modes header"):
            state_from_text("")

    def test_out_of_band_wavenumber_rejected(self):
        with pytest.raises(SolverError, match=r"line 3: wavenumber \(9, 0\) is outside the band of N=8"):
            state_from_text("# modes=8 time=0\n# component theta1\n9 0 0.5 0\n")
        with pytest.raises(SolverError, match="outside the band"):
            state_from_text("# modes=8 time=0\n# component theta1\n-4 0 0.5 0\n")

    def test_unparsable_line_rejected(self):
        with pytest.raises(SolverError, match="line 3: cannot parse"):
            state_from_text("# modes=8 time=0\n# component u1\n1 0 x 0\n")

    def test_trajectory_csv(self, cfg16, rng):
        init = smooth_state(cfg16.grid, rng)
        traj = solve_skeleton(init, None, cfg16)
        text = traj.to_csv(header_lines=("config_hash=deadbeef", "seed=1"))
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
        assert first[1] == pytest.approx(l2_norm(u_of(init)), rel=1e-15)
