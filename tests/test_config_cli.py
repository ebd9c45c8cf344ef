import numpy as np
import pytest

from nlcsim.cli import main
from nlcsim.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    director_shape,
    parse_config,
    parse_config_text,
    serialize_config,
    velocity_shape,
)
from nlcsim.dynamics import solve_sde_with_jumps, state_to_text
from nlcsim.noise import JumpSample
from nlcsim.spectral import TorusGrid, l2_norm, vector_field

from oracle import divergence_residual

MINIMAL = "seed = 7\n"

FULL = """
# full experiment file
seed = 11
grid.modes = 16
grid.dealias_factor = 1.5
nonlinearity.coefficients = 1.0, 1.0
solver.dt = 0.01
solver.t_final = 0.2
init.u = taylor_green:0.2
init.theta = stripe_x:0.4:1
noise.weights = 1.0, 0.5
noise.shapes = shear_x:0.05, shear_y:0.05
noise.gains = 0.0, 0.1
control.cells = 2
control.values = 1.0, 1.0, 1.5, 0.5
experiment.eps_list = 0.4, 0.2
experiment.n_paths = 8
simulate.eps = 0.25
"""


class TestShapes:
    def test_velocity_vocabulary_divergence_free(self):
        grid = TorusGrid(16)
        for token in ("zero", "shear_x:0.3", "shear_y:0.5:2", "taylor_green:0.2", "mode:0.1:1:1"):
            f = velocity_shape(grid, token)
            assert f.shape == (2, 16, 9)
            if token != "zero":
                assert divergence_residual(vector_field(grid, f)) <= 1e-12
        combo = velocity_shape(grid, "taylor_green:0.2+mode:0.1:2:1")
        assert l2_norm(vector_field(grid, combo)) > 0

    def test_director_vocabulary(self):
        grid = TorusGrid(16)
        c = vector_field(grid, director_shape(grid, "constant:0.5:-0.25"))
        assert np.allclose(c.c1.values, 0.5)
        assert np.allclose(c.c2.values, -0.25)
        s = director_shape(grid, "stripe_x:0.4:2+mode:0.1:1:1:2")
        assert l2_norm(vector_field(grid, s)) > 0

    def test_unknown_shape_rejected(self):
        grid = TorusGrid(16)
        with pytest.raises(ConfigError):
            velocity_shape(grid, "vortex_sheet:1.0")
        with pytest.raises(ConfigError):
            director_shape(grid, "spiral:1.0")
        for token in ("shear_x", "taylor_green:0.2:1:7"):
            with pytest.raises(ConfigError, match="needs amp"):
                velocity_shape(grid, token)
        with pytest.raises(ConfigError, match="needs amp"):
            director_shape(grid, "stripe_x:0.4:1:2")

    # at grid.modes = 8 the band is |k| <= 3: k = 5 aliases to k = 3, k = 4 is the Nyquist
    # line (a zero director), and k = 6 aliases to k = 2

    def test_aliasing_director_wavenumber_rejected(self):
        with pytest.raises(ConfigError, match=r":3: .*wavenumber 5 is outside the band \|k\| <= 3"):
            parse_config_text("seed = 1\ngrid.modes = 8\ninit.theta = stripe_x:0.5:5\n")

    def test_nyquist_director_wavenumber_rejected(self):
        with pytest.raises(ConfigError, match=r":3: .*wavenumber 4 is outside the band"):
            parse_config_text("seed = 1\ngrid.modes = 8\ninit.theta = stripe_x:0.5:4\n")

    def test_aliasing_velocity_wavenumber_rejected(self):
        with pytest.raises(ConfigError, match=r":4: .*wavenumber 6 is outside the band"):
            parse_config_text("seed = 1\ngrid.modes = 8\ninit.theta = zero\ninit.u = shear_x:0.3:6\n")

    def test_non_integer_wavenumber_rejected(self):
        grid = TorusGrid(16)
        for token in ("shear_x:0.3:2.5", "mode:0.1:1:0.5", "taylor_green:0.2:inf"):
            with pytest.raises(ConfigError, match="is not an integer"):
                velocity_shape(grid, token)
        with pytest.raises(ConfigError, match="is not an integer"):
            director_shape(grid, "stripe_y:0.4:1.5")

    def test_band_edge_wavenumber_accepted(self):
        cfg = parse_config_text("seed = 1\ngrid.modes = 8\ninit.theta = stripe_x:0.5:3\n")
        theta = cfg.build_init(cfg.build_grid()).theta_hat
        assert theta[0, 3, 0] == pytest.approx(-0.25j, abs=1e-15)


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.seed == 7
        assert cfg.grid_modes == 16
        assert cfg.nonlinearity_coefficients == (1.0, 1.0)
        assert cfg.experiment_n_paths == 32

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("grid.modes = 16\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("seed = 1\n# fine\nbogus.key = 2\n")

    def test_negative_coefficient_rejected(self):
        text = "seed = 1\nnonlinearity.coefficients = 1.0, -1.0\n"
        with pytest.raises(ConfigError, match="coefficients must all be > 0"):
            parse_config_text(text)

    def test_odd_modes_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config_text("seed = 1\ngrid.modes = 17\n")

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config_text("seed = 1\nsolver.dt = -0.5\n")

    def test_negative_weight_rejected(self):
        text = "seed = 1\nnoise.weights = 1.0, -2.0\nnoise.shapes = zero, zero\nnoise.gains = 0, 0\n"
        with pytest.raises(ConfigError, match="positive"):
            parse_config_text(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_mismatched_noise_lengths(self):
        text = "seed = 1\nnoise.weights = 1.0, 1.0\nnoise.shapes = zero\nnoise.gains = 0, 0\n"
        with pytest.raises(ConfigError, match="match"):
            parse_config_text(text)

    def test_roundtrip(self):
        cfg = parse_config_text(FULL)
        again = parse_config_text(serialize_config(cfg))
        assert cfg == again
        assert config_hash(cfg) == config_hash(again)

    def test_builders(self):
        cfg = parse_config_text(FULL)
        grid = cfg.build_grid()
        init = cfg.build_init(grid)
        assert init.grid.n == 16 and init.u_hat.shape == init.theta_hat.shape == (2, 16, 9)
        control = cfg.build_control()
        assert control.values.shape == (2, 2)
        sc = cfg.build_solver_config()
        assert sc.mark_space.size == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.ini"))


class TestCli:
    def _write_cfg(self, tmp_path, text):
        p = tmp_path / "exp.ini"
        p.write_text(text)
        return str(p)

    def test_skeleton_writes_artifacts(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        rc = main(["skeleton", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        traj = (out / "skeleton_trajectory.csv").read_text()
        assert traj.startswith("# config_hash=")
        assert "t,u_l2,u_h1,theta_l2,theta_h1,psi,dissipation,energy_residual" in traj
        assert (out / "final_state.txt").exists()
        assert (out / "config_echo.ini").exists()

    def test_simulate_deterministic(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "sde_trajectory.csv").read_bytes() == (out2 / "sde_trajectory.csv").read_bytes()

    def test_simulate_jumps_replay_to_final_state(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        cfg = parse_config(cfg_path)
        solver_cfg = cfg.build_solver_config()
        jumps = JumpSample.from_text(
            (out / "jumps.txt").read_text(), solver_cfg.t_final, 1.0 / cfg.simulate_eps
        )
        assert jumps.size > 0
        traj = solve_sde_with_jumps(cfg.build_init(solver_cfg.grid), cfg.simulate_eps, jumps, solver_cfg)
        assert (out / "final_state.txt").read_text().endswith(state_to_text(traj.final_state()))

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "999"]) == 0
        assert (out1 / "jumps.txt").read_text() != (out2 / "jumps.txt").read_text()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "grid.modes = 16\n")
        rc = main(["skeleton", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert '"error"' in err and "seed" in err

    def test_convolution_runs(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out = tmp_path / "conv"
        assert main(["convolution", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "convolution_trajectory.csv").exists()

    def test_rate_subcommand(self, tmp_path):
        text = FULL.replace("grid.modes = 16", "grid.modes = 8")
        text += "rate.max_iters = 5\nrate.target_tilt = 1.3\n"
        cfg_path = self._write_cfg(tmp_path, text)
        out = tmp_path / "rate"
        assert main(["rate", "--config", cfg_path, "--out", str(out)]) == 0
        hist = (out / "rate_history.csv").read_text()
        assert "iteration,objective,cost,mismatch" in hist
        assert (out / "g_star.csv").exists()

    def test_mc_ldp_subcommand(self, tmp_path):
        text = FULL.replace("grid.modes = 16", "grid.modes = 8")
        cfg_path = self._write_cfg(tmp_path, text)
        out = tmp_path / "mc"
        assert main(["mc-ldp", "--config", cfg_path, "--out", str(out)]) == 0
        table = (out / "mc_ldp.csv").read_text()
        assert "eps,median,q25,q75,n_diverged" in table
        assert (out / "convolution_scaling.csv").exists()

    def test_threads_is_deprecated_and_ignored(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, FULL.replace("grid.modes = 16", "grid.modes = 8"))
        outs = {}
        for k in (1, 3):
            outs[k] = tmp_path / f"threads{k}"
            assert main(["mc-ldp", "--config", cfg_path, "--out", str(outs[k]), "--threads", str(k)]) == 0
            err = capsys.readouterr().err
            assert err.count("deprecated") == (k > 1)
        for name in ("mc_ldp.csv", "convolution_scaling.csv"):
            assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes()

    def test_importance_subcommand(self, tmp_path):
        text = FULL.replace("grid.modes = 16", "grid.modes = 8") + "importance.n_paths = 40\n"
        cfg_path = self._write_cfg(tmp_path, text)
        out = tmp_path / "imp"
        assert main(["importance", "--config", cfg_path, "--out", str(out)]) == 0
        table = (out / "importance.csv").read_text()
        assert "method,estimate,std_error,n_paths,n_diverged,sample_variance" in table
        assert "tilted," in table and "plain," in table

    def test_importance_prints_hits_and_degenerate_flag(self, tmp_path, capsys):
        text = "seed = 7\ngrid.modes = 8\nimportance.n_paths = 8\nimportance.threshold = 1.4\n"
        cfg_path = self._write_cfg(tmp_path, text)
        assert main(["importance", "--config", cfg_path, "--out", str(tmp_path / "imp")]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("importance:")][0]
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        assert fields["tilted_hits"] == "0" and fields["plain_hits"] == "0"
        assert fields["degenerate"] == "True"
        header = (tmp_path / "imp" / "importance.csv").read_text().splitlines()[3]
        assert header == "method,estimate,std_error,n_paths,n_diverged,sample_variance"

    def test_verify_subcommand_passes(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "verify"
        rc = main(["verify", "--config", cfg_path, "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in captured
        assert "FAIL" not in captured
        assert (out / "verify_report.csv").exists()

    def test_zero_init_skeleton_zero_csv(self, tmp_path):
        text = FULL.replace("init.u = taylor_green:0.2", "init.u = zero").replace(
            "init.theta = stripe_x:0.4:1", "init.theta = zero"
        ).replace("control.values = 1.0, 1.0, 1.5, 0.5", "control.values = 1.0")
        cfg_path = self._write_cfg(tmp_path, text)
        out = tmp_path / "zero"
        assert main(["skeleton", "--config", cfg_path, "--out", str(out)]) == 0
        rows = [
            line
            for line in (out / "skeleton_trajectory.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        for row in rows:
            values = [float(v) for v in row.split(",")[1:]]
            assert all(v == 0.0 for v in values)
