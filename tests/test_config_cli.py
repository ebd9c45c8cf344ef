import json
import re
from pathlib import Path

import numpy as np
import pytest

from nlcsim.cli import _COMMANDS, main, state_to_text
from nlcsim.config import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    config_hash,
    director_shape,
    parse_config,
    parse_config_text,
    serialize_config,
    velocity_shape,
)
from nlcsim.dynamics import solve_sde_with_jumps
from nlcsim.spectral import TorusGrid

from oracle import divergence_residual, grid_values, jumps_from_text, l2_norm

MINIMAL = "seed = 7\n"

# serialize_config(ExperimentConfig(seed=0)) before solver.snapshot_stride and rate.step_size were
# removed, minus those two lines
CANONICAL_DEFAULT = """# experiment configuration (canonical form)
seed = 0
grid.modes = 16
grid.dealias_factor = 1.5
nonlinearity.coefficients = 1.0, 1.0
solver.dt = 0.01
solver.t_final = 0.5
solver.diag_stride = 0
solver.cutoff_level = 0.0
init.u = taylor_green:0.3
init.theta = stripe_x:0.5:1
noise.weights = 1.0, 0.5, 0.5, 0.25
noise.shapes = shear_x:0.05, shear_y:0.05, taylor_green:0.03, mode:0.03:1:1
noise.gains = 0.0, 0.0, 0.05, 0.05
control.cells = 1
control.values = 1.0
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.n_paths = 32
simulate.eps = 0.25
rate.penalty = 100.0
rate.cells = 1
rate.max_iters = 40
rate.tolerance = 1e-06
rate.target_tilt = 1.5
importance.eps = 0.25
importance.phi = 1.5
importance.threshold = 0.3
importance.n_paths = 400
"""

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
                assert divergence_residual(f) <= 1e-12
        combo = velocity_shape(grid, "taylor_green:0.2+mode:0.1:2:1")
        assert l2_norm(combo) > 0

    def test_director_vocabulary(self):
        grid = TorusGrid(16)
        c = grid_values(director_shape(grid, "constant:0.5:-0.25"))
        assert np.allclose(c[0], 0.5)
        assert np.allclose(c[1], -0.25)
        s = director_shape(grid, "stripe_x:0.4:2+mode:0.1:1:1:2")
        assert l2_norm(s) > 0

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

    @pytest.mark.parametrize(
        "line",
        (
            "solver.cutoff_level = 0.5",
            "solver.cutoff_level = -2",
            "solver.diag_stride = -4",
            "importance.n_paths = 0",
            "importance.eps = -1",
            "rate.cells = 0",
            "rate.max_iters = -3",
            "rate.tolerance = -1e-6",
            "rate.target_tilt = -0.5",
            "importance.threshold = nan",
            "experiment.eps_list =",
            "experiment.eps_list = 0.1, 0.4",
        ),
    )
    def test_out_of_range_value_rejected_at_its_key_and_line(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"^<config>:3: {re.escape(key)} must be"):
            parse_config_text(f"seed = 1\n# fine\n{line}\n")


    # every key whose value is a float or a tuple of floats
    FLOAT_KEYS = [
        key for key, (name, _) in _SCHEMA.items()
        if ExperimentConfig.__dataclass_fields__[name].type in ("float", "tuple[float, ...]")
    ]

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_a_non_finite_float_is_rejected_at_its_key_and_line(self, key, value):
        with pytest.raises(ConfigError, match=rf"^<config>:3: {re.escape(key)} must "):
            parse_config_text(f"seed = 1\n# fine\n{key} = {value}\n")


class TestSchema:
    def readme_key_block(self) -> list[str]:
        """The lines of the README's key block, comments stripped."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Configuration", 1)[1].split("```")[1]
        return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.split("#", 1)[0].strip()]

    def test_readme_lists_the_parsed_keys_with_their_defaults(self):
        lines = self.readme_key_block()
        keys = [ln.split("=")[0].split()[0] for ln in lines]
        canonical = [ln.split(" = ")[0] for ln in serialize_config(ExperimentConfig(seed=0)).splitlines()[1:]]
        assert keys == canonical
        assert lines[0].split() == ["seed", "(required)"]
        assert parse_config_text("\n".join(["seed = 0"] + lines[1:])) == ExperimentConfig(seed=0)

    def test_default_serialization_is_unchanged_but_for_the_stride(self):
        assert serialize_config(ExperimentConfig(seed=0)) == CANONICAL_DEFAULT

    def test_snapshot_stride_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"^<config>:2: unknown key 'solver.snapshot_stride'"):
            parse_config_text("seed = 1\nsolver.snapshot_stride = 1\n")

    def test_rate_step_size_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"^<config>:2: unknown key 'rate.step_size'"):
            parse_config_text("seed = 1\nrate.step_size = 0.5\n")


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
        jumps = jumps_from_text((out / "jumps.txt").read_text())
        assert jumps.size > 0
        traj = solve_sde_with_jumps(cfg.build_init(solver_cfg.grid), cfg.simulate_eps, jumps, solver_cfg)
        assert (out / "final_state.txt").read_text().endswith(state_to_text(traj.final_state()))

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FULL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "999"]) == 0
        assert (out1 / "jumps.txt").read_text() != (out2 / "jumps.txt").read_text()

    @pytest.mark.parametrize(
        "lines",
        (
            "solver.dt = nan",
            "grid.dealias_factor = nan",
            "simulate.eps = nan",
            "importance.threshold = nan",
            "rate.tolerance = nan",
            "experiment.eps_list =",
            "nonlinearity.coefficients =",
            "importance.phi = inf",
            "noise.gains = nan, 0, 0.05, 0.05",
            "control.cells = 3\ncontrol.values = 1, 2",
            "init.theta = constant:nan:0",
            "init.u = shear_x:inf",
        ),
    )
    def test_a_bad_value_fails_every_command_with_one_config_record(self, tmp_path, capsys, lines):
        cfg_path = self._write_cfg(tmp_path, f"seed = 1\n# fine\n{lines}\n")
        lineno = 2 + len(lines.splitlines())
        key = lines.splitlines()[-1].split("=")[0].strip()
        for command in _COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            record = json.loads(captured.err)
            assert record["error"] == "config" and captured.out == ""
            assert f"exp.ini:{lineno}: " in record["message"] and key in record["message"]
            assert not out.exists()

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


# the initial velocity blows up within a few steps, so every run from it diverges
DIVERGING = "seed = 1\ngrid.modes = 8\ninit.u = taylor_green:1e4\nimportance.n_paths = 8\nexperiment.n_paths = 8\n"
FAILURE_CASES = {
    "skeleton": ("diverged", ("skeleton_trajectory.csv", "control.csv")),
    "simulate": ("diverged", ("sde_trajectory.csv", "jumps.txt")),
    "convolution": ("diverged", ("convolution_trajectory.csv",)),
    "rate": ("diverged", ("rate_history.csv", "g_star.csv")),
    "mc-ldp": ("numerical", None),
    "importance": ("numerical", None),
}


def _run_failing(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    records = []
    for line in captured.err.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return rc, records, captured.out, out


@pytest.mark.parametrize("command", FAILURE_CASES)
def test_a_failed_run_exits_2_with_one_record_and_no_checkpoint(tmp_path, capsys, command):
    kind, artifacts = FAILURE_CASES[command]
    rc, records, stdout, out = _run_failing(tmp_path, capsys, command, DIVERGING)
    assert rc == 2
    assert [r["error"] for r in records] == [kind]
    if artifacts is None:  # a raised failure writes nothing
        assert not out.exists() and stdout == ""
    else:  # a diverged run writes its artifacts and echo, and prints its report, but no final state
        assert sorted(p.name for p in out.iterdir()) == sorted(artifacts + ("config_echo.ini",))
        assert stdout.startswith(f"{command}: ") and f" -> {out}/{artifacts[0]}" in stdout


def test_a_rate_target_run_that_diverges_is_a_numerical_error(tmp_path, capsys):
    text = "seed = 1\ngrid.modes = 8\nrate.target_tilt = 1000\n"
    rc, records, stdout, out = _run_failing(tmp_path, capsys, "rate", text)
    assert rc == 2 and stdout == "" and not out.exists()
    assert [r["error"] for r in records] == ["numerical"]
    assert records[0]["message"].startswith("rate target run (target_tilt = 1000) hit the blow-up guard after t = ")


def test_verify_with_a_failed_check_prints_a_numerical_record(tmp_path, capsys, monkeypatch):
    import nlcsim.cli as cli
    from nlcsim.verify import CheckResult

    results = [CheckResult("g", "fine", True, "ok"), CheckResult("g", "broken", False, "off by 1")]
    monkeypatch.setattr(cli, "run_all", lambda cfg: results)
    rc, records, stdout, out = _run_failing(tmp_path, capsys, "verify", MINIMAL)
    assert rc == 2
    assert records == [{"error": "numerical", "message": "1 of 2 checks failed"}]
    assert "FAIL  g/broken" in stdout and "1/2 checks passed" in stdout
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.ini", "verify_report.csv"]
