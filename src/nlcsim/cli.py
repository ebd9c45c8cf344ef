"""Command-line orchestration: parse a config, run an experiment, write CSVs.

Subcommands: ``verify`` (invariant suite), ``skeleton`` (deterministic
controlled run), ``simulate`` (jump-driven run), ``convolution`` (auxiliary
jump convolution), ``rate`` (tilt optimization), ``mc-ldp`` (small-noise
distance study), ``importance`` (tilted estimator vs plain Monte Carlo).

``main`` is the one frame every command runs in: it parses the config,
builds the run's ``SolverConfig`` and initial state once (``verify`` builds
none), calls the command, writes the artifacts the command returns and then
``config_echo.ini``, prints the command's report, and for a run that
finished but failed (a diverged trajectory, a failed check) prints one JSON
error record on stderr.  The ``cmd_*`` functions only compute; a command
that raises writes nothing.

This module is the one writer of the artifact formats.  Every artifact
starts with comment lines carrying the config hash and the root seed, so a
run can be reproduced exactly from its outputs.  The CSVs are built by
``_csv`` (numbers as ``%.17g``, strings verbatim); ``state_to_text`` writes
the final-state checkpoint and ``_jumps_text`` the ``jumps.txt`` table.
Exit codes: 0 success, 1 configuration/validation error (an unreadable
config or ``--out``), 2 numerical failure, always with one JSON error
record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import _RULES, ConfigError, ExperimentConfig, config_hash, parse_config, serialize_config
from .dynamics import (
    SolverConfig,
    SolverError,
    SpectralState,
    Trajectory,
    draw_jumps,
    solve_path_batch,
    solve_skeleton,
)
from .ldp import (
    RateProblem,
    StudyError,
    convolution_scaling_study,
    importance_weights,
    mc_small_noise_study,
    optimize_control,
    plain_mc_probability,
    sup_velocity_indicator,
)
# thin_to_control is drawn through draw_jumps; bench/tracer.py wraps it under this attribute too
from .noise import Control, JumpSample, thin_to_control  # noqa: F401
from .spectral import full_from_half
from .verify import render_table, run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _error_record(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message})


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _with_headers(cfg: ExperimentConfig, body: str, extra: tuple[str, ...] = ()) -> str:
    headers = (f"config_hash={config_hash(cfg)}", f"seed={cfg.seed}") + extra
    return "".join(f"# {h}\n" for h in headers) + body


def _csv(cfg: ExperimentConfig, columns, rows, extra: tuple[str, ...] = ()) -> str:
    """Headers as ``# ...`` lines, then the column line and one line per row.

    Numbers are written as ``%.17g`` (an int as its digits), strings verbatim.
    """
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows]
    return _with_headers(cfg, "\n".join(lines) + "\n", extra)


# the Trajectory series of a trajectory CSV, after its time column "t"
_DIAG_SERIES = ("u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation", "energy_residual")


def _trajectory_csv(cfg: ExperimentConfig, traj: Trajectory, kind: str) -> str:
    cols = [traj.times] + [getattr(traj, name) for name in _DIAG_SERIES]
    return _csv(cfg, ("t",) + _DIAG_SERIES, zip(*cols), (kind,))


def _control_csv(cfg: ExperimentConfig, control: Control) -> str:
    """One row per time cell and one column per mark."""
    shape = f"horizon={control.horizon:.17g} cells={control.n_cells} marks={control.n_marks}"
    columns = [f"g_mark{i+1}" for i in range(control.n_marks)]
    return _csv(cfg, columns, control.values, (shape,))


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


def _jumps_text(jumps: JumpSample) -> str:
    """The ``jumps.txt`` table: one ``t mark_index`` line per event."""
    return "# t mark_index\n" + "".join(f"{t:.17g} {m}\n" for t, m in zip(jumps.times, jumps.marks))


# Every cmd_* maps (cfg, solver_cfg, init) to (files, report, failure): the
# (name, text) artifacts in writing order, the text ``main`` prints, and None
# or the (kind, message) error record of a run that finished but failed.


def _diverged(traj: Trajectory, what: str):
    return ("diverged", f"{what} hit the blow-up guard") if traj.diverged else None


def _checkpoint(cfg: ExperimentConfig, traj: Trajectory) -> list:
    """``final_state.txt`` of a run that reached t_final; none for a diverged run."""
    return [] if traj.diverged else [("final_state.txt", _with_headers(cfg, state_to_text(traj.final_state())))]


def cmd_verify(cfg: ExperimentConfig, solver_cfg: None, init: None):
    results = run_all(cfg)
    rows = [(r.group, r.name, int(r.passed), f'"{r.detail}"') for r in results]
    files = [("verify_report.csv", _csv(cfg, ("group", "name", "passed", "detail"), rows))]
    n_fail = sum(not r.passed for r in results)
    failure = ("numerical", f"{n_fail} of {len(results)} checks failed") if n_fail else None
    return files, render_table(results), failure


def cmd_skeleton(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    g = cfg.build_control()
    traj = solve_skeleton(init, g, solver_cfg, keep_snapshots=False)
    files = [("skeleton_trajectory.csv", _trajectory_csv(cfg, traj, "kind=skeleton"))]
    files += _checkpoint(cfg, traj) + [("control.csv", _control_csv(cfg, g))]
    return files, f"skeleton: {len(traj.times)} diagnostic rows", _diverged(traj, "skeleton run")


def cmd_simulate(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    eps = cfg.simulate_eps
    # the SDE sees the tilt only through its jumps: draw them once, replay, and save them
    jumps = draw_jumps(eps, cfg.build_control(), solver_cfg, cfg.seed)
    traj = solve_path_batch(init, eps, [jumps], solver_cfg)[0]
    files = [
        ("sde_trajectory.csv", _trajectory_csv(cfg, traj, f"kind=sde eps={eps}")),
        ("jumps.txt", _with_headers(cfg, _jumps_text(jumps))),
    ]
    report = f"simulate: eps={eps}, {jumps.size} jumps"
    return files + _checkpoint(cfg, traj), report, _diverged(traj, "jump-driven run")


def cmd_convolution(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    eps, phi = cfg.simulate_eps, cfg.build_control()
    jumps = draw_jumps(eps, phi, solver_cfg, cfg.seed)
    conv = solve_path_batch(init, eps, [jumps], solver_cfg, convolution_phi=solver_cfg.tilt(phi))[0]
    files = [("convolution_trajectory.csv", _trajectory_csv(cfg, conv, f"kind=convolution eps={eps}"))]
    report = f"convolution: sup |xi| = {float(np.max(conv.u_l2)):.6g}"
    return files, report, _diverged(conv, "convolution run")


def cmd_rate(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    target_control = None
    if cfg.rate_target_tilt != 1.0:
        target_control = Control.constant(solver_cfg.t_final, cfg.rate_target_tilt, 1, solver_cfg.mark_space.size)
    target = solve_skeleton(init, target_control, solver_cfg, keep_snapshots=False)
    if target.diverged:
        # an error unless the unit-tilt start diverges too (an infinite objective)
        if not solve_skeleton(init, None, solver_cfg, keep_snapshots=False).diverged:
            tilt, t = cfg.rate_target_tilt, target.times[-1]
            raise SolverError(f"rate target run (target_tilt = {tilt:g}) hit the blow-up guard after t = {t:.6g}")
        target = solve_skeleton(init, target_control, solver_cfg)  # its last state before the guard
    prob = RateProblem(
        init, target.final_state(), solver_cfg, penalty_weight=cfg.rate_penalty, n_cells=cfg.rate_cells,
        max_iters=cfg.rate_max_iters, tolerance=cfg.rate_tolerance,
    )
    sol = optimize_control(prob)
    files = [
        ("rate_history.csv", _csv(cfg, ("iteration", "objective", "cost", "mismatch"), sol.history)),
        ("g_star.csv", _control_csv(cfg, sol.g_star)),
    ]
    report = (
        f"rate: objective={sol.objective:.6g} cost={sol.cost:.6g} "
        f"mismatch={sol.mismatch:.6g} converged={sol.converged}"
    )
    failure = None if np.isfinite(sol.objective) else ("diverged", "rate optimizer's start hit the blow-up guard")
    return files, report, failure


def cmd_mc_ldp(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    phi, eps_list, n_paths = cfg.build_control(), cfg.experiment_eps_list, cfg.experiment_n_paths
    rows = mc_small_noise_study(eps_list, n_paths, solver_cfg, init, seed=cfg.seed, phi=phi)
    conv_rows = convolution_scaling_study(eps_list, n_paths, solver_cfg, init, seed=cfg.seed, phi=phi)
    columns, conv_columns = ("eps", "median", "q25", "q75", "n_diverged"), ("eps", "mean_sup_sq")
    files = [
        ("mc_ldp.csv", _csv(cfg, columns, ([r[c] for c in columns] for r in rows))),
        ("convolution_scaling.csv", _csv(cfg, conv_columns, ([r[c] for c in conv_columns] for r in conv_rows))),
    ]
    report = "mc-ldp medians: " + ", ".join(f"{e:.3g}:{r['median']:.4g}" for e, r in zip(eps_list, rows))
    return files, report, None


def cmd_importance(cfg: ExperimentConfig, solver_cfg: SolverConfig, init: SpectralState):
    eps, n_paths = cfg.importance_eps, cfg.importance_n_paths
    indicator = sup_velocity_indicator(cfg.importance_threshold)
    phi = cfg.build_importance_phi()
    tilted = importance_weights(indicator, phi, eps, n_paths, solver_cfg, init, seed=cfg.seed)
    plain = plain_mc_probability(indicator, eps, n_paths, solver_cfg, init, seed=cfg.seed)
    columns = ("estimate", "std_error", "n_paths", "n_diverged", "sample_variance")
    rows = [(name, *(res[c] for c in columns)) for name, res in (("tilted", tilted), ("plain", plain))]
    extra = (f"eps={eps} threshold={cfg.importance_threshold}",)
    report = (
        f"importance: tilted={tilted['estimate']:.5g} (se {tilted['std_error']:.2g}) "
        f"plain={plain['estimate']:.5g} (se {plain['std_error']:.2g}) "
        f"log_estimate={tilted['log_estimate']:.6g} ess={tilted['ess']:.4g} "
        f"max_weight_share={tilted['max_weight_share']:.3g} "
        f"tilted_hits={tilted['hits']} plain_hits={plain['hits']} "
        f"degenerate={tilted['degenerate'] and plain['degenerate']}"
    )
    return [("importance.csv", _csv(cfg, ("method", *columns), rows, extra))], report, None


# command -> (cmd_*, whether its trajectories carry energy columns); verify builds no run
_COMMANDS = {
    "verify": (cmd_verify, None),
    "skeleton": (cmd_skeleton, True),
    "simulate": (cmd_simulate, True),
    "convolution": (cmd_convolution, True),
    "rate": (cmd_rate, False),
    "mc-ldp": (cmd_mc_ldp, False),
    "importance": (cmd_importance, False),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Pseudospectral nematic liquid-crystal flow with jump noise."
    parser = argparse.ArgumentParser(prog="nlcsim", description=description)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="deprecated and ignored: Monte Carlo paths are stepped in batches on one thread",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads > 1:
        print("nlcsim: --threads is deprecated and has no effect", file=sys.stderr)
    out_dir = Path(args.out)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            holds, what = _RULES["seed"]
            if not holds(args.seed):
                raise ConfigError(f"seed must {what}, got {args.seed}", "--seed")
            cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError("--out exists and is not a directory", str(out_dir))
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    command, energy = _COMMANDS[args.command]
    try:
        solver_cfg = init = None
        if energy is not None:
            solver_cfg = cfg.build_solver_config(energy_diagnostics=energy)
            init = cfg.build_init(solver_cfg.grid)
        files, report, failure = command(cfg, solver_cfg, init)
    except (SolverError, StudyError) as exc:
        # SolverError subclasses ValueError: match it before the generic case
        print(_error_record("numerical", str(exc)), file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(_error_record("validation", str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    try:
        for name, text in files + [("config_echo.ini", _with_headers(cfg, serialize_config(cfg)))]:
            _write(out_dir, name, text)
    except OSError as exc:
        print(_error_record("config", f"cannot write --out {out_dir}: {exc}"), file=sys.stderr)
        return EXIT_CONFIG
    print(f"{report} -> {out_dir}/{files[0][0]}")
    if failure is not None:
        print(_error_record(*failure), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
