"""Command-line orchestration: parse a config, run an experiment, write CSVs.

Subcommands: ``verify`` (invariant suite), ``skeleton`` (deterministic
controlled run), ``simulate`` (jump-driven run), ``convolution`` (auxiliary
jump convolution), ``rate`` (tilt optimization), ``mc-ldp`` (small-noise
distance study), ``importance`` (tilted estimator vs plain Monte Carlo).

Every artifact starts with comment lines carrying the config hash and the
root seed, so a run can be reproduced exactly from its outputs.  Exit
codes: 0 success, 1 configuration/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize_config
from .dynamics import (
    SolverError,
    draw_jumps,
    solve_sde_with_jumps,
    solve_skeleton,
    solve_stochastic_convolution,
    state_to_text,
)
from .ldp import (
    RateProblem,
    StudyError,
    convolution_scaling_study,
    importance_weights,
    mc_small_noise_study,
    optimize_control,
    plain_mc_probability,
    study_rows_csv,
    sup_velocity_indicator,
)
# thin_to_control is drawn through draw_jumps; bench/tracer.py wraps it under this attribute too
from .noise import control_to_csv, thin_to_control  # noqa: F401
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


def _headers(cfg: ExperimentConfig, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    return (f"config_hash={config_hash(cfg)}", f"seed={cfg.seed}") + extra


def _with_headers(cfg: ExperimentConfig, body: str, extra: tuple[str, ...] = ()) -> str:
    return "".join(f"# {h}\n" for h in _headers(cfg, extra)) + body


def _echo_config(cfg: ExperimentConfig, out_dir: Path):
    _write(out_dir, "config_echo.ini", _with_headers(cfg, serialize_config(cfg)))


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    results = run_all(cfg)
    print(render_table(results))
    rows = ["group,name,passed,detail"]
    rows += [f"{r.group},{r.name},{int(r.passed)},\"{r.detail}\"" for r in results]
    _write(out_dir, "verify_report.csv", "\n".join(f"# {h}" for h in _headers(cfg)) + "\n" + "\n".join(rows) + "\n")
    _echo_config(cfg, out_dir)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def cmd_skeleton(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config()
    init = cfg.build_init(solver_cfg.grid)
    g = cfg.build_control()
    traj = solve_skeleton(init, g, solver_cfg)
    _write(out_dir, "skeleton_trajectory.csv", traj.to_csv(_headers(cfg, ("kind=skeleton",))))
    _write(out_dir, "final_state.txt", _with_headers(cfg, state_to_text(traj.final_state())))
    _write(out_dir, "control.csv", control_to_csv(g, _headers(cfg)))
    _echo_config(cfg, out_dir)
    if traj.diverged:
        print(_error_record("diverged", "skeleton run hit the blow-up guard"), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"skeleton: {len(traj.times)} diagnostic rows -> {out_dir}/skeleton_trajectory.csv")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config()
    init = cfg.build_init(solver_cfg.grid)
    phi = cfg.build_control()
    eps = cfg.simulate_eps
    # the SDE sees the tilt only through its jumps: draw them once, replay, and save them
    _, jumps = draw_jumps(eps, phi, solver_cfg, cfg.seed)
    traj = solve_sde_with_jumps(init, eps, jumps, solver_cfg)
    _write(out_dir, "sde_trajectory.csv", traj.to_csv(_headers(cfg, (f"kind=sde eps={eps}",))))
    _write(out_dir, "jumps.txt", _with_headers(cfg, jumps.to_text()))
    _write(out_dir, "final_state.txt", _with_headers(cfg, state_to_text(traj.final_state())))
    _echo_config(cfg, out_dir)
    if traj.diverged:
        print(_error_record("diverged", "jump-driven run hit the blow-up guard"), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"simulate: eps={eps}, {jumps.size} jumps -> {out_dir}/sde_trajectory.csv")
    return EXIT_OK


def cmd_convolution(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config()
    init = cfg.build_init(solver_cfg.grid)
    phi = cfg.build_control()
    conv = solve_stochastic_convolution(init, cfg.simulate_eps, phi, solver_cfg, seed=cfg.seed)
    _write(
        out_dir,
        "convolution_trajectory.csv",
        conv.to_csv(_headers(cfg, (f"kind=convolution eps={cfg.simulate_eps}",))),
    )
    _echo_config(cfg, out_dir)
    if conv.diverged:
        print(_error_record("diverged", "convolution run hit the blow-up guard"), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"convolution: sup |xi| = {float(np.max(conv.u_l2)):.6g} -> {out_dir}/convolution_trajectory.csv")
    return EXIT_OK


def cmd_rate(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
    init = cfg.build_init(solver_cfg.grid)
    target_control = None
    if cfg.rate_target_tilt != 1.0:
        from .noise import Control

        target_control = Control.constant(
            solver_cfg.t_final, cfg.rate_target_tilt, 1, solver_cfg.mark_space.size
        )
    target = solve_skeleton(init, target_control, solver_cfg).final_state()
    prob = RateProblem(
        init=init,
        target=target,
        cfg=solver_cfg,
        penalty_weight=cfg.rate_penalty,
        n_cells=cfg.rate_cells,
        max_iters=cfg.rate_max_iters,
        step_size=cfg.rate_step_size,
        tolerance=cfg.rate_tolerance,
    )
    sol = optimize_control(prob)
    _write(out_dir, "rate_history.csv", sol.history_csv(_headers(cfg)))
    _write(out_dir, "g_star.csv", control_to_csv(sol.g_star, _headers(cfg)))
    _echo_config(cfg, out_dir)
    print(
        f"rate: objective={sol.objective:.6g} cost={sol.cost:.6g} "
        f"mismatch={sol.mismatch:.6g} converged={sol.converged}"
    )
    return EXIT_OK if np.isfinite(sol.objective) else EXIT_NUMERICAL


def cmd_mc_ldp(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
    init = cfg.build_init(solver_cfg.grid)
    phi = cfg.build_control()
    rows = mc_small_noise_study(
        cfg.experiment_eps_list,
        cfg.experiment_n_paths,
        solver_cfg,
        init,
        seed=cfg.seed,
        phi=phi,
    )
    _write(out_dir, "mc_ldp.csv", study_rows_csv(rows, _headers(cfg)))
    conv_rows = convolution_scaling_study(
        cfg.experiment_eps_list,
        cfg.experiment_n_paths,
        solver_cfg,
        init,
        seed=cfg.seed,
        phi=phi,
    )
    conv_text = study_rows_csv(conv_rows, _headers(cfg), columns=("eps", "mean_sup_sq"))
    _write(out_dir, "convolution_scaling.csv", conv_text)
    _echo_config(cfg, out_dir)
    medians = [r["median"] for r in rows]
    print("mc-ldp medians:", ", ".join(f"{e:.3g}:{m:.4g}" for e, m in zip(cfg.experiment_eps_list, medians)))
    return EXIT_OK


def cmd_importance(cfg: ExperimentConfig, out_dir: Path) -> int:
    solver_cfg = cfg.build_solver_config(energy_diagnostics=False)
    init = cfg.build_init(solver_cfg.grid)
    phi = cfg.build_importance_phi()
    indicator = sup_velocity_indicator(cfg.importance_threshold)
    tilted = importance_weights(
        indicator, phi, cfg.importance_eps, cfg.importance_n_paths, solver_cfg, init,
        seed=cfg.seed,
    )
    plain = plain_mc_probability(
        indicator, cfg.importance_eps, cfg.importance_n_paths, solver_cfg, init,
        seed=cfg.seed,
    )
    lines = "\n".join(f"# {h}" for h in _headers(cfg, (f"eps={cfg.importance_eps} threshold={cfg.importance_threshold}",)))
    body = "method,estimate,std_error,n_paths,n_diverged,sample_variance\n"
    for name, res in (("tilted", tilted), ("plain", plain)):
        body += (
            f"{name},{res['estimate']:.17g},{res['std_error']:.17g},"
            f"{res['n_paths']},{res['n_diverged']},{res['sample_variance']:.17g}\n"
        )
    _write(out_dir, "importance.csv", lines + "\n" + body)
    _echo_config(cfg, out_dir)
    print(
        f"importance: tilted={tilted['estimate']:.5g} (se {tilted['std_error']:.2g}) "
        f"plain={plain['estimate']:.5g} (se {plain['std_error']:.2g}) "
        f"log_estimate={tilted['log_estimate']:.6g} ess={tilted['ess']:.4g} "
        f"max_weight_share={tilted['max_weight_share']:.3g} "
        f"tilted_hits={tilted['hits']} plain_hits={plain['hits']} "
        f"degenerate={tilted['degenerate'] and plain['degenerate']}"
    )
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "skeleton": cmd_skeleton,
    "simulate": cmd_simulate,
    "convolution": cmd_convolution,
    "rate": cmd_rate,
    "mc-ldp": cmd_mc_ldp,
    "importance": cmd_importance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlcsim",
        description="Pseudospectral nematic liquid-crystal flow with jump noise.",
    )
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
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, Path(args.out))
    except (SolverError, StudyError) as exc:
        # SolverError subclasses ValueError: match it before the generic case
        print(_error_record("numerical", str(exc)), file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(_error_record("validation", str(exc)), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
