"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` rebinds
each layer's public functions at the module attributes where callers look
them up (``nlcsim.dynamics.convection_B``, ``nlcsim.cli.solve_skeleton``,
...) with thin wrappers that open and close a span; ``uninstall`` puts the
originals back, so untraced iterations run the unmodified program.

A span is ``[id, parent_id, command_id, name, start, end, child_s]``.
Spans stay in memory and are written out once, when the run ends.  The
``numpy.fft`` transforms are the one exception: there are ~10^5 of them
per iteration, so each call is folded into counters (calls, seconds,
points, bytes) and its time is charged to the enclosing span's
``child_s`` instead of being stored as a span of its own.

A span's self time is ``end - start - child_s``: its duration minus the
part covered by its direct children.  A layer's self time is the sum of
the self times of its spans (plus, for ``spectral``, the transform time).
"""

from __future__ import annotations

import functools
import time

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

SOLVERS = (
    "solve_skeleton",
    "solve_small_noise_sde",
    "solve_sde_with_jumps",
    "solve_stochastic_convolution",
)
# position of the SolverConfig argument in each solver's signature
_CFG_ARG = {
    "solve_skeleton": 2,
    "solve_small_noise_sde": 3,
    "solve_sde_with_jumps": 3,
    "solve_stochastic_convolution": 3,
}
# solvers whose call inside a Monte Carlo study is one random path
_PATH_SOLVERS = ("solve_small_noise_sde", "solve_sde_with_jumps", "solve_stochastic_convolution")


def _bindings():
    """(owner, attribute, span name) for every call site the tracer wraps."""
    import nlcsim.cli as cli
    import nlcsim.config as config
    import nlcsim.dynamics as dynamics
    import nlcsim.ldp as ldp
    import nlcsim.noise as noise
    import nlcsim.operators as operators

    out = [
        (operators, "dealias_product", "spectral.dealias_product"),
        (operators, "leray_project", "spectral.leray_project"),
        (dynamics, "convection_B", "operators.convection_B"),
        (dynamics, "director_stress_M", "operators.director_stress_M"),
        (dynamics, "advection_Btilde", "operators.advection_Btilde"),
        (dynamics, "polynomial_f", "operators.polynomial_f"),
        (operators, "polynomial_f", "operators.polynomial_f"),
        (dynamics, "energy_psi", "operators.energy_psi"),
        (dynamics, "thin_to_control", "noise.thin_to_control"),
        (ldp, "thin_to_control", "noise.thin_to_control"),
        (cli, "thin_to_control", "noise.thin_to_control"),
        (dynamics, "eval_G", "noise.eval_G"),
        (noise, "eval_G", "noise.eval_G"),
        (dynamics, "compensator_integral", "noise.compensator_integral"),
        (dynamics, "control_drift", "noise.control_drift"),
        (ldp, "girsanov_log_density", "noise.girsanov_log_density"),
        (ldp, "sup_state_distance", "dynamics.sup_state_distance"),
        (cli, "state_to_text", "dynamics.state_to_text"),
        (cli, "mc_small_noise_study", "ldp.mc_small_noise_study"),
        (cli, "convolution_scaling_study", "ldp.convolution_scaling_study"),
        (cli, "importance_weights", "ldp.importance_weights"),
        (cli, "plain_mc_probability", "ldp.plain_mc_probability"),
        (cli, "optimize_control", "ldp.optimize_control"),
        (ldp, "rate_objective_parts", "ldp.rate_objective_parts"),
        (cli, "parse_config", "config.parse_config"),
        (cli, "_write", "cli._write"),
    ]
    for fn in ("build_solver_config", "build_init", "build_control", "build_importance_phi"):
        out.append((config.ExperimentConfig, fn, f"config.{fn}"))
    for owner in (cli, ldp, dynamics):
        for fn in SOLVERS:
            if hasattr(owner, fn):
                out.append((owner, fn, f"dynamics.{fn}"))
    return out


class Tracer:
    """Span recorder plus the counters that are read at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.command = 0
        self._saved: list[tuple[object, str, object]] = []
        self.reset_counters()

    def reset_counters(self):
        self.fft_calls = 0
        self.fft_calls_in_solves = 0
        self.fft_s = 0.0
        self.fft_points = 0
        self.fft_bytes = 0
        self.steps = 0
        self.solve_ms: list[float] = []
        self.diverged = 0
        self.jumps_drawn = 0
        self.paths = 0
        self.paths_diverged = 0
        self.optimizer_iterations = 0
        self.line_search_trials = 0
        self.line_search_accepted = 0
        self._solve_depth = 0
        self._study_depth = 0
        self._objective_values: list[float] = []

    # ------------------------------------------------------------------
    # spans

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [self._next_id, parent, self.command, name, time.perf_counter(), 0.0, 0.0]
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def close(self, rec: list):
        rec[5] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += rec[5] - rec[4]
        self.spans.append(rec)

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapped(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            dt = time.perf_counter() - t0
            self.fft_calls += 1
            self.fft_s += dt
            self.fft_points += out.size
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            if self._solve_depth:
                self.fft_calls_in_solves += 1
            if self._stack:
                self._stack[-1][6] += dt
            return out

        return wrapped

    def _wrap(self, name: str, fn):
        fname = name.split(".", 1)[1]
        is_solver = fname in SOLVERS
        is_study = name.startswith("ldp.") and fname != "rate_objective_parts"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = self.open(name)
            self._solve_depth += is_solver
            self._study_depth += is_study
            try:
                out = fn(*args, **kwargs)
            finally:
                self._solve_depth -= is_solver
                self._study_depth -= is_study
                self.close(rec)
            if is_solver:
                self._after_solve(fname, args, kwargs, out, rec)
            elif fname == "thin_to_control":
                self.jumps_drawn += out.size
            elif fname == "rate_objective_parts":
                self._objective_values.append(out[0])
            elif fname == "optimize_control":
                self._after_optimize(args[0].n_dims, out)
            return out

        return wrapped

    def _after_solve(self, fname, args, kwargs, traj, rec):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[_CFG_ARG[fname]]
        # one snapshot per step start plus the final state (snapshot_stride 1)
        self.steps += cfg.n_steps if not traj.diverged else len(traj.snapshot_times)
        self.solve_ms.append(1e3 * (rec[5] - rec[4]))
        self.diverged += traj.diverged
        if self._study_depth and fname in _PATH_SOLVERS:
            self.paths += 1
            self.paths_diverged += traj.diverged

    def _after_optimize(self, n_dims: int, sol):
        """Split the optimizer's objective calls into gradients and line-search trials.

        The call order is fixed by ``optimize_control``: one initial
        evaluation, then per iteration 2 * n_dims finite-difference calls
        followed by line-search trials until one is accepted.  An accepted
        trial returns exactly the objective recorded in the next history row.
        """
        vals, accepted_objs = self._objective_values, [row[1] for row in sol.history[1:]]
        pos, it = 1, 0
        while pos < len(vals):
            self.optimizer_iterations += 1
            pos += 2 * n_dims
            if pos >= len(vals):
                break
            if it < len(accepted_objs):
                try:
                    j = vals.index(accepted_objs[it], pos)
                except ValueError:  # a changed optimizer no longer calls in this order
                    break
                self.line_search_trials += j - pos + 1
                self.line_search_accepted += 1
                pos, it = j + 1, it + 1
            else:  # line search found no descent: every remaining call was a trial
                self.line_search_trials += len(vals) - pos
                break
        self._objective_values = []

    # ------------------------------------------------------------------
    # installation

    def install(self):
        import nlcsim.cli  # noqa: F401  (loads every layer)

        wrappers: dict[int, object] = {}
        for name in FFT_NAMES:
            fn = getattr(np.fft, name)
            self._saved.append((np.fft, name, fn))
            setattr(np.fft, name, self._wrap_fft(fn))
        for owner, attr, span in _bindings():
            fn = owner.__dict__[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(span, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def command_span(self):
        """Root span of one CLI command; every span below shares its command id."""
        self.command += 1
        return self.open("cli.main")

    # ------------------------------------------------------------------
    # per-layer figures

    def layer_metrics(self) -> dict[str, float]:
        """Totals over every span recorded since the last ``reset``."""
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for _, _, _, name, t0, t1, child in self.spans:
            dur = t1 - t0
            inclusive[name] = inclusive.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child
        self_s["spectral"] = self_s.get("spectral", 0.0) + self.fft_s
        solve_self = sum(
            t1 - t0 - child
            for _, _, _, name, t0, t1, child in self.spans
            if name.split(".", 1)[1] in SOLVERS
        )
        solve_ms = sorted(self.solve_ms)
        tail_pct, tail = _tail(solve_ms)
        m: dict[str, float] = {
            "spectral.fft.calls": self.fft_calls,
            "spectral.fft.calls_in_solves": self.fft_calls_in_solves,
            "spectral.fft.s": self.fft_s,
            "spectral.fft.points": self.fft_points,
            "spectral.fft.bytes_computed": self.fft_bytes,
            "dynamics.steps": self.steps,
            "dynamics.solve.calls": len(solve_ms),
            "dynamics.solve_ms_p50": float(np.median(solve_ms)) if solve_ms else 0.0,
            "dynamics.solve_ms_tail": tail,
            "dynamics.solve_ms_tail_pct": tail_pct,
            "dynamics.step_ms": sum(solve_ms) / self.steps if self.steps else 0.0,
            "dynamics.self_s": solve_self,
            "dynamics.diverged": self.diverged,
            "noise.jumps_drawn": self.jumps_drawn,
            "ldp.paths": self.paths,
            "ldp.paths_diverged": self.paths_diverged,
            "ldp.optimizer.iterations": self.optimizer_iterations,
            "ldp.line_search.trials": self.line_search_trials,
            "ldp.line_search.accepted": self.line_search_accepted,
            "config.parse_s": inclusive.get("config.parse_config", 0.0),
            "config.build_s": sum(v for k, v in inclusive.items() if k.startswith("config.build_")),
            "cli.write_s": inclusive.get("cli._write", 0.0),
        }
        for name in (
            "spectral.dealias_product", "spectral.leray_project",
            "operators.convection_B", "operators.director_stress_M", "operators.advection_Btilde",
            "operators.polynomial_f", "operators.energy_psi",
            "noise.thin_to_control", "noise.eval_G", "noise.compensator_integral",
            "noise.control_drift", "noise.girsanov_log_density",
            "dynamics.sup_state_distance", "dynamics.state_to_text",
        ):
            m[f"{name}.s"] = inclusive.get(name, 0.0)
        for name in ("spectral.dealias_product", "noise.eval_G", "ldp.rate_objective_parts"):
            m[f"{name}.calls"] = calls.get(name, 0)
        for layer in ("spectral", "operators", "noise", "ldp", "config", "cli"):
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return m

    def reset(self):
        """Forget spans and counters (the written-out span log keeps its own copy)."""
        self.spans = []
        self.reset_counters()


def _tail(sorted_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples above it.

    With fewer than 20 samples no percentile above the median qualifies;
    the median is reported with percentile 50.
    """
    n = len(sorted_ms)
    if n == 0:
        return 50.0, 0.0
    if n < 20:
        return 50.0, float(np.median(sorted_ms))
    pct = 100.0 * (n - 10) / n
    return pct, float(np.percentile(sorted_ms, pct))
