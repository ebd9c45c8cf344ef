"""The three workloads: their configs, the work they ask for, and their output checks.

Each workload is a fixed list of ``nlcsim`` CLI commands run on one config
file that the benchmark writes.  ``full`` is the size the benchmark
measures; ``tiny`` is the size the self-test runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Seed at which the reference values in references.json were recorded.
REFERENCE_SEED = 1801

# Non-unit skeleton tilt: 2 cells x 4 marks, so the control drift is not zero.
SKELETON_TILT = "1.5, 1.2, 0.8, 1.3, 0.7, 1.0, 1.4, 0.9"

RTOL = 1e-8  # jump-driven statistics and skeleton state digests
ATOL = 1e-15  # floor for values that are exactly zero at the reference
RATE_OBJECTIVE_ATOL = 1e-3  # the optimizer-vs-oracle gap of acceptance criterion C8


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    # outputs change with --seed (the jump draws); the others are deterministic
    seed_dependent: bool
    settings: dict  # size -> config lines (seed excluded)

    def config_text(self, seed: int, size: str) -> str:
        return f"seed = {seed}\n" + "".join(f"{k} = {v}\n" for k, v in self.settings[size].items())

    def setting(self, size: str, key: str, default):
        return type(default)(self.settings[size].get(key, default))

    def nominal_work(self, size: str) -> dict[str, int]:
        """Paths and solver steps the commands are asked for, per iteration.

        Counted from the config, not from the program, so a change in how
        the program organises its solves cannot change the figure.
        """
        t_final = self.setting(size, "solver.t_final", 0.5)
        dt = self.setting(size, "solver.dt", 0.01)
        n_steps = int(round(t_final / dt))
        paths = {}
        if "mc-ldp" in self.commands:
            n_eps = len(self.settings[size]["experiment.eps_list"].split(","))
            paths["mc-ldp"] = 2 * n_eps * self.setting(size, "experiment.n_paths", 32)
        if "importance" in self.commands:
            paths["importance"] = 2 * self.setting(size, "importance.n_paths", 400)
        if "skeleton" in self.commands:
            paths["skeleton"] = 1
        if "rate" in self.commands:
            paths["rate"] = 1  # the one optimal controlled path it returns
        total = sum(paths.values())
        return {"paths": total, "steps": total * n_steps, "per_command": paths}


_ENSEMBLE_COMMON = {
    "experiment.eps_list": "0.2, 0.1",
}
_SKELETON_COMMON = {
    "solver.t_final": "0.5",
    "solver.dt": "0.01",
    "control.cells": "2",
    "control.values": SKELETON_TILT,
}
_RATE_COMMON = {
    "rate.cells": "2",
    "rate.tolerance": "1e-3",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble_n16",
            ("mc-ldp", "importance"),
            True,
            {
                "full": {"grid.modes": "16", **_ENSEMBLE_COMMON,
                         "experiment.n_paths": "8", "importance.n_paths": "8"},
                "tiny": {"grid.modes": "8", **_ENSEMBLE_COMMON, "solver.t_final": "0.05",
                         "experiment.n_paths": "8", "importance.n_paths": "8"},
            },
        ),
        Workload(
            "skeleton_n128",
            ("skeleton",),
            False,
            {
                "full": {"grid.modes": "128", **_SKELETON_COMMON},
                "tiny": {"grid.modes": "8", **_SKELETON_COMMON, "solver.t_final": "0.05"},
            },
        ),
        Workload(
            "rate_n16",
            ("rate",),
            False,
            {
                "full": {"grid.modes": "16", "solver.t_final": "0.25", "solver.dt": "0.0125",
                         **_RATE_COMMON},
                "tiny": {"grid.modes": "8", "solver.t_final": "0.05", "solver.dt": "0.0125",
                         **_RATE_COMMON},
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# reading the CLI's artifacts


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _state_digest(path: Path) -> dict[str, float]:
    """Sums of squares and a fixed-weight checksum per component of a checkpoint."""
    out: dict[str, float] = {}
    comp, rows = None, {}
    modes = time = None
    for line in path.read_text().splitlines():
        if line.startswith("# modes="):
            head = dict(tok.split("=") for tok in line[2:].split())
            modes, time = int(head["modes"]), float(head["time"])
        elif line.startswith("# component"):
            comp = line.split()[-1]
            rows[comp] = []
        elif not line.startswith("#"):
            rows[comp].append(line)
    out["state.modes"] = modes
    out["state.time"] = time
    for comp, lines in rows.items():
        a = np.loadtxt(lines, ndmin=2) if lines else np.zeros((0, 4))
        weight = np.cos(0.37 * a[:, 0] + 0.61 * a[:, 1])
        out[f"state.{comp}.nonzero"] = len(lines)
        out[f"state.{comp}.sumsq"] = float(np.sum(a[:, 2] ** 2 + a[:, 3] ** 2))
        terms = weight * (a[:, 2] - 0.5 * a[:, 3])
        out[f"state.{comp}.checksum"] = float(np.sum(terms))
        out[f"state.{comp}.abssum"] = float(np.sum(np.abs(terms)))
    return out


def extract(workload: Workload, size: str, out_dir: Path) -> dict[str, float]:
    """The scalar outputs a workload's checks look at."""
    v: dict[str, float] = {}
    if "mc-ldp" in workload.commands:
        _, rows = _csv_rows(out_dir / "mc_ldp.csv")
        for i, (eps, med, q25, q75, bad) in enumerate(rows):
            v.update({f"mc_ldp.{i}.eps": float(eps), f"mc_ldp.{i}.median": float(med),
                      f"mc_ldp.{i}.q25": float(q25), f"mc_ldp.{i}.q75": float(q75),
                      f"mc_ldp.{i}.n_diverged": int(bad)})
        _, rows = _csv_rows(out_dir / "convolution_scaling.csv")
        for i, (eps, msq) in enumerate(rows):
            v.update({f"conv.{i}.eps": float(eps), f"conv.{i}.mean_sup_sq": float(msq)})
    if "importance" in workload.commands:
        _, rows = _csv_rows(out_dir / "importance.csv")
        for method, est, se, n, bad, var in rows:
            v.update({f"importance.{method}.estimate": float(est),
                      f"importance.{method}.std_error": float(se),
                      f"importance.{method}.n_paths": int(n),
                      f"importance.{method}.n_diverged": int(bad),
                      f"importance.{method}.sample_variance": float(var)})
        # the plain estimator averages 0/1 indicators, so this is an exact count
        hits = round(v["importance.plain.estimate"] * v["importance.plain.n_paths"])
        v["importance.plain.hits"] = hits
        v["importance.degenerate"] = int(hits in (0, v["importance.plain.n_paths"]))
    if "skeleton" in workload.commands:
        header, rows = _csv_rows(out_dir / "skeleton_trajectory.csv")
        traj = np.array(rows, dtype=float)
        v["traj.rows"] = len(rows)
        v["traj.max_abs_energy_residual"] = float(np.max(np.abs(traj[:, header.index("energy_residual")])))
        for col in ("u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation"):
            v[f"traj.final.{col}"] = float(traj[-1, header.index(col)])
        v.update(_state_digest(out_dir / "final_state.txt"))
    if "rate" in workload.commands:
        _, rows = _csv_rows(out_dir / "rate_history.csv")
        hist = np.array(rows, dtype=float)
        v["rate.history_rows"] = len(rows)
        v["rate.objective"] = float(hist[-1, 1])
        v["rate.cost"] = float(hist[-1, 2])
        v["rate.mismatch"] = float(hist[-1, 3])
        v["rate.monotone"] = int(bool(np.all(np.diff(hist[:, 1]) <= 0)))
        _, rows = _csv_rows(out_dir / "g_star.csv")
        g = np.array(rows, dtype=float)
        for (c, m), val in np.ndenumerate(g):
            v[f"rate.g_star.{c}.{m}"] = float(val)
        v["rate.g_star.cost"] = _entropy_cost(g, workload.setting(size, "solver.t_final", 0.5))
    return v


def _entropy_cost(g: np.ndarray, t_final: float) -> float:
    """L_T(g) = sum over cells and marks of l(g) dt w_i, computed independently."""
    weights = np.array([1.0, 0.5, 0.5, 0.25])  # the default noise.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = np.where(g > 0, g * np.log(np.where(g > 0, g, 1.0)) - g + 1.0, 1.0)
    return float(np.sum(ell * weights[None, :]) * t_final / g.shape[0])


# ---------------------------------------------------------------------------
# checks


def invariants(workload: Workload, size: str, v: dict[str, float]) -> list[str]:
    """Conditions every output must meet, whatever the seed."""
    errs = []

    def need(cond: bool, what: str):
        if not cond:
            errs.append(what)

    for key, val in v.items():
        need(math.isfinite(val), f"{key} is not finite")
    for key in [k for k in v if k.endswith("n_diverged")]:
        need(v[key] == 0, f"{key} = {v[key]}: a path diverged")
    if "mc-ldp" in workload.commands:
        eps = [float(e) for e in workload.settings[size]["experiment.eps_list"].split(",")]
        for i, e in enumerate(eps):
            need(v.get(f"mc_ldp.{i}.eps") == e, f"mc_ldp row {i} is not eps={e}")
            need(0 < v[f"mc_ldp.{i}.q25"] <= v[f"mc_ldp.{i}.median"] <= v[f"mc_ldp.{i}.q75"],
                 f"mc_ldp row {i} quartiles out of order")
            need(v.get(f"conv.{i}.eps") == e, f"convolution row {i} is not eps={e}")
            need(v[f"conv.{i}.mean_sup_sq"] > 0, f"convolution row {i} is not positive")
    if "importance" in workload.commands:
        n = workload.setting(size, "importance.n_paths", 400)
        for method in ("tilted", "plain"):
            need(v[f"importance.{method}.n_paths"] == n, f"importance {method} ran the wrong path count")
            need(v[f"importance.{method}.estimate"] >= 0, f"importance {method} estimate is negative")
        need(v["importance.plain.estimate"] <= 1, "plain probability exceeds 1")
    if "skeleton" in workload.commands:
        n_steps = int(round(workload.setting(size, "solver.t_final", 0.5) / workload.setting(size, "solver.dt", 0.01)))
        need(v["traj.rows"] == n_steps + 1, "skeleton trajectory lacks per-step diagnostics")
        need(v["state.modes"] == workload.setting(size, "grid.modes", 16), "checkpoint has the wrong grid")
    if "rate" in workload.commands:
        need(v["rate.monotone"] == 1, "rate objective history is not non-increasing")
        g_keys = [k for k in v if k.startswith("rate.g_star.") and k.count(".") == 3]
        need(len(g_keys) == 4 * workload.setting(size, "rate.cells", 1), "g_star has the wrong shape")
        need(all(v[k] > 0 for k in g_keys), "g_star is not strictly positive")
        need(abs(v["rate.g_star.cost"] - v["rate.cost"]) <= 1e-9 * max(1.0, abs(v["rate.cost"])),
             "entropy cost of g_star.csv disagrees with rate_history.csv")
    return errs


# keys compared against references.json, with their tolerance rule
def _rule(key: str) -> tuple[str, float] | None:
    if key == "rate.objective":
        return ("abs", RATE_OBJECTIVE_ATOL)
    if key.startswith("rate."):
        return None  # the optimizer path may move; the objective is what must hold
    if key.endswith(".nonzero"):
        return None  # exact zeros in a checkpoint are a rounding detail
    if key.endswith(("n_paths", "n_diverged", "hits", "degenerate", "rows", "modes", ".eps")):
        return ("exact", 0.0)
    return ("rel", RTOL)


def compare(reference: dict[str, float], v: dict[str, float]) -> list[str]:
    errs = []
    for key, ref in reference.items():
        rule = _rule(key)
        if rule is None:
            continue
        if key not in v:
            errs.append(f"{key} missing from the outputs")
            continue
        kind, tol = rule
        got = v[key]
        if kind == "exact":
            ok = got == ref
        elif kind == "abs":
            ok = abs(got - ref) <= tol
        else:
            # a checksum can cancel to near zero: scale it by its sum of magnitudes
            scale = reference.get(key.replace(".checksum", ".abssum"), ref) if key.endswith(".checksum") else ref
            ok = abs(got - ref) <= tol * abs(scale) + ATOL
        if not ok:
            errs.append(f"{key} = {got!r}, reference {ref!r} ({kind} tolerance {tol:g})")
    return errs
