"""Rate-function evaluation, small-noise studies, and importance sampling.

The variational rate of an endpoint is approached through the penalized
objective

    cost(g) + lambda * |endpoint(g) - target|^2,

minimized over piecewise-constant intensity tilts in log coordinates
(w = log g keeps the tilt positive and removes the entropy boundary
singularity at zero).  Gradients come from central finite differences --
two deterministic solves per control coordinate -- with a backtracking
line search, so the iterate history is monotone.  A grid-search oracle
covers problems with at most two control coordinates.

Monte Carlo studies quantify how jump-driven paths concentrate on the
deterministic flow as the noise size shrinks, and the importance sampler
reweights tilted simulations back to the reference measure through the
exponential martingale density.  All four Monte Carlo drivers run their
paths through ``_run_paths``, which excludes and counts diverged paths
and fails the study above 1% of them.  The importance and plain
estimators share ``_weighted_estimate``, which keeps the weights as
logarithms: the estimate and its standard error are formed with a max
shift (log-sum-exp), and the result carries ``log_estimate``, the
effective sample size, the largest weight share, the hit count and a
flag for a degenerate sample (no path or every path hits).
"""

from __future__ import annotations

import io
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    SolverConfig,
    SolverError,
    SpectralState,
    Trajectory,
    solve_sde_with_jumps,
    solve_skeleton,
    solve_small_noise_sde,
    solve_stochastic_convolution,
    state_distance_sq_split,
    sup_state_distance,
)
from .noise import (
    Control,
    cost_LT,
    girsanov_log_density,
    rng_for,
    thin_to_control,
)


class StudyError(RuntimeError):
    """A Monte Carlo study failed its validity conditions."""


@dataclass
class RateProblem:
    """Penalized endpoint-matching problem over piecewise-constant tilts."""

    init: SpectralState
    target: SpectralState
    cfg: SolverConfig
    penalty_weight: float = 100.0
    n_cells: int = 1
    max_iters: int = 60
    step_size: float = 0.5
    tolerance: float = 1e-6
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.penalty_weight <= 0:
            raise ValueError("penalty_weight must be positive")
        if self.n_cells < 1 or self.cfg.mark_space is None:
            raise ValueError("need at least one control cell and a mark space")

    @property
    def n_marks(self) -> int:
        return self.cfg.mark_space.size

    @property
    def n_dims(self) -> int:
        return self.n_cells * self.n_marks

    def control_from_flat(self, flat: np.ndarray) -> Control:
        return Control(self.cfg.t_final, np.asarray(flat, float).reshape(self.n_cells, self.n_marks))

    def unit_control(self) -> Control:
        return Control.unit(self.cfg.t_final, self.n_cells, self.n_marks)


@dataclass
class RateSolution:
    g_star: Control
    cost: float
    mismatch: float
    objective: float
    converged: bool
    history: list[tuple[int, float, float, float]] = field(default_factory=list)

    def history_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        buf = io.StringIO()
        for line in header_lines:
            buf.write(f"# {line}\n")
        buf.write("iteration,objective,cost,mismatch\n")
        for it, obj, cost, mis in self.history:
            buf.write(f"{it},{obj:.17g},{cost:.17g},{mis:.17g}\n")
        return buf.getvalue()


def _mismatch(traj: Trajectory, target: SpectralState) -> float:
    return state_distance_sq_split(traj.final_state(), target)


def rate_objective_parts(g: Control, prob: RateProblem) -> tuple[float, float, float]:
    """(objective, entropy cost, endpoint mismatch); infinite on divergence."""
    cost = cost_LT(g, prob.cfg.mark_space)
    traj = solve_skeleton(prob.init, g, prob.cfg)
    if traj.diverged:
        return float("inf"), cost, float("inf")
    mis = _mismatch(traj, prob.target)
    return cost + prob.penalty_weight * mis, cost, mis


def rate_objective(g: Control, prob: RateProblem) -> float:
    return rate_objective_parts(g, prob)[0]


def optimize_control(prob: RateProblem, g0: Control | None = None) -> RateSolution:
    """Gradient descent in w = log g with backtracking line search.

    Returns the best iterate; the recorded objective history is
    non-increasing.  Initialization defaults to the zero-cost tilt g = 1.
    """
    if g0 is None:
        g0 = prob.unit_control()
    w = np.log(np.maximum(g0.values.ravel(), 1e-8))

    def objective_of(wvec: np.ndarray) -> tuple[float, float, float]:
        return rate_objective_parts(prob.control_from_flat(np.exp(wvec)), prob)

    obj, cost, mis = objective_of(w)
    history = [(0, obj, cost, mis)]
    best = (obj, w.copy(), cost, mis)
    converged = False

    for it in range(1, prob.max_iters + 1):
        grad = np.zeros_like(w)
        for d in range(w.size):
            e = np.zeros_like(w)
            e[d] = prob.fd_step
            grad[d] = (objective_of(w + e)[0] - objective_of(w - e)[0]) / (2 * prob.fd_step)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= prob.tolerance:
            converged = True
            break
        alpha = prob.step_size
        accepted = False
        while alpha > 1e-12:
            trial = w - alpha * grad
            t_obj, t_cost, t_mis = objective_of(trial)
            if t_obj <= obj - 1e-4 * alpha * float(np.dot(grad, grad)):
                w, obj, cost, mis = trial, t_obj, t_cost, t_mis
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True  # no descent direction at line-search resolution
            break
        history.append((it, obj, cost, mis))
        if obj < best[0]:
            best = (obj, w.copy(), cost, mis)
        if len(history) >= 2 and history[-2][1] - obj <= prob.tolerance * max(abs(obj), 1.0):
            converged = True
            break

    obj, w, cost, mis = best
    return RateSolution(
        g_star=prob.control_from_flat(np.exp(w)),
        cost=cost,
        mismatch=mis,
        objective=obj,
        converged=converged,
        history=history,
    )


def brute_force_rate(prob: RateProblem, grid_values: Sequence[float]) -> RateSolution:
    """Exhaustive objective evaluation on a value grid (<= 2 control dims)."""
    if prob.n_dims > 2:
        raise ValueError("grid search supports at most two control coordinates")
    if any(v < 0 for v in grid_values):
        raise ValueError("grid values must be nonnegative")
    best = None
    history = []
    for it, combo in enumerate(itertools.product(grid_values, repeat=prob.n_dims)):
        g = prob.control_from_flat(np.asarray(combo))
        obj, cost, mis = rate_objective_parts(g, prob)
        history.append((it, obj, cost, mis))
        if best is None or obj < best[0]:
            best = (obj, g, cost, mis)
    obj, g, cost, mis = best
    return RateSolution(g_star=g, cost=cost, mismatch=mis, objective=obj, converged=True, history=history)


# ---------------------------------------------------------------------------
# Monte Carlo driver: every study runs its paths through ``_run_paths``


def _map_paths(fn: Callable[[int], object], n_paths: int, threads: int) -> list:
    if threads <= 1:
        return [fn(k) for k in range(n_paths)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_paths)))


def _run_paths(fn: Callable[[int], object], n_paths: int, threads: int, what: str):
    """(results of the paths that did not diverge, number of diverged paths).

    ``fn(k)`` returns NaN, or a tuple holding NaN, for a diverged path.
    Diverged paths are excluded and counted; more than 1% of them fails
    the study.
    """
    vals = np.asarray(_map_paths(fn, n_paths, threads), dtype=float)
    diverged = np.isnan(vals.reshape(n_paths, -1)).any(axis=1)
    bad = int(diverged.sum())
    if bad > 0.01 * n_paths:
        raise StudyError(f"{bad}/{n_paths} paths diverged ({what})")
    return vals[~diverged], bad


def _weighted_estimate(samples: np.ndarray, n_diverged: int) -> dict:
    """Mean of f * w over per-path rows (log w, f), formed in the log domain.

    The terms are shifted by the largest log(f w) before they are
    exponentiated (log-sum-exp), so ``log_estimate`` stays finite when the
    weights themselves underflow.  ``ess`` = (sum w)^2 / sum w^2 and
    ``max_weight_share`` = max w / sum w describe the weights alone.
    ``hits`` counts the paths with f > 0; ``degenerate`` flags a sample in
    which no path or every path hits, where the standard error says nothing
    about the estimate.
    """
    log_w, f = samples[:, 0], samples[:, 1]
    if np.any(f < 0):
        raise ValueError("event indicator values must be nonnegative")
    n = f.size
    hits = int(np.count_nonzero(f > 0))
    with np.errstate(divide="ignore"):
        log_terms = log_w + np.log(f)
        shift = float(np.max(log_terms)) if np.any(f > 0) else 0.0
        terms = np.exp(log_terms - shift)
        mean = float(np.mean(terms))
        log_estimate = shift + float(np.log(mean))
    scale = float(np.exp(shift))
    var = float(np.var(terms, ddof=1)) if n > 1 else float("inf")
    w = np.exp(log_w - np.max(log_w))
    return {
        "estimate": scale * mean,
        "std_error": scale * float(np.sqrt(var / n)),
        "n_paths": n,
        "n_diverged": n_diverged,
        "sample_variance": scale**2 * var,
        "log_estimate": log_estimate,
        "ess": float(np.sum(w) ** 2 / np.sum(w**2)),
        "max_weight_share": float(1.0 / np.sum(w)),
        "hits": hits,
        "degenerate": hits in (0, n),
    }


# ---------------------------------------------------------------------------
# small-noise Monte Carlo study


def mc_small_noise_study(
    eps_list: Sequence[float],
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    phi: Control | None = None,
    threads: int = 1,
) -> list[dict]:
    """Distribution of the sup distance to the deterministic flow per noise size.

    For each epsilon, ``n_paths`` jump-driven solutions are compared with
    the skeleton solution driven by the same tilt; rows report median and
    quartiles of sup_t(|u-diff| + H1 theta-diff).  Diverged paths are
    excluded and counted; more than 1% of them fails the study.
    """
    if n_paths < 8:
        raise StudyError("study needs at least 8 paths per noise level")
    if any(e <= 0 for e in eps_list) or any(
        a <= b for a, b in zip(eps_list, list(eps_list)[1:])
    ):
        raise StudyError("eps_list must be positive and strictly decreasing")
    if cfg.snapshot_stride != 1:
        raise StudyError("study requires snapshot_stride == 1 for sup distances")
    skel = solve_skeleton(init, phi, cfg)
    if skel.diverged:
        raise StudyError("the skeleton run itself diverged")
    path_seeds = rng_for(seed, "mc-small-noise").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for i, eps in enumerate(eps_list):
        def one(k: int, eps=eps, i=i) -> float:
            traj = solve_small_noise_sde(init, eps, phi, cfg, seed=int(path_seeds[i, k]))
            return float("nan") if traj.diverged else sup_state_distance(traj, skel)

        good, bad = _run_paths(one, n_paths, threads, f"small-noise study, eps={eps}")
        rows.append(
            {
                "eps": float(eps),
                "median": float(np.median(good)),
                "q25": float(np.quantile(good, 0.25)),
                "q75": float(np.quantile(good, 0.75)),
                "n_diverged": bad,
            }
        )
    return rows


def study_rows_csv(
    rows: list[dict],
    header_lines: tuple[str, ...] = (),
    columns: tuple[str, ...] = ("eps", "median", "q25", "q75", "n_diverged"),
) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for r in rows:
        buf.write(",".join(f"{r[c]:.17g}" for c in columns) + "\n")
    return buf.getvalue()


def convolution_scaling_study(
    eps_list: Sequence[float],
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    phi: Control | None = None,
    threads: int = 1,
) -> list[dict]:
    """Mean of sup_t |convolution|^2 per noise size (expected to shrink).

    Diverged paths are excluded and counted, as in the small-noise study.
    """
    path_seeds = rng_for(seed, "convolution-study").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for i, eps in enumerate(eps_list):
        def one(k: int, eps=eps, i=i) -> float:
            conv = solve_stochastic_convolution(init, eps, phi, cfg, seed=int(path_seeds[i, k]))
            return float("nan") if conv.diverged else float(np.max(conv.u_l2) ** 2)

        sups, bad = _run_paths(one, n_paths, threads, f"convolution study, eps={eps}")
        rows.append({"eps": float(eps), "mean_sup_sq": float(np.mean(sups)), "n_diverged": bad})
    return rows


# ---------------------------------------------------------------------------
# importance sampling


def importance_weights(
    event_indicator: Callable[[Trajectory], float],
    phi: Control,
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    threads: int = 1,
) -> dict:
    """Tilted-simulation estimate of a reference-measure path probability.

    Each replication simulates the system on a jump configuration drawn at
    the tilted intensity (1/epsilon) phi theta and weights the indicator
    by the exponential likelihood ratio of that configuration.  The
    average is unbiased for the probability under the reference
    (untilted) noise.  Besides the estimate, the result carries
    ``log_estimate`` and the weight diagnostics ``ess`` and
    ``max_weight_share`` (see :func:`_weighted_estimate`).
    """
    if np.any(phi.values <= 0):
        raise ValueError("importance sampling requires a strictly positive tilt")
    ms = cfg.mark_space
    if ms is None:
        raise SolverError("config carries no mark space / jump spec")

    def one(k: int) -> tuple[float, float]:
        jumps = thin_to_control(ms, cfg.t_final, phi, 1.0 / epsilon, rng_for(seed, "importance", k))
        traj = solve_sde_with_jumps(init, epsilon, jumps, cfg)
        if traj.diverged:
            return float("nan"), float("nan")
        return girsanov_log_density(phi, jumps, epsilon, ms), float(event_indicator(traj))

    return _weighted_estimate(*_run_paths(one, n_paths, threads, "importance sampling"))


def plain_mc_probability(
    event_indicator: Callable[[Trajectory], float],
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    threads: int = 1,
) -> dict:
    """Untilted Monte Carlo estimate of the same path probability (unit weights)."""

    def one(k: int) -> tuple[float, float]:
        path_seed = int(rng_for(seed, "plain-mc", k).integers(0, 2**62))
        traj = solve_small_noise_sde(init, epsilon, None, cfg, seed=path_seed)
        if traj.diverged:
            return float("nan"), float("nan")
        return 0.0, float(event_indicator(traj))

    return _weighted_estimate(*_run_paths(one, n_paths, threads, "plain Monte Carlo"))


def sup_velocity_indicator(threshold: float) -> Callable[[Trajectory], float]:
    """Indicator of the exceedance event sup_t |u(t)|_{L2} >= threshold."""

    def indicator(traj: Trajectory) -> float:
        return 1.0 if float(np.max(traj.u_l2)) >= threshold else 0.0

    return indicator
