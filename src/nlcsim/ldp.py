"""Rate-function evaluation, small-noise studies, and importance sampling.

The variational rate of an endpoint is approached through the penalized
objective

    cost(g) + lambda * |endpoint(g) - target|^2,

minimized over piecewise-constant intensity tilts in log coordinates
(w = log g keeps the tilt positive and removes the entropy boundary
singularity at zero) by gradient descent with a backtracking line search,
so the iterate history is monotone.  The gradient is the exact gradient of
the discrete scheme, from its adjoint (``rate_gradient``): the skeleton
run of the current iterate keeps a snapshot per step, one backward sweep
of the transposed step (``dynamics.skeleton_adjoint``) turns them into all
cells x marks partial derivatives at once, and the entropy cost adds its
own in closed form.  The accepted line-search trial's run is the next
gradient's tape, so a gradient adds one sweep, about the cost of one
solve, whatever the number of control coordinates.  A grid-search oracle covers problems with at
most two control coordinates.

Monte Carlo studies quantify how jump-driven paths concentrate on the
deterministic flow as the noise size shrinks, and the importance sampler
reweights tilted simulations back to the reference measure through the
exponential martingale density; plain Monte Carlo is that estimator at the
unit tilt, where every weight is one.  All Monte Carlo drivers run their
paths through ``_run_paths``, which steps them in chunks of ``_CHUNK``
paths as one batch (``dynamics.solve_path_batch``) on one thread, excludes
and counts diverged paths, and fails the study above 1% of them.  Each
path draws its jumps from its own Philox stream, keyed as for a one-path
run, and no batch mixes paths, so every result equals the one built from
one-path solves bit for bit, whatever the chunk size.  Per path a driver
keeps only what it reads: the study its sup distance to the skeleton
(measured snapshot by snapshot), the convolution study max |xi|, the
estimators the diagnostic rows their event indicator sees.  The
importance and plain estimators are one loop, ``_tilted_estimate``: each
path draws ``thin_to_control(ms, cfg.tilt(phi), 1/epsilon, rng)``, and
``_weighted_estimate`` keeps the weights as logarithms: the estimate and
its standard error are formed with a max shift (log-sum-exp), and the
result carries ``log_estimate``, the effective sample size, the largest
weight share, the hit count and a flag for a degenerate sample (no path
or every path hits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# sup_state_distance is what the small-noise study measures, snapshot by
# snapshot; bench/tracer.py wraps it under this module attribute.
from .dynamics import (
    SolverConfig,
    SpectralState,
    Trajectory,
    _require_noise,
    draw_jumps,
    skeleton_adjoint,
    solve_path_batch,
    solve_skeleton,
    state_distance_sq_split,
    state_distances,
    sup_state_distance,
)
from .noise import Control, cost_LT, girsanov_log_density, rng_for, thin_to_control
from .spectral import half_tables


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
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.penalty_weight <= 0:
            raise ValueError("penalty_weight must be positive")
        if self.n_cells < 1 or self.cfg.mark_space is None:
            raise ValueError("need at least one control cell and a mark space")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

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


def _mismatch(traj: Trajectory, target: SpectralState) -> float:
    return state_distance_sq_split(traj.final_state(), target)


def _evaluate(g: Control, prob: RateProblem, keep_snapshots: bool):
    """((objective, entropy cost, endpoint mismatch), skeleton run of ``g``).

    A run that keeps its snapshots is the tape of :func:`rate_gradient`.
    """
    cost = cost_LT(g, prob.cfg.mark_space)
    traj = solve_skeleton(prob.init, g, prob.cfg, keep_snapshots=keep_snapshots)
    if traj.diverged:
        return (float("inf"), cost, float("inf")), traj
    mis = _mismatch(traj, prob.target)
    return (cost + prob.penalty_weight * mis, cost, mis), traj


def rate_objective_parts(g: Control, prob: RateProblem) -> tuple[float, float, float]:
    """(objective, entropy cost, endpoint mismatch); infinite on divergence."""
    return _evaluate(g, prob, keep_snapshots=False)[0]


def rate_objective(g: Control, prob: RateProblem) -> float:
    return rate_objective_parts(g, prob)[0]


def rate_gradient(g: Control, prob: RateProblem, traj: Trajectory | None = None) -> np.ndarray:
    """Exact gradient of the discrete objective in w = log g, flattened like ``g.values``.

    The endpoint term lambda |endpoint - target|^2 (L2 velocity, H1
    director) seeds the adjoint with 2 lambda (u_T - u*, (1 + |k|^2)
    (theta_T - theta*)), and one backward sweep
    (``dynamics.skeleton_adjoint``) gives its derivative in every g_{c,i};
    the entropy cost adds g log g |cell| w_i in closed form.  ``traj`` is the
    skeleton run of ``g`` with its snapshots kept, when the caller has it;
    otherwise it is run here.  The objective must be finite at g.
    """
    if traj is None:
        traj = solve_skeleton(prob.init, g, prob.cfg)
    final, target = traj.final_state(), prob.target
    scale = 2.0 * prob.penalty_weight
    lam_u = scale * (final.u_hat - target.u_hat)
    lam_theta = scale * (1.0 + half_tables(prob.cfg.grid.n)[2]) * (final.theta_hat - target.theta_hat)
    grad_g = skeleton_adjoint(traj, g, prob.cfg, lam_u, lam_theta)[0]
    vals = g.values
    entropy = vals * np.log(vals) * g.cell_width * prob.cfg.mark_space.weight_array()
    return (vals * grad_g + entropy).ravel()


def optimize_control(prob: RateProblem, g0: Control | None = None) -> RateSolution:
    """Gradient descent in w = log g with backtracking line search.

    The gradient is :func:`rate_gradient`, taken on the skeleton run of the
    accepted iterate, so an iteration costs one backward sweep plus its
    line-search solves.  Each line search starts at the step 0.5.  Armijo
    acceptance makes every accepted iterate lower than the one before, so
    the last one is returned; the recorded objective history is
    non-increasing.  Initialization defaults to the zero-cost tilt g = 1.
    """
    if g0 is None:
        g0 = prob.unit_control()
    w = np.log(np.maximum(g0.values.ravel(), 1e-8))

    def objective_of(wvec: np.ndarray):
        return _evaluate(prob.control_from_flat(np.exp(wvec)), prob, keep_snapshots=True)

    (obj, cost, mis), traj = objective_of(w)
    history = [(0, obj, cost, mis)]
    converged = False

    for it in range(1, prob.max_iters + 1):
        if not np.isfinite(obj):  # the start diverged: there is no gradient to follow
            break
        grad = rate_gradient(prob.control_from_flat(np.exp(w)), prob, traj)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= prob.tolerance:
            converged = True
            break
        alpha = 0.5
        accepted = False
        while alpha > 1e-12:
            trial = w - alpha * grad
            (t_obj, t_cost, t_mis), t_traj = objective_of(trial)
            if t_obj <= obj - 1e-4 * alpha * float(np.dot(grad, grad)):
                w, obj, cost, mis, traj = trial, t_obj, t_cost, t_mis, t_traj
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True  # no descent direction at line-search resolution
            break
        history.append((it, obj, cost, mis))
        if history[-2][1] - obj <= prob.tolerance * max(abs(obj), 1.0):
            converged = True
            break

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

# Paths stepped together in one batch.  At N=16 the transforms are
# dispatch-bound and 8 paths step at 0.4 of the one-path cost per path;
# 16 gain little more, and at N=64 batches above 8 outgrow the cache and
# slow down (sweep in CHANGES.md).  Results do not depend on it.
_CHUNK = 8


def _run_paths(chunk_fn: Callable[[range], Sequence], n_paths: int, what: str):
    """(results of the paths that did not diverge, number of diverged paths).

    ``chunk_fn(ks)`` steps the paths ``ks`` (consecutive indices, at most
    ``_CHUNK`` of them) as one batch and returns one result per path: NaN,
    or a tuple holding NaN, for a diverged path.  Diverged paths are
    excluded and counted; more than 1% of them fails the study, and so does
    a study of no path.
    """
    if n_paths < 1:
        raise StudyError(f"{what} needs at least one path, got n_paths = {n_paths}")
    vals = np.asarray(
        [v for s in range(0, n_paths, _CHUNK) for v in chunk_fn(range(s, min(s + _CHUNK, n_paths)))],
        dtype=float,
    )
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


def _check_eps_list(eps_list: Sequence[float]):
    """Reject a noise-size list that is empty, not positive or not strictly decreasing."""
    if not (len(eps_list) and all(e > 0 for e in eps_list) and all(a > b for a, b in zip(eps_list, eps_list[1:]))):
        raise StudyError(f"eps_list must be nonempty, positive and strictly decreasing, got {list(eps_list)}")


def mc_small_noise_study(
    eps_list: Sequence[float],
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    phi: Control | None = None,
) -> list[dict]:
    """Distribution of the sup distance to the deterministic flow per noise size.

    For each epsilon, ``n_paths`` jump-driven solutions are compared with
    the skeleton solution driven by the same tilt; rows report median and
    quartiles of sup_t(|u-diff| + H1 theta-diff).  Path k's value equals
    ``sup_state_distance`` of its one-path ``solve_small_noise_sde`` run;
    the batch measures it snapshot by snapshot instead of keeping the
    snapshots.  Diverged paths are excluded and counted; more than 1% of
    them fails the study.
    """
    if n_paths < 8:
        raise StudyError("study needs at least 8 paths per noise level")
    _check_eps_list(eps_list)
    skel = solve_skeleton(init, phi, cfg)
    if skel.diverged:
        raise StudyError("the skeleton run itself diverged")
    path_seeds = rng_for(seed, "mc-small-noise").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for i, eps in enumerate(eps_list):
        def chunk(ks: range, eps=eps, i=i) -> np.ndarray:
            jumps = [draw_jumps(eps, phi, cfg, int(path_seeds[i, k]))[1] for k in ks]
            sup = np.zeros(len(ks))

            def observe(j, paths, u_hat, theta_hat):
                dist = state_distances(u_hat, theta_hat, skel.snapshots[j])
                sup[paths] = np.maximum(sup[paths], dist)

            trajs = solve_path_batch(init, eps, jumps, cfg, on_snapshot=observe)
            return np.where([traj.diverged for traj in trajs], np.nan, sup)

        good, bad = _run_paths(chunk, n_paths, f"small-noise study, eps={eps}")
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


def convolution_scaling_study(
    eps_list: Sequence[float],
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
    phi: Control | None = None,
) -> list[dict]:
    """Mean of sup_t |convolution|^2 per noise size (expected to shrink).

    Path k runs ``solve_stochastic_convolution`` at its own seed, batched.
    Diverged paths are excluded and counted, as in the small-noise study.
    """
    _check_eps_list(eps_list)
    path_seeds = rng_for(seed, "convolution-study").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for i, eps in enumerate(eps_list):
        def chunk(ks: range, eps=eps, i=i) -> list[float]:
            draws = [draw_jumps(eps, phi, cfg, int(path_seeds[i, k])) for k in ks]
            tilt = draws[0][0]
            convs = solve_path_batch(init, eps, [d[1] for d in draws], cfg, convolution_phi=tilt)
            return [float("nan") if c.diverged else float(np.max(c.u_l2) ** 2) for c in convs]

        sups, bad = _run_paths(chunk, n_paths, f"convolution study, eps={eps}")
        rows.append({"eps": float(eps), "mean_sup_sq": float(np.mean(sups)), "n_diverged": bad})
    return rows


# ---------------------------------------------------------------------------
# importance sampling


def _tilted_estimate(
    event_indicator: Callable[[Trajectory], float],
    phi: Control | None,
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    path_rng: Callable[[int], np.random.Generator],
    what: str,
) -> dict:
    """The one Monte Carlo estimator loop; ``phi=None`` is the unit tilt.

    Path k draws its jumps at intensity (1/epsilon) phi theta from
    ``path_rng(k)`` and contributes its indicator weighted by the
    exponential likelihood ratio of those jumps (exactly one at the unit
    tilt).  The tilt is ``cfg.tilt(phi)``.
    """
    _require_noise(epsilon, cfg)
    phi, ms = cfg.tilt(phi), cfg.mark_space
    if np.any(phi.values <= 0):
        raise ValueError("importance sampling requires a strictly positive tilt")

    def chunk(ks: range) -> list[tuple[float, float]]:
        jumps = [thin_to_control(ms, phi, 1.0 / epsilon, path_rng(k)) for k in ks]
        trajs = solve_path_batch(init, epsilon, jumps, cfg)
        return [
            (float("nan"), float("nan")) if traj.diverged
            else (girsanov_log_density(phi, sample, epsilon, ms), float(event_indicator(traj)))
            for traj, sample in zip(trajs, jumps)
        ]

    return _weighted_estimate(*_run_paths(chunk, n_paths, what))


def importance_weights(
    event_indicator: Callable[[Trajectory], float],
    phi: Control,
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
) -> dict:
    """Tilted-simulation estimate of a reference-measure path probability.

    Each replication simulates the system on a jump configuration drawn at
    the tilted intensity (1/epsilon) phi theta and weights the indicator
    by the exponential likelihood ratio of that configuration.  The
    average is unbiased for the probability under the reference
    (untilted) noise.  Besides the estimate, the result carries
    ``log_estimate`` and the weight diagnostics ``ess`` and
    ``max_weight_share`` (see :func:`_weighted_estimate`).  The indicator
    sees each path's diagnostic rows and final snapshot.
    """
    return _tilted_estimate(
        event_indicator, phi, epsilon, n_paths, cfg, init,
        lambda k: rng_for(seed, "importance", k), "importance sampling",
    )


def plain_mc_probability(
    event_indicator: Callable[[Trajectory], float],
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
) -> dict:
    """Untilted Monte Carlo estimate of the same path probability (unit weights).

    The importance estimator at the unit tilt; path k draws its jumps as
    ``draw_jumps`` does at its own seed, taken from the "plain-mc" stream.
    """

    def path_rng(k: int) -> np.random.Generator:
        return rng_for(int(rng_for(seed, "plain-mc", k).integers(0, 2**62)), "sde-jumps")

    return _tilted_estimate(event_indicator, None, epsilon, n_paths, cfg, init, path_rng, "plain Monte Carlo")


def sup_velocity_indicator(threshold: float) -> Callable[[Trajectory], float]:
    """Indicator of the exceedance event sup_t |u(t)|_{L2} >= threshold."""

    def indicator(traj: Trajectory) -> float:
        return 1.0 if float(np.max(traj.u_l2)) >= threshold else 0.0

    return indicator
