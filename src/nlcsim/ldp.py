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
solve, whatever the number of control coordinates.  The grid search the
optimizer is checked against is a test oracle, not part of the package.

Monte Carlo studies quantify how jump-driven paths concentrate on the
deterministic flow as the noise size shrinks, and the importance sampler
reweights tilted simulations back to the reference measure through the
exponential martingale density; plain Monte Carlo is that estimator at the
unit tilt, where every weight is one.  Every Monte Carlo driver draws
its paths' jump samples up front, each from its own Philox stream keyed as
for a one-path run, and runs them through the one loop ``_run_paths``: it
steps ``_CHUNK`` samples at a time as one batch
(``dynamics.solve_path_batch``) on one thread, reads divergence from the
trajectories, and keeps per path only the value the driver's
``value_of(k, traj)`` reads off it, so a batch is reduced before the next
one runs.  Diverged paths are excluded and counted, and more than 1% of
them fails the study.  No batch mixes paths, so every result equals the
one built from one-path solves bit for bit, whatever the chunk size.  The
small-noise study keeps each path's sup distance to the skeleton
(measured snapshot by snapshot), the convolution study max |xi|, the
estimators their log weight and indicator.  The importance and plain
estimators are one estimator, ``_tilted_estimate``, on samples drawn at
the tilt ``cfg.tilt(phi)``; ``_weighted_estimate`` keeps the weights as
logarithms: the estimate and its standard error are formed with a max
shift (log-sum-exp), and the result carries ``log_estimate``, the
effective sample size, the largest weight share, the hit count and a flag
for a degenerate sample (no path or every path hits).
"""

from __future__ import annotations

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
from .noise import Control, JumpSample, cost_LT, girsanov_log_density, rng_for, thin_to_control
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
        if not 0 < self.penalty_weight < np.inf:
            raise ValueError(f"penalty_weight must be positive and finite, got {self.penalty_weight}")
        if not 0 <= self.tolerance < np.inf:
            raise ValueError(f"tolerance must be >= 0 and finite, got {self.tolerance}")
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
    line-search solves.  Each line search starts at the step 0.5; a trial
    whose skeleton diverges or whose g = exp(w) overflows has an infinite
    objective and is backtracked from.  Armijo acceptance makes every
    accepted iterate lower than the one before, so the last one is
    returned; the recorded objective history is non-increasing.
    Initialization defaults to the zero-cost tilt g = 1.
    """
    if g0 is None:
        g0 = prob.unit_control()
    w = np.log(np.maximum(g0.values.ravel(), 1e-8))

    def objective_of(wvec: np.ndarray):
        with np.errstate(over="ignore"):
            g = np.exp(wvec)
        if not np.all(np.isfinite(g)):
            return (np.inf, np.inf, np.inf), None
        return _evaluate(prob.control_from_flat(g), prob, keep_snapshots=True)

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


# ---------------------------------------------------------------------------
# Monte Carlo driver: every study runs its paths through ``_run_paths``

# Paths stepped together in one batch.  On the plane-major step, median us
# per path-step of ``solve_path_batch`` (default config, eps 0.2, 2-core VM,
# one BLAS thread): N=16 P=8 58, 16 52, 32 48; N=64 P=8 1183, 16 1414,
# 32 1719.  Above 8, N=16 gains 10-17% and N=64 loses 20-45% as the batch
# outgrows the cache; the bench's studies hold 8 paths each.  Results do
# not depend on it.
_CHUNK = 8


def _run_paths(
    init: SpectralState, epsilon: float, jumps: Sequence[JumpSample], cfg: SolverConfig,
    value_of: Callable[[int, Trajectory], object], what: str,
    convolution_phi: Control | None = None, on_snapshot: Callable | None = None,
) -> tuple[np.ndarray, int]:
    """(``value_of(k, traj)`` of each path k that did not diverge, number of diverged paths).

    Path k runs on ``jumps[k]``, ``_CHUNK`` paths to one ``solve_path_batch``
    call; a batch is reduced to its values before the next one runs, and
    ``on_snapshot`` sees indices into ``jumps``.  Diverged paths are counted
    and left out; above 1% of them, or with no path, the study fails.
    """
    if not jumps:
        raise StudyError(f"{what} needs at least one path, got none")
    values, bad = [], 0
    for s in range(0, len(jumps), _CHUNK):
        hook = None if on_snapshot is None else lambda j, paths, u, theta: on_snapshot(j, paths + s, u, theta)
        batch = solve_path_batch(init, epsilon, jumps[s : s + _CHUNK], cfg, convolution_phi, hook)
        for k, traj in enumerate(batch, s):
            if traj.diverged:
                bad += 1
            else:
                values.append(value_of(k, traj))
    if bad > 0.01 * len(jumps):
        raise StudyError(f"{bad}/{len(jumps)} paths diverged ({what})")
    return np.asarray(values, dtype=float), bad


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
    if not np.all((f >= 0) & (f < np.inf)):
        raise ValueError("event indicator values must be finite and nonnegative")
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
    quartiles of sup_t(|u-diff| + H1 theta-diff).  Path k replays
    ``draw_jumps`` at its own seed through ``solve_path_batch``; its value
    equals ``sup_state_distance`` of its path with every snapshot kept, but
    the batch measures it snapshot by snapshot instead of keeping them.
    Diverged paths are excluded and counted; more than 1% of them fails the
    study.
    """
    if n_paths < 8:
        raise StudyError("study needs at least 8 paths per noise level")
    _check_eps_list(eps_list)
    skel = solve_skeleton(init, phi, cfg)
    if skel.diverged:
        raise StudyError("the skeleton run itself diverged")
    path_seeds = rng_for(seed, "mc-small-noise").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for eps, seeds in zip(eps_list, path_seeds):
        jumps = [draw_jumps(eps, phi, cfg, int(s)) for s in seeds]
        sup = np.zeros(n_paths)

        def observe(j, paths, u_hat, theta_hat):
            sup[paths] = np.maximum(sup[paths], state_distances(u_hat, theta_hat, skel.snapshots[j]))

        good, bad = _run_paths(
            init, eps, jumps, cfg, lambda k, traj: sup[k], f"small-noise study, eps={eps}", on_snapshot=observe
        )
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

    Path k replays ``draw_jumps`` at its own seed through
    ``solve_path_batch``, which returns its convolution (compensator tilt phi).
    Diverged paths are excluded and counted, as in the small-noise study.
    """
    if n_paths < 1:
        raise StudyError(f"convolution study needs at least one path, got {n_paths}")
    _check_eps_list(eps_list)
    path_seeds = rng_for(seed, "convolution-study").integers(0, 2**62, size=(len(eps_list), n_paths))
    rows = []
    for eps, seeds in zip(eps_list, path_seeds):
        jumps = [draw_jumps(eps, phi, cfg, int(s)) for s in seeds]
        sups, bad = _run_paths(
            init, eps, jumps, cfg, lambda k, conv: float(np.max(conv.u_l2) ** 2),
            f"convolution study, eps={eps}", convolution_phi=cfg.tilt(phi),
        )
        rows.append({"eps": float(eps), "mean_sup_sq": float(np.mean(sups)), "n_diverged": bad})
    return rows


# ---------------------------------------------------------------------------
# importance sampling


def _tilted_estimate(
    event_indicator: Callable[[Trajectory], float], phi: Control, epsilon: float,
    jumps: Sequence[JumpSample], cfg: SolverConfig, init: SpectralState, what: str,
) -> dict:
    """The one estimator, over ``jumps`` drawn at intensity (1/epsilon) phi theta, phi = ``cfg.tilt(...)``.

    ``_run_paths`` reduces each batch to one (log weight, indicator) row per
    path whose trajectory did not diverge; the weight is one at the unit tilt.
    """
    def value_of(k: int, traj: Trajectory) -> tuple[float, float]:
        return girsanov_log_density(phi, jumps[k], epsilon, cfg.mark_space), float(event_indicator(traj))

    return _weighted_estimate(*_run_paths(init, epsilon, jumps, cfg, value_of, what))


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
    _require_noise(epsilon, cfg)
    phi = cfg.tilt(phi)
    if np.any(phi.values <= 0):
        raise ValueError("importance sampling requires a strictly positive tilt")
    rngs = (rng_for(seed, "importance", k) for k in range(n_paths))
    jumps = [thin_to_control(cfg.mark_space, phi, 1.0 / epsilon, rng) for rng in rngs]
    return _tilted_estimate(event_indicator, phi, epsilon, jumps, cfg, init, "importance sampling")


def plain_mc_probability(
    event_indicator: Callable[[Trajectory], float],
    epsilon: float,
    n_paths: int,
    cfg: SolverConfig,
    init: SpectralState,
    seed: int,
) -> dict:
    """Untilted Monte Carlo estimate of the same path probability (unit weights).

    The importance estimator at the unit tilt; path k draws its jumps with
    ``draw_jumps`` at its own seed, taken from the "plain-mc" stream.
    """
    seeds = [int(rng_for(seed, "plain-mc", k).integers(0, 2**62)) for k in range(n_paths)]
    jumps = [draw_jumps(epsilon, None, cfg, s) for s in seeds]
    return _tilted_estimate(event_indicator, cfg.tilt(None), epsilon, jumps, cfg, init, "plain Monte Carlo")


def sup_velocity_indicator(threshold: float) -> Callable[[Trajectory], float]:
    """Indicator of the exceedance event sup_t |u(t)|_{L2} >= threshold."""

    def indicator(traj: Trajectory) -> float:
        return 1.0 if float(np.max(traj.u_l2)) >= threshold else 0.0

    return indicator
