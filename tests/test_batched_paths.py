"""Batched path ensembles against one-path solves.

``dynamics._run`` steps P paths along a leading axis and no operation
mixes paths, so path k of a batch must equal the one-path solve of path k
bit for bit, and every Monte Carlo driver must return exactly the statistic
built from one-path solves (``oracle.jump_path``), whatever the chunk size.
A path that diverges leaves the rest of its batch untouched and is counted.
"""

from dataclasses import replace

import numpy as np
import pytest

import nlcsim.ldp as ldp
from nlcsim.dynamics import (
    SolverConfig,
    SolverError,
    _jump_table,
    _run,
    apriori_bound,
    draw_jumps,
    skeleton_adjoint,
    solve_path_batch,
    solve_skeleton,
    sup_state_distance,
)
from nlcsim.ldp import (
    StudyError,
    _weighted_estimate,
    convolution_scaling_study,
    importance_weights,
    mc_small_noise_study,
    plain_mc_probability,
    sup_velocity_indicator,
)
from nlcsim.noise import (
    Control,
    JumpSample,
    MarkSpace,
    girsanov_log_density,
    rng_for,
    thin_to_control,
)
from nlcsim.operators import leray_project
from nlcsim.spectral import TorusGrid

from oracle import (
    field_from_function,
    jump_path,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_of,
)

N_PATHS = 10  # not a multiple of 3 or 8: the last chunk is partial


def make_cfg(amps=(0.2, 0.1), gains=(0.05, 0.02), **kwargs):
    grid = TorusGrid(8)
    shapes = tuple(
        a * leray_project(field_from_function(grid, fn, None))
        for a, fn in zip(amps, (lambda x1, x2: np.sin(x2), lambda x1, x2: np.cos(2 * x2)))
    )
    opts = {"dt": 1e-2, "t_final": 0.2, "diag_stride": 1, "energy_diagnostics": False, **kwargs}
    return SolverConfig(
        grid=grid,
        mark_space=MarkSpace(weights=(1.0, 0.5)),
        jump_spec=spec_of(shapes, gains),
        **opts,
    )


def make_init(grid, amplitude=0.3):
    rng = np.random.default_rng(5)
    return state_of(
        random_divergence_free_field(grid, rng, kmax=2, amplitude=amplitude, decay=0.3),
        random_vector_field(grid, rng, kmax=2, amplitude=0.4, decay=0.3),
    )


def with_burst(sample: JumpSample, t: float, count: int) -> JumpSample:
    """The sample plus ``count`` jumps of mark 0 at time t (enough to pass a low blow-up guard)."""
    times = np.concatenate((sample.times, np.full(count, t)))
    marks = np.concatenate((sample.marks, np.zeros(count, dtype=int)))
    order = np.argsort(times, kind="stable")
    return JumpSample(times[order], marks[order])


def assert_same_path(batched, solo, all_snapshots=True):
    assert batched.status == solo.status and batched.kind == solo.kind
    for name in ("times", "u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation"):
        assert np.array_equal(getattr(batched, name), getattr(solo, name)), name
    pairs = zip(batched.snapshots, solo.snapshots) if all_snapshots else (
        [(batched.final_state(), solo.final_state())] if solo.status == "ok" else []
    )
    for a, b in pairs:
        assert a.time == b.time
        assert np.array_equal(a.u_hat, b.u_hat) and np.array_equal(a.theta_hat, b.theta_hat)


@pytest.fixture(params=(1, 3, 8))
def chunk(request, monkeypatch):
    monkeypatch.setattr(ldp, "_CHUNK", request.param)
    return request.param


# ---------------------------------------------------------------------------
# the stepping core


@pytest.mark.parametrize(
    "opts",
    ({"energy_diagnostics": True}, {"cutoff_level": 1.0, "energy_diagnostics": True}),
    ids=("diagnostics", "cutoff-active"),
)
def test_batch_paths_equal_one_path_runs(opts):
    cfg = make_cfg(**opts)
    init = make_init(cfg.grid, amplitude=1.5)  # |u| above the cutoff level
    phi = Control(cfg.t_final, np.array([[1.4, 0.6], [0.8, 1.2]]))
    samples = [draw_jumps(0.3, phi, cfg, seed) for seed in range(5)]
    main, conv = _run(init, cfg, "sde", *_jump_table(0.3, samples, cfg, phi))
    for k, sample in enumerate(samples):
        assert_same_path(main[k], jump_path(init, 0.3, sample, cfg))
        _, (solo_conv,) = _run(init, cfg, "sde", *_jump_table(0.3, [sample], cfg, phi))
        assert_same_path(conv[k], solo_conv)


def test_divergence_leaves_the_rest_of_the_batch_unchanged():
    cfg = make_cfg(blowup_threshold=50.0)
    init = make_init(cfg.grid)
    samples = [draw_jumps(0.5, None, cfg, seed) for seed in range(3)]
    samples[1] = with_burst(samples[1], 0.055, 500)  # eps * 500 jumps lifts |u| far past 50
    batch = solve_path_batch(init, 0.5, samples, cfg)
    assert [traj.status for traj in batch] == ["ok", "diverged", "ok"]
    for traj, sample in zip(batch, samples):
        assert_same_path(traj, jump_path(init, 0.5, sample, cfg), all_snapshots=False)
    # the diverged path stops after the row of the step that diverged
    assert len(batch[1].times) == 6 and batch[1].snapshots == []


def test_divergence_leaves_the_rest_of_the_convolution_batch_unchanged():
    cfg = make_cfg(blowup_threshold=50.0)
    init = make_init(cfg.grid)
    phi = Control(cfg.t_final, np.array([[1.4, 0.6], [0.8, 1.2]]))
    samples = [draw_jumps(0.5, phi, cfg, seed) for seed in range(3)]
    # path 1 diverges at step 5 and path 2 jumps after it, so path 2 reads a wrong table row
    samples[1], samples[2] = with_burst(samples[1], 0.055, 500), with_burst(samples[2], 0.155, 3)
    batch = solve_path_batch(init, 0.5, samples, cfg, convolution_phi=phi)
    assert [traj.status for traj in batch] == ["ok", "diverged", "ok"]
    for traj, sample in zip(batch, samples):
        _, (solo,) = _run(init, cfg, "sde", *_jump_table(0.5, [sample], cfg, phi))
        assert_same_path(traj, solo, all_snapshots=False)
    assert len(batch[1].times) == 6 and batch[1].snapshots == []


def test_empty_batch_has_no_paths():
    cfg = make_cfg(energy_diagnostics=True)
    phi = Control.unit(cfg.t_final, 1, 2)
    assert solve_path_batch(make_init(cfg.grid), 0.3, [], cfg) == []
    assert solve_path_batch(make_init(cfg.grid), 0.3, [], cfg, convolution_phi=phi) == []


def test_batched_zero_noise_sde_equals_skeleton():
    cfg = make_cfg(amps=(0.0, 0.0), gains=(0.0, 0.0), energy_diagnostics=True)
    init = make_init(cfg.grid)
    phi = Control(cfg.t_final, np.array([[1.4, 0.7]]))
    skel = solve_skeleton(init, phi, cfg)
    samples = [draw_jumps(0.05, phi, cfg, seed) for seed in range(4)]
    assert all(sample.size for sample in samples)
    seen = []

    def observe(j, paths, u_hat, theta_hat):
        ref = skel.snapshots[j]
        seen.append(j)
        for i in range(len(paths)):
            assert np.array_equal(u_hat[i], ref.u_hat) and np.array_equal(theta_hat[i], ref.theta_hat)

    batch = solve_path_batch(init, 0.05, samples, cfg, on_snapshot=observe)
    assert seen == list(range(len(skel.snapshots)))
    for traj in batch:
        for name in ("u_l2", "u_h1", "theta_l2", "theta_h1", "psi", "dissipation"):
            assert np.array_equal(getattr(traj, name), getattr(skel, name)), name
        assert np.array_equal(traj.final_state().u_hat, skel.final_state().u_hat)


# ---------------------------------------------------------------------------
# the four Monte Carlo drivers, at chunk sizes 1, 3 and 8


def test_small_noise_study_matches_one_path_solves(chunk):
    cfg = make_cfg()
    init = make_init(cfg.grid)
    phi = Control.constant(cfg.t_final, 1.3, 1, 2)
    eps_list, seed = [0.4, 0.2], 21
    rows = mc_small_noise_study(eps_list, N_PATHS, cfg, init, seed=seed, phi=phi)
    skel = solve_skeleton(init, phi, cfg)
    path_seeds = rng_for(seed, "mc-small-noise").integers(0, 2**62, size=(2, N_PATHS))
    for row, eps, seeds in zip(rows, eps_list, path_seeds):
        d = np.array(
            [sup_state_distance(jump_path(init, eps, draw_jumps(eps, phi, cfg, int(s)), cfg), skel) for s in seeds]
        )
        expect = {"eps": eps, "median": float(np.median(d)), "q25": float(np.quantile(d, 0.25)),
                  "q75": float(np.quantile(d, 0.75)), "n_diverged": 0}
        assert row == expect


def test_convolution_study_matches_one_path_solves(chunk):
    cfg = make_cfg()
    init = make_init(cfg.grid)
    phi = Control.constant(cfg.t_final, 1.3, 1, 2)
    eps_list, seed = [0.4, 0.2], 22
    rows = convolution_scaling_study(eps_list, N_PATHS, cfg, init, seed=seed, phi=phi)
    path_seeds = rng_for(seed, "convolution-study").integers(0, 2**62, size=(2, N_PATHS))
    for row, eps, seeds in zip(rows, eps_list, path_seeds):
        convs = [jump_path(init, eps, draw_jumps(eps, phi, cfg, int(s)), cfg, cfg.tilt(phi)) for s in seeds]
        sups = [float(np.max(conv.u_l2) ** 2) for conv in convs]
        assert row == {"eps": eps, "mean_sup_sq": float(np.mean(sups)), "n_diverged": 0}


def _importance_rows(cfg, init, phi, eps, seed, indicator, n, replace=None):
    rows = []
    for k in range(n):
        jumps = thin_to_control(cfg.mark_space, phi, 1.0 / eps, rng_for(seed, "importance", k))
        if replace is not None and k in replace:
            jumps = replace[k](jumps)
        traj = jump_path(init, eps, jumps, cfg)
        if not traj.diverged:
            rows.append((girsanov_log_density(phi, jumps, eps, cfg.mark_space), indicator(traj)))
    return np.array(rows)


def test_importance_estimate_matches_one_path_solves(chunk):
    cfg = make_cfg()
    init = make_init(cfg.grid)
    phi = Control.constant(cfg.t_final, 1.5, 1, 2)
    indicator = sup_velocity_indicator(0.45)
    out = importance_weights(indicator, phi, 0.3, N_PATHS, cfg, init, seed=23)
    assert out == _weighted_estimate(_importance_rows(cfg, init, phi, 0.3, 23, indicator, N_PATHS), 0)
    assert not out["degenerate"]


def test_plain_estimate_matches_one_path_solves(chunk):
    cfg = make_cfg()
    init = make_init(cfg.grid)
    indicator = sup_velocity_indicator(0.45)
    out = plain_mc_probability(indicator, 0.3, N_PATHS, cfg, init, seed=24)
    rows = []
    for k in range(N_PATHS):
        path_seed = int(rng_for(24, "plain-mc", k).integers(0, 2**62))
        rows.append((0.0, indicator(jump_path(init, 0.3, draw_jumps(0.3, None, cfg, path_seed), cfg))))
    assert out == _weighted_estimate(np.array(rows), 0)


# ---------------------------------------------------------------------------
# diverged paths inside a driver


def _burst_on_call(monkeypatch, target: int, name: str = "thin_to_control"):
    """Make the ``target``-th draw through ``ldp.<name>`` (path ``target`` of the first run) diverge.

    ``thin_to_control`` is the importance sampler's draw, ``draw_jumps`` the studies'.
    """
    calls = []
    draw = getattr(ldp, name)

    def patched(*args, **kwargs):
        out = draw(*args, **kwargs)
        calls.append(None)
        if len(calls) - 1 != target:
            return out
        return with_burst(out, 0.055, 500)

    monkeypatch.setattr(ldp, name, patched)


def test_diverged_path_is_counted_and_excluded(chunk, monkeypatch):
    cfg = make_cfg(blowup_threshold=50.0, t_final=0.1)
    init = make_init(cfg.grid)
    phi = Control.constant(cfg.t_final, 1.5, 1, 2)
    indicator = sup_velocity_indicator(0.45)
    n, bad = 100, 42
    expect = _weighted_estimate(
        _importance_rows(cfg, init, phi, 0.5, 25, indicator, n, {bad: lambda s: with_burst(s, 0.055, 500)}), 1
    )
    _burst_on_call(monkeypatch, bad)
    out = importance_weights(indicator, phi, 0.5, n, cfg, init, seed=25)
    assert out["n_diverged"] == 1 and out["n_paths"] == n - 1
    assert out == expect


# study -> (its seed stream, the value of path seed s from one-path solves, the row of the values)
STUDIES_WITH_A_DIVERGED_PATH = {
    "mc_small_noise_study": (
        "mc-small-noise",
        lambda init, phi, cfg, s, skel: sup_state_distance(
            jump_path(init, 0.5, draw_jumps(0.5, phi, cfg, s), cfg), skel
        ),
        lambda d: {"eps": 0.5, "median": float(np.median(d)), "q25": float(np.quantile(d, 0.25)),
                   "q75": float(np.quantile(d, 0.75)), "n_diverged": 1},
    ),
    "convolution_scaling_study": (
        "convolution-study",
        lambda init, phi, cfg, s, skel: float(
            np.max(jump_path(init, 0.5, draw_jumps(0.5, phi, cfg, s), cfg, cfg.tilt(phi)).u_l2) ** 2
        ),
        lambda sups: {"eps": 0.5, "mean_sup_sq": float(np.mean(sups)), "n_diverged": 1},
    ),
}


@pytest.mark.parametrize("study", STUDIES_WITH_A_DIVERGED_PATH)
def test_a_study_counts_a_diverged_path_and_leaves_it_out(study, chunk, monkeypatch):
    cfg = make_cfg(blowup_threshold=50.0, t_final=0.1)
    init = make_init(cfg.grid)
    phi = Control.constant(cfg.t_final, 1.5, 1, 2)
    stream, value, row_of = STUDIES_WITH_A_DIVERGED_PATH[study]
    n, bad, skel = 100, 42, solve_skeleton(init, phi, cfg)
    seeds = rng_for(27, stream).integers(0, 2**62, size=(1, n))[0]
    expect = row_of(np.array([value(init, phi, cfg, int(s), skel) for k, s in enumerate(seeds) if k != bad]))
    _burst_on_call(monkeypatch, bad, "draw_jumps")
    assert getattr(ldp, study)([0.5], n, cfg, init, seed=27, phi=phi) == [expect]


def test_diverged_share_above_one_percent_fails(monkeypatch):
    cfg = make_cfg(blowup_threshold=50.0, t_final=0.1)
    phi = Control.constant(cfg.t_final, 1.5, 1, 2)
    _burst_on_call(monkeypatch, 3)
    with pytest.raises(StudyError, match="1/8 paths diverged"):
        importance_weights(lambda traj: 1.0, phi, 0.5, 8, cfg, make_init(cfg.grid), seed=26)


# ---------------------------------------------------------------------------
# one horizon and one mark space per run


# (run, tilt): tilts that do not fit make_cfg()'s run over [0, 0.2] with 2 marks, and a tilt on
# that run without its marks
MISFIT_TILTS = {
    "other-horizon": lambda cfg: (cfg, Control.constant(1.0, 1.5, 1, 2)),
    "one-mark": lambda cfg: (cfg, Control.constant(cfg.t_final, 1.5)),
    "no-marks": lambda cfg: (replace(cfg, mark_space=None, jump_spec=None), Control.constant(cfg.t_final, 1.5, 1, 2)),
}

TILT_ENTRY_POINTS = {
    "solve_skeleton": lambda tilt, cfg, init: solve_skeleton(init, tilt, cfg),
    "jump_path": lambda tilt, cfg, init: jump_path(init, 0.5, draw_jumps(0.5, tilt, cfg, 3), cfg),
    "jump_path-convolution": lambda tilt, cfg, init: jump_path(
        init, 0.5, draw_jumps(0.5, tilt, cfg, 3), cfg, cfg.tilt(tilt)
    ),
    "solve_path_batch": lambda tilt, cfg, init: solve_path_batch(
        init, 0.5, [draw_jumps(0.5, None, cfg, 3)], cfg, convolution_phi=tilt
    ),
    "skeleton_adjoint": lambda tilt, cfg, init: skeleton_adjoint(
        solve_skeleton(init, None, cfg), tilt, cfg, np.zeros_like(init.u_hat), np.zeros_like(init.theta_hat)
    ),
    "importance_weights": lambda tilt, cfg, init: importance_weights(
        lambda traj: 1.0, tilt, 0.5, 8, cfg, init, seed=3
    ),
    "apriori_bound": lambda tilt, cfg, init: apriori_bound(init, tilt, cfg),
}


@pytest.mark.parametrize("misfit", MISFIT_TILTS)
@pytest.mark.parametrize("entry", TILT_ENTRY_POINTS)
def test_a_tilt_that_does_not_fit_the_run_is_rejected(entry, misfit):
    cfg, tilt = MISFIT_TILTS[misfit](make_cfg())
    with pytest.raises(SolverError, match="tilt" if cfg.mark_space else "no mark space"):
        TILT_ENTRY_POINTS[entry](tilt, cfg, make_init(cfg.grid))


EMPTY_RUNS = {
    "importance sampling": lambda cfg, init, n: importance_weights(
        lambda traj: 1.0, Control.constant(cfg.t_final, 1.5, 1, 2), 0.5, n, cfg, init, seed=3
    ),
    "plain Monte Carlo": lambda cfg, init, n: plain_mc_probability(lambda traj: 1.0, 0.5, n, cfg, init, seed=3),
    "convolution study": lambda cfg, init, n: convolution_scaling_study([0.5], n, cfg, init, seed=3),
}


@pytest.mark.parametrize("driver", EMPTY_RUNS)
def test_a_monte_carlo_run_of_no_path_is_rejected(driver):
    cfg = make_cfg()
    for n_paths in (0, -3):
        with pytest.raises(StudyError, match=f"^{driver}.* needs at least one path"):
            EMPTY_RUNS[driver](cfg, make_init(cfg.grid), n_paths)


@pytest.mark.parametrize("eps_list", ([], [0.2, 0.4], [0.4, -0.1], [float("nan")]), ids=str)
@pytest.mark.parametrize("study", (mc_small_noise_study, convolution_scaling_study), ids=lambda f: f.__name__)
def test_a_study_rejects_an_eps_list_that_is_empty_or_not_positive_and_decreasing(study, eps_list):
    cfg = make_cfg()
    with pytest.raises(StudyError, match="eps_list must be nonempty, positive and strictly decreasing"):
        study(eps_list, 8, cfg, make_init(cfg.grid), seed=3)



NO_JUMPS = JumpSample(np.zeros(0), np.zeros(0, int))
NOISE_SIZE_ENTRY_POINTS = {
    "draw_jumps": lambda eps, cfg, init: draw_jumps(eps, None, cfg, 3),
    "jump_path": lambda eps, cfg, init: jump_path(init, eps, draw_jumps(eps, None, cfg, 3), cfg),
    "jump_path-replayed": lambda eps, cfg, init: jump_path(init, eps, NO_JUMPS, cfg),
    "jump_path-convolution": lambda eps, cfg, init: jump_path(
        init, eps, draw_jumps(eps, None, cfg, 3), cfg, cfg.tilt(None)
    ),
    "solve_path_batch": lambda eps, cfg, init: solve_path_batch(init, eps, [NO_JUMPS], cfg),
    "importance_weights": lambda eps, cfg, init: importance_weights(
        lambda traj: 1.0, Control.constant(cfg.t_final, 1.5, 1, 2), eps, 8, cfg, init, seed=3
    ),
    "plain_mc_probability": lambda eps, cfg, init: plain_mc_probability(lambda traj: 1.0, eps, 8, cfg, init, seed=3),
    # a study's eps_list check rejects a list with 0, a negative or a NaN first; [inf, 0.1] passes it
    "mc_small_noise_study": lambda eps, cfg, init: mc_small_noise_study([eps, 0.1], 8, cfg, init, seed=3),
    "convolution_scaling_study": lambda eps, cfg, init: convolution_scaling_study([eps, 0.1], 8, cfg, init, seed=3),
}
NOISE_SIZE_CASES = [
    (entry, eps)
    for entry in NOISE_SIZE_ENTRY_POINTS
    for eps in (0.0, -0.5, float("nan"), float("inf"))
    if eps == float("inf") or not entry.endswith("_study")
]


@pytest.mark.parametrize(("entry", "eps"), NOISE_SIZE_CASES, ids=[f"{e}-{x}" for e, x in NOISE_SIZE_CASES])
def test_a_noise_size_that_is_not_positive_and_finite_is_rejected(entry, eps):
    # inf used to run every path into the blow-up guard (eps * 0 = nan), and nan to fail inside numpy
    cfg = make_cfg()
    with pytest.raises(SolverError, match="epsilon must be positive and finite"):
        NOISE_SIZE_ENTRY_POINTS[entry](eps, cfg, make_init(cfg.grid))
