"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from nlcsim.dynamics import (
    SolverConfig,
    SpectralState,
    apriori_bound,
    energy_ledger,
    galerkin_project,
    solve_skeleton,
    state_distance,
    state_distance_sq_split,
    trajectory_sup_energy,
)
from nlcsim.ldp import (
    RateProblem,
    brute_force_rate,
    convolution_scaling_study,
    mc_small_noise_study,
    optimize_control,
)
from nlcsim.noise import (
    Control,
    MarkSpace,
    cost_LT,
    entropy_l,
    girsanov_log_density,
    rng_for,
    sample_prm,
    thin_to_control,
)
from nlcsim.operators import advection_Btilde, director_stress_M, leray_project, polynomial_f
from nlcsim.spectral import TorusGrid, truncate_half

from oracle import (
    embed_state,
    field_from_function,
    l2_inner,
    l2_norm,
    laplacian,
    random_divergence_free_field,
    random_vector_field,
    spec_of,
    state_of,
    trilinear_b,
    v_norm,
)

SEED = 20240901


def _report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _standard_noise(grid, weights=(1.0, 0.5), amps=(0.05, 0.05), gains=(0.0, 0.1)):
    s1 = amps[0] * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None))
    s2 = amps[1] * leray_project(field_from_function(grid, None, lambda x1, x2: np.sin(x1)))
    return MarkSpace(weights=weights), spec_of((s1, s2), gains)


def _smooth_state(grid, rng, u_amp, th_amp, kmax=3, decay=0.3):
    return state_of(
        random_divergence_free_field(grid, rng, kmax=kmax, amplitude=u_amp, decay=decay),
        random_vector_field(grid, rng, kmax=kmax, amplitude=th_amp, decay=decay),
        0.0,
    )


def test_c1_algebraic_identities():
    t0 = time.time()
    worst = 0.0
    for n in (16, 32):
        grid = TorusGrid(n)
        rng = rng_for(SEED, "c1", n)
        for _ in range(100):
            u = random_divergence_free_field(grid, rng, kmax=n // 3, amplitude=1.0)
            v = random_vector_field(grid, rng, kmax=n // 3, amplitude=1.0)
            theta = random_vector_field(grid, rng, kmax=n // 3, amplitude=1.0)
            worst = max(worst, abs(trilinear_b(u, v, v)))
            worst = max(worst, abs(l2_inner(advection_Btilde(u, theta), theta)))
    elapsed = time.time() - t0
    _report(
        "C1 algebraic-identities",
        worst <= 1e-10 and elapsed < 5.0,
        f"max |zero form| = {worst:.2e} over 2x100 triples, {elapsed:.1f}s",
    )


def test_c2_cancellation_identity():
    t0 = time.time()
    grid = TorusGrid(32)
    rng = rng_for(SEED, "c2")
    worst = 0.0
    for _ in range(100):
        u = random_divergence_free_field(grid, rng, kmax=5, amplitude=1.0)
        theta = random_vector_field(grid, rng, kmax=5, amplitude=1.0)
        lhs = l2_inner(advection_Btilde(u, theta), polynomial_f(theta) - laplacian(theta))
        rhs = -l2_inner(director_stress_M(theta, theta), u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-3))
    elapsed = time.time() - t0
    _report(
        "C2 cancellation-identity",
        worst <= 1e-8 and elapsed < 10.0,
        f"max rel residual = {worst:.2e} over 100 pairs, {elapsed:.1f}s",
    )


def test_c3_energy_ledger_first_order():
    t0 = time.time()
    grid = TorusGrid(32)
    ms, spec = _standard_noise(grid)
    g = Control(1.0, np.array([[1.5, 0.7], [1.0, 1.2]]))
    init = _smooth_state(grid, rng_for(SEED, "c3"), 0.4, 0.6, decay=0.4)
    rates = []
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(grid=grid, dt=dt, t_final=1.0, mark_space=ms, jump_spec=spec)
        rates.append(energy_ledger(solve_skeleton(init, g, cfg, keep_snapshots=False))["max_rate"])
    ratio = rates[0] / rates[1]
    elapsed = time.time() - t0
    _report(
        "C3 energy-ledger-refinement",
        1.7 <= ratio <= 2.3 and elapsed < 60.0,
        f"balance-defect rate {rates[0]:.3e} -> {rates[1]:.3e}, ratio {ratio:.3f}, {elapsed:.0f}s",
    )


def test_c4_gronwall_ceiling():
    t0 = time.time()
    grid = TorusGrid(16)
    ms, spec = _standard_noise(grid)
    init = _smooth_state(grid, rng_for(SEED, "c4"), 0.3, 0.4)
    cases = (
        ("unit-tilt", 1.25, Control.unit(1.25, 1, 2)),
        ("boost", 1.0, Control(1.0, np.array([[1.5, 0.6]]))),
        ("piecewise", 1.0, Control(1.0, np.array([[2.0, 1.0], [0.5, 1.3]]))),
    )
    details = []
    ok = True
    for name, horizon, g in cases:
        cfg = SolverConfig(grid=grid, dt=5e-3, t_final=horizon, mark_space=ms, jump_spec=spec)
        traj = solve_skeleton(init, g, cfg, keep_snapshots=False)
        sup = trajectory_sup_energy(traj)
        ceiling = apriori_bound(init, g, cfg)
        margin = (ceiling - sup) / ceiling
        ok = ok and traj.status == "ok" and margin > 0.01
        details.append(f"{name}: sup {sup:.3f} < ceiling {ceiling:.3f} (margin {margin:.2f})")
    elapsed = time.time() - t0
    _report("C4 gronwall-ceiling", ok and elapsed < 30.0, "; ".join(details) + f", {elapsed:.0f}s")


def test_c5_entropy_cost_exactness():
    checks = [
        abs(entropy_l(1.0) - 0.0) <= 1e-12,
        abs(entropy_l(0.0) - 1.0) <= 1e-12,
        abs(entropy_l(2.0) - (2 * np.log(2.0) - 1.0)) <= 1e-12,
    ]
    ms = MarkSpace(weights=(1.0,))
    checks.append(abs(cost_LT(Control.unit(1.0), ms)) <= 1e-12)
    checks.append(abs(cost_LT(Control.constant(1.0, 2.0), ms) - (2 * np.log(2.0) - 1.0)) <= 1e-12)
    piecewise = Control(1.0, np.array([[2.0], [1.0]]))
    checks.append(abs(cost_LT(piecewise, ms) - (np.log(2.0) - 0.5)) <= 1e-12)
    ms2 = MarkSpace(weights=(1.0, 3.0))
    mixed = Control(2.0, np.array([[1.0, 0.5], [2.0, 1.0]]))
    expected = 1.0 * (3.0 * entropy_l(0.5)) + 1.0 * (1.0 * entropy_l(2.0))
    checks.append(abs(cost_LT(mixed, ms2) - expected) <= 1e-12)
    _report("C5 entropy-cost-exactness", all(checks), f"{sum(checks)}/{len(checks)} identities exact")


def test_c6_prm_and_thinning_statistics():
    t0 = time.time()
    n_rep = 10_000
    ms = MarkSpace(weights=(1.0, 0.5, 0.5, 0.25))
    control = Control(1.0, np.array([[0.5, 1.5, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0]]))
    scale = 20.0
    counts = np.zeros((n_rep, 2, 4))
    for k in range(n_rep):
        s = thin_to_control(ms, control, scale, rng_for(SEED, "c6-thin", k))
        if s.size:
            cells = np.minimum((s.times / 0.5).astype(int), 1)
            for c in range(2):
                for i in range(4):
                    counts[k, c, i] = np.sum((cells == c) & (s.marks == i))
    means = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(n_rep)
    expect = scale * control.values * 0.5 * ms.weight_array()[None, :]
    thin_ok = bool(np.all(np.abs(means - expect) <= 3 * se + 1e-9))

    # chi-square sanity on the mark distribution of the plain process
    totals = np.zeros(4)
    for k in range(n_rep // 10):
        s = sample_prm(ms, 1.0, scale, rng_for(SEED, "c6-prm", k))
        totals += np.bincount(s.marks, minlength=4)
    probs = ms.weight_array() / ms.total_mass
    expected = totals.sum() * probs
    chi2 = float(np.sum((totals - expected) ** 2 / expected))
    chi_ok = chi2 <= 16.27  # 99.9% quantile, 3 degrees of freedom
    elapsed = time.time() - t0
    _report(
        "C6 prm-thinning-statistics",
        thin_ok and chi_ok and elapsed < 30.0,
        f"max |mean-expected| dev ok={thin_ok}, chi2 = {chi2:.2f} <= 16.27, {elapsed:.0f}s",
    )


def test_c7_girsanov_mean_one():
    t0 = time.time()
    n = 10_000
    ms = MarkSpace(weights=(1.0,))
    settings = (
        ("eps=0.5, g=1.5", 0.5, Control.constant(1.0, 1.5)),
        ("eps=0.25, g=2.0", 0.25, Control.constant(1.0, 2.0)),
        ("eps=0.5, piecewise", 0.5, Control(1.0, np.array([[1.5], [0.75]]))),
    )
    details = []
    ok = True
    for idx, (name, eps, phi) in enumerate(settings):
        w = np.empty(n)
        for k in range(n):
            sample = thin_to_control(ms, phi, 1.0 / eps, rng_for(SEED, "c7", idx, k))
            w[k] = np.exp(girsanov_log_density(phi, sample, eps, ms))
        dev = abs(w.mean() - 1.0)
        band = 3 * w.std(ddof=1) / np.sqrt(n)
        ok = ok and dev <= band
        details.append(f"{name}: |mean-1| {dev:.4f} <= 3SE {band:.4f}")
    elapsed = time.time() - t0
    _report("C7 girsanov-mean-one", ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.0f}s")


def test_c8_rate_optimizer_vs_oracle():
    t0 = time.time()
    grid = TorusGrid(16)
    shape = 0.15 * leray_project(field_from_function(grid, lambda x1, x2: np.sin(x2), None))
    ms = MarkSpace(weights=(1.0,))
    spec = spec_of((shape,), (0.0,))
    cfg = SolverConfig(
        grid=grid,
        dt=0.0125,
        t_final=0.25,
        mark_space=ms,
        jump_spec=spec,
        diag_stride=10**6,
        energy_diagnostics=False,
    )
    init = _smooth_state(grid, rng_for(SEED, "c8"), 0.3, 0.4)
    fine_grid_values = np.linspace(0.2, 3.0, 141)  # spacing 0.02: oracle sharp to < 1e-3
    details = []
    ok = True
    for name, tilt in (("unit-target", None), ("boost-target", 1.7), ("damp-target", 0.5)):
        g_target = Control.constant(0.25, tilt) if tilt else Control.unit(0.25)
        target = solve_skeleton(init, g_target, cfg, keep_snapshots=False).final_state()
        prob = RateProblem(init=init, target=target, cfg=cfg, penalty_weight=200.0, max_iters=40)
        sol = optimize_control(prob)
        oracle = brute_force_rate(prob, fine_grid_values)
        gap = abs(sol.objective - oracle.objective)
        ok = ok and gap <= 1e-3
        if tilt is None:
            ok = ok and sol.cost <= 1e-6
            details.append(f"{name}: cost {sol.cost:.2e}, gap {gap:.2e}")
        else:
            details.append(f"{name}: obj {sol.objective:.4e} vs grid {oracle.objective:.4e}, gap {gap:.2e}")
    elapsed = time.time() - t0
    _report(
        "C8 rate-optimizer-vs-oracle", ok and elapsed < 300.0, "; ".join(details) + f", {elapsed:.0f}s"
    )


def _mc_setup():
    grid = TorusGrid(16)
    ms, spec = _standard_noise(grid, weights=(2.0, 1.0))
    cfg = SolverConfig(
        grid=grid,
        dt=1e-2,
        t_final=0.5,
        mark_space=ms,
        jump_spec=spec,
        diag_stride=10**6,
        energy_diagnostics=False,
    )
    init = _smooth_state(grid, rng_for(SEED, "c9-init"), 0.4, 0.6)
    return cfg, init


def test_c9_small_noise_convergence():
    t0 = time.time()
    cfg, init = _mc_setup()
    eps = (0.4, 0.2, 0.1, 0.05)
    ok = True
    details = []
    for name, phi in (("phi=1", None), ("phi=(1.5,0.7)", Control(0.5, np.array([[1.5, 0.7]])))):
        rows = mc_small_noise_study(eps, 32, cfg, init, seed=SEED + 9, phi=phi)
        medians = [r["median"] for r in rows]
        mono = all(a >= b for a, b in zip(medians, medians[1:]))
        diverged = sum(r["n_diverged"] for r in rows)
        ok = ok and mono and diverged == 0
        details.append(f"{name}: medians " + " > ".join(f"{m:.4f}" for m in medians))
    elapsed = time.time() - t0
    _report(
        "C9 small-noise-convergence", ok and elapsed < 600.0, "; ".join(details) + f", {elapsed:.0f}s"
    )


def test_c10_convolution_scaling():
    t0 = time.time()
    cfg, init = _mc_setup()
    eps = (0.4, 0.2, 0.1, 0.05)
    rows = convolution_scaling_study(eps, 32, cfg, init, seed=SEED + 10)
    vals = [r["mean_sup_sq"] for r in rows]
    mono = all(a > b for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - t0
    _report(
        "C10 convolution-scaling",
        mono and elapsed < 300.0,
        "E sup|xi|^2: " + " > ".join(f"{v:.5f}" for v in vals) + f", {elapsed:.0f}s",
    )


def test_c11_continuous_dependence():
    t0 = time.time()
    grid = TorusGrid(16)
    ms, spec = _standard_noise(grid)
    cfg = SolverConfig(
        grid=grid,
        dt=5e-3,
        t_final=1.0,
        mark_space=ms,
        jump_spec=spec,
        diag_stride=10**6,
        energy_diagnostics=False,
    )
    init = _smooth_state(grid, rng_for(SEED, "c11"), 0.4, 0.6)
    g = Control(1.0, np.array([[1.4, 0.8]]))
    base = solve_skeleton(init, g, cfg)
    delta = 1e-3
    series = []
    for d in range(5):
        prng = rng_for(SEED, "c11-dir", d)
        du = random_divergence_free_field(grid, prng, kmax=3, amplitude=1.0, decay=0.2)
        dth = random_vector_field(grid, prng, kmax=3, amplitude=1.0, decay=0.2)
        scale = delta / (l2_norm(du) + v_norm(dth))
        pert = SpectralState(grid, init.u_hat + scale * du, init.theta_hat + scale * dth)
        traj = solve_skeleton(pert, g, cfg)
        # every 10th snapshot: t = 0.05 j
        pairs = zip(base.snapshots[::10], traj.snapshots[::10])
        series.append([(a.time, state_distance_sq_split(a, b)) for a, b in pairs])
    c_fit = 0.0
    for rows in series:
        for t, r in rows:
            if t > 0 and r > 0:
                c_fit = max(c_fit, np.log(r / delta**2) / t)
    envelope_ok = all(
        r <= delta**2 * np.exp(c_fit * t) * (1 + 1e-9) for rows in series for t, r in rows
    )
    elapsed = time.time() - t0
    _report(
        "C11 continuous-dependence",
        envelope_ok and np.isfinite(c_fit) and c_fit <= 25.0 and elapsed < 120.0,
        f"fitted C = {c_fit:.3f}, 5 directions within delta^2 e^(Ct), {elapsed:.0f}s",
    )


def test_c12_galerkin_self_convergence():
    t0 = time.time()
    fine = TorusGrid(64)
    ms, spec64 = _standard_noise(fine)
    g = Control(0.5, np.array([[1.5, 0.7]]))
    init64 = _smooth_state(fine, rng_for(SEED, "c12"), 0.6, 0.9)
    cfg64 = SolverConfig(
        grid=fine,
        dt=2.5e-3,
        t_final=0.5,
        mark_space=ms,
        jump_spec=spec64,
        diag_stride=10**6,
        energy_diagnostics=False,
    )
    ref = solve_skeleton(init64, g, cfg64)
    errors = []
    for n in (8, 16, 32):
        grid = TorusGrid(n)
        _, spec_n = _standard_noise(grid)
        init_n = SpectralState(grid, truncate_half(init64.u_hat, n), truncate_half(init64.theta_hat, n))
        cfg_n = SolverConfig(
            grid=grid,
            dt=2.5e-3,
            t_final=0.5,
            mark_space=ms,
            jump_spec=spec_n,
            diag_stride=10**6,
            energy_diagnostics=False,
        )
        traj = solve_skeleton(init_n, g, cfg_n)
        # every 20th snapshot: t = 0.05 j
        err = max(
            state_distance(embed_state(a, fine), b)
            for a, b in zip(traj.snapshots[::20], ref.snapshots[::20])
        )
        errors.append(err)
    mono = errors[0] > errors[1] > errors[2] > 1e-14
    elapsed = time.time() - t0
    _report(
        "C12 galerkin-self-convergence",
        mono and elapsed < 300.0,
        "sup errors vs N=64: " + " > ".join(f"{e:.3e}" for e in errors) + f", {elapsed:.0f}s",
    )
