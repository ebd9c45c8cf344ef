"""Invariant verification suite behind the ``verify`` CLI subcommand.

Each check exercises one contract of a module -- orthogonality and
symmetry of the bilinear forms, the advection/stress cancellation, energy
balance under refinement, entropy-cost exactness, thinning statistics,
the exponential tilt normalization, and solver consistency -- at desk
scale, and reports a pass/fail with the measured quantity.  The test
suite runs the same checks (plus heavier acceptance versions), so a
``verify`` run is a quick field audit of an installed package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, ldp, noise, operators, spectral
from .config import ExperimentConfig
from .dynamics import SolverConfig, SpectralState
from .noise import Control, JumpCoefficientSpec, MarkSpace, rng_for
from .spectral import ScalarField, TorusGrid, VectorField


@dataclass
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


def _shapes_for(grid, amps=(0.05, 0.05), gains=(0.0, 0.1)):
    s1 = amps[0] * spectral.leray_project(
        VectorField(
            spectral.field_from_function(grid, lambda x1, x2: np.sin(x2)),
            ScalarField.zeros(grid),
        )
    )
    s2 = amps[1] * spectral.leray_project(
        VectorField(
            ScalarField.zeros(grid),
            spectral.field_from_function(grid, lambda x1, x2: np.sin(x1)),
        )
    )
    return JumpCoefficientSpec(shapes=(s1, s2), gains=gains)


def check_spectral(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-spectral")
    grid = TorusGrid(32)
    out = []

    f = ScalarField.from_values(grid, rng.standard_normal((32, 32)))
    back = ScalarField.from_coeffs(grid, f.coeffs.copy())
    err = float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)))
    out.append(CheckResult("spectral", "transform-roundtrip", err <= 1e-13, f"rel err {err:.2e}"))

    g = spectral.random_scalar_field(grid, rng, kmax=12)
    spec_sq = spectral.l2_norm(g) ** 2
    phys_sq = float(np.sum(g.values**2)) * (2 * np.pi / 32) ** 2
    err = abs(spec_sq - phys_sq) / spec_sq
    out.append(CheckResult("spectral", "parseval", err <= 1e-12, f"rel err {err:.2e}"))

    w = spectral.random_vector_field(grid, rng, kmax=10)
    once = spectral.leray_project(w)
    twice = spectral.leray_project(once)
    err = spectral.l2_norm(twice - once) / spectral.l2_norm(once)
    out.append(CheckResult("spectral", "projection-idempotent", err <= 1e-13, f"rel err {err:.2e}"))

    v = spectral.random_divergence_free_field(grid, rng, kmax=10)
    lhs = spectral.l2_inner(once, v)
    rhs = spectral.l2_inner(w, v)
    err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    out.append(CheckResult("spectral", "projection-self-adjoint", err <= 1e-12, f"rel err {err:.2e}"))

    res = max(spectral.divergence_residual(spectral.random_divergence_free_field(grid, rng, kmax=12)) for _ in range(5))
    out.append(CheckResult("spectral", "divergence-residual", res <= 1e-12, f"max {res:.2e}"))

    a = spectral.random_scalar_field(grid, rng, kmax=10)
    b = spectral.random_scalar_field(grid, rng, kmax=5)
    p = spectral.dealias_product(a, b)
    exact = spectral.dealias_product(a, b, factor=3.0)
    err = spectral.l2_norm(p - exact)
    out.append(CheckResult("spectral", "dealias-quadratic-exact", err <= 1e-12, f"abs err {err:.2e}"))
    return out


def check_operators(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-operators")
    grid = TorusGrid(32)
    out = []

    worst_anti = worst_zero_b = worst_zero_bt = 0.0
    for _ in range(20):
        u = spectral.random_divergence_free_field(grid, rng, kmax=10)
        v = spectral.random_vector_field(grid, rng, kmax=10)
        w = spectral.random_vector_field(grid, rng, kmax=10)
        norm = spectral.h1_seminorm(u) * spectral.h1_seminorm(v) * spectral.h1_seminorm(w) + 1.0
        worst_anti = max(
            worst_anti,
            abs(operators.trilinear_b(u, v, w) + operators.trilinear_b(u, w, v)) / norm,
        )
        worst_zero_b = max(worst_zero_b, abs(operators.trilinear_b(u, v, v)))
        worst_zero_bt = max(worst_zero_bt, abs(spectral.l2_inner(operators.advection_Btilde(u, v), v)))
    out.append(CheckResult("operators", "convection-antisymmetry", worst_anti <= 1e-10, f"max {worst_anti:.2e}"))
    out.append(CheckResult("operators", "convection-zero-form", worst_zero_b <= 1e-10, f"max {worst_zero_b:.2e}"))
    out.append(CheckResult("operators", "advection-zero-form", worst_zero_bt <= 1e-10, f"max {worst_zero_bt:.2e}"))

    u = spectral.random_divergence_free_field(grid, rng, kmax=10)
    v = spectral.random_vector_field(grid, rng, kmax=10)
    bf = operators.convection_B(u, v)
    worst = 0.0
    for _ in range(10):
        wt = spectral.random_divergence_free_field(grid, rng, kmax=10)
        lhs = spectral.l2_inner(bf, wt)
        rhs = operators.trilinear_b(u, v, wt)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    out.append(CheckResult("operators", "convection-weak-form", worst <= 1e-10, f"max rel {worst:.2e}"))

    theta = spectral.random_vector_field(grid, rng, kmax=10)
    mf = operators.director_stress_M(theta, theta)
    worst = 0.0
    for _ in range(10):
        ut = spectral.random_divergence_free_field(grid, rng, kmax=10)
        lhs = spectral.l2_inner(mf, ut)
        rhs = operators.trilinear_m(theta, theta, ut)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    out.append(CheckResult("operators", "stress-weak-form", worst <= 1e-10, f"max rel {worst:.2e}"))

    worst = 0.0
    for _ in range(20):
        u = spectral.random_divergence_free_field(grid, rng, kmax=5)
        theta = spectral.random_vector_field(grid, rng, kmax=5)
        adv = operators.advection_Btilde(u, theta)
        target = operators.polynomial_f(theta) - spectral.laplacian_vec(theta)
        lhs = spectral.l2_inner(adv, target)
        rhs = -spectral.l2_inner(operators.director_stress_M(theta, theta), u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-3))
    out.append(CheckResult("operators", "advection-stress-cancellation", worst <= 1e-8, f"max rel {worst:.2e}"))

    theta = spectral.random_vector_field(grid, rng, kmax=5)
    delta = spectral.random_vector_field(grid, rng, kmax=5)
    grad = operators.polynomial_f(theta) - spectral.laplacian_vec(theta)
    analytic = spectral.l2_inner(grad, delta)
    h = 1e-5
    fd = (
        operators.energy_psi(None, theta + h * delta).psi_total
        - operators.energy_psi(None, theta - h * delta).psi_total
    ) / (2 * h)
    err = abs(fd - analytic) / max(abs(analytic), 1e-10)
    out.append(CheckResult("operators", "energy-gradient-chain-rule", err <= 1e-4, f"rel err {err:.2e}"))

    ratios = []
    for _ in range(50):
        u = spectral.random_divergence_free_field(grid, rng, kmax=10)
        v = spectral.random_vector_field(grid, rng, kmax=10)
        ratios.append(
            operators.dual_vprime_norm(operators.convection_B(u, v))
            / (spectral.l2_norm(u) * spectral.l2_norm(v))
        )
    bounded = np.max(ratios) <= 4.0 * max(np.median(ratios), 0.1)
    out.append(CheckResult("operators", "dual-norm-bound-shape", bool(bounded), f"max/med {np.max(ratios)/np.median(ratios):.2f}"))

    worst = -np.inf
    ok = True
    for _ in range(5):
        theta = spectral.random_vector_field(grid, rng, kmax=5, amplitude=2.0)
        rep = operators.coercivity_check(theta)
        ok = ok and rep.margin >= -1e-12 * max(rep.lhs, 1.0)
        worst = max(worst, -rep.margin)
    out.append(CheckResult("operators", "coercivity-margin", ok, f"min margin {-worst:.2e}"))
    return out


def check_noise(seed: int) -> list[CheckResult]:
    out = []
    vals_ok = (
        noise.entropy_l(1.0) == 0.0
        and noise.entropy_l(0.0) == 1.0
        and abs(noise.entropy_l(2.0) - (2 * np.log(2) - 1)) < 1e-12
    )
    out.append(CheckResult("noise", "entropy-values", vals_ok, "l(0)=1, l(1)=0, l(2)=2log2-1"))

    r = np.linspace(0, 5, 1001)
    ell = np.array([noise.entropy_l(x) for x in r])
    conv_ok = bool(np.all(ell >= 0) and np.all(np.diff(ell, 2) >= -1e-12) and ell.argmin() == np.argmin(np.abs(r - 1)))
    out.append(CheckResult("noise", "entropy-convex-min-at-one", conv_ok, "grid of 1001 points"))

    ms1 = MarkSpace(weights=(1.0,))
    cost2 = noise.cost_LT(Control.constant(1.0, 2.0), ms1)
    cost_pw = noise.cost_LT(Control(1.0, np.array([[2.0], [1.0]])), ms1)
    exact = abs(cost2 - (2 * np.log(2) - 1)) < 1e-12 and abs(cost_pw - (np.log(2) - 0.5)) < 1e-12
    out.append(CheckResult("noise", "entropy-cost-exactness", exact, f"L(2)={cost2:.12f}"))

    grid = TorusGrid(16)
    spec = _shapes_for(grid)
    ms = MarkSpace(weights=(1.0, 0.5))
    rng = rng_for(seed, "verify-noise")
    u1 = spectral.random_divergence_free_field(grid, rng, kmax=4)
    u2 = spectral.random_divergence_free_field(grid, rng, kmax=4)
    L = spec.lipschitz_bound(ms)
    total = sum(
        ms.weights[i] * spectral.l2_norm(noise.eval_G(0.0, u1, i, spec) - noise.eval_G(0.0, u2, i, spec)) ** 2
        for i in range(2)
    )
    lip_ok = abs(total - L * spectral.l2_norm(u1 - u2) ** 2) <= 1e-12 * max(total, 1.0)
    growth_ok = True
    for p in (1, 2, 4):
        cp = spec.growth_constant(ms, p)
        for amp in (0.0, 1.0, 4.0):
            uu = spectral.random_divergence_free_field(grid, rng, kmax=4, amplitude=amp)
            tot = sum(ms.weights[i] * spectral.l2_norm(noise.eval_G(0.0, uu, i, spec)) ** p for i in range(2))
            growth_ok = growth_ok and tot <= cp * (1 + spectral.l2_norm(uu) ** p) + 1e-12
    out.append(CheckResult("noise", "coefficient-lipschitz-exact", bool(lip_ok), f"L={L:.4f}"))
    out.append(CheckResult("noise", "coefficient-growth-bounds", bool(growth_ok), "p in {1,2,4}"))

    n_rep = 2000
    control = Control(1.0, np.array([[0.5, 1.5], [2.0, 1.0]]))
    scale = 25.0
    totals = np.zeros((2, 2))
    totals_sq = np.zeros((2, 2))
    for k in range(n_rep):
        s = noise.thin_to_control(ms, 1.0, control, scale, rng_for(seed, "verify-thin", k))
        cells = np.minimum((s.times / 0.5).astype(int), 1) if s.size else np.empty(0, int)
        for c in range(2):
            for i in range(2):
                n_ev = int(np.sum((cells == c) & (s.marks == i))) if s.size else 0
                totals[c, i] += n_ev
                totals_sq[c, i] += n_ev * n_ev
    means = totals / n_rep
    se = np.sqrt(np.maximum(totals_sq / n_rep - means**2, 1e-12) / n_rep)
    expect = scale * control.values * 0.5 * ms.weight_array()[None, :]
    thin_ok = bool(np.all(np.abs(means - expect) <= 3 * se + 1e-9))
    out.append(CheckResult("noise", "thinning-cell-mark-rates", thin_ok, f"max dev {np.max(np.abs(means-expect)):.3f}"))

    eps, c, n = 0.5, 1.5, 2000
    tilt = Control.constant(1.0, c)
    w = np.array(
        [
            np.exp(
                noise.girsanov_log_density(
                    tilt, noise.thin_to_control(ms1, 1.0, tilt, 1 / eps, rng_for(seed, "verify-mo", k)), eps, ms1
                )
            )
            for k in range(n)
        ]
    )
    dev = abs(w.mean() - 1.0)
    band = 3 * w.std(ddof=1) / np.sqrt(n)
    out.append(CheckResult("noise", "tilt-density-mean-one", dev <= band, f"|mean-1|={dev:.4f} vs 3SE={band:.4f}"))
    return out


def check_dynamics(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-dynamics")
    out = []
    grid = TorusGrid(16)
    spec = _shapes_for(grid)
    ms = MarkSpace(weights=(1.0, 0.5))
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.5, mark_space=ms, jump_spec=spec)
    init = SpectralState(
        spectral.random_divergence_free_field(grid, rng, kmax=3, amplitude=0.4, decay=0.4),
        spectral.random_vector_field(grid, rng, kmax=3, amplitude=0.6, decay=0.4),
    )

    traj0 = dynamics.solve_skeleton(SpectralState.zero(grid), None, cfg)
    out.append(CheckResult("dynamics", "zero-state-fixed-point", bool(np.all(traj0.u_l2 == 0) and np.all(traj0.psi == 0)), "all diagnostics zero"))

    heat_cfg = SolverConfig(grid=grid, dt=1e-2, t_final=1.0, nonlinearity=None)
    theta = VectorField(
        spectral.field_from_function(grid, lambda x1, x2: np.sin(x1)), ScalarField.zeros(grid)
    )
    heat = dynamics.solve_skeleton(
        SpectralState(spectral.leray_project(VectorField.zeros(grid)), theta), None, heat_cfg
    )
    ratio = spectral.l2_norm(heat.final_state().theta) / spectral.l2_norm(theta)
    err = abs(ratio - np.exp(-1.0))
    out.append(CheckResult("dynamics", "heat-decay-exact-factor", err <= 1e-12, f"|ratio - e^-1| = {err:.2e}"))

    a = dynamics.solve_small_noise_sde(init, 0.25, None, cfg, seed=seed + 1)
    b = dynamics.solve_small_noise_sde(init, 0.25, None, cfg, seed=seed + 1)
    det = all(
        np.array_equal(sa.u.c1.coeffs, sb.u.c1.coeffs) for sa, sb in zip(a.snapshots, b.snapshots)
    )
    out.append(CheckResult("dynamics", "seeded-determinism", det, f"{len(a.snapshots)} snapshots compared"))

    ms0 = MarkSpace(weights=(1.0, 0.5))
    spec0 = _shapes_for(grid, amps=(0.0, 0.0), gains=(0.0, 0.0))
    cfg0 = SolverConfig(grid=grid, dt=1e-2, t_final=0.3, mark_space=ms0, jump_spec=spec0)
    phi = Control(0.3, np.array([[1.4, 0.7]]))
    sde = dynamics.solve_small_noise_sde(init, 0.25, phi, cfg0, seed=seed + 2)
    skel = dynamics.solve_skeleton(init, phi, cfg0)
    consistent = all(
        np.array_equal(sa.u.c1.coeffs, sb.u.c1.coeffs)
        and np.array_equal(sa.theta.c1.coeffs, sb.theta.c1.coeffs)
        for sa, sb in zip(sde.snapshots, skel.snapshots)
    )
    out.append(CheckResult("dynamics", "zero-noise-sde-equals-skeleton", consistent, "coefficientwise equality"))

    plain = dynamics.solve_skeleton(init, None, cfg)
    cut = dynamics.solve_skeleton(
        init, None, SolverConfig(grid=grid, dt=1e-2, t_final=0.5, mark_space=ms, jump_spec=spec, cutoff_level=50)
    )
    cut_ok = all(
        np.array_equal(sa.u.c1.coeffs, sb.u.c1.coeffs) for sa, sb in zip(plain.snapshots, cut.snapshots)
    )
    out.append(CheckResult("dynamics", "inactive-cutoff-no-op", cut_ok, "level far above norms"))

    worst = max(spectral.divergence_residual(s.u) for s in plain.snapshots[::10])
    out.append(CheckResult("dynamics", "velocity-stays-solenoidal", worst <= 1e-11, f"max residual {worst:.2e}"))

    g = Control(0.5, np.array([[1.6, 0.7]]))
    maxima = []
    for dt in (2e-3, 1e-3):
        c = SolverConfig(grid=grid, dt=dt, t_final=0.5, mark_space=ms, jump_spec=spec, snapshot_stride=1000)
        maxima.append(dynamics.energy_ledger(dynamics.solve_skeleton(init, g, c))["max_abs"])
    out.append(
        CheckResult(
            "dynamics",
            "energy-balance-refines",
            maxima[0] > maxima[1] > 0.0,
            f"{maxima[0]:.2e} -> {maxima[1]:.2e}",
        )
    )

    cfg_g = SolverConfig(grid=grid, dt=1e-2, t_final=1.0, mark_space=ms, jump_spec=spec)
    g2 = Control(1.0, np.array([[1.5, 0.6]]))
    traj_g = dynamics.solve_skeleton(init, g2, cfg_g)
    ceiling = dynamics.apriori_bound(init, g2, cfg_g)
    sup = dynamics.trajectory_sup_energy(traj_g)
    out.append(CheckResult("dynamics", "energy-ceiling-respected", sup < ceiling, f"sup {sup:.3f} < ceiling {ceiling:.3f}"))

    proj = dynamics.galerkin_project(init, 8)
    mono = (
        spectral.l2_norm(proj.u) <= spectral.l2_norm(init.u) + 1e-14
        and spectral.l2_norm(proj.theta) <= spectral.l2_norm(init.theta) + 1e-14
    )
    out.append(CheckResult("dynamics", "band-projection-contracts", mono, "L2 norms non-increasing"))
    return out


def check_ldp(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-ldp")
    out = []
    grid = TorusGrid(8)
    shape = 0.15 * spectral.leray_project(
        VectorField(spectral.field_from_function(grid, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid))
    )
    ms = MarkSpace(weights=(1.0,))
    spec = JumpCoefficientSpec(shapes=(shape,), gains=(0.0,))
    cfg = SolverConfig(
        grid=grid, dt=0.0125, t_final=0.25, mark_space=ms, jump_spec=spec,
        snapshot_stride=1000, diag_stride=1000, energy_diagnostics=False,
    )
    init = SpectralState(
        spectral.random_divergence_free_field(grid, rng, kmax=2, amplitude=0.3, decay=0.3),
        spectral.random_vector_field(grid, rng, kmax=2, amplitude=0.4, decay=0.3),
    )
    target = dynamics.solve_skeleton(init, None, cfg).final_state()
    prob = ldp.RateProblem(init=init, target=target, cfg=cfg, max_iters=20)

    obj_unit = ldp.rate_objective(prob.unit_control(), prob)
    out.append(CheckResult("ldp", "unit-tilt-objective-zero", obj_unit <= 1e-20, f"objective {obj_unit:.2e}"))

    g = Control(0.25, np.array([[1.37]]))
    obj, cost, mis = ldp.rate_objective_parts(g, prob)
    recomputed = noise.cost_LT(g, ms) + prob.penalty_weight * mis
    out.append(
        CheckResult("ldp", "objective-recomputation", abs(obj - recomputed) <= 1e-14 * max(obj, 1.0), f"obj {obj:.6f}")
    )

    sol = ldp.optimize_control(prob)
    out.append(CheckResult("ldp", "optimizer-recovers-unit-tilt", sol.cost <= 1e-6, f"cost {sol.cost:.2e}"))

    # two marks, one with a gain, off the unit tilt: adjoint gradient vs central differences
    cfg2 = replace(cfg, mark_space=MarkSpace(weights=(1.0, 0.5)), jump_spec=_shapes_for(grid))
    target2 = dynamics.solve_skeleton(init, None, cfg2).final_state()
    prob2 = ldp.RateProblem(init=init, target=target2, cfg=cfg2)
    w = np.log([1.37, 0.8])
    grad = ldp.rate_gradient(prob2.control_from_flat(np.exp(w)), prob2)
    fd = np.array([
        (ldp.rate_objective(prob2.control_from_flat(np.exp(w + e)), prob2)
         - ldp.rate_objective(prob2.control_from_flat(np.exp(w - e)), prob2)) / 2e-4
        for e in 1e-4 * np.eye(2)
    ])
    err = float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd)))
    out.append(CheckResult("ldp", "adjoint-gradient-matches-fd", err <= 1e-6, f"rel err {err:.2e}"))

    phi = Control.constant(0.25, 1.5)
    res = ldp.importance_weights(lambda tr: 1.0, phi, 0.5, 300, cfg, init, seed=seed + 3)
    dev = abs(res["estimate"] - 1.0)
    out.append(
        CheckResult(
            "ldp",
            "importance-unit-indicator-mean-one",
            dev <= 3 * res["std_error"],
            f"|est-1|={dev:.4f} vs 3SE={3*res['std_error']:.4f}",
        )
    )
    return out


def run_all(cfg: ExperimentConfig) -> list[CheckResult]:
    """Every invariant group, seeded from the experiment config."""
    seed = cfg.seed
    results = []
    results += check_spectral(seed)
    results += check_operators(seed)
    results += check_noise(seed)
    results += check_dynamics(seed)
    results += check_ldp(seed)
    return results


def render_table(results: list[CheckResult]) -> str:
    width = max(len(f"{r.group}/{r.name}") for r in results) + 2
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {(r.group + '/' + r.name).ljust(width)} {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
