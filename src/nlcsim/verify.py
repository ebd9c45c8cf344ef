"""Invariant verification suite behind the ``verify`` CLI subcommand.

Each check exercises one contract of a module -- orthogonality and
symmetry of the bilinear forms, the advection/stress cancellation, energy
balance under refinement, entropy-cost exactness, thinning statistics,
the exponential tilt normalization, and solver consistency -- at desk
scale, and reports a pass/fail with the measured quantity.  Every check
runs on the half-layout arrays the solver steps: the operator checks call
the fused step ``operators.explicit_rhs`` (chi1 = 0, chi2 = 0 or
``nl=None`` isolate a term) or its transpose, and compare it with the
term-by-term references ``operators`` keeps (``convection_B``,
``advection_Btilde``, ``director_stress_M``, ``energy_psi``); the
coefficient checks evaluate ``noise.eval_G``.  Each is looked up on its
module, so a defect in the step or in a reference shows as a FAIL.  The
test suite runs the same checks (plus heavier acceptance versions), so a
``verify`` run is a quick field audit of an installed package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, ldp, noise, operators
from .config import ExperimentConfig, director_shape, velocity_shape
from .dynamics import SolverConfig, SpectralState
from .noise import Control, JumpCoefficientSpec, MarkSpace, rng_for
from .spectral import (
    TWO_PI,
    TorusGrid,
    from_grid,
    half_inner,
    half_norms_sq,
    half_tables,
    leray_half,
    to_grid,
)


@dataclass
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


def _shapes_for(grid, amps=(0.05, 0.05), gains=(0.0, 0.1)):
    shapes = [velocity_shape(grid, f"shear_x:{amps[0]}"), velocity_shape(grid, f"shear_y:{amps[1]}")]
    return JumpCoefficientSpec(shapes=np.stack(shapes), gains=gains)


def _random(grid, rng, kmax, amplitude=1.0, decay=0.0, solenoidal=False) -> np.ndarray:
    """Random real (2, N, N//2+1) coefficients in the band |k_j| <= kmax with L2 norm ``amplitude``.

    Magnitudes fall off like exp(-decay |k|); ``solenoidal`` projects onto
    divergence-free, mean-zero fields.
    """
    n = grid.n
    k1, k2, ksq = half_tables(n)[:3]
    a = np.fft.rfft2(rng.standard_normal((2, n, n)), norm="forward")
    a = a * (((np.abs(k1) <= kmax) & (k2 <= kmax)) * np.exp(-decay * np.sqrt(ksq)))
    if solenoidal:
        a = leray_half(a)
    return a * (amplitude / _l2(a))


def _l2(a) -> float:
    return float(np.sqrt(half_norms_sq(a)[0]))


def _h1(a) -> float:
    return float(np.sqrt(half_norms_sq(a)[1]))


def _divergence_residual(u) -> float:
    """|div u| / |grad u| in L2."""
    d1, d2 = operators._gradient(u)
    return _l2((d1[0] + d2[1])[None]) / _h1(u)


def _integral(values, m: int) -> float:
    return float(np.sum(values) * (TWO_PI / m) ** 2)


def _advection(u, v, grid) -> np.ndarray:
    """(u . grad) v from the director slot of the fused step (no stress, no relaxation)."""
    return -operators.explicit_rhs(u, v, grid, chi2=0.0, nl=None)[1]


def _convection(u, grid) -> np.ndarray:
    """P (u . grad) u = P div(u (x) u) from the velocity slot of the fused step (no stress)."""
    return -operators.explicit_rhs(u, np.zeros_like(u), grid, chi2=0.0, nl=None)[0]


def check_spectral(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-spectral")
    grid = TorusGrid(32)
    n, m = grid.n, grid.padded_size()
    out = []

    a = _random(grid, rng, kmax=n // 2 - 1)
    back = from_grid(to_grid(a, m), n)
    err = float(np.max(np.abs(back - a)) / np.max(np.abs(a)))
    out.append(CheckResult("spectral", "transform-roundtrip", err <= 1e-13, f"rel err {err:.2e}"))

    g = _random(grid, rng, kmax=12)
    spec_sq = _l2(g) ** 2
    phys_sq = _integral(to_grid(g, n) ** 2, n)
    err = abs(spec_sq - phys_sq) / spec_sq
    out.append(CheckResult("spectral", "parseval", err <= 1e-12, f"rel err {err:.2e}"))

    w = _random(grid, rng, kmax=10)
    once = leray_half(w)
    err = _l2(leray_half(once) - once) / _l2(once)
    out.append(CheckResult("spectral", "projection-idempotent", err <= 1e-13, f"rel err {err:.2e}"))

    v = _random(grid, rng, kmax=10, solenoidal=True)
    lhs, rhs = half_inner(once, v), half_inner(w, v)
    err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    out.append(CheckResult("spectral", "projection-self-adjoint", err <= 1e-12, f"rel err {err:.2e}"))

    res = max(_divergence_residual(_random(grid, rng, kmax=12, solenoidal=True)) for _ in range(5))
    out.append(CheckResult("spectral", "divergence-residual", res <= 1e-12, f"max {res:.2e}"))

    # the quadratic terms of the fused step: 3/2 padding already gives the 3x padded result
    u, theta = _random(grid, rng, kmax=10, solenoidal=True), _random(grid, rng, kmax=10)
    p = operators.explicit_rhs(u, theta, grid, nl=None)
    exact = operators.explicit_rhs(u, theta, TorusGrid(n, dealias_factor=3.0), nl=None)
    err = max(_l2(p[0] - exact[0]), _l2(p[1] - exact[1]))
    out.append(CheckResult("spectral", "dealias-quadratic-exact", err <= 1e-12, f"abs err {err:.2e}"))

    # the transforms reuse per-thread buffers: calls that alternate between batch shapes (and the
    # diagnostic's padding) return what each returns on a new thread's empty buffers, with dense
    # DFT products at N = 32 and at N = 64 pocketfft passes that re-zero the padding in place
    nl = operators.DEFAULT_NONLINEARITY

    def step(u, th, grid):
        return (*operators.explicit_rhs(u, th, grid, with_f=True), operators.potential_energy_hat(th, grid, nl))

    cases = []
    for g in (grid, TorusGrid(64)):
        fields = [(_random(g, rng, kmax=12, solenoidal=True), _random(g, rng, kmax=12)) for _ in range(4)]
        cases += [(*fields[0], g), (*(np.stack(f) for f in zip(*fields[1:])), g)]
    isolated = [_on_new_thread(step, *case) for case in cases]
    same = all(
        np.array_equal(a, b)
        for _ in range(2)
        for case, ref in zip(cases, isolated)
        for a, b in zip(step(*case), ref)
    )
    out.append(CheckResult("spectral", "workspace-reuse", same, "batches of 1 and 3 at N = 32 and 64, interleaved"))
    return out


def _on_new_thread(fn, *args):
    """fn(*args) run on a new thread, whose transform buffers start empty."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)))
    worker.start()
    worker.join()
    return result[0]


def check_operators(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-operators")
    grid = TorusGrid(32)
    k_sq = half_tables(grid.n)[2]
    out = []

    worst_anti = worst_zero_b = worst_zero_bt = 0.0
    for _ in range(20):
        u = _random(grid, rng, kmax=10, solenoidal=True)
        v, w = _random(grid, rng, kmax=10), _random(grid, rng, kmax=10)
        norm = _h1(u) * _h1(v) * _h1(w) + 1.0
        anti = half_inner(_advection(u, v, grid), w) + half_inner(_advection(u, w, grid), v)
        worst_anti = max(worst_anti, abs(anti) / norm)
        worst_zero_b = max(worst_zero_b, abs(half_inner(_convection(u, grid), u)))
        worst_zero_bt = max(worst_zero_bt, abs(half_inner(_advection(u, v, grid), v)))
    out.append(CheckResult("operators", "convection-antisymmetry", worst_anti <= 1e-10, f"max {worst_anti:.2e}"))
    out.append(CheckResult("operators", "convection-zero-form", worst_zero_b <= 1e-10, f"max {worst_zero_b:.2e}"))
    out.append(CheckResult("operators", "advection-zero-form", worst_zero_bt <= 1e-10, f"max {worst_zero_bt:.2e}"))

    # <B(u,u), w> in the divergence form, and <(u . grad) v, w>, against the references
    u, v = _random(grid, rng, kmax=10, solenoidal=True), _random(grid, rng, kmax=10)
    pairs = ((_convection(u, grid), operators.convection_B(u, u)),
             (_advection(u, v, grid), operators.advection_Btilde(u, v)))
    worst = 0.0
    for _ in range(10):
        wt = _random(grid, rng, kmax=10, solenoidal=True)
        for fused, ref in pairs:
            lhs, rhs = half_inner(fused, wt), half_inner(ref, wt)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    out.append(CheckResult("operators", "convection-weak-form", worst <= 1e-10, f"max rel {worst:.2e}"))

    # chi1 = 0 leaves nu = -M(theta, theta)
    theta = _random(grid, rng, kmax=10)
    mf = -operators.explicit_rhs(np.zeros_like(theta), theta, grid, chi1=0.0, nl=None)[0]
    ref = operators.director_stress_M(theta, theta)
    worst = 0.0
    for _ in range(10):
        ut = _random(grid, rng, kmax=10, solenoidal=True)
        lhs, rhs = half_inner(mf, ut), half_inner(ref, ut)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    out.append(CheckResult("operators", "stress-weak-form", worst <= 1e-10, f"max rel {worst:.2e}"))

    # the full step: <nu, u> = -<M, u> (as <B(u,u), u> = 0) must equal
    # <(u . grad) theta, -Lap theta + f> = -<ntheta + f, |k|^2 theta + f>
    worst = 0.0
    for _ in range(20):
        u, theta = _random(grid, rng, kmax=5, solenoidal=True), _random(grid, rng, kmax=5)
        nu, ntheta, f = operators.explicit_rhs(u, theta, grid, with_f=True)
        lhs, rhs = -half_inner(ntheta + f, k_sq * theta + f), half_inner(nu, u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-3))
    out.append(CheckResult("operators", "advection-stress-cancellation", worst <= 1e-8, f"max rel {worst:.2e}"))

    theta, delta = _random(grid, rng, kmax=5), _random(grid, rng, kmax=5)
    f = operators.explicit_rhs(np.zeros_like(theta), theta, grid, with_f=True)[2]
    analytic = half_inner(f + k_sq * theta, delta)
    h = 1e-5
    psi = [operators.energy_psi(None, theta + s * h * delta)[0] for s in (1, -1)]
    fd = (psi[0] - psi[1]) / (2 * h)
    err = abs(fd - analytic) / max(abs(analytic), 1e-10)
    out.append(CheckResult("operators", "energy-gradient-chain-rule", err <= 1e-4, f"rel err {err:.2e}"))

    # ||B(u,v)||_{V'} <= C |u| |v|, with B(u,v) = P (u . grad) v
    vprime_weight = half_tables(grid.n)[3][0] / (1.0 + k_sq)
    ratios = []
    for _ in range(50):
        u, v = _random(grid, rng, kmax=10, solenoidal=True), _random(grid, rng, kmax=10)
        b = leray_half(_advection(u, v, grid))
        ratios.append(np.sqrt(np.sum(vprime_weight * np.abs(b) ** 2)) / (_l2(u) * _l2(v)))
    bounded = np.max(ratios) <= 4.0 * max(np.median(ratios), 0.1)
    out.append(CheckResult("operators", "dual-norm-bound-shape", bool(bounded), f"max/med {np.max(ratios)/np.median(ratios):.2f}"))

    # <f(theta), theta> >= |theta|^4_{L4} for the default f_tilde(r) = 1 + r
    worst = -np.inf
    ok = True
    for _ in range(5):
        theta = _random(grid, rng, kmax=5, amplitude=2.0)
        f = operators.explicit_rhs(np.zeros_like(theta), theta, grid, with_f=True)[2]
        lhs = half_inner(f, theta)
        margin = lhs - operators._integral(theta, 2.0, np.square)
        ok = ok and margin >= -1e-12 * max(lhs, 1.0)
        worst = max(worst, -margin)
    out.append(CheckResult("operators", "coercivity-margin", ok, f"min margin {-worst:.2e}"))

    # <J delta, mu> = <delta, J^T mu> for the linearized step at fixed cutoffs; the
    # fourth-order stencil is exact because the step is cubic in the state
    u = _random(grid, rng, kmax=8, amplitude=0.6, solenoidal=True)
    theta = _random(grid, rng, kmax=8, amplitude=0.8)
    du, dtheta = _random(grid, rng, kmax=8, solenoidal=True), _random(grid, rng, kmax=8)
    mu_u, mu_theta = _random(grid, rng, kmax=8), _random(grid, rng, kmax=8)
    chi1, chi2, h = 0.8, 0.6, 0.25
    jd = sum(
        c * np.array(operators.explicit_rhs(u + s * h * du, theta + s * h * dtheta, grid, chi1, chi2)[:2])
        for s, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
    ) / (12 * h)
    a_u, a_theta, _ = operators.explicit_rhs_transpose(u, theta, mu_u, mu_theta, grid, chi1, chi2)
    lhs = half_inner(jd[0], mu_u) + half_inner(jd[1], mu_theta)
    rhs = half_inner(du, a_u) + half_inner(dtheta, a_theta)
    err = abs(lhs - rhs) / abs(rhs)
    out.append(CheckResult("operators", "transpose-dot-product", err <= 1e-10, f"rel err {err:.2e}"))
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

    u1, u2 = _random(grid, rng, kmax=4, solenoidal=True), _random(grid, rng, kmax=4, solenoidal=True)
    L = spec.lipschitz_bound(ms)
    total = sum(w * _l2(noise.eval_G(0, u1, i, spec) - noise.eval_G(0, u2, i, spec)) ** 2
                for i, w in enumerate(ms.weights))
    lip_ok = abs(total - L * _l2(u1 - u2) ** 2) <= 1e-12 * max(total, 1.0)
    growth_ok = True
    for p in (1, 2, 4):
        cp = spec.growth_constant(ms, p)
        for amp in (0.0, 1.0, 4.0):
            uu = amp * _random(grid, rng, kmax=4, solenoidal=True)
            tot = sum(w * _l2(noise.eval_G(0, uu, i, spec)) ** p for i, w in enumerate(ms.weights))
            growth_ok = growth_ok and tot <= cp * (1 + _l2(uu) ** p) + 1e-12
    out.append(CheckResult("noise", "coefficient-lipschitz-exact", bool(lip_ok), f"L={L:.4f}"))
    out.append(CheckResult("noise", "coefficient-growth-bounds", bool(growth_ok), "p in {1,2,4}"))

    n_rep = 2000
    control = Control(1.0, np.array([[0.5, 1.5], [2.0, 1.0]]))
    scale = 25.0
    totals = np.zeros((2, 2))
    totals_sq = np.zeros((2, 2))
    for k in range(n_rep):
        s = noise.thin_to_control(ms, control, scale, rng_for(seed, "verify-thin", k))
        cells = control.cells_of(s.times)
        for c in range(2):
            for i in range(2):
                n_ev = int(np.sum((cells == c) & (s.marks == i)))
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
                    tilt, noise.thin_to_control(ms1, tilt, 1 / eps, rng_for(seed, "verify-mo", k)), eps, ms1
                )
            )
            for k in range(n)
        ]
    )
    dev = abs(w.mean() - 1.0)
    band = 3 * w.std(ddof=1) / np.sqrt(n)
    out.append(CheckResult("noise", "tilt-density-mean-one", dev <= band, f"|mean-1|={dev:.4f} vs 3SE={band:.4f}"))
    return out


def _jump_path(init, epsilon, phi, cfg, seed):
    """The jump SDE on the seed's jumps, one path with every snapshot kept."""
    jumps = dynamics.draw_jumps(epsilon, phi, cfg, seed)
    return dynamics._run(init, cfg, "sde", *dynamics._jump_table(epsilon, [jumps], cfg))[0]


def check_dynamics(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-dynamics")
    out = []
    grid = TorusGrid(16)
    zero = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    spec = _shapes_for(grid)
    ms = MarkSpace(weights=(1.0, 0.5))
    cfg = SolverConfig(grid=grid, dt=1e-2, t_final=0.5, mark_space=ms, jump_spec=spec)
    init = SpectralState(
        grid,
        _random(grid, rng, kmax=3, amplitude=0.4, decay=0.4, solenoidal=True),
        _random(grid, rng, kmax=3, amplitude=0.6, decay=0.4),
    )

    def same(a, b, director=True):
        """Bitwise-equal snapshots (velocity, and director unless not asked)."""
        return len(a.snapshots) == len(b.snapshots) and all(
            np.array_equal(sa.u_hat, sb.u_hat) and (not director or np.array_equal(sa.theta_hat, sb.theta_hat))
            for sa, sb in zip(a.snapshots, b.snapshots)
        )

    traj0 = dynamics.solve_skeleton(SpectralState(grid, zero, zero), None, cfg)
    out.append(CheckResult("dynamics", "zero-state-fixed-point", bool(np.all(traj0.u_l2 == 0) and np.all(traj0.psi == 0)), "all diagnostics zero"))

    heat_cfg = SolverConfig(grid=grid, dt=1e-2, t_final=1.0, nonlinearity=None)
    theta = director_shape(grid, "stripe_x:1.0")
    heat = dynamics.solve_skeleton(SpectralState(grid, zero, theta), None, heat_cfg)
    ratio = _l2(heat.final_state().theta_hat) / _l2(theta)
    err = abs(ratio - np.exp(-1.0))
    out.append(CheckResult("dynamics", "heat-decay-exact-factor", err <= 1e-12, f"|ratio - e^-1| = {err:.2e}"))

    a = _jump_path(init, 0.25, None, cfg, seed + 1)
    b = _jump_path(init, 0.25, None, cfg, seed + 1)
    out.append(CheckResult("dynamics", "seeded-determinism", same(a, b), f"{len(a.snapshots)} snapshots compared"))

    spec0 = _shapes_for(grid, amps=(0.0, 0.0), gains=(0.0, 0.0))
    cfg0 = SolverConfig(grid=grid, dt=1e-2, t_final=0.3, mark_space=ms, jump_spec=spec0)
    phi = Control(0.3, np.array([[1.4, 0.7]]))
    sde = _jump_path(init, 0.25, phi, cfg0, seed + 2)
    skel = dynamics.solve_skeleton(init, phi, cfg0)
    out.append(CheckResult("dynamics", "zero-noise-sde-equals-skeleton", same(sde, skel), "coefficientwise equality"))

    plain = dynamics.solve_skeleton(init, None, cfg)
    cut = dynamics.solve_skeleton(init, None, replace(cfg, cutoff_level=50))
    out.append(CheckResult("dynamics", "inactive-cutoff-no-op", same(plain, cut, director=False), "level far above norms"))

    worst = max(_divergence_residual(s.u_hat) for s in plain.snapshots[::10])
    out.append(CheckResult("dynamics", "velocity-stays-solenoidal", worst <= 1e-11, f"max residual {worst:.2e}"))

    g = Control(0.5, np.array([[1.6, 0.7]]))
    maxima = []
    for dt in (2e-3, 1e-3):
        c = SolverConfig(grid=grid, dt=dt, t_final=0.5, mark_space=ms, jump_spec=spec)
        traj = dynamics.solve_skeleton(init, g, c, keep_snapshots=False)
        maxima.append(dynamics.energy_ledger(traj)["max_abs"])
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
    mono = _l2(proj.u_hat) <= _l2(init.u_hat) + 1e-14 and _l2(proj.theta_hat) <= _l2(init.theta_hat) + 1e-14
    out.append(CheckResult("dynamics", "band-projection-contracts", mono, "L2 norms non-increasing"))
    return out


def check_ldp(seed: int) -> list[CheckResult]:
    rng = rng_for(seed, "verify-ldp")
    out = []
    grid = TorusGrid(8)
    ms = MarkSpace(weights=(1.0,))
    spec = JumpCoefficientSpec(shapes=velocity_shape(grid, "shear_x:0.15")[None], gains=(0.0,))
    cfg = SolverConfig(
        grid=grid, dt=0.0125, t_final=0.25, mark_space=ms, jump_spec=spec,
        diag_stride=1000, energy_diagnostics=False,
    )
    init = SpectralState(
        grid,
        _random(grid, rng, kmax=2, amplitude=0.3, decay=0.3, solenoidal=True),
        _random(grid, rng, kmax=2, amplitude=0.4, decay=0.3),
    )
    target = dynamics.solve_skeleton(init, None, cfg, keep_snapshots=False).final_state()
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
    target2 = dynamics.solve_skeleton(init, None, cfg2, keep_snapshots=False).final_state()
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
