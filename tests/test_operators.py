import numpy as np
import pytest

from nlcsim.operators import (
    DEFAULT_NONLINEARITY,
    PolynomialNonlinearity,
    advection_Btilde,
    convection_B,
    director_stress_M,
    energy_psi,
    leray_project,
    polynomial_f,
    potential_energy_hat,
)
from nlcsim.spectral import TorusGrid, half_tables

from conftest import direct_eval, oracle_trilinear_b, oracle_trilinear_m, quad_integral
from oracle import (
    coercivity_check,
    constant_field,
    dual_vprime_norm,
    f_aliasing_error,
    field_from_function,
    grid_values,
    h1_seminorm,
    l2_inner,
    l2_norm,
    potential,
    random_divergence_free_field,
    random_vector_field,
    trilinear_b,
    trilinear_m,
)


def ksq_multiplier(w):
    """|k|^2 per Fourier mode: the Stokes operator the stepping core integrates."""
    return half_tables(w.shape[-2])[2] * w


def laplacian_vec(w):
    return -ksq_multiplier(w)


class TestNonlinearity:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialNonlinearity((1.0, -1.0))
        with pytest.raises(ValueError):
            PolynomialNonlinearity((1.0, 0.0))
        with pytest.raises(ValueError):
            PolynomialNonlinearity((1.0, 1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("b", (float("nan"), float("inf")))
    def test_a_coefficient_that_is_not_finite_is_rejected(self, b):
        with pytest.raises(ValueError, match="coefficients must be > 0 and finite"):
            PolynomialNonlinearity((1.0, b))

    def test_default_shape(self):
        nl = DEFAULT_NONLINEARITY
        assert nl.degree == 1
        assert nl.f_tilde(0.0) == 1.0
        assert nl.f_tilde(2.0) == 3.0
        assert nl.phi(1.0) == pytest.approx(1.5)

    def test_f_tilde_nondecreasing(self):
        nl = PolynomialNonlinearity((0.5, 0.25, 1.5))
        r = np.linspace(0, 5, 200)
        vals = nl.f_tilde(r)
        assert np.all(np.diff(vals) >= 0)


class TestLinearOperators:
    def test_stokes_eigenmode_k10(self, grid16):
        # divergence-free mode at k=(1,0): vector along e2
        u = leray_project(field_from_function(grid16, None, lambda x1, x2: np.sin(x1)))
        out = ksq_multiplier(u)
        assert l2_norm(out - u) < 1e-13

    def test_stokes_eigenmode_k21(self, grid16):
        w = field_from_function(grid16, lambda x1, x2: np.cos(2 * x1 + x2), None)
        u = leray_project(w)
        out = ksq_multiplier(u)
        assert l2_norm(out - 5.0 * u) / l2_norm(u) < 1e-13

    def test_stokes_form_is_h1(self, grid32, rng):
        u = random_divergence_free_field(grid32, rng, kmax=10)
        lhs = l2_inner(ksq_multiplier(u), u)
        rhs = h1_seminorm(u) ** 2
        assert abs(lhs - rhs) / rhs <= 1e-12

    def test_neumann_constant(self, grid16):
        theta = constant_field(grid16, 2.0, -1.0)
        assert l2_norm(-1.0 * laplacian_vec(theta)) < 1e-13

    def test_neumann_eigenmode(self, grid16):
        theta = field_from_function(grid16, lambda x1, x2: np.sin(x2), None)
        out = -1.0 * laplacian_vec(theta)
        assert l2_norm(out - theta) < 1e-13

    def test_neumann_form_is_h1(self, grid32, rng):
        theta = random_vector_field(grid32, rng, kmax=10)
        lhs = l2_inner(-1.0 * laplacian_vec(theta), theta)
        rhs = h1_seminorm(theta) ** 2
        assert abs(lhs - rhs) / rhs <= 1e-12


class TestConvection:
    def test_zero_form(self, grid32, rng):
        for _ in range(5):
            u = random_divergence_free_field(grid32, rng, kmax=10)
            v = random_vector_field(grid32, rng, kmax=10)
            assert abs(trilinear_b(u, v, v)) <= 1e-10

    def test_antisymmetry(self, grid32, rng):
        for _ in range(5):
            u = random_divergence_free_field(grid32, rng, kmax=10)
            v = random_vector_field(grid32, rng, kmax=10)
            w = random_vector_field(grid32, rng, kmax=10)
            bound = 1e-10 * (h1_seminorm(u) * h1_seminorm(v) * h1_seminorm(w) + 1.0)
            assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= bound

    def test_analytic_value(self, grid16):
        u = field_from_function(grid16, lambda x1, x2: np.sin(x2), None)
        v = field_from_function(grid16, None, lambda x1, x2: np.sin(x1))
        w = field_from_function(grid16, None, lambda x1, x2: np.sin(x2) * np.cos(x1))
        assert trilinear_b(u, v, w) == pytest.approx(np.pi**2, rel=1e-12)

    def test_b_of_constant(self, grid16, rng):
        u = random_divergence_free_field(grid16, rng, kmax=4)
        c = constant_field(grid16, 1.0, 2.0)
        assert l2_norm(convection_B(u, c)) < 1e-13

    def test_assembled_zero_form(self, grid32, rng):
        for _ in range(3):
            u = random_divergence_free_field(grid32, rng, kmax=10, amplitude=1.0)
            v = random_divergence_free_field(grid32, rng, kmax=10, amplitude=1.0)
            assert abs(l2_inner(convection_B(u, v), v)) <= 1e-10

    def test_weak_form_matches_trilinear(self, grid32, rng):
        u = random_divergence_free_field(grid32, rng, kmax=10)
        v = random_vector_field(grid32, rng, kmax=10)
        bf = convection_B(u, v)
        for _ in range(10):
            w = random_divergence_free_field(grid32, rng, kmax=10)
            lhs = l2_inner(bf, w)
            rhs = trilinear_b(u, v, w)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_trilinear_vs_oracle(self, grid16, rng):
        u = random_divergence_free_field(grid16, rng, kmax=4)
        v = random_vector_field(grid16, rng, kmax=4)
        w = random_vector_field(grid16, rng, kmax=4)
        assert trilinear_b(u, v, w) == pytest.approx(oracle_trilinear_b(u, v, w), rel=1e-11, abs=1e-12)


class TestAdvection:
    def test_constant_director(self, grid16, rng):
        u = random_divergence_free_field(grid16, rng, kmax=4)
        theta = constant_field(grid16, 0.3, -0.7)
        assert l2_norm(advection_Btilde(u, theta)) < 1e-13

    def test_zero_form(self, grid32, rng):
        for _ in range(5):
            u = random_divergence_free_field(grid32, rng, kmax=10)
            theta = random_vector_field(grid32, rng, kmax=10)
            assert abs(l2_inner(advection_Btilde(u, theta), theta)) <= 1e-10

    def test_analytic_value(self, grid16):
        u = leray_project(field_from_function(grid16, lambda x1, x2: np.sin(x2), None))
        theta = field_from_function(grid16, lambda x1, x2: np.sin(x1), None)
        out = advection_Btilde(u, theta)
        expect = field_from_function(grid16, lambda x1, x2: np.sin(x2) * np.cos(x1))
        assert l2_norm(out[0] - expect) < 1e-12
        assert l2_norm(out[1]) < 1e-13


class TestDirectorStress:
    def test_constant_theta(self, grid16, rng):
        c = constant_field(grid16, 1.0, 1.0)
        other = random_vector_field(grid16, rng, kmax=4)
        assert l2_norm(director_stress_M(c, other)) < 1e-12

    def test_diagonal_symmetry(self, grid16, rng):
        theta = random_vector_field(grid16, rng, kmax=4)
        u = random_vector_field(grid16, rng, kmax=4)
        assert trilinear_m(theta, theta, u) == pytest.approx(trilinear_m(theta, theta, u))

    def test_m_vanishes_constant(self, grid16, rng):
        c = constant_field(grid16, 2.0, 0.0)
        u = random_vector_field(grid16, rng, kmax=4)
        assert abs(trilinear_m(c, c, u)) < 1e-13

    def test_m_vs_oracle(self, grid16, rng):
        t1 = random_vector_field(grid16, rng, kmax=4)
        t2 = random_vector_field(grid16, rng, kmax=4)
        u = random_divergence_free_field(grid16, rng, kmax=4)
        assert trilinear_m(t1, t2, u) == pytest.approx(oracle_trilinear_m(t1, t2, u), rel=1e-11, abs=1e-12)

    def test_weak_form_matches_m(self, grid32, rng):
        theta = random_vector_field(grid32, rng, kmax=10)
        mf = director_stress_M(theta, theta)
        for _ in range(10):
            u = random_divergence_free_field(grid32, rng, kmax=10)
            lhs = l2_inner(mf, u)
            rhs = trilinear_m(theta, theta, u)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_cancellation_identity(self, grid32, rng):
        # <Btilde(u,theta), -Lap theta + f(theta)> == -<M(theta), u>
        for _ in range(10):
            u = random_divergence_free_field(grid32, rng, kmax=5)
            theta = random_vector_field(grid32, rng, kmax=5)
            adv = advection_Btilde(u, theta)
            target = polynomial_f(theta) - laplacian_vec(theta)
            lhs = l2_inner(adv, target)
            rhs = -l2_inner(director_stress_M(theta, theta), u)
            scale = max(abs(lhs), abs(rhs), 1e-3)
            assert abs(lhs - rhs) / scale <= 1e-8


class TestPolynomialF:
    def test_zero(self, grid16):
        z = constant_field(grid16, 0.0, 0.0)
        assert l2_norm(polynomial_f(z)) == 0.0

    def test_unit_e1(self, grid16):
        theta = constant_field(grid16, 1.0, 0.0)
        out = polynomial_f(theta)
        assert np.allclose(grid_values(out[0]), 2.0, atol=1e-13)
        assert np.allclose(grid_values(out[1]), 0.0, atol=1e-13)

    def test_ones(self, grid16):
        theta = constant_field(grid16, 1.0, 1.0)
        out = polynomial_f(theta)
        assert np.allclose(grid_values(out[0]), 3.0, atol=1e-13)
        assert np.allclose(grid_values(out[1]), 3.0, atol=1e-13)

    def test_aliasing_diagnostic_small_band(self, grid32, rng):
        # cubic f of a kmax=5 field is fully resolved: no aliasing at all
        theta = random_vector_field(grid32, rng, kmax=5)
        assert f_aliasing_error(theta) < 1e-12


class TestCoercivity:
    def test_zero_field(self, grid16):
        z = constant_field(grid16, 0.0, 0.0)
        rep = coercivity_check(z)
        assert rep.lhs == 0.0 and rep.rhs_main == 0.0

    def test_default_margin(self, grid16, rng):
        for _ in range(5):
            theta = random_vector_field(grid16, rng, kmax=4, amplitude=2.0)
            rep = coercivity_check(theta)
            assert rep.guaranteed
            assert rep.margin >= -1e-12 * max(rep.lhs, 1.0)

    def test_margin_formula(self, grid16):
        theta = constant_field(grid16, 1.0, 0.0)
        rep = coercivity_check(theta)
        # f_tilde(1)*1 = 2 vs |theta|^4_{L4} = 1 per unit area
        assert rep.lhs == pytest.approx(2.0 * 4 * np.pi**2, rel=1e-12)
        assert rep.rhs_main == pytest.approx(4 * np.pi**2, rel=1e-12)


class TestEnergy:
    def test_zero_state(self, grid16):
        z = constant_field(grid16, 0.0, 0.0)
        psi, dissipation = energy_psi(None, z)
        assert psi == dissipation == 0.0

    def test_constant_director(self, grid16):
        theta = constant_field(grid16, 1.0, 0.0)
        psi, _ = energy_psi(None, theta)
        assert h1_seminorm(theta) == 0.0
        assert potential(theta) == pytest.approx(3 * np.pi**2, rel=1e-12)
        assert psi == pytest.approx(3 * np.pi**2, rel=1e-12)

    def test_sin_director(self, grid16):
        theta = field_from_function(grid16, lambda x1, x2: np.sin(x1), None)
        # elastic pi^2 plus the potential (1/2) int sin^2 + sin^4 / 2 = (1/2)(2 + 3/4) pi^2
        assert energy_psi(None, theta)[0] == pytest.approx(2.375 * np.pi**2, rel=1e-12)

    def test_potential_vs_quadrature(self, grid16, rng):
        theta = random_vector_field(grid16, rng, kmax=4)
        # oracle: dense sampling of the closed-form integrand
        m = 256
        v1 = direct_eval(theta[0], m)
        v2 = direct_eval(theta[1], m)
        r = v1**2 + v2**2
        expect = 0.5 * quad_integral(r + r**2 / 2.0)
        assert potential_energy_hat(theta, grid16, DEFAULT_NONLINEARITY) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", (8, 16, 128))
    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_potential_hat_matches_the_quadrature_oracle(self, n, degree, rng):
        # degree + 1 padding is exact for Nyquist-free states; the oracle pads by degree + 2
        grid = TorusGrid(n)
        nl = PolynomialNonlinearity(tuple(1.0 / (j + 1) for j in range(degree + 1)))
        for _ in range(2):
            theta = random_vector_field(grid, rng, amplitude=0.8)
            assert potential_energy_hat(theta, grid, nl) == pytest.approx(potential(theta, nl), rel=1e-13)

    def test_chain_rule(self, grid32, rng):
        nl = DEFAULT_NONLINEARITY
        for _ in range(3):
            theta = random_vector_field(grid32, rng, kmax=5)
            delta = random_vector_field(grid32, rng, kmax=5)
            grad = polynomial_f(theta, nl) - laplacian_vec(theta)
            analytic = l2_inner(grad, delta)
            h = 1e-5
            plus = energy_psi(None, theta + h * delta, nl)[0]
            minus = energy_psi(None, theta - h * delta, nl)[0]
            fd = (plus - minus) / (2 * h)
            assert abs(fd - analytic) / max(abs(analytic), 1e-10) <= 1e-4


class TestDualNormBound:
    def test_bounded_ratio(self, grid32, rng):
        # ||B(u,v)||_{V'} <= C |u| |v| : the ratio stays bounded, no specific C
        ratios = []
        for _ in range(100):
            u = random_divergence_free_field(grid32, rng, kmax=10)
            v = random_vector_field(grid32, rng, kmax=10)
            num = dual_vprime_norm(convection_B(u, v))
            ratios.append(num / (l2_norm(u) * l2_norm(v)))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() <= 4.0 * max(np.median(ratios), 0.1)
