import numpy as np
import pytest

from nlcsim.spectral import (
    SpectralError,
    TorusGrid,
    ScalarField,
    VectorField,
    dealias_product,
    derivative,
    h1_seminorm,
    l2_inner,
    l2_norm,
    laplacian,
    leray_project,
    pad_coeffs,
    truncate_coeffs,
    TORUS_AREA,
)

from conftest import direct_eval, oracle_integral_product, oracle_l2_inner, quad_integral
from oracle import (
    divergence,
    divergence_residual,
    field_from_function,
    gradient,
    integrate_product,
    lq_norm,
    norms,
    random_divergence_free_field,
    random_scalar_field,
)

SQRT_TWO_PISQ = 4.442882938158366  # sqrt(2 pi^2) = |sin x1|_{L2} on the torus


def test_grid_validation():
    with pytest.raises(SpectralError):
        TorusGrid(15)
    with pytest.raises(SpectralError):
        TorusGrid(4)
    with pytest.raises(SpectralError):
        TorusGrid(16, dealias_factor=0.5)


@pytest.mark.parametrize("factor", (float("nan"), float("inf")))
def test_grid_rejects_a_dealias_factor_that_is_not_finite(factor):
    with pytest.raises(SpectralError, match="dealias_factor must be >= 1"):
        TorusGrid(16, factor)


def test_constant_field_transform(grid16):
    f = field_from_function(grid16, lambda x1, x2: 3.25 * np.ones_like(x1))
    c = f.coeffs
    assert c[0, 0] == pytest.approx(3.25, abs=1e-14)
    assert np.max(np.abs(c)) == pytest.approx(3.25, abs=1e-14)
    back = ScalarField.from_coeffs(grid16, c)
    assert np.allclose(back.values, 3.25, atol=1e-13)


def test_sin_transform_pair(grid16):
    f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
    assert f.coeff_at(1, 0) == pytest.approx(-0.5j, abs=1e-14)
    assert f.coeff_at(-1, 0) == pytest.approx(+0.5j, abs=1e-14)
    others = np.abs(f.coeffs).sum() - 1.0
    assert others < 1e-13


def test_roundtrip_random(grid32, rng):
    values = rng.standard_normal((32, 32))
    f = ScalarField.from_values(grid32, values)
    back = ScalarField.from_coeffs(grid32, f.coeffs.copy())
    err = np.max(np.abs(back.values - values)) / np.max(np.abs(values))
    assert err <= 1e-13


def test_conjugate_symmetry(grid16, rng):
    f = ScalarField.from_values(grid16, rng.standard_normal((16, 16)))
    c = f.coeffs
    n = 16
    idx = (-np.arange(n)) % n
    assert np.max(np.abs(c - np.conj(c[np.ix_(idx, idx)]))) < 1e-13


def test_pad_truncate_roundtrip(grid16, rng):
    f = random_scalar_field(grid16, rng, kmax=5)
    padded = pad_coeffs(f.coeffs, 24)
    back = truncate_coeffs(padded, 16)
    assert np.max(np.abs(back - f.coeffs)) < 1e-15


def test_laplacian_eigenfunctions(grid16):
    f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
    assert np.allclose(laplacian(f).values, -f.values, atol=1e-13)
    c = field_from_function(grid16, lambda x1, x2: np.full_like(x1, 2.0))
    assert np.max(np.abs(laplacian(c).values)) < 1e-13
    g = field_from_function(grid16, lambda x1, x2: np.sin(2 * x1) * np.cos(x2))
    assert np.allclose(laplacian(g).values, -5.0 * g.values, atol=1e-12)


def test_derivative_analytic(grid16):
    f = field_from_function(grid16, lambda x1, x2: np.sin(x1) * np.cos(2 * x2))
    d1 = derivative(f, 0)
    d2 = derivative(f, 1)
    x1, x2 = grid16.nodes()
    assert np.allclose(d1.values, np.cos(x1) * np.cos(2 * x2), atol=1e-13)
    assert np.allclose(d2.values, -2 * np.sin(x1) * np.sin(2 * x2), atol=1e-13)


class TestLeray:
    def test_gradient_annihilated(self, grid16):
        p = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        w = VectorField(*gradient(p))
        u = leray_project(w)
        assert l2_norm(u) < 1e-13

    def test_divfree_unchanged(self, grid16):
        w = VectorField(
            field_from_function(grid16, lambda x1, x2: np.sin(x2)),
            ScalarField.zeros(grid16),
        )
        u = leray_project(w)
        assert l2_norm(u - w) < 1e-13

    def test_parallel_mode_killed(self, grid16):
        # mode k=(1,0) with vector along e1 is parallel to k
        w = VectorField(
            field_from_function(grid16, lambda x1, x2: np.sin(x1)),
            ScalarField.zeros(grid16),
        )
        u = leray_project(w)
        assert l2_norm(u) < 1e-13
        # oracle: both the projected values and their divergence vanish
        assert abs(oracle_integral_product(u.c1, u.c1)) < 1e-26
        assert abs(quad_integral(direct_eval(divergence(u), 64) ** 2)) < 1e-26

    def test_idempotent(self, grid32, rng):
        w = VectorField(
            random_scalar_field(grid32, rng, kmax=10),
            random_scalar_field(grid32, rng, kmax=10),
        )
        once = leray_project(w)
        twice = leray_project(once)
        assert l2_norm(twice - once) / l2_norm(once) <= 1e-13

    def test_self_adjoint(self, grid32, rng):
        w = VectorField(
            random_scalar_field(grid32, rng, kmax=10),
            random_scalar_field(grid32, rng, kmax=10),
        )
        v = random_divergence_free_field(grid32, rng, kmax=10)
        lhs = l2_inner(leray_project(w), v)
        rhs = l2_inner(w, v)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) <= 1e-12

    def test_divergence_residual(self, grid32, rng):
        for k in range(3):
            u = random_divergence_free_field(grid32, rng, kmax=12)
            assert divergence_residual(u) <= 1e-12


class TestNorms:
    def test_sin_l2(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        assert l2_norm(f) == pytest.approx(SQRT_TWO_PISQ, rel=1e-13)
        # quadrature oracle for the same integral
        assert quad_integral(direct_eval(f, 128) ** 2) == pytest.approx(2 * np.pi**2, rel=1e-13)

    def test_constant_h1(self, grid16):
        c = field_from_function(grid16, lambda x1, x2: np.full_like(x1, 1.7))
        assert h1_seminorm(c) == 0.0

    def test_sin_h1(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        assert h1_seminorm(f) == pytest.approx(SQRT_TWO_PISQ, rel=1e-13)

    def test_parseval(self, grid32, rng):
        f = random_scalar_field(grid32, rng, kmax=12)
        spectral = l2_norm(f) ** 2
        physical = float(np.sum(f.values**2)) * (2 * np.pi / 32) ** 2
        assert abs(spectral - physical) / spectral <= 1e-12

    def test_lq_validation(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        with pytest.raises(SpectralError):
            lq_norm(f, 3)
        with pytest.raises(SpectralError):
            lq_norm(f, -2)

    def test_lq_matches_l2(self, grid16, rng):
        f = random_scalar_field(grid16, rng, kmax=5)
        assert lq_norm(f, 2) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_l4_analytic(self, grid16):
        # int sin^4(x1) dx over the torus = (3/8)(2 pi) * (2 pi) = 1.5 pi^2
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        assert lq_norm(f, 4) ** 4 == pytest.approx(1.5 * np.pi**2, rel=1e-12)

    def test_vector_lq_uses_magnitude(self, grid16):
        th = VectorField(
            field_from_function(grid16, lambda x1, x2: np.cos(x1)),
            field_from_function(grid16, lambda x1, x2: np.sin(x1)),
        )
        # |theta(x)| = 1 everywhere
        assert lq_norm(th, 4) == pytest.approx(TORUS_AREA**0.25, rel=1e-12)

    def test_norms_bundle(self, grid16, rng):
        f = random_scalar_field(grid16, rng, kmax=4)
        out = norms(f, lq=(2, 4))
        assert out["l2"] == pytest.approx(l2_norm(f), rel=1e-14)
        assert out["l4"] == pytest.approx(lq_norm(f, 4), rel=1e-14)


class TestDealias:
    def test_sin_squared(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        p = dealias_product(f, f)
        # sin^2 = 1/2 - cos(2 x1)/2
        assert p.coeff_at(0, 0) == pytest.approx(0.5, abs=1e-14)
        assert p.coeff_at(2, 0) == pytest.approx(-0.25, abs=1e-14)
        assert p.coeff_at(-2, 0) == pytest.approx(-0.25, abs=1e-14)

    def test_identity_factor(self, grid16, rng):
        f = random_scalar_field(grid16, rng, kmax=5)
        one = field_from_function(grid16, lambda x1, x2: np.ones_like(x1))
        p = dealias_product(f, one)
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-14

    def test_random_product_vs_oracle(self, grid32, rng):
        f = random_scalar_field(grid32, rng, kmax=10)
        g = random_scalar_field(grid32, rng, kmax=10)
        p = dealias_product(f, g)
        lhs = l2_inner(p, p)
        # oracle: quadrature of the pointwise product squared on a fine grid
        fine = direct_eval(f, 192) * direct_eval(g, 192)
        # compare the resolved content only: project oracle product onto the band
        pf = direct_eval(p, 192)
        assert quad_integral((pf - fine) * pf) == pytest.approx(0.0, abs=1e-12 * max(lhs, 1))
        assert quad_integral(pf * fine) == pytest.approx(lhs, rel=1e-12)

    def test_integrate_product_triple(self, grid16):
        a = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        b = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        c = field_from_function(grid16, lambda x1, x2: np.cos(x2) ** 2)
        val = integrate_product(a, b, c)
        assert val == pytest.approx(oracle_integral_product(a, b, c), rel=1e-12)
