import numpy as np
import pytest

from nlcsim.cli import _control_csv, _jumps_text
from nlcsim.config import ExperimentConfig
from nlcsim.noise import (
    Control,
    InvalidChangeOfMeasure,
    JumpCoefficientSpec,
    JumpSample,
    MarkSpace,
    NoiseError,
    apriori_control_constant,
    compensator_integral,
    control_drift,
    cost_LT,
    entropy_l,
    eval_G,
    girsanov_log_density,
    rng_for,
    sample_prm,
    thin_to_control,
)
from nlcsim.spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    l2_norm,
    leray_project,
)

from oracle import (
    control_from_csv,
    field_from_function,
    jumps_from_text,
    random_divergence_free_field,
    shape_field,
    spec_of,
)

ELL2 = 0.3862943611198906  # 2 log 2 - 1


def make_spec(grid, gains=(0.0, 0.1)):
    shapes = (
        leray_project(
            VectorField(field_from_function(grid, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid))
        ),
        leray_project(
            VectorField(ScalarField.zeros(grid), field_from_function(grid, lambda x1, x2: np.sin(x1)))
        ),
    )
    return spec_of(shapes, gains)


@pytest.fixture
def grid8():
    return TorusGrid(8)


class TestMarkSpace:
    def test_validation(self):
        with pytest.raises(NoiseError):
            MarkSpace(weights=())
        with pytest.raises(NoiseError):
            MarkSpace(weights=(1.0, -0.5))
        with pytest.raises(NoiseError):
            MarkSpace(weights=(1.0, 0.0))

    def test_total_mass(self):
        ms = MarkSpace(weights=(1.0, 0.5, 0.25))
        assert ms.total_mass == pytest.approx(1.75)
        assert ms.size == 3


class TestSamplePrm:
    def test_determinism(self):
        ms = MarkSpace(weights=(1.0, 0.5))
        a = sample_prm(ms, 1.0, 10.0, rng_for(7, "prm", 0))
        b = sample_prm(ms, 1.0, 10.0, rng_for(7, "prm", 0))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.marks, b.marks)

    def test_mean_count(self):
        ms = MarkSpace(weights=(1.0,))
        n_rep, scale = 4000, 100.0
        counts = [sample_prm(ms, 1.0, scale, rng_for(11, "prm", k)).size for k in range(n_rep)]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(n_rep)
        assert abs(counts.mean() - scale) <= 3 * se

    def test_mark_frequencies(self):
        ms = MarkSpace(weights=(2.0, 1.0, 1.0))
        rng = rng_for(3, "prm-marks")
        sample = sample_prm(ms, 1.0, 2000.0, rng)
        freqs = np.bincount(sample.marks, minlength=3) / sample.size
        assert np.allclose(freqs, [0.5, 0.25, 0.25], atol=0.03)

    def test_invalid_args(self):
        ms = MarkSpace(weights=(1.0,))
        with pytest.raises(NoiseError):
            sample_prm(ms, -1.0, 1.0, rng_for(0))
        with pytest.raises(NoiseError):
            sample_prm(ms, 1.0, 0.0, rng_for(0))

    @pytest.mark.parametrize("times", ([0.0, 0.5], [-0.1, 0.5], [0.5, 0.25], [0.25, np.nan], [0.25, np.inf]))
    def test_jump_sample_rejects_bad_times(self, times):
        with pytest.raises(NoiseError, match="event times"):
            JumpSample(np.array(times), np.zeros(2, dtype=int))


class TestThinning:
    def test_unit_control_matches_prm_rate(self):
        ms = MarkSpace(weights=(1.0, 0.5))
        control = Control.unit(1.0, n_cells=2, n_marks=2)
        counts = [
            thin_to_control(ms, control, 40.0, rng_for(5, "thin", k)).size for k in range(2000)
        ]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 40.0 * 1.5) <= 3 * se

    def test_zero_control_empty(self):
        ms = MarkSpace(weights=(1.0,))
        control = Control.constant(1.0, 0.0)
        sample = thin_to_control(ms, control, 50.0, rng_for(9, "thin"))
        assert sample.size == 0

    def test_doubled_intensity(self):
        ms = MarkSpace(weights=(1.0,))
        control = Control.constant(1.0, 2.0)
        counts = [
            thin_to_control(ms, control, 50.0, rng_for(13, "thin", k)).size
            for k in range(2000)
        ]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 100.0) <= 3 * se

    def test_per_cell_mark_means(self):
        # thinning correctness: each cell x mark count is Poisson with
        # mean scale * g * dt * theta_i
        ms = MarkSpace(weights=(1.0, 2.0))
        control = Control(1.0, np.array([[0.5, 1.5], [2.0, 1.0]]))
        scale = 30.0
        n_rep = 2000
        totals = np.zeros((2, 2))
        totals_sq = np.zeros((2, 2))
        for k in range(n_rep):
            s = thin_to_control(ms, control, scale, rng_for(21, "thin-cells", k))
            if s.size == 0:
                continue
            cells = np.minimum((s.times / 0.5).astype(int), 1)
            for c in range(2):
                for i in range(2):
                    n = int(np.sum((cells == c) & (s.marks == i)))
                    totals[c, i] += n
                    totals_sq[c, i] += n * n
        means = totals / n_rep
        var = totals_sq / n_rep - means**2
        se = np.sqrt(var / n_rep)
        expect = scale * control.values * 0.5 * ms.weight_array()[None, :]
        assert np.all(np.abs(means - expect) <= 3 * se + 1e-9)

    def test_negative_control_rejected(self):
        with pytest.raises(NoiseError):
            Control(1.0, np.array([[-0.5]]))
        for cells, marks in ((0, 1), (1, 0)):
            with pytest.raises(NoiseError, match="nonempty"):
                Control.constant(1.0, 1.0, n_cells=cells, n_marks=marks)
        with pytest.raises(NoiseError, match="horizon"):
            Control(float("nan"), np.ones((2, 1)))


class TestEntropy:
    def test_values(self):
        assert entropy_l(1.0) == 0.0
        assert entropy_l(0.0) == 1.0
        assert entropy_l(2.0) == pytest.approx(ELL2, abs=1e-12)
        with pytest.raises(NoiseError):
            entropy_l(-0.1)

    def test_convex_nonnegative_min_at_one(self):
        r = np.linspace(0.0, 5.0, 1001)
        vals = np.array([entropy_l(x) for x in r])
        assert np.all(vals >= 0)
        assert vals.argmin() == np.argmin(np.abs(r - 1.0))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-12)


class TestCost:
    def test_unit_control(self):
        ms = MarkSpace(weights=(1.0, 3.0))
        assert cost_LT(Control.unit(2.0, 4, 2), ms) == 0.0

    def test_constant_two(self):
        ms = MarkSpace(weights=(1.0,))
        assert cost_LT(Control.constant(1.0, 2.0), ms) == pytest.approx(ELL2, abs=1e-12)

    def test_piecewise(self):
        ms = MarkSpace(weights=(1.0,))
        control = Control(1.0, np.array([[2.0], [1.0]]))
        assert cost_LT(control, ms) == pytest.approx(ELL2 / 2, abs=1e-12)

    def test_cost_zero_iff_unit(self):
        ms = MarkSpace(weights=(1.0, 0.5))
        control = Control(1.0, np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]]))
        assert cost_LT(control, ms) > 0


class TestJumpCoefficient:
    def test_eval_constant_gain_zero(self, grid8, rng):
        spec = make_spec(grid8, gains=(0.0, 0.0))
        u = random_divergence_free_field(grid8, rng, kmax=2)
        out = eval_G(0.0, u, 0, spec)
        assert l2_norm(out - shape_field(spec, 0, grid8)) < 1e-14

    def test_eval_zero_velocity(self, grid8):
        spec = make_spec(grid8, gains=(0.3, 0.5))
        z = leray_project(VectorField.zeros(grid8))
        for i in range(2):
            assert l2_norm(eval_G(0.0, z, i, spec) - shape_field(spec, i, grid8)) < 1e-14

    def test_lipschitz_exact(self, grid8, rng):
        spec = make_spec(grid8, gains=(0.0, 0.4))
        u1 = random_divergence_free_field(grid8, rng, kmax=2)
        u2 = random_divergence_free_field(grid8, rng, kmax=2)
        d = l2_norm(eval_G(0.0, u1, 1, spec) - eval_G(0.0, u2, 1, spec))
        assert d == pytest.approx(0.4 * l2_norm(u1 - u2), rel=1e-12)

    def test_shapes_are_one_read_only_half_layout_array(self, grid8):
        spec = make_spec(grid8)
        assert spec.shapes.shape == (2, 2, 8, 5) and not spec.shapes.flags.writeable
        with pytest.raises(NoiseError, match="one shape and one gain"):
            JumpCoefficientSpec(shapes=spec.shapes, gains=(0.0,))
        with pytest.raises(NoiseError, match="marks, 2, N, N//2"):
            JumpCoefficientSpec(shapes=spec.shapes[0], gains=(0.0, 0.1))
        nyquist = spec.shapes.copy()
        nyquist[0, 0, 4, 1] = 1e-3
        with pytest.raises(NoiseError, match="Nyquist"):
            JumpCoefficientSpec(shapes=nyquist, gains=(0.0, 0.1))

    @pytest.mark.parametrize("gain", (float("nan"), float("inf"), -float("inf")))
    def test_a_gain_that_is_not_finite_is_rejected(self, grid8, gain):
        with pytest.raises(NoiseError, match="gains must be finite"):
            JumpCoefficientSpec(shapes=make_spec(grid8).shapes, gains=(0.0, gain))

    def test_unknown_mark(self, grid8, rng):
        spec = make_spec(grid8)
        u = random_divergence_free_field(grid8, rng, kmax=2)
        with pytest.raises(NoiseError):
            eval_G(0.0, u, 5, spec)

    def test_lipschitz_bound_l2_integral(self, grid8, rng):
        ms = MarkSpace(weights=(1.5, 0.5))
        spec = make_spec(grid8, gains=(0.2, 0.4))
        L = spec.lipschitz_bound(ms)
        u1 = random_divergence_free_field(grid8, rng, kmax=2)
        u2 = random_divergence_free_field(grid8, rng, kmax=2)
        total = sum(
            ms.weights[i] * l2_norm(eval_G(0.0, u1, i, spec) - eval_G(0.0, u2, i, spec)) ** 2
            for i in range(2)
        )
        assert total == pytest.approx(L * l2_norm(u1 - u2) ** 2, rel=1e-12)

    def test_growth_bound(self, grid8, rng):
        ms = MarkSpace(weights=(1.0, 2.0))
        spec = make_spec(grid8, gains=(0.1, 0.3))
        for p in (1, 2, 4):
            cp = spec.growth_constant(ms, p)
            for amp in (0.0, 0.5, 3.0):
                u = random_divergence_free_field(grid8, rng, kmax=2, amplitude=amp)
                total = sum(
                    ms.weights[i] * l2_norm(eval_G(0.0, u, i, spec)) ** p for i in range(2)
                )
                assert total <= cp * (1.0 + l2_norm(u) ** p) + 1e-12

    def test_g0_norm_is_the_exact_supremum(self, grid8, rng):
        # sup over u of |G(u)|/(1+|u|) for the affine form is max(|shape|, |gain|):
        # approached along large multiples of the shape direction
        spec = make_spec(grid8, gains=(0.2, 0.8))
        for i in range(2):
            g0 = spec.g0_norm(i)
            worst = 0.0
            for amp in (0.0, 0.5, 1.0, 5.0, 50.0, 5000.0):
                u = amp * shape_field(spec, i, grid8) if l2_norm(shape_field(spec, i, grid8)) > 0 else (
                    amp * random_divergence_free_field(grid8, rng, kmax=2)
                )
                ratio = l2_norm(eval_G(0.0, u, i, spec)) / (1.0 + l2_norm(u))
                assert ratio <= g0 + 1e-12
                worst = max(worst, ratio)
            assert worst >= 0.95 * g0


class TestCompensatorAndDrift:
    def test_single_mark_compensator(self, grid8):
        ms = MarkSpace(weights=(2.0,))
        shape = leray_project(
            VectorField(field_from_function(grid8, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid8))
        )
        spec = spec_of((shape,), (0.0,))
        z = leray_project(VectorField.zeros(grid8))
        out = compensator_integral(0.0, z, ms, spec)
        assert l2_norm(out - 2.0 * shape) < 1e-14

    def test_compensator_zero_velocity(self, grid8):
        ms = MarkSpace(weights=(1.0, 0.5))
        spec = make_spec(grid8, gains=(0.3, 0.7))
        z = leray_project(VectorField.zeros(grid8))
        out = compensator_integral(0.0, z, ms, spec)
        expect = 1.0 * shape_field(spec, 0, grid8) + 0.5 * shape_field(spec, 1, grid8)
        assert l2_norm(out - expect) < 1e-14

    def test_compensator_matches_manual_sum(self, grid8, rng):
        ms = MarkSpace(weights=(1.0, 0.5))
        spec = make_spec(grid8, gains=(0.2, 0.4))
        u = random_divergence_free_field(grid8, rng, kmax=2)
        out = compensator_integral(0.0, u, ms, spec)
        manual = 1.0 * eval_G(0.0, u, 0, spec) + 0.5 * eval_G(0.0, u, 1, spec)
        assert l2_norm(out - manual) < 1e-13

    def test_drift_unit_control(self, grid8, rng):
        ms = MarkSpace(weights=(1.0, 0.5))
        spec = make_spec(grid8, gains=(0.2, 0.4))
        u = random_divergence_free_field(grid8, rng, kmax=2)
        out = control_drift(0.5, u, Control.unit(1.0, 1, 2), ms, spec)
        assert l2_norm(out) < 1e-14

    def test_drift_constant_two(self, grid8, rng):
        ms = MarkSpace(weights=(1.0,))
        shape = leray_project(
            VectorField(field_from_function(grid8, lambda x1, x2: np.sin(x2)), ScalarField.zeros(grid8))
        )
        spec = spec_of((shape,), (0.1,))
        u = random_divergence_free_field(grid8, rng, kmax=2)
        out = control_drift(0.2, u, Control.constant(1.0, 2.0), ms, spec)
        assert l2_norm(out - eval_G(0.2, u, 0, spec)) < 1e-13

    def test_drift_two_marks(self, grid8, rng):
        ms = MarkSpace(weights=(1.5, 0.5))
        spec = make_spec(grid8, gains=(0.0, 0.0))
        u = random_divergence_free_field(grid8, rng, kmax=2)
        control = Control(1.0, np.array([[0.0, 2.0]]))
        out = control_drift(0.1, u, control, ms, spec)
        expect = -1.5 * eval_G(0.1, u, 0, spec) + 0.5 * eval_G(0.1, u, 1, spec)
        assert l2_norm(out - expect) < 1e-13

    def test_apriori_constant(self, grid8):
        ms = MarkSpace(weights=(1.0, 0.5))
        spec = make_spec(grid8, gains=(0.2, 0.4))
        control = Control(2.0, np.array([[1.0, 3.0], [2.0, 1.0]]))
        # manual: dt=1, marks weighted by g0 norms
        g0 = [spec.g0_norm(0), spec.g0_norm(1)]
        expect = 1.0 * (0.0 * 1.0 * g0[0] + 2.0 * 0.5 * g0[1]) + 1.0 * (
            1.0 * 1.0 * g0[0] + 0.0 * 0.5 * g0[1]
        )
        assert apriori_control_constant(control, ms, spec) == pytest.approx(expect, rel=1e-12)


class TestGirsanov:
    def test_unit_control_zero(self):
        ms = MarkSpace(weights=(1.0,))
        sample = sample_prm(ms, 1.0, 2.0, rng_for(1, "g"))
        assert girsanov_log_density(Control.unit(1.0), sample, 0.5, ms) == 0.0

    def test_empty_sample_constant(self):
        # exponent formula reduces to the compensator term alone
        ms = MarkSpace(weights=(1.0,))
        empty = JumpSample(np.empty(0), np.empty(0, dtype=int))
        c = 1.5
        out = girsanov_log_density(Control.constant(1.0, c), empty, 0.5, ms)
        assert out == pytest.approx((1.0 / 0.5) * (c - 1.0) * 1.0, rel=1e-14)

    def test_zero_at_event_invalid(self):
        ms = MarkSpace(weights=(1.0,))
        sample = JumpSample(np.array([0.25]), np.array([0]))
        control = Control(1.0, np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidChangeOfMeasure):
            girsanov_log_density(control, sample, 0.5, ms)

    def test_event_after_horizon_invalid(self):
        ms = MarkSpace(weights=(1.0,))
        sample = JumpSample(np.array([0.25, 1.5]), np.array([0, 0]))
        with pytest.raises(InvalidChangeOfMeasure, match="after the tilt's horizon"):
            girsanov_log_density(Control.constant(1.0, 1.5), sample, 0.5, ms)

    @pytest.mark.parametrize("mark", (-1, 2))
    def test_mark_outside_the_mark_space_invalid(self, mark):
        # unchecked, mark -1 would read mark 1's tilt by negative indexing
        ms = MarkSpace(weights=(1.0, 0.5))
        sample = JumpSample(np.array([0.5]), np.array([mark]))
        with pytest.raises(NoiseError, match="unknown mark index in jumps"):
            girsanov_log_density(Control(1.0, np.array([[2.0, 0.5]])), sample, 0.5, ms)

    def test_mean_one_over_tilted_samples(self):
        ms = MarkSpace(weights=(1.0,))
        eps, c, n = 0.5, 1.5, 4000
        control = Control.constant(1.0, c)
        w = np.array(
            [
                np.exp(
                    girsanov_log_density(
                        control,
                        thin_to_control(ms, control, 1 / eps, rng_for(17, "mo", k)),
                        eps,
                        ms,
                    )
                )
                for k in range(n)
            ]
        )
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_mean_one_piecewise(self):
        ms = MarkSpace(weights=(1.0,))
        eps, n = 0.5, 4000
        control = Control(1.0, np.array([[1.5], [0.75]]))
        w = np.array(
            [
                np.exp(
                    girsanov_log_density(
                        control,
                        thin_to_control(ms, control, 1 / eps, rng_for(31, "mo-pw", k)),
                        eps,
                        ms,
                    )
                )
                for k in range(n)
            ]
        )
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3 * se


class TestSerialization:
    def test_control_roundtrip(self):
        control = Control(2.0, np.array([[0.5, 1.5], [2.0, 1.0], [1.0, 0.0]]))
        text = _control_csv(ExperimentConfig(seed=42), control)
        back = control_from_csv(text)
        assert back.horizon == control.horizon
        assert np.array_equal(back.values, control.values)

    def test_jump_sample_roundtrip(self):
        ms = MarkSpace(weights=(1.0, 2.0))
        sample = sample_prm(ms, 1.0, 20.0, rng_for(37, "ser"))
        back = jumps_from_text(_jumps_text(sample))
        assert np.allclose(back.times, sample.times)
        assert np.array_equal(back.marks, sample.marks)


class TestRngDerivation:
    def test_streams_distinct_by_label(self):
        a = rng_for(100, "alpha", 0).standard_normal(4)
        b = rng_for(100, "beta", 0).standard_normal(4)
        c = rng_for(100, "alpha", 1).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_streams_reproducible(self):
        a = rng_for(100, "alpha", 3).standard_normal(4)
        b = rng_for(100, "alpha", 3).standard_normal(4)
        assert np.array_equal(a, b)
