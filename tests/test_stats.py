import math

import numpy as np
import pytest
import scipy.special

from bibfactor import (
    DistSpec,
    InsufficientDataError,
    Transform,
    ValidationError,
    ZeroVarianceError,
    apply_transform,
    describe,
    fit_distspec,
    fit_student_ml,
    kolmogorov_sf,
    ks_test,
    normal_cdf,
    student_cdf,
)
from oracles import oracle_ks_d, oracle_student_cdf, oracle_student_ml


class TestApplyTransform:
    def test_log_shifted_example(self):
        out = apply_transform([0.0, math.e - 1.0], Transform.LOG_SHIFTED)
        assert out == pytest.approx([0.0, 1.0])

    def test_log_domain_error_names_position(self):
        with pytest.raises(ValidationError, match="position 1"):
            apply_transform([1.0, 0.0], Transform.LOG)

    def test_sqrt_domain_error(self):
        with pytest.raises(ValidationError, match="sqrt"):
            apply_transform([4.0, -1.0], Transform.SQRT)

    def test_log_shifted_domain_error(self):
        with pytest.raises(ValidationError, match="-1"):
            apply_transform([-1.0], Transform.LOG_SHIFTED)

    def test_identity_copies(self):
        x = np.array([1.0, 2.0])
        out = apply_transform(x, Transform.IDENTITY)
        out[0] = 99.0
        assert x[0] == 1.0

    @pytest.mark.parametrize(
        "transform", [Transform.LOG, Transform.LOG_SHIFTED, Transform.SQRT]
    )
    def test_strictly_monotone_preserves_ranks(self, transform):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 50.0, size=40)
        out = apply_transform(x, transform)
        assert (np.argsort(out) == np.argsort(x)).all()


class TestDescribe:
    def test_constant_sample(self):
        d = describe([5.0, 5.0, 5.0])
        assert (d.mean, d.median, d.sd) == (5.0, 5.0, 0.0)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            describe([1.0])

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=25)
        d = describe(x)
        assert d.mean == pytest.approx(x.mean())
        assert d.median == pytest.approx(np.median(x))
        assert d.sd == pytest.approx(x.std(ddof=1))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        a, b = -2.5, 7.0
        d0, d1 = describe(x), describe(a * x + b)
        assert d1.mean == pytest.approx(a * d0.mean + b)
        assert d1.median == pytest.approx(a * d0.median + b)
        assert d1.sd == pytest.approx(abs(a) * d0.sd)


class TestFitDistspec:
    def test_normal_moments(self):
        x = [1.0, 2.0, 3.0, 4.0]
        spec = fit_distspec(x, "normal")
        assert spec.location == pytest.approx(2.5)
        assert spec.scale == pytest.approx(np.std(x, ddof=1))

    def test_student_fixed_df(self):
        x = [1.0, 2.0, 3.0, 4.0]
        spec = fit_distspec(x, "student", df=3)
        assert (spec.df, spec.location) == (3.0, 2.5)

    def test_student_ml_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(df=4, size=30)
        assert fit_student_ml(x) == fit_student_ml(x)

    def test_student_ml_matches_scalar_profile_on_fixture(self, fixture):
        for column in fixture.columns:
            for transform in Transform:
                x = apply_transform(fixture.column(column), transform)
                spec = fit_student_ml(x)
                assert (spec.df, spec.location, spec.scale) == oracle_student_ml(x)

    def test_student_ml_matches_scalar_profile_on_t_draws(self):
        rng = np.random.default_rng(11)
        for n in np.linspace(5, 200, 20).astype(int):
            x = rng.standard_t(df=rng.uniform(1.0, 30.0), size=n)
            spec = fit_student_ml(x)
            assert (spec.df, spec.location, spec.scale) == oracle_student_ml(x)

    @pytest.mark.parametrize("n", [2000, 1337])
    def test_student_ml_matches_scalar_profile_across_blocks(self, n):
        # above n = 327 the 200 candidates run in several EM blocks; at
        # n = 1,337 the last block is a short one
        rng = np.random.default_rng(n)
        counts = np.floor(rng.zipf(1.8, n).clip(max=10**6) * rng.lognormal(0.0, 0.3, n))
        x = np.log1p(counts)
        assert np.unique(x).size < n // 4
        spec = fit_student_ml(x)
        assert (spec.df, spec.location, spec.scale) == oracle_student_ml(x)

    def test_student_ml_rejects_collapsed_scale_on_ties(self):
        # unguarded, the profile maximum sits at scale ~ 2.7e-10 around the 4s
        x = [4.0] * 7 + [2.0, 3.0, 3.0]
        spec = fit_student_ml(x)
        sd = float(np.std(x, ddof=1))
        assert spec.scale >= 0.25 * sd
        assert spec.scale == pytest.approx(0.184, abs=5e-4)
        assert (spec.df, spec.location, spec.scale) == oracle_student_ml(x)

    def test_constant_sample_errors(self):
        with pytest.raises(ZeroVarianceError):
            fit_distspec([2.0, 2.0, 2.0], "normal")

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            fit_distspec([1.0, 2.0], "gamma")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValidationError):
            DistSpec(family="normal", location=0.0, scale=0.0)


class TestStudentCdf:
    def test_symmetry_point(self):
        assert student_cdf(0.0, 17.3) == 0.5

    def test_cauchy_closed_form(self):
        assert student_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_quadrature_oracle_value(self):
        want = oracle_student_cdf(2.0, 25.0)
        assert want == pytest.approx(0.9717620097865, abs=1e-10)
        assert student_cdf(2.0, 25.0) == pytest.approx(want, abs=1e-10)

    def test_against_quadrature_grid(self):
        # df >= 1.5 keeps the tail substitution free of endpoint singularities
        for df in (1.5, 3.0, 12.0):
            for x in (-2.5, -0.4, 0.9, 4.0):
                assert student_cdf(x, df) == pytest.approx(
                    oracle_student_cdf(x, df), abs=1e-8
                )

    def test_monotone_in_x(self):
        xs = np.linspace(-6, 6, 101)
        vals = [student_cdf(x, 5) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKolmogorovSf:
    def test_agrees_with_scipy(self):
        for lam in (0.3, 0.5, 0.8284, 1.2, 2.0):
            assert kolmogorov_sf(lam) == pytest.approx(
                float(scipy.special.kolmogorov(lam)), abs=1e-10
            )

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(1e-4) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < kolmogorov_sf(50.0) <= 1.0

    def test_strictly_decreasing(self):
        lams = np.linspace(0.3, 3.0, 28)
        vals = [kolmogorov_sf(l) for l in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestKsTest:
    def test_two_point_example(self):
        # hand evaluation: Phi(-1) = 0.15866 against the step CDF
        res = ks_test([-1.0, 1.0], DistSpec("normal", 0.0, 1.0))
        assert res.d == pytest.approx(normal_cdf(1.0) - 0.5, abs=1e-12)
        assert res.d == pytest.approx(0.3413, abs=5e-5)

    def test_d_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = rng.normal(loc=2.0, scale=3.0, size=int(rng.integers(3, 40)))
            spec = fit_distspec(x, "normal")
            want = oracle_ks_d(x, spec.cdf)
            assert ks_test(x, spec).d == pytest.approx(want, abs=1e-9)

    def test_handles_ties(self):
        x = [1.0, 1.0, 1.0, 2.0]
        spec = DistSpec("normal", 1.0, 1.0)
        want = oracle_ks_d(x, spec.cdf)
        assert ks_test(x, spec).d == pytest.approx(want, abs=1e-9)

    def test_p_non_increasing_in_d(self):
        rng = np.random.default_rng(22)
        results = []
        for _ in range(20):
            x = rng.normal(size=26)
            results.append(ks_test(x, DistSpec("normal", 0.0, 1.0)))
        results.sort(key=lambda r: r.d)
        for a, b in zip(results, results[1:]):
            assert a.p_value >= b.p_value

    def test_p_stays_in_unit_interval(self):
        res = ks_test(np.arange(50.0) + 100.0, DistSpec("normal", 0.0, 1.0))
        assert res.d == pytest.approx(1.0)
        assert 0.0 < res.p_value <= 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            ks_test([], DistSpec("normal", 0.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda: fit_distspec([1.0, 2.0, math.inf], "normal"),
    lambda: fit_distspec([1.0, 2.0, 3.0, math.nan], "student"),
    lambda: fit_student_ml([1.0, 2.0, 3.0, math.nan]),
    lambda: describe([1.0, math.nan]),
    lambda: ks_test([1.0, -math.inf], DistSpec("normal", 0.0, 1.0)),
], ids=["normal", "student", "fit_student_ml", "describe", "ks_test"])
def test_non_finite_sample_rejected(call):
    with pytest.raises(ValidationError, match="non-finite value .* at position"):
        call()
