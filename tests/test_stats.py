import math

import numpy as np
import pytest
import scipy.special

from bibfactor import (
    BibfactorError,
    DistSpec,
    InsufficientDataError,
    Transform,
    ValidationError,
    ZeroVarianceError,
    apply_transform,
    column_summaries,
    column_summary,
    describe,
    fit_distspec,
    fit_student_ml,
    kolmogorov_sf,
    ks_test,
    normal_cdf,
    student_cdf,
)
from bibfactor import stats
from bibfactor.fixture import DESCRIPTIVE_TABLES
from oracles import oracle_ks_d, oracle_student_cdf, oracle_student_ml


class TestApplyTransform:
    def test_log_shifted_example(self):
        out = apply_transform([0.0, math.e - 1.0], Transform.LOG_SHIFTED)
        assert out == pytest.approx([0.0, 1.0])

    def test_log_domain_error_names_position(self):
        with pytest.raises(ValidationError, match="; got 0.0 at position 1$"):
            apply_transform([1.0, 0.0], Transform.LOG)

    def test_columns_name_their_label(self):
        values = np.array([[1.0, 4.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="^column 'b': ln transform"):
            list(stats.transform_columns(values, ("a", "b"), Transform.LOG))
        # the count of labels is checked before any column is transformed
        with pytest.raises(ValidationError, match="number of labels"):
            next(stats.transform_columns(values[:, ::-1], ("b",), Transform.LOG))

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
        # [0.1] * 26 has an sd of 1e-17, not 0: it is constant all the same
        for values in ([2.0, 2.0, 2.0], [0.1] * 26):
            with pytest.raises(ZeroVarianceError):
                fit_distspec(values, "normal")

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

    @pytest.mark.parametrize("df", [float("nan"), -2.0])
    def test_df_not_positive_rejected(self, df):
        # NaN fails every comparison, so it must be refused as DistSpec refuses it
        with pytest.raises(ValidationError, match="^df must be positive$"):
            student_cdf(1.0, df)


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


def _fixture_tables(fixture):
    """The 21 columns of the descriptive tables: one list of 7 per table."""
    return [
        [apply_transform(fixture.column(v), Transform(spec["transform"]))
         for v in spec["rows"]]
        for spec in DESCRIPTIVE_TABLES.values()
    ]


def _stacked_fits(columns):
    """(df, location, scale) of each column from one stacked EM."""
    x = np.stack(columns)
    fits = stats._student_ml_stack(x, x.std(axis=1, ddof=1))
    return [None if f is None else (f.df, f.location, f.scale) for f in fits]


class TestStackedStudentFits:
    """The stacked EM against the scalar profile loop, column by column."""

    def test_fixture_tables_as_three_stacks_and_as_one(self, fixture):
        tables = _fixture_tables(fixture)
        want = [oracle_student_ml(x) for columns in tables for x in columns]
        per_table = [fit for columns in tables for fit in _stacked_fits(columns)]
        assert per_table == want
        # 21 * 200 candidates in two blocks of 65,536 // 26 = 2,520 rows, as
        # verify runs them: the first block ends inside column 13
        assert _stacked_fits([x for columns in tables for x in columns]) == want

    @pytest.mark.parametrize("n", [26, 327, 328, 1337, 2000])
    def test_t_draws_across_column_boundaries(self, n):
        # blocks of 65,536 // n = 2,520, 200, 199, 49 and 32 candidates; the
        # 13 columns make at least two blocks at every n. At n = 327 they
        # align with the columns, elsewhere they cross them, and the last
        # block is a short one
        rng = np.random.default_rng(n)
        columns = [rng.standard_t(df=rng.uniform(1.0, 30.0), size=n) * rng.uniform(0.1, 10.0)
                   for _ in range(13)]
        assert 13 * 200 > stats._EM_BLOCK_CELLS // n
        assert _stacked_fits(columns) == [oracle_student_ml(x) for x in columns]

    def test_tied_column_rejects_collapsed_candidates(self):
        rng = np.random.default_rng(4)
        tied = [4.0] * 7 + [2.0, 3.0, 3.0]
        columns = [rng.normal(size=10), np.array(tied), rng.standard_t(3, size=10)]
        fits = _stacked_fits(columns)
        assert fits == [oracle_student_ml(x) for x in columns]
        assert fits[1][2] >= 0.25 * float(np.std(tied, ddof=1))

    def test_column_without_admissible_candidate(self):
        rng = np.random.default_rng(6)
        collapsed = np.r_[np.zeros(1000), 1.0]
        columns = [rng.normal(size=1001), collapsed, rng.normal(size=1001)]
        fits = _stacked_fits(columns)
        assert fits[1] is None
        assert fits == [oracle_student_ml(x) for x in columns]


def _summary_loop(columns, df=None):
    """Descriptive rows by a per-column loop of describe, fit_distspec and ks_test."""
    rows = []
    for values in columns:
        d = describe(values)
        ks_n = ks_test(values, fit_distspec(values, "normal"))
        ks_s = ks_test(values, fit_distspec(values, "student", df=df))
        rows.append({
            "mean": d.mean, "median": d.median, "sd": d.sd,
            "D_normal": ks_n.d, "p_normal": ks_n.p_value,
            "D_student": ks_s.d, "p_student": ks_s.p_value,
        })
    return rows


def _outcome(summarize, columns):
    try:
        return summarize(columns)
    except BibfactorError as exc:
        return type(exc), str(exc)


class TestColumnSummaries:
    @pytest.mark.parametrize("df", [None, 25])
    def test_equals_per_column_loop_on_fixture(self, fixture, df):
        for columns in _fixture_tables(fixture):
            assert column_summaries(columns, df) == _summary_loop(columns, df)
            assert [column_summary(x, df) for x in columns] == _summary_loop(columns, df)

    def test_columns_of_several_sizes(self):
        rng = np.random.default_rng(8)
        columns = [rng.standard_t(4, size=n) for n in (26, 40, 26, 3, 40)]
        assert column_summaries(iter(columns)) == _summary_loop(columns)

    @pytest.mark.parametrize("bad, n", [
        ([2.0] * 26, 26),
        ([1.0, 2.0, math.nan] + [3.0] * 23, 26),
        ([1.0], 26),
        ([0.0] * 1000 + [1.0], 1001),
    ], ids=["constant", "non-finite", "one value", "every candidate collapses"])
    def test_first_failing_column_raises_as_the_loop_does(self, bad, n):
        rng = np.random.default_rng(n)
        good = [rng.standard_t(5, size=n) for _ in range(4)]
        later = [[7.0] * n, [math.inf] * n, [], [0.0] * (n - 1) + [1.0]]
        for after in later:
            columns = good[:2] + [np.array(bad)] + good[2:3] + [np.array(after)] + good[3:]
            got = _outcome(column_summaries, columns)
            assert got == _outcome(_summary_loop, columns)
            assert isinstance(got, tuple)

    def test_error_while_iterating_comes_after_earlier_columns(self):
        rng = np.random.default_rng(12)

        def columns(second):
            yield rng.normal(size=1001)
            yield second
            yield apply_transform([1.0, 0.0], Transform.LOG)

        with pytest.raises(ZeroVarianceError, match="no admissible Student fit"):
            column_summaries(columns(np.r_[np.zeros(1000), 1.0]))
        with pytest.raises(ValidationError, match="ln transform requires positive"):
            column_summaries(columns(rng.normal(size=1001)))
