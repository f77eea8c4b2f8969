import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from bibfactor import (
    AsymmetricMatrixError,
    BibfactorError,
    ConvergenceError,
    CorrelationMatrix,
    DegenerateInputError,
    ExtractionSettings,
    HeywoodWarning,
    LoadingMatrix,
    Transform,
    ValidationError,
    ZeroVarianceError,
    adequacy,
    align_loadings,
    bartlett,
    bootstrap_efa,
    categorize,
    correlation_matrix,
    efa_pipeline,
    kmo,
    promax,
    smc,
    suggest_n_factors,
    symmetric_eigen,
    uls_extract,
    varimax,
)
from bibfactor import efa, stats
from bibfactor.efa import (
    _checked_correlations,
    _guarded,
    _BOOTSTRAP_CELLS,
    _pipelines,
    _top_eigh,
    _varimax_criterion,
)
from bibfactor.fixture import VARIMAX_TABLES
from bibfactor.stats import apply_transform
from bibfactor.tables import VARIABLE_SETS
from oracles import oracle_bootstrap_efa, oracle_efa_loadings


def planted_model(rng=None, p=6, m=2, loading=None):
    """Sigma = L L' + Psi with clean simple structure."""
    values = np.zeros((p, m))
    for i in range(p):
        j = i % m
        values[i, j] = loading if loading is not None else rng.uniform(0.5, 0.9)
    sigma = values @ values.T
    np.fill_diagonal(sigma, 1.0)
    labels = tuple(f"v{i}" for i in range(p))
    return CorrelationMatrix(labels, sigma), values


def tight_settings(m=2):
    return ExtractionSettings(n_factors=m, tol=1e-8, max_iter=2000)


class TestSymmetricEigen:
    def test_identity(self):
        values, vectors = symmetric_eigen(np.eye(4))
        assert values == pytest.approx(np.ones(4))
        assert vectors.T @ vectors == pytest.approx(np.eye(4), abs=1e-12)

    def test_diagonal(self):
        values, vectors = symmetric_eigen(np.diag([3.0, 1.0]))
        assert values == pytest.approx([3.0, 1.0])
        assert np.abs(vectors) == pytest.approx(np.eye(2), abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(7, 7))
            sym = (a + a.T) / 2.0
            values, vectors = symmetric_eigen(sym)
            assert (values[:-1] >= values[1:]).all()
            assert vectors.T @ vectors == pytest.approx(np.eye(7), abs=1e-10)
            assert vectors @ np.diag(values) @ vectors.T == pytest.approx(
                sym, abs=1e-8
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            symmetric_eigen(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            symmetric_eigen(np.array([[1.0, bad], [bad, 1.0]]))


class TestCorrelationMatrix:
    def test_identical_columns(self):
        x = np.tile(np.arange(5.0), (2, 1)).T
        corr = correlation_matrix(x, ["a", "b"])
        assert corr.values[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        col = np.arange(5.0)
        corr = correlation_matrix(np.column_stack([col, -col]), ["a", "b"])
        assert corr.values[0, 1] == pytest.approx(-1.0)

    def test_constant_column_named(self):
        # a column of 26 values of 0.1 has an sd of 1e-17, not 0
        for n, value in ((4, 1.0), (26, 0.1)):
            x = np.column_stack([np.arange(float(n)), np.full(n, value)])
            with pytest.raises(ZeroVarianceError, match="'b'"):
                correlation_matrix(x, ["a", "b"])

    def test_needs_three_rows(self):
        from bibfactor import InsufficientDataError

        with pytest.raises(InsufficientDataError):
            correlation_matrix(np.ones((2, 2)), ["a", "b"])

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(ValidationError):
            CorrelationMatrix(("a", "b"), np.array([[1.0, 0.2], [0.2, 0.9]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^correlation matrix has non-finite entries$"):
                CorrelationMatrix(("a", "b"), np.array([[1.0, bad], [bad, 1.0]]))

    def test_non_finite_matrix_fails_only_its_place_in_a_stack(self, fixture):
        corr = correlation_matrix(fixture.subset(("h", "m", "g")).values, ("h", "m", "g"))
        stack = np.stack([corr.values] * 3)
        stack[1, 0, 2] = stack[1, 2, 0] = np.nan
        values, eigenvalues, eigenvectors, errors = _checked_correlations(stack)
        assert [e is None for e in errors] == [True, False, True]
        assert str(errors[1]) == "correlation matrix has non-finite entries"
        for i in (0, 2):
            assert np.array_equal(values[i], corr.values)
            assert np.array_equal(eigenvalues[i], corr.eigenvalues)
            assert np.array_equal(eigenvectors[i], corr.eigenvectors)

    def test_not_positive_semi_definite_fails_only_its_place_in_a_stack(self):
        message = "matrix is not positive semi-definite (smallest eigenvalue -8.000e-01)"
        bad = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        with pytest.raises(ValidationError) as caught:
            CorrelationMatrix(("a", "b", "c"), bad)
        assert str(caught.value) == message
        *_, errors = _checked_correlations(np.stack([np.eye(3), bad]))
        assert errors[0] is None
        assert str(errors[1]) == message

    def test_shape_must_match_labels(self):
        with pytest.raises(ValidationError,
                           match=r"^correlation matrix shape \(3, 3\) does not match 2 labels$"):
            CorrelationMatrix(("a", "b"), np.eye(3))

    @pytest.mark.parametrize("table, message", [
        (np.arange(5.0), "table must be two-dimensional"),
        (np.ones((5, 3)), "number of labels must match number of columns"),
    ])
    def test_table_shape_rejected(self, table, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            correlation_matrix(table, ["a", "b"])

    def test_smc_within_unit_interval(self, fixture):
        sub = fixture.subset(("h", "m", "g"))
        corr = correlation_matrix(sub.values, sub.columns)
        s = smc(corr)
        assert ((s >= 0.0) & (s <= 1.0)).all()

    def test_kept_eigendecomposition_equals_symmetric_eigen(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        values, vectors = symmetric_eigen(corr.values)
        assert np.array_equal(corr.eigenvalues, values)
        assert np.array_equal(corr.eigenvectors, vectors)
        assert not corr.eigenvalues.flags.writeable
        assert not corr.eigenvectors.flags.writeable

    def test_one_eigendecomposition_per_matrix(self, fixture, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        smc(corr)
        kmo(corr)
        bartlett(corr, sub.n_rows)
        adequacy(corr, sub.n_rows)
        suggest_n_factors(corr)
        assert calls == [(7, 7)]


class TestUlsExtract:
    def test_recovers_planted_structure(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            corr, planted = planted_model(rng, p=8, m=2)
            loadings, communalities = uls_extract(corr, tight_settings())
            ref = LoadingMatrix(corr.labels, planted)
            aligned = align_loadings(loadings, ref)
            assert aligned.values == pytest.approx(planted, abs=1e-4)
            assert communalities == pytest.approx(
                (planted**2).sum(axis=1), abs=1e-4
            )

    def test_near_identity_no_common_variance(self):
        # squared multiple correlations start near zero here, so the
        # iteration settles on near-zero loadings at once
        rng = np.random.default_rng(5)
        noise = rng.normal(scale=1e-4, size=(6, 6))
        sigma = np.eye(6) + (noise + noise.T) / 2.0
        np.fill_diagonal(sigma, 1.0)
        corr = CorrelationMatrix(tuple("abcdef"), sigma)
        settings = ExtractionSettings(n_factors=5, tol=1e-7, initial="smc")
        loadings, _ = uls_extract(corr, settings)
        assert np.abs(loadings.values).max() < 0.05

    def test_communality_consistency(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        loadings, communalities = uls_extract(corr)
        assert communalities == pytest.approx(
            (loadings.values**2).sum(axis=1), abs=1e-8
        )
        assert ((communalities >= 0.0) & (communalities <= 1.0)).all()

    def test_non_convergence_carries_last_iterate(self, fixture):
        sub = fixture.subset(("h", "m", "g"))
        corr = correlation_matrix(sub.values, sub.columns)
        with pytest.raises(ConvergenceError) as info:
            uls_extract(corr, ExtractionSettings(n_factors=2, tol=1e-14, max_iter=2))
        loadings, communalities = info.value.last_iterate
        assert loadings.shape == (3, 2)
        assert communalities.shape == (3,)

    def test_max_iter_below_one_rejected(self):
        with pytest.raises(ValidationError, match="max_iter"):
            ExtractionSettings(max_iter=0)

    @pytest.mark.parametrize("field, message", [
        ({"initial": "pca"}, "initial must be 'ones' or 'smc'"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": float("nan")}, "tol must be positive"),
    ])
    def test_bad_initial_or_tol_rejected(self, field, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExtractionSettings(**field)

    def test_heywood_clamp_warns(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw", "N", "S"))
        corr = correlation_matrix(sub.values, sub.columns)
        with pytest.warns(HeywoodWarning):
            _, communalities = uls_extract(corr, tight_settings())
        assert communalities.max() <= 1.0

    def test_residual_not_worse_than_smc_first_iterate(self, fixture):
        for variables in (("h", "m", "g", "h2", "A", "R", "hw"),
                          ("h", "m", "g", "h2", "A", "R", "hw", "N", "C")):
            sub = fixture.subset(variables)
            corr = correlation_matrix(sub.values, sub.columns)
            loadings, _ = uls_extract(corr)

            start = np.clip(smc(corr), 0.0, 1.0)
            reduced = np.array(corr.values)
            np.fill_diagonal(reduced, start)
            values, vectors = symmetric_eigen(reduced)
            first = vectors[:, :2] * np.sqrt(np.clip(values[:2], 0.0, None))

            def offdiag_norm(load):
                res = corr.values - load @ load.T
                np.fill_diagonal(res, 0.0)
                return np.linalg.norm(res)

            assert offdiag_norm(loadings.values) <= offdiag_norm(first) + 1e-12


class TestVarimax:
    def test_rotation_matrix_orthogonal(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        unrotated, _ = uls_extract(corr)
        rotated, t = varimax(unrotated)
        assert t.T @ t == pytest.approx(np.eye(2), abs=1e-12)
        assert unrotated.values @ t == pytest.approx(rotated.values, abs=1e-10)

    def test_preserves_row_communalities(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        unrotated, _ = uls_extract(corr)
        rotated, _ = varimax(unrotated)
        assert (rotated.values**2).sum(axis=1) == pytest.approx(
            (unrotated.values**2).sum(axis=1), abs=1e-8
        )
        assert (rotated.values**2).sum() == pytest.approx(
            (unrotated.values**2).sum(), abs=1e-8
        )

    def test_criterion_never_decreases(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            values = rng.normal(size=(7, 3))
            untagged = LoadingMatrix(tuple(f"v{i}" for i in range(7)), values)
            rotated, _ = varimax(untagged, kaiser_normalize=False)
            assert _varimax_criterion(rotated.values) >= _varimax_criterion(
                values
            ) - 1e-10

    def test_optimal_input_is_fixed_point(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(8, 2))
        untagged = LoadingMatrix(tuple(f"v{i}" for i in range(8)), values)
        rotated, _ = varimax(untagged, kaiser_normalize=False)
        again, t = varimax(
            LoadingMatrix(rotated.labels, rotated.values), kaiser_normalize=False
        )
        assert again.values == pytest.approx(rotated.values, abs=1e-6)
        assert np.abs(t) == pytest.approx(np.eye(2), abs=1e-6)

    def test_single_factor_identity(self):
        values = np.array([[0.8], [0.7], [0.6]])
        untagged = LoadingMatrix(("a", "b", "c"), values)
        rotated, t = varimax(untagged)
        assert rotated.values == pytest.approx(values)
        assert t == pytest.approx(np.eye(1))
        assert rotated.rotation == "varimax"

    def test_rejects_tagged_input(self):
        tagged = LoadingMatrix(("a", "b"), np.ones((2, 2)), rotation="varimax")
        with pytest.raises(ValidationError):
            varimax(tagged)


class TestPromax:
    def test_perfect_simple_structure_unchanged(self):
        corr, planted = planted_model(p=6, m=2, loading=0.8)
        base = LoadingMatrix(corr.labels, planted, rotation="varimax")
        solution = promax(base, kappa=3)
        assert solution.phi == pytest.approx(np.eye(2), abs=1e-6)
        assert solution.pattern.values == pytest.approx(planted, abs=1e-6)

    def test_structure_is_pattern_times_phi(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        unrotated, _ = uls_extract(corr)
        rotated, _ = varimax(unrotated)
        solution = promax(rotated, kappa=3)
        assert solution.structure == pytest.approx(
            solution.pattern.values @ solution.phi
        )

    def test_phi_symmetric_positive_definite(self, fixture):
        for variables in (("h", "m", "g", "h2", "A", "R", "hw"),
                          ("h", "m", "g", "h2", "A", "R", "hw", "N", "C")):
            sub = fixture.subset(variables)
            result = efa_pipeline(
                sub.values, sub.columns, Transform.IDENTITY, rotation="promax"
            )
            phi = result.phi
            assert phi == pytest.approx(phi.T)
            assert np.diag(phi) == pytest.approx(np.ones(2))
            eigenvalues, _ = symmetric_eigen(phi)
            assert eigenvalues[-1] > 0.0

    def test_requires_varimax_tag(self):
        untagged = LoadingMatrix(("a", "b", "c"), np.ones((3, 2)) * 0.5)
        with pytest.raises(ValidationError):
            promax(untagged)

    def test_rank_deficient_rejected(self):
        values = np.column_stack([np.full(4, 0.7), np.full(4, 0.7)])
        tagged = LoadingMatrix(("a", "b", "c", "d"), values, rotation="varimax")
        from bibfactor import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            promax(tagged)

    @pytest.mark.parametrize("kappa", [0, np.nan, np.inf])
    @pytest.mark.parametrize("call", [
        lambda x, labels, kappa: promax(
            varimax(uls_extract(correlation_matrix(x, labels))[0])[0], kappa),
        lambda x, labels, kappa: efa_pipeline(x, labels, rotation="promax", kappa=kappa),
        lambda x, labels, kappa: bootstrap_efa(x, labels, rotation="promax", n_boot=5,
                                               kappa=kappa),
    ], ids=["promax", "efa_pipeline", "bootstrap_efa"])
    def test_kappa_outside_one_to_infinity_rejected(self, fixture, call, kappa):
        # NaN passes a test of kappa < 1 and gave NaN loadings; inf gave a
        # bare LinAlgError
        sub = fixture.subset(SEVEN)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeywoodWarning)
            with pytest.raises(ValidationError, match="^kappa must be a finite exponent >= 1"):
                call(sub.values, sub.columns, kappa)


class TestAdequacy:
    def test_kmo_identity_degenerate(self):
        corr = CorrelationMatrix(("a", "b", "c"), np.eye(3))
        with pytest.raises(DegenerateInputError):
            kmo(corr)

    def test_kmo_monotone_on_equicorrelation(self):
        previous = 0.0
        for r in np.arange(0.1, 0.95, 0.1):
            values = np.full((5, 5), r)
            np.fill_diagonal(values, 1.0)
            current = kmo(CorrelationMatrix(tuple("abcde"), values))
            assert current > previous
            previous = current
        assert 0.0 <= previous <= 1.0

    def test_bartlett_identity(self):
        chi2, df, p = bartlett(CorrelationMatrix(("a", "b", "c"), np.eye(3)), 26)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert df == 3
        assert p == pytest.approx(1.0)

    def test_bartlett_two_by_two_hand_value(self):
        values = np.array([[1.0, 0.9], [0.9, 1.0]])
        chi2, df, p = bartlett(CorrelationMatrix(("a", "b"), values), 26)
        want = -(26 - 1 - 9 / 6.0) * np.log(1.0 - 0.81)
        assert want == pytest.approx(39.03, abs=0.01)
        assert chi2 == pytest.approx(want, rel=1e-12)
        assert df == 1
        assert 0.0 < p < 1e-8

    def test_bartlett_needs_enough_rows(self):
        from bibfactor import InsufficientDataError

        with pytest.raises(InsufficientDataError):
            bartlett(CorrelationMatrix(("a", "b"), np.eye(2)), 2)

    @pytest.mark.parametrize("seed, sign", [(0, -1.0), (1, 1.0)])
    def test_collinear_table_is_singular_to_every_check(self, seed, sign):
        # the smallest eigenvalue of a, b, a + b, c is rounding noise of
        # either sign; bartlett and cfa_fit once followed that sign, and
        # seed 1 gave chi2 = 819 and a converged cfa fit
        from bibfactor import SingularMatrixError
        from bibfactor.cfa import PatternSpec, cfa_fit

        a, b, c = np.random.default_rng(seed).normal(size=(3, 26))
        labels = ("a", "b", "ab", "c")
        corr = correlation_matrix(np.column_stack([a, b, a + b, c]), labels)
        assert np.sign(corr.eigenvalues[-1]) == sign
        assert abs(corr.eigenvalues[-1]) < 1e-15
        with pytest.raises(SingularMatrixError, match="^matrix is numerically singular$"):
            bartlett(corr, 26)
        with pytest.raises(SingularMatrixError, match="^matrix is numerically singular$"):
            kmo(corr)
        spec = PatternSpec(labels, np.ones((4, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
        with pytest.raises(ValidationError, match="positive definite"):
            cfa_fit(corr, 26, spec)

    def test_eigenvalue_rule_helper(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        corr = correlation_matrix(sub.values, sub.columns)
        assert suggest_n_factors(corr) >= 1


class TestCategorize:
    def test_subset_at_higher_threshold(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(-1.0, 1.0, size=(9, 2))
        loadings = LoadingMatrix(tuple(f"v{i}" for i in range(9)), values)
        low = categorize(loadings, threshold=0.4)
        high = categorize(loadings, threshold=0.7)
        for a, b in zip(high.memberships, low.memberships):
            assert a <= b

    def test_all_zero_loadings_empty(self):
        loadings = LoadingMatrix(("a", "b"), np.zeros((2, 2)))
        cat = categorize(loadings, threshold=0.6)
        assert all(not members for members in cat.memberships)

    def test_threshold_domain(self):
        loadings = LoadingMatrix(("a",), np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            categorize(loadings, threshold=1.5)


class TestLoadingMatrix:
    @pytest.mark.parametrize("values", [np.ones(2), np.ones((3, 2))])
    def test_shape_must_match_labels(self, values):
        with pytest.raises(ValidationError, match="^loading matrix shape does not match labels$"):
            LoadingMatrix(("a", "b"), values)

    def test_unknown_rotation_tag(self):
        with pytest.raises(ValidationError, match="^unknown rotation tag 'quartimax'$"):
            LoadingMatrix(("a", "b"), np.ones((2, 2)), "quartimax")


class TestAlignLoadings:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(6, 3))
        loadings = LoadingMatrix(tuple(f"v{i}" for i in range(6)), values)
        assert align_loadings(loadings, loadings).values == pytest.approx(values)

    def test_recovers_swapped_negated_columns(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=(6, 3))
        reference = LoadingMatrix(tuple(f"v{i}" for i in range(6)), values)
        scrambled = values[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
        aligned = align_loadings(
            LoadingMatrix(reference.labels, scrambled), reference
        )
        assert aligned.values == pytest.approx(values)

    def test_never_beaten_by_any_permutation_and_sign(self):
        def congruence_sum(a, ref):
            total = 0.0
            for j in range(a.shape[1]):
                denom = np.sqrt((a[:, j] ** 2).sum() * (ref[:, j] ** 2).sum())
                total += abs(a[:, j] @ ref[:, j]) / denom if denom else 0.0
            return total

        rng = np.random.default_rng(16)
        for _ in range(10):
            a = rng.normal(size=(5, 3))
            ref = rng.normal(size=(5, 3))
            loadings = LoadingMatrix(tuple("abcde"), a)
            reference = LoadingMatrix(tuple("abcde"), ref)
            best = congruence_sum(
                align_loadings(loadings, reference).values, ref
            )
            for perm in itertools.permutations(range(3)):
                for signs in itertools.product((1.0, -1.0), repeat=3):
                    candidate = a[:, perm] * np.array(signs)
                    assert best >= congruence_sum(candidate, ref) - 1e-12

    @pytest.mark.parametrize("cells", [32_768, 1])
    def test_first_of_equal_permutations_wins(self, monkeypatch, cells):
        # both orders score 2/sqrt(2) exactly; with one cell each permutation
        # is scored in a block of its own
        monkeypatch.setattr(efa, "_BOOTSTRAP_CELLS", cells)
        reference = LoadingMatrix(tuple("abc"), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        tied = LoadingMatrix(tuple("abc"), [[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        aligned = align_loadings(tied, reference)
        assert aligned.values.tolist() == [[1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]

    def test_shape_mismatch(self):
        a = LoadingMatrix(("a", "b"), np.ones((2, 2)))
        b = LoadingMatrix(("a", "b", "c"), np.ones((3, 2)))
        with pytest.raises(ValidationError):
            align_loadings(a, b)


class TestPipeline:
    def test_orthogonal_variance_bounded(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        result = efa_pipeline(sub.values, sub.columns, Transform.LOG)
        assert result.variance_explained.sum() <= 1.0 + 1e-8
        assert result.structure is None and result.phi is None

    def test_rotation_none(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        result = efa_pipeline(sub.values, sub.columns, rotation="none")
        assert result.rotated is result.unrotated

    def test_carries_correlation_of_transformed_columns(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        result = efa_pipeline(sub.values, sub.columns, Transform.LOG)
        columns = [apply_transform(sub.column(v), Transform.LOG) for v in sub.columns]
        want = correlation_matrix(np.column_stack(columns), sub.columns)
        assert result.correlation.labels == want.labels
        assert np.array_equal(result.correlation.values, want.values)

    def test_unknown_rotation(self, fixture):
        sub = fixture.subset(("h", "m", "g"))
        with pytest.raises(ValidationError):
            efa_pipeline(sub.values, sub.columns, rotation="oblimin")

    @pytest.mark.parametrize("changes, settings, rotation, kappa", [
        ({}, ExtractionSettings(), "promax", 3),
        ({}, ExtractionSettings(), "none", 3),
        # raw fails to converge before ln meets the zero
        ({("m", 2): 0.0}, ExtractionSettings(max_iter=2), "varimax", 3),
        # raw and ln1p clamp and warn before ln meets the zero
        ({("m", 2): 0.0}, ExtractionSettings(), "varimax", 3),
        ({("h", None): 5.0}, ExtractionSettings(n_factors=9), "varimax", 3),
        ({}, ExtractionSettings(n_factors=9), "varimax", 3),
        # promax refuses kappa 0 after the raw extraction warned
        ({}, ExtractionSettings(), "promax", 0),
    ], ids=["promax", "none", "convergence", "transform", "constant", "factors", "kappa"])
    def test_stack_equals_one_pipeline_per_table(self, fixture, changes, settings,
                                                 rotation, kappa):
        # ln1p sits before ln, so a clamp is warned ahead of the ln error
        keys = ("raw", "ln1p", "ln", "sqrt")
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw", "N", "C"))
        values = sub.values.copy()
        for (column, row), value in changes.items():
            values[slice(None) if row is None else row, sub.columns.index(column)] = value

        def outcome(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = [(r.unrotated.values.tobytes(), r.rotated.values.tobytes(),
                            r.ss_loadings.tobytes()) for r in run()]
                except BibfactorError as exc:
                    got = (type(exc), str(exc))
            return got, [(w.category, str(w.message)) for w in caught]

        loop = outcome(lambda: [
            efa_pipeline(values, sub.columns, Transform(k), settings, rotation, kappa)
            for k in keys
        ])
        stack = outcome(lambda: _pipelines(
            (np.column_stack(list(stats.transform_columns(values, sub.columns, Transform(k))))
             for k in keys),
            sub.columns, settings, rotation, kappa,
        ))
        assert stack == loop


class TestBootstrap:
    @pytest.mark.parametrize("n_rows", [3, 7])
    def test_no_more_rows_than_variables_rejected(self, fixture, n_rows):
        from bibfactor import InsufficientDataError

        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        with pytest.raises(InsufficientDataError,
                           match="^need more observations than variables$"):
            bootstrap_efa(sub.values[:n_rows], sub.columns, n_boot=5, seed=0)

    def test_identity_resample_equals_full_sample(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        n = sub.n_rows
        identity = np.tile(np.arange(n), (1, 1))
        result = bootstrap_efa(
            sub.values, sub.columns, n_boot=1, seed=0, indices=identity
        )
        assert result.mean == pytest.approx(result.reference.values, abs=1e-12)
        assert result.sd == pytest.approx(np.zeros_like(result.mean))
        assert result.lower == pytest.approx(result.reference.values, abs=1e-12)
        assert result.n_failed == 0

    def test_fixed_seed_bit_identical(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        a = bootstrap_efa(sub.values, sub.columns, n_boot=40, seed=123)
        b = bootstrap_efa(sub.values, sub.columns, n_boot=40, seed=123)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.sd, b.sd)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)
        assert a.n_failed == b.n_failed

    def test_every_resample_failing_raises(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        indices = np.zeros((3, sub.n_rows), dtype=int)
        with pytest.raises(ConvergenceError, match="^every bootstrap resample failed$"):
            bootstrap_efa(sub.values, sub.columns, n_boot=3, seed=0, indices=indices)

    def test_degenerate_resample_counted_not_fatal(self, fixture):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        n = sub.n_rows
        indices = np.vstack([np.zeros(n, dtype=int), np.arange(n)])
        result = bootstrap_efa(
            sub.values, sub.columns, n_boot=2, seed=0, indices=indices
        )
        assert result.n_failed == 1
        assert result.failures == {"ZeroVarianceError": 1}

    def test_bad_indices_shape(self, fixture):
        sub = fixture.subset(("h", "m", "g"))
        with pytest.raises(ValidationError):
            bootstrap_efa(sub.values, sub.columns, n_boot=2, indices=np.zeros((1, 3), dtype=int))

    def test_negative_seed_rejected(self, fixture):
        sub = fixture.subset(("h", "m", "g"))
        with pytest.raises(ValidationError, match="seed"):
            bootstrap_efa(sub.values, sub.columns, n_boot=2, seed=-1)

    def test_transforms_each_column_once(self, fixture, monkeypatch):
        calls = []

        def spy(values, transform):
            calls.append(transform)
            return apply_transform(values, transform)

        monkeypatch.setattr(stats, "apply_transform", spy)
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeywoodWarning)
            bootstrap_efa(sub.values, sub.columns, Transform.LOG, n_boot=5, seed=1)
        assert calls.count(Transform.LOG) == len(sub.columns)

    @pytest.mark.parametrize("fill, message", [
        (-1, "lie in"), (0.7, "integers"), (26, "lie in"),
    ])
    def test_bad_indices_values(self, fixture, fill, message):
        sub = fixture.subset(("h", "m", "g"))
        indices = np.full((2, sub.n_rows), fill)
        with pytest.raises(ValidationError, match=message):
            bootstrap_efa(sub.values, sub.columns, n_boot=2, indices=indices)

    @pytest.mark.parametrize("call", [
        lambda x, labels: correlation_matrix(x, labels),
        lambda x, labels: efa_pipeline(x, labels),
        lambda x, labels: bootstrap_efa(x, labels, n_boot=5),
    ], ids=["correlation_matrix", "efa_pipeline", "bootstrap_efa"])
    def test_non_finite_table_rejected(self, fixture, call):
        sub = fixture.subset(("h", "m", "g", "h2", "A", "R", "hw"))
        values = np.array(sub.values)
        values[4, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite value nan at row 4"):
            call(values, sub.columns)


@pytest.mark.parametrize("call", [
    lambda x, labels: correlation_matrix(x, labels),
    lambda x, labels: efa_pipeline(x, labels),
    lambda x, labels: bootstrap_efa(x, labels, n_boot=5),
    lambda x, labels: CorrelationMatrix(labels, np.corrcoef(x, rowvar=False)),
    lambda x, labels: LoadingMatrix(labels, np.zeros((len(labels), 2))),
], ids=["correlation_matrix", "efa_pipeline", "bootstrap_efa", "CorrelationMatrix",
        "LoadingMatrix"])
def test_repeated_label_rejected(fixture, monkeypatch, call):
    # two columns under one label would merge in categorize and the payloads
    def no_resample(*args):
        raise AssertionError("a resample ran")

    monkeypatch.setattr(efa, "_resample_correlations", no_resample)
    sub = fixture.subset(("h", "m", "g", "A"))
    # the first repeat is named: 'h' repeats before 'g' does
    with pytest.raises(ValidationError, match="^duplicate label 'h'$"):
        call(sub.values, ("g", "h", "h", "g"))


SEVEN = VARIABLE_SETS["7"]
BOOTSTRAP_VARIABLES = {
    "7": SEVEN,
    "7+N": SEVEN + ("N",),
    "7+NC": VARIABLE_SETS["7+NC"],
    "7+NSC": VARIABLE_SETS["7+NSC"],
}
# the two configurations the benchmark times at B = 1000
TIMED = [("7", "raw", "varimax"), ("7+NC", "ln", "promax")]


def assert_matches_oracle(fixture, variables, transform, rotation, n_boot,
                          seed=31, indices=None, settings=ExtractionSettings()):
    """Stacked bootstrap against the per-resample oracle, bit for bit."""
    sub = fixture.subset(BOOTSTRAP_VARIABLES[variables])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = bootstrap_efa(
            sub.values, sub.columns, Transform(transform), settings, rotation,
            n_boot=n_boot, seed=seed, indices=indices,
        )
    expected = oracle_bootstrap_efa(
        sub.values, transform, rotation, n_boot, seed, n_factors=settings.n_factors,
        tol=settings.tol, max_iter=settings.max_iter, indices=indices,
    )
    for key in ("mean", "sd", "lower", "upper"):
        assert getattr(result, key).tobytes() == expected[key].tobytes(), key
    assert result.n_failed == expected["n_failed"]
    assert result.failures == expected["failures"]
    assert result.n_clamped == expected["n_clamped"]
    heywood = sum(issubclass(w.category, HeywoodWarning) for w in caught)
    assert heywood == expected["warnings"]
    return result


ALL_CONFIGS = list(itertools.product(
    BOOTSTRAP_VARIABLES, ("raw", "ln", "ln1p", "sqrt"),
    ("none", "varimax", "promax"),
))


@pytest.mark.parametrize("variables, transform, rotation", ALL_CONFIGS)
def test_pipeline_matches_per_matrix_oracle(fixture, variables, transform, rotation):
    # column sums depend on memory layout (pairwise summation), so this also
    # checks that stacked loadings keep the column-major layout
    sub = fixture.subset(BOOTSTRAP_VARIABLES[variables])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeywoodWarning)
        result = efa_pipeline(
            sub.values, sub.columns, Transform(transform), rotation=rotation
        )
    unrotated, rotated = oracle_efa_loadings(sub.values, transform, rotation)
    assert result.unrotated.values.tobytes() == unrotated.tobytes()
    assert result.rotated.values.tobytes() == rotated.tobytes()
    expected = np.minimum((unrotated**2).sum(axis=1), 1.0)
    assert result.communalities.tobytes() == expected.tobytes()
    if rotation != "promax":
        assert result.ss_loadings.tobytes() == (rotated**2).sum(axis=0).tobytes()


class TestStackedBootstrapEquivalence:
    @pytest.mark.parametrize("variables, transform, rotation", TIMED)
    def test_timed_configurations_at_b_1000(
        self, fixture, variables, transform, rotation
    ):
        result = assert_matches_oracle(
            fixture, variables, transform, rotation, 1000
        )
        assert result.n_clamped > 0

    @pytest.mark.parametrize("variables, transform, rotation", [
        config for config in ALL_CONFIGS if config not in TIMED
    ])
    def test_configuration_matrix_at_b_100(
        self, fixture, variables, transform, rotation
    ):
        assert_matches_oracle(fixture, variables, transform, rotation, 100)

    @pytest.mark.parametrize("stage, offset", [
        pytest.param(stage, offset, id=f"{stage}{offset:+d}")
        for stage in ("tables", "matrices") for offset in (-1, 0, 1)
    ])
    def test_chunk_boundaries(self, fixture, stage, offset):
        # B one short of, equal to and one past a full stack of each stage
        n, p = fixture.n_rows, len(BOOTSTRAP_VARIABLES["7+NC"])
        size = efa._BOOTSTRAP_CELLS // {"tables": n * p, "matrices": p * p}[stage]
        assert_matches_oracle(fixture, "7+NC", "ln", "promax", size + offset)

    def test_failures_across_many_small_stacks(self, fixture, monkeypatch):
        # 1 table and 3 matrices per stack; the degenerate resample sits in
        # the 14th chain stack, non-converged ones in others
        n, p = fixture.n_rows, len(BOOTSTRAP_VARIABLES["7+NSC"])
        monkeypatch.setattr(efa, "_BOOTSTRAP_CELLS", 3 * p * p)
        assert (efa._BOOTSTRAP_CELLS // (n * p), efa._BOOTSTRAP_CELLS // (p * p)) == (1, 3)
        indices = np.random.default_rng(31).integers(0, n, size=(50, n))
        indices[40] = 3
        result = assert_matches_oracle(
            fixture, "7+NSC", "ln", "promax", 50, indices=indices,
            settings=ExtractionSettings(max_iter=8),
        )
        assert result.failures["ZeroVarianceError"] == 1
        assert result.failures["ConvergenceError"] > 0
        assert result.n_clamped > 0

    def test_stacks_stay_within_the_cell_budget(self, fixture, monkeypatch):
        # the memory bound, pinned by the stacks the kernels are handed
        rows = {"_correlations": [], "_checked_correlations": [], "_uls": []}
        for name, calls in rows.items():
            def spy(stack, *args, kernel=getattr(efa, name), calls=calls):
                # a lone CorrelationMatrix is checked as a (p, p) matrix
                calls.append(len(stack) if stack.ndim == 3 else 1)
                return kernel(stack, *args)
            monkeypatch.setattr(efa, name, spy)
        sub = fixture.subset(BOOTSTRAP_VARIABLES["7+NC"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeywoodWarning)
            bootstrap_efa(sub.values, sub.columns, Transform.LOG, rotation="promax",
                          n_boot=1000, seed=31)
        n, p, cells = sub.n_rows, len(sub.columns), efa._BOOTSTRAP_CELLS
        assert max(rows["_correlations"]) * n * p <= cells
        assert max(rows["_checked_correlations"] + rows["_uls"]) * p * p <= cells
        assert max(max(calls) for calls in rows.values()) < 1000
        # the budget is used: the first stack of each stage is full
        assert max(rows["_correlations"]) == cells // (n * p)
        assert max(rows["_uls"]) == cells // (p * p)

    def test_alignment_in_blocks_of_permutations(self, fixture, monkeypatch):
        # one matrix per chain stack, so its 4! = 24 column permutations are
        # scored 20 and then 4 at a time; the first best one must still win
        monkeypatch.setattr(efa, "_BOOTSTRAP_CELLS", 20)
        calls = []

        def spy(values, reference, kernel=efa._align):
            calls.append(len(values))
            return kernel(values, reference)

        monkeypatch.setattr(efa, "_align", spy)
        assert_matches_oracle(fixture, "7+NSC", "ln", "promax", 60,
                              settings=ExtractionSettings(n_factors=4))
        assert calls and all(efa._BOOTSTRAP_CELLS // k < 24 for k in calls if k)

    def test_alignment_stays_within_the_cell_budget(self, fixture):
        # 8! = 40,320 permutations of 40 resamples: scored all at once, their
        # totals alone would take 12.9 MB
        sub = fixture.subset(BOOTSTRAP_VARIABLES["7+NSC"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeywoodWarning)
            tracemalloc.start()
            try:
                bootstrap_efa(sub.values, sub.columns,
                              settings=ExtractionSettings(n_factors=8), n_boot=40, seed=31)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4e6

    def test_degenerate_resample_inside_a_chunk(self, fixture):
        n = fixture.n_rows
        indices = np.random.default_rng(31).integers(0, n, size=(200, n))
        indices[50] = 3
        result = assert_matches_oracle(
            fixture, "7", "raw", "varimax", 200, indices=indices
        )
        assert result.failures == {"ZeroVarianceError": 1}

    def test_non_converged_resamples(self, fixture):
        result = assert_matches_oracle(
            fixture, "7+NSC", "ln", "promax", 200,
            settings=ExtractionSettings(max_iter=8),
        )
        assert result.failures["ConvergenceError"] == result.n_failed > 0


def reference_top_eigh(m, k=None):
    """The top k eigenpairs the former way: the (M + M')/2 average, an
    argsort of the eigenvalues and a gather of the eigenvectors, each
    result column-major."""
    values, vectors = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
    order = np.argsort(values, axis=-1)[..., ::-1][..., :k]
    index = (order,) if order.ndim == 1 else (np.arange(len(order))[:, None], order)
    return values[index], np.swapaxes(np.swapaxes(vectors, -1, -2)[index], -1, -2)


def tied_stacks(rng, p, B=6):
    """Symmetric (B, p, p) stacks with exactly repeated eigenvalues."""
    identity = np.array(np.broadcast_to(np.eye(p), (B, p, p)))
    identity[:, : p // 2, : p // 2] *= 2.0
    q, _ = np.linalg.qr(rng.normal(size=(B, p, p)))
    repeated = (q * rng.integers(0, 3, size=(B, 1, p))) @ np.swapaxes(q, -1, -2)
    repeated = (repeated + np.swapaxes(repeated, -1, -2)) / 2.0
    # integer factors of rank below p: the gram is exact and singular
    factor = np.round(rng.normal(size=(B, p, max(1, p // 2))))
    return identity, repeated, factor @ np.swapaxes(factor, -1, -2)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 10])
def test_top_eigh_equals_the_argsort_reference(p):
    # reading LAPACK's ascending order backwards gives the argsort order,
    # ties included, and the same column-major eigenvector layout
    for stack in tied_stacks(np.random.default_rng(p), p):
        for m in (stack, stack[0]):
            for k in (None, *range(1, p + 1)):
                values, vectors = _top_eigh(m, k)
                want_values, want_vectors = reference_top_eigh(m, k)
                assert values.tobytes() == want_values.tobytes()
                assert vectors.tobytes() == want_vectors.tobytes()
                assert vectors.strides == want_vectors.strides


@pytest.mark.parametrize("p", [7, 9, 10])
@pytest.mark.parametrize("m", [2, 3, 6])
def test_promax_gram_matrices_are_exactly_symmetric(p, m):
    # _promax decomposes A'A without averaging: numpy forms it by syrk,
    # which mirrors one triangle, on stacks laid out as _promax gets them
    rng = np.random.default_rng(100 * p + m)
    for B in (1, _BOOTSTRAP_CELLS // (p * p)):
        loadings = np.swapaxes(rng.uniform(-1.0, 1.0, size=(B, m, p)), -1, -2)
        normalized = loadings / np.sqrt((loadings**2).sum(axis=-1))[..., None]
        gram = np.swapaxes(normalized, -1, -2) @ normalized
        assert gram.tobytes() == np.swapaxes(gram, -1, -2).tobytes()


def test_unaveraged_top_eigenpairs_equal_sorted_eigh(fixture, monkeypatch):
    # every stack decomposed without the (M + M')/2 average, the reduced
    # matrices of the extraction and the promax gram matrices included, is
    # exactly symmetric, and its top k eigenpairs are those of the averaged
    # argsort reference, bit for bit
    calls = []

    def spy(m, k=None, kernel=efa._top_eigh):
        calls.append((np.array(m), k))
        return kernel(m, k)

    monkeypatch.setattr(efa, "_top_eigh", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeywoodWarning)
        for spec in VARIMAX_TABLES.values():
            sub = fixture.subset(spec["variables"])
            _pipelines(
                (np.column_stack(list(stats.transform_columns(
                    sub.values, sub.columns, Transform(key))))
                 for key in spec["loadings"]),
                sub.columns, ExtractionSettings(), "varimax", 3,
            )
        sub = fixture.subset(BOOTSTRAP_VARIABLES["7+NC"])
        bootstrap_efa(sub.values, sub.columns, Transform.LOG, n_boot=200, seed=5)
        bootstrap_efa(sub.values, sub.columns, Transform.LOG, rotation="promax",
                      n_boot=200, seed=5)
    monkeypatch.undo()
    assert sum(m.shape[0] for m, k in calls if k == 2 and m.ndim == 3) > 200
    for m, k in calls:
        assert m.tobytes() == np.swapaxes(m, -1, -2).tobytes()
        values, vectors = efa._top_eigh(m, k)
        want_values, want_vectors = reference_top_eigh(m, k)
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()


def test_extraction_failing_mid_stack_fails_only_its_matrix(fixture, monkeypatch):
    # two matrices fail at the second iterate, the first decomposition of a
    # reduced matrix, while the rest of their stack iterates on
    sub = fixture.subset(SEVEN)
    indices = np.random.default_rng(31).integers(0, sub.n_rows, size=(20, sub.n_rows))
    tables = [sub.values[rows] for rows in indices]
    off = ~np.eye(len(SEVEN), dtype=bool)
    poisoned = {correlation_matrix(tables[b], SEVEN).values[off].tobytes(): b for b in (5, 9)}

    def flaky(m, k=None, kernel=efa._top_eigh):
        # only the extraction asks for the top k pairs
        if k is not None:
            for matrix in m.reshape(-1, *m.shape[-2:]):
                b = poisoned.get(matrix[off].tobytes())
                if b is not None:
                    raise np.linalg.LinAlgError(f"resample {b}")
        return kernel(m, k)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeywoodWarning)
        with monkeypatch.context() as patch:
            patch.setattr(efa, "_top_eigh", flaky)
            # the first failing table in table order raises
            with pytest.raises(np.linalg.LinAlgError, match="^resample 5$"):
                _pipelines(tables[3:12], SEVEN, ExtractionSettings(), "varimax", 3)
            failing = bootstrap_efa(sub.values, SEVEN, n_boot=20, indices=indices)
        kept = bootstrap_efa(sub.values, SEVEN, n_boot=18,
                             indices=np.delete(indices, [5, 9], axis=0))
    assert (failing.n_failed, failing.failures) == (2, {"LinAlgError": 2})
    for key in ("mean", "sd", "lower", "upper"):
        assert getattr(failing, key).tobytes() == getattr(kept, key).tobytes(), key


@pytest.mark.parametrize("rotation", efa.ROTATIONS)
def test_chain_record_holds_every_matrix_in_input_order(fixture, monkeypatch, rotation):
    # one stack with a correlation-stage failure (a constant table), an
    # extraction failure (its decomposition raises, as in the test above), a
    # promax failure (seven copies of h: rank-one loadings) and survivors;
    # each row of the record is what a lone pipeline of its table gives
    sub = fixture.subset(SEVEN)
    rows = np.random.default_rng(31).integers(0, sub.n_rows, size=(3, sub.n_rows))
    tables = [sub.values[rows[0]], sub.values[np.full(sub.n_rows, 3)], sub.values[rows[1]],
              sub.values[rows[2][::-1]], np.repeat(sub.values[:, :1], len(SEVEN), axis=1),
              sub.values]
    off = ~np.eye(len(SEVEN), dtype=bool)
    poisoned = correlation_matrix(tables[3], SEVEN).values[off].tobytes()

    def flaky(m, k=None, kernel=efa._top_eigh):
        if k is not None and any(x[off].tobytes() == poisoned
                                 for x in m.reshape(-1, *m.shape[-2:])):
            raise np.linalg.LinAlgError("poisoned")
        return kernel(m, k)

    monkeypatch.setattr(efa, "_top_eigh", flaky)
    indices = np.arange(len(tables) * sub.n_rows).reshape(len(tables), sub.n_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeywoodWarning)
        stages = efa._chain(*efa._resample_correlations(np.vstack(tables), indices, SEVEN),
                            ExtractionSettings(), rotation, 3)
    assert type(stages) is efa._Stages
    assert (stages.phi is None) == (rotation != "promax")
    for name, stage in stages._asdict().items():
        assert stage is None or len(stage) == len(tables), name
    failed = []
    for i, table in enumerate(tables):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", HeywoodWarning)
            try:
                # extraction alone, outside the chain, warns once per clamp
                uls_extract(correlation_matrix(table, SEVEN))
            except (BibfactorError, np.linalg.LinAlgError):
                pass
        assert stages.clamped[i] == len(caught), i
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeywoodWarning)
            try:
                alone = efa_pipeline(table, SEVEN, rotation=rotation)
            except (BibfactorError, np.linalg.LinAlgError) as exc:
                alone = exc
        if isinstance(alone, Exception):
            failed.append(i)
            error = stages.errors[i]
            assert (type(error), str(error)) == (type(alone), str(alone)), i
            continue
        assert stages.errors[i] is None, i
        assert stages.loadings[i].tobytes() == alone.unrotated.values.tobytes(), i
        assert stages.communalities[i].tobytes() == alone.communalities.tobytes(), i
        assert stages.rotated[i].tobytes() == alone.rotated.values.tobytes(), i
        if rotation == "promax":
            assert stages.phi[i].tobytes() == alone.phi.tobytes(), i
    assert failed == ([1, 3, 4] if rotation == "promax" else [1, 3])
    assert type(stages.errors[1]) is ZeroVarianceError and not stages.clamped[1]


class TestGuardedStack:
    def test_singular_inverse_fails_only_its_matrix(self):
        stack = np.random.default_rng(3).normal(size=(4, 3, 3))
        stack[2] = 0.0
        inverses, errors = _guarded(np.linalg.inv, stack)
        assert [e is None for e in errors] == [True, True, False, True]
        assert isinstance(errors[2], np.linalg.LinAlgError)
        for i in (0, 1, 3):
            assert np.array_equal(inverses[i], np.linalg.inv(stack[i]))

    def test_failed_eigendecomposition_fails_only_its_matrix(self):
        stack = np.random.default_rng(4).normal(size=(3, 4, 4))
        stack = stack + stack.transpose(0, 2, 1)
        stack[0, 1, 1] = np.nan
        (values, vectors), errors = _guarded(reference_top_eigh, stack)
        assert [e is None for e in errors] == [False, True, True]
        for i in (1, 2):
            alone = reference_top_eigh(stack[i])
            assert np.array_equal(values[i], alone[0])
            assert np.array_equal(vectors[i], alone[1])
