import numpy as np
import pytest
import scipy.special

from bibfactor import (
    CorrelationMatrix,
    HeywoodWarning,
    LoadingMatrix,
    SpecificationError,
    ValidationError,
    cfa_fit,
    pattern_from_efa,
)
from bibfactor.cfa import PatternSpec, model_implied


def simple_mask(p, m):
    mask = np.zeros((p, m), dtype=bool)
    for i in range(p):
        mask[i, i % m] = True
    return mask


def exact_model(rng, p=6, m=2):
    """A correlation matrix generated exactly by an identified model."""
    mask = simple_mask(p, m)
    loadings = np.zeros((p, m))
    loadings[mask] = rng.uniform(0.4, 0.9, size=int(mask.sum()))
    phi = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            phi[i, j] = phi[j, i] = rng.uniform(-0.5, 0.5)
    sigma = loadings @ phi @ loadings.T
    uniquenesses = 1.0 - np.diag(sigma)
    sigma = sigma + np.diag(uniquenesses)
    labels = tuple(f"v{i}" for i in range(p))
    corr = CorrelationMatrix(labels, sigma)
    spec = PatternSpec(labels, mask, ~np.eye(m, dtype=bool))
    return corr, spec, mask, loadings, phi, uniquenesses


class TestPatternSpec:
    def test_variable_without_loading_rejected(self):
        mask = simple_mask(5, 2)
        mask[3] = False
        with pytest.raises(SpecificationError, match="v3"):
            PatternSpec(tuple(f"v{i}" for i in range(5)), mask, ~np.eye(2, dtype=bool))

    def test_factor_needs_two_indicators(self):
        mask = np.zeros((4, 2), dtype=bool)
        mask[:3, 0] = True
        mask[3, 1] = True
        with pytest.raises(SpecificationError, match="two indicators"):
            PatternSpec(tuple(f"v{i}" for i in range(4)), mask, ~np.eye(2, dtype=bool))

    def test_overparameterized_rejected(self):
        mask = np.ones((3, 2), dtype=bool)
        with pytest.raises(SpecificationError, match="not identified"):
            PatternSpec(("a", "b", "c"), mask, ~np.eye(2, dtype=bool))

    def test_phi_diagonal_must_be_fixed(self):
        mask = simple_mask(6, 2)
        with pytest.raises(SpecificationError):
            PatternSpec(tuple(f"v{i}" for i in range(6)), mask, np.eye(2, dtype=bool))


class TestPatternFromEfa:
    def test_threshold_splits_factors(self):
        values = np.array(
            [[0.9, 0.1], [0.8, 0.2], [0.75, 0.3], [0.2, 0.9], [0.1, 0.85]]
        )
        loadings = LoadingMatrix(tuple("abcde"), values, rotation="varimax")
        spec = pattern_from_efa(loadings, threshold=0.6)
        assert spec.loadings_free.tolist() == [
            [True, False], [True, False], [True, False],
            [False, True], [False, True],
        ]

    def test_unassigned_variable_raises_without_flag(self):
        values = np.array([[0.9, 0.1], [0.8, 0.1], [0.5, 0.5], [0.1, 0.9], [0.2, 0.8]])
        loadings = LoadingMatrix(tuple("abcde"), values, rotation="varimax")
        with pytest.raises(SpecificationError, match="'c'"):
            pattern_from_efa(loadings, threshold=0.6)
        spec = pattern_from_efa(loadings, threshold=0.6, assign_max=True)
        assert spec.loadings_free[2].tolist() == [True, False]

    def test_all_zero_loadings_rejected(self):
        loadings = LoadingMatrix(tuple("abcd"), np.zeros((4, 2)), rotation="varimax")
        with pytest.raises(SpecificationError):
            pattern_from_efa(loadings, threshold=0.3)


class TestCfaFit:
    def test_exact_fit_recovery(self):
        rng = np.random.default_rng(100)
        corr, spec, mask, loadings, phi, uniquenesses = exact_model(rng)
        fit = cfa_fit(corr, 200, spec)
        assert fit.converged
        assert fit.discrepancy < 1e-10
        assert np.abs(fit.loadings[mask] - loadings[mask]).max() < 1e-5
        assert abs(fit.phi[0, 1] - phi[0, 1]) < 1e-5
        assert np.abs(fit.uniquenesses - uniquenesses).max() < 1e-5
        assert model_implied(fit) == pytest.approx(np.asarray(corr.values), abs=1e-5)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(101)
        corr, spec, mask, *_ = exact_model(rng, p=7)
        fit = cfa_fit(corr, 100, spec)
        assert (fit.loadings[~mask] == 0.0).all()
        assert np.isnan(fit.se[~mask]).all()

    def test_discrepancy_nonnegative_off_model(self):
        rng = np.random.default_rng(102)
        corr, spec, *_ = exact_model(rng)
        noisy = np.asarray(corr.values).copy()
        bump = rng.normal(scale=0.02, size=noisy.shape)
        noisy += (bump + bump.T) / 2.0
        np.fill_diagonal(noisy, 1.0)
        noisy_corr = CorrelationMatrix(corr.labels, np.clip(noisy, -1, 1))
        fit = cfa_fit(noisy_corr, 100, spec)
        assert fit.discrepancy >= 0.0
        assert fit.discrepancy > 1e-6

    def test_ses_positive_at_interior_solution(self):
        rng = np.random.default_rng(103)
        corr, spec, mask, *_ = exact_model(rng, p=8)
        fit = cfa_fit(corr, 500, spec)
        assert not fit.heywood.any()
        assert (fit.se[mask] > 0.0).all()

    def test_p_values_keep_precision_in_the_far_tail(self):
        # 2 * (1 - Phi(|z|)) cancels to 0 beyond |z| ~ 8.3
        corr, spec, mask, *_ = exact_model(np.random.default_rng(0))
        fit = cfa_fit(corr, 1000, spec)
        z = np.abs(fit.z[mask])
        assert ((z > 9.0) & (z < 35.0)).all()
        p_values = fit.p_values[mask]
        assert (p_values > 0.0).all()
        assert p_values == pytest.approx(
            2.0 * scipy.special.ndtr(-z), rel=1e-12, abs=0.0
        )
        assert np.isnan(fit.p_values[~mask]).all()

    def test_factor_relabeling_invariance(self):
        rng = np.random.default_rng(104)
        corr, spec, mask, *_ = exact_model(rng)
        swapped = PatternSpec(
            spec.labels, spec.loadings_free[:, ::-1], spec.phi_free
        )
        a = cfa_fit(corr, 100, spec)
        b = cfa_fit(corr, 100, swapped)
        assert a.discrepancy == pytest.approx(b.discrepancy, abs=1e-9)
        assert a.loadings[:, 0] == pytest.approx(b.loadings[:, 1], abs=1e-6)

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(105)
        corr, spec, *_ = exact_model(rng)
        other = PatternSpec(
            tuple(f"w{i}" for i in range(spec.p)), spec.loadings_free, spec.phi_free
        )
        with pytest.raises(ValidationError):
            cfa_fit(corr, 100, other)

    def test_needs_more_rows_than_variables(self):
        rng = np.random.default_rng(106)
        corr, spec, *_ = exact_model(rng)
        with pytest.raises(ValidationError):
            cfa_fit(corr, spec.p, spec)

    def test_heywood_flagged(self):
        # a true uniqueness below the 1e-4 floor pins the estimate at the
        # boundary and must be flagged
        labels = tuple("abcdef")
        mask = np.zeros((6, 2), dtype=bool)
        mask[:3, 0] = True
        mask[3:, 1] = True
        loadings = np.zeros((6, 2))
        loadings[mask] = [0.99999, 0.8, 0.7, 0.8, 0.7, 0.6]
        sigma = loadings @ loadings.T
        np.fill_diagonal(sigma, 1.0)
        corr = CorrelationMatrix(labels, sigma)
        spec = PatternSpec(labels, mask, ~np.eye(2, dtype=bool))
        with pytest.warns(HeywoodWarning):
            fit = cfa_fit(corr, 100, spec)
        assert fit.heywood[0]
        assert fit.r_squared[0] <= 1.0
