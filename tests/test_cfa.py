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
from bibfactor import cfa as cfa_mod
from bibfactor.cfa import PatternSpec, model_implied
from bibfactor.efa import ExtractionSettings, efa_pipeline
from bibfactor.fixture import CFA_RAW_PATTERN, fixture_table
from bibfactor.stats import Transform
from bibfactor.tables import VARIABLE_SETS


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


def criterion_12_models():
    """The 50 exact-fit two-factor models of acceptance criterion 12."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = int(rng.integers(6, 10))
        mask = simple_mask(p, 2)
        loadings = np.zeros((p, 2))
        loadings[mask] = rng.uniform(0.4, 0.9, size=p)
        phi_offdiag = float(rng.uniform(-0.5, 0.5))
        phi = np.array([[1.0, phi_offdiag], [phi_offdiag, 1.0]])
        sigma = loadings @ phi @ loadings.T
        np.fill_diagonal(sigma, 1.0)
        labels = tuple(f"v{i}" for i in range(p))
        yield (
            CorrelationMatrix(labels, sigma),
            PatternSpec(labels, mask, ~np.eye(2, dtype=bool)),
        )


def fit_with_objective(monkeypatch, corr, n_obs, spec):
    """Fit, and return the fit with the (F, gradient) objective it minimized."""
    seen = {}
    real = cfa_mod.minimize

    def spy(fun, x0, **kwargs):
        seen["objective"] = fun
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(cfa_mod, "minimize", spy)
    fit = cfa_fit(corr, n_obs, spec)
    return fit, seen["objective"]


def packed(fit, spec):
    """The fitted parameter vector, in the order the objective takes it."""
    pairs = [
        fit.phi[i, j]
        for i in range(spec.m)
        for j in range(i + 1, spec.m)
        if spec.phi_free[i, j]
    ]
    return np.concatenate([fit.loadings[spec.loadings_free], pairs, fit.uniquenesses])


def central_difference(fn, theta, rel_step):
    columns = []
    for i in range(theta.size):
        step = rel_step * (1.0 + abs(theta[i]))
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        columns.append((np.asarray(fn(plus)) - np.asarray(fn(minus))) / (2.0 * step))
    return np.array(columns).T


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


class TestAnalyticDerivatives:
    def test_gradient_matches_central_differences(self, monkeypatch):
        # three factors with a cross-loading exercise every block of the
        # dSigma/dtheta array; the sample matrix is off the model so G != 0
        rng = np.random.default_rng(7)
        labels = tuple(f"v{i}" for i in range(7))
        mask = simple_mask(7, 3)
        mask[0, 1] = True
        spec = PatternSpec(labels, mask, ~np.eye(3, dtype=bool))
        data = rng.normal(size=(60, 7)) + rng.normal(size=(60, 1))
        corr = CorrelationMatrix(labels, np.corrcoef(data, rowvar=False))
        _, objective = fit_with_objective(monkeypatch, corr, 60, spec)
        for _ in range(20):
            theta = np.concatenate([
                rng.uniform(0.3, 0.9, int(mask.sum())),
                rng.uniform(-0.3, 0.3, 3),
                rng.uniform(0.2, 0.8, 7),
            ])
            value, grad = objective(theta)
            assert value < 1e12
            numeric = central_difference(lambda t: objective(t)[0], theta, 1e-6)
            assert np.abs(grad - numeric).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    def test_expected_information_ses_match_observed_at_exact_fit(self, monkeypatch):
        # at S = Sigma(theta) the Hessian of F is the expected information,
        # so the standard errors must agree with the observed-information ones
        n_obs = 200
        for corr, spec in criterion_12_models():
            fit, objective = fit_with_objective(monkeypatch, corr, n_obs, spec)
            hessian = central_difference(
                lambda t: objective(t)[1], packed(fit, spec), 1e-5
            )
            covariance = np.linalg.inv((hessian + hessian.T) / 2.0) * 2.0 / (n_obs - 1)
            observed = np.sqrt(np.diag(covariance))[: int(spec.loadings_free.sum())]
            assert fit.se[spec.loadings_free] == pytest.approx(observed, rel=1e-4)

    @pytest.mark.filterwarnings("ignore:communality exceeded")
    def test_fixture_fit(self):
        # the paper's confirmatory follow-up: 7+NC, raw, the published pattern
        variables = VARIABLE_SETS["7+NC"]
        table = fixture_table()
        values = np.column_stack([table.column(v) for v in variables])
        corr = efa_pipeline(
            values, variables, Transform("raw"), ExtractionSettings(), "varimax"
        ).correlation
        mask = np.zeros((len(variables), 2), dtype=bool)
        for factor, members in CFA_RAW_PATTERN.items():
            for v in members:
                mask[variables.index(v), factor - 1] = True
        spec = PatternSpec(variables, mask, ~np.eye(2, dtype=bool))
        with pytest.warns(HeywoodWarning):
            fit = cfa_fit(corr, table.n_rows, spec)
        assert fit.converged
        # F of the finite-difference fit this one replaced
        assert fit.discrepancy == pytest.approx(7.5232728778677895, abs=1e-6)
        assert [v for v, flag in zip(variables, fit.heywood) if flag] == ["A"]


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
