import warnings

import numpy as np
import pytest
import scipy.special

from bibfactor import (
    ConvergenceError,
    CorrelationMatrix,
    HeywoodWarning,
    LoadingMatrix,
    SpecificationError,
    ValidationError,
    cfa_fit,
    pattern_from_efa,
)
from bibfactor import cfa as cfa_mod
from bibfactor.cfa import PatternSpec
from bibfactor.efa import ExtractionSettings, efa_pipeline
from bibfactor.fixture import CFA_RAW_PATTERN, fixture_table
from bibfactor.stats import Transform
from bibfactor.tables import VARIABLE_SETS
from oracles import oracle_cfa_fit


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


def mixed_sign_models():
    """Seeded one-factor models with mixed-sign loadings and t3 factor and
    errors, each the given trial of its seed's stream of such draws. From a
    start of +0.7 on every loading, each ended in a Heywood local minimum
    above the L-BFGS-B fit."""
    labels = tuple(f"v{i}" for i in range(5))
    spec = PatternSpec(labels, np.ones((5, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
    for seed, trial in [(2, 181), (3, 31), (6, 188)]:
        rng = np.random.default_rng(seed)
        for _ in range(trial + 1):
            n = int(rng.integers(40, 301))
            lam = rng.uniform(0.2, 0.9, 5) * rng.choice([-1.0, 1.0], 5)
            factor = rng.standard_t(3, n)
            errors = rng.standard_t(3, (n, 5)) * np.sqrt(1.0 - lam**2)
        data = factor[:, None] * lam + errors
        yield CorrelationMatrix(labels, np.corrcoef(data, rowvar=False)), spec, n


def fixture_model():
    """Correlation matrix, pattern and n of the paper's 7+NC raw follow-up."""
    variables = VARIABLE_SETS["7+NC"]
    table = fixture_table()
    values = np.column_stack([table.column(v) for v in variables])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeywoodWarning)
        corr = efa_pipeline(
            values, variables, Transform("raw"), ExtractionSettings(), "varimax"
        ).correlation
    mask = np.zeros((len(variables), 2), dtype=bool)
    for factor, members in CFA_RAW_PATTERN.items():
        for v in members:
            mask[variables.index(v), factor - 1] = True
    return corr, PatternSpec(variables, mask, ~np.eye(2, dtype=bool)), table.n_rows


def fit_with_objective(monkeypatch, corr, n_obs, spec):
    """Fit, and return the fit with the (F, gradient, information) evaluation
    it minimized."""
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

    @pytest.mark.parametrize("labels, phi, message", [
        (("v0", "v1"), ~np.eye(2, dtype=bool), "labels do not match the loading mask"),
        (tuple(f"v{i}" for i in range(6)), ~np.eye(3, dtype=bool), "phi mask must be m x m"),
        (tuple(f"v{i}" for i in range(6)), np.array([[False, True], [False, False]]),
         "phi mask must be symmetric"),
    ])
    def test_labels_and_phi_mask_checked(self, labels, phi, message):
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            PatternSpec(labels, simple_mask(6, 2), phi)


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

    def test_assign_max_frees_each_empty_row_at_its_largest_abs_loading(self):
        values = np.array([[0.9, 0.1], [0.3, -0.5], [0.1, 0.8], [-0.55, 0.2], [0.4, 0.4]])
        loadings = LoadingMatrix(tuple("abcde"), values, rotation="varimax")
        spec = pattern_from_efa(loadings, threshold=0.6, assign_max=True)
        # a tie goes to the first factor
        assert spec.loadings_free.tolist() == [
            [True, False], [False, True], [False, True], [True, False], [True, False],
        ]

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
            value, grad, _ = objective(theta)
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
        implied = fit.loadings @ fit.phi @ fit.loadings.T + np.diag(fit.uniquenesses)
        assert implied == pytest.approx(np.asarray(corr.values), abs=1e-5)

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

    def test_indefinite_matrix_rejected(self):
        # two eigenvalues of -3e-9 pass the semi-definite check of
        # CorrelationMatrix, and their product gives a positive determinant
        rng = np.random.default_rng(107)
        x = rng.normal(size=(40, 4))
        x = np.column_stack([x, x[:, 0] + x[:, 1], x[:, 2] - x[:, 3]])
        w, v = np.linalg.eigh(np.corrcoef(x, rowvar=False))
        w[:2] = -3e-9
        r = (v * w) @ v.T
        d = np.sqrt(np.diag(r))
        labels = tuple(f"v{i}" for i in range(6))
        corr = CorrelationMatrix(labels, r / d[:, None] / d[None, :])
        assert (corr.eigenvalues < 0).sum() == 2
        mask = np.zeros((6, 2), dtype=bool)
        mask[[0, 1, 4], 0] = mask[[2, 3, 5], 1] = True
        spec = PatternSpec(labels, mask, ~np.eye(2, dtype=bool))
        with pytest.raises(ValidationError, match="positive definite"):
            cfa_fit(corr, 40, spec)

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


class TestScoringAgainstLbfgsb:
    """The scoring fit against the L-BFGS-B fit it replaced (tests/oracles.py).

    L-BFGS-B stops early, so parameters agree within a bound, not exactly:
    5e-4 on loadings and 5e-5 on phi and uniquenesses for the fixture, 5e-6
    on all three for criterion 12's exact-fit models.
    """

    @staticmethod
    def check(corr, spec, n_obs, bounds):
        fit = cfa_fit(corr, n_obs, spec)
        oracle = oracle_cfa_fit(corr.values, spec.loadings_free, spec.phi_free)
        assert fit.converged
        assert fit.discrepancy <= oracle["discrepancy"] + 1e-12
        for name, bound in zip(("loadings", "phi", "uniquenesses"), bounds):
            assert np.abs(getattr(fit, name) - oracle[name]).max() <= bound, name
        return fit

    def test_fixture(self):
        corr, spec, n_obs = fixture_model()
        with pytest.warns(HeywoodWarning):
            fit = self.check(corr, spec, n_obs, (5e-4, 5e-5, 5e-5))
        assert fit.discrepancy <= 7.5232731533
        assert fit.iterations <= 20
        assert [v for v, flag in zip(spec.labels, fit.heywood) if flag] == ["A"]

    def test_criterion_12_models(self):
        for corr, spec in criterion_12_models():
            fit = self.check(corr, spec, 200, (5e-6, 5e-6, 5e-6))
            assert fit.iterations <= 10

    @pytest.mark.filterwarnings("ignore::bibfactor.HeywoodWarning")
    def test_signed_start_reaches_the_minimum(self):
        for corr, spec, n_obs in mixed_sign_models():
            fit = cfa_fit(corr, n_obs, spec)
            oracle = oracle_cfa_fit(corr.values, spec.loadings_free, spec.phi_free)
            assert fit.converged
            assert fit.discrepancy <= oracle["discrepancy"] + 1e-12
            # one factor is identified only up to its sign
            assert np.abs(np.abs(fit.loadings) - np.abs(oracle["loadings"])).max() <= 5e-6
            assert np.abs(fit.uniquenesses - oracle["uniquenesses"]).max() <= 5e-6


class TestBoundedScoring:
    def test_box_constrained_quadratics_meet_kkt(self):
        # for a convex quadratic the information is its Hessian, so the
        # search must land on the box minimizer: zero gradient on free
        # coordinates, a gradient pushing outward on the ones at a bound
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(1, 8))
            root = rng.normal(size=(dim, dim))
            hessian = root @ root.T + 0.1 * np.eye(dim)
            centre = rng.normal(scale=2.0, size=dim)
            edge = rng.normal(size=dim)
            lower = np.where(rng.random(dim) < 0.7, edge, -np.inf)
            upper = np.where(rng.random(dim) < 0.7, edge + rng.uniform(0.1, 2.0, dim), np.inf)

            def fun(x):
                d = x - centre
                return 0.5 * d @ hessian @ d, hessian @ d, hessian

            start = np.clip(rng.normal(size=dim), lower, upper)
            result = cfa_mod.minimize(fun, start, lower=lower, upper=upper)
            assert result.success
            assert result.nfev >= result.nit + 1
            grad = fun(result.x)[1]
            tol = 1e-6 * (1.0 + np.abs(hessian @ centre).max())
            at_lower = result.x == lower
            at_upper = result.x == upper
            inside = ~(at_lower | at_upper)
            assert np.abs(grad[inside]).max(initial=0.0) <= tol
            assert (grad[at_lower] >= -tol).all()
            assert (grad[at_upper] <= tol).all()

    def test_one_evaluation_per_point(self, monkeypatch):
        # each evaluation builds dSigma/dtheta once and yields F, the gradient
        # and the information; nothing is evaluated again for the standard
        # errors (the fixture fit: 14 evaluations in 12 steps)
        real_derivatives, real_minimize = cfa_mod._sigma_derivatives, cfa_mod.minimize
        seen = {"builds": 0}

        def counted(*args):
            seen["builds"] += 1
            return real_derivatives(*args)

        def recorded(*args, **kwargs):
            seen["result"] = real_minimize(*args, **kwargs)
            return seen["result"]

        monkeypatch.setattr(cfa_mod, "_sigma_derivatives", counted)
        monkeypatch.setattr(cfa_mod, "minimize", recorded)
        corr, spec, n_obs = fixture_model()
        with pytest.warns(HeywoodWarning):
            cfa_fit(corr, n_obs, spec)
        assert seen["builds"] == seen["result"].nfev

    @staticmethod
    def _unbounded(x0, fun):
        inf = np.full(len(x0), np.inf)
        return cfa_mod.minimize(fun, np.array(x0), lower=-inf, upper=inf)

    def test_singular_step_solve_stops_the_search(self):
        # F = |x|^2 / 2 with the exact information at the start only: the
        # first step reaches the minimum, the second cannot be solved for
        def fun(x):
            info = np.eye(2) if np.array_equal(x, [3.0, -1.0]) else np.ones((2, 2))
            return 0.5 * x @ x, x, info

        result = self._unbounded([3.0, -1.0], fun)
        assert (result.success, result.nit, result.nfev) == (False, 1, 2)
        assert np.array_equal(result.x, [0.0, 0.0])

    def test_fifty_halvings_without_a_decrease_stop_the_search(self):
        # F = x^2 with a gradient that turns uphill below x = 3: the first
        # step lowers F to 4, then every halving of the second raises it
        def fun(x):
            return float(x[0] ** 2), (2.0 if x[0] > 3.0 else -2.0) * x, np.array([[4.0]])

        result = self._unbounded([4.0], fun)
        assert (result.success, result.nit) == (False, 1)
        assert result.nfev == 2 + cfa_mod._MAX_HALVINGS
        assert np.array_equal(result.x, [2.0])

    def test_iteration_cap_stops_the_search(self):
        # F = -x falls by 1 at every step and never levels off
        result = self._unbounded([0.0], lambda x: (-float(x[0]), -np.ones(1), np.eye(1)))
        assert (result.success, result.nit) == (False, cfa_mod._MAX_ITER)
        assert result.nfev == cfa_mod._MAX_ITER + 1
        assert np.array_equal(result.x, [cfa_mod._MAX_ITER])

    def test_singular_final_information_gives_nan_standard_errors(self, monkeypatch):
        real = cfa_mod.minimize

        def singular_information(*args, **kwargs):
            result = real(*args, **kwargs)
            return result._replace(information=np.zeros_like(result.information))

        corr, spec, *_ = exact_model(np.random.default_rng(108))
        monkeypatch.setattr(cfa_mod, "minimize", singular_information)
        fit = cfa_fit(corr, 100, spec)
        monkeypatch.undo()
        assert fit.converged
        assert np.isnan(fit.se).all() and np.isnan(fit.z).all()
        assert np.isnan(fit.p_values).all()
        want = cfa_fit(corr, 100, spec)
        assert fit.loadings.tobytes() == want.loadings.tobytes()
        assert not np.isnan(want.se[spec.loadings_free]).any()

    def test_inadmissible_start_raises(self):
        # a star of free factor correlations at their start value 0.3 makes
        # Phi indefinite enough that Sigma at the start is not positive
        # definite, and F is then inf at the only point the search has
        m = 27
        mask = np.repeat(np.eye(m, dtype=bool), 2, axis=0)
        phi_free = np.zeros((m, m), dtype=bool)
        phi_free[0, 1:] = phi_free[1:, 0] = True
        labels = tuple(f"v{i}" for i in range(2 * m))
        corr = CorrelationMatrix(labels, np.eye(2 * m))
        with pytest.raises(ConvergenceError, match="admissible"):
            cfa_fit(corr, 100, PatternSpec(labels, mask, phi_free))
