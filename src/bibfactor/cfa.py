"""Confirmatory factor analysis with a fixed loading pattern.

Fits the standardized model Sigma = Lambda Phi Lambda' + Theta by maximum
likelihood (factor variances fixed to 1, Theta diagonal), with numerical
gradients and a quasi-Newton search. Standard errors come from the inverse
of the numerically evaluated information matrix scaled by 2 / (n - 1).

The analyzed moment matrix here is a correlation matrix, which is what the
rest of the pipeline produces; standard errors computed on correlation input
carry the usual caveat and should be read as indicative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    ConvergenceError,
    HeywoodWarning,
    SpecificationError,
    ValidationError,
)
from .stats import normal_cdf

_THETA_FLOOR = 1e-4
_PHI_BOUND = 0.999
_GRAD_STEP = 1e-6
_HESS_STEP = 1e-5


@dataclass(frozen=True)
class PatternSpec:
    """Which loadings are free, and which factor correlations.

    ``loadings_free`` is a p x m boolean mask; masked-out loadings are fixed
    at zero. ``phi_free`` marks free off-diagonal factor correlations
    (variances are fixed at 1). Identifiability guards: every variable needs
    at least one free loading, every factor at least two indicators, and the
    free parameter count must not exceed p (p + 1) / 2.
    """

    labels: tuple[str, ...]
    loadings_free: np.ndarray
    phi_free: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.loadings_free, dtype=bool)
        phi = np.asarray(self.phi_free, dtype=bool)
        p, m = mask.shape
        if len(self.labels) != p:
            raise SpecificationError("labels do not match the loading mask")
        if phi.shape != (m, m):
            raise SpecificationError("phi mask must be m x m")
        if np.any(np.diag(phi)):
            raise SpecificationError("factor variances are fixed; diagonal must be free=False")
        if not np.array_equal(phi, phi.T):
            raise SpecificationError("phi mask must be symmetric")
        rows = mask.sum(axis=1)
        if np.any(rows == 0):
            bad = self.labels[int(np.argmin(rows))]
            raise SpecificationError(
                f"variable {bad!r} has no free loading; lower the threshold "
                "or assign it to its maximum-loading factor"
            )
        if np.any(mask.sum(axis=0) < 2):
            raise SpecificationError("every factor needs at least two indicators")
        n_free = int(mask.sum()) + int(phi.sum()) // 2 + p
        if n_free > p * (p + 1) // 2:
            raise SpecificationError(
                f"{n_free} free parameters exceed the {p * (p + 1) // 2} "
                "distinct moments; the model is not identified"
            )
        mask.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "loadings_free", mask)
        object.__setattr__(self, "phi_free", phi)

    @property
    def p(self):
        return self.loadings_free.shape[0]

    @property
    def m(self):
        return self.loadings_free.shape[1]


def pattern_from_efa(loadings, threshold, assign_max=False):
    """Turn rotated EFA loadings into a CFA pattern at a loading threshold.

    A loading is freed where |loading| > threshold. Variables left without
    any free loading raise unless ``assign_max`` is set, in which case they
    are assigned to their maximum-|loading| factor.
    """
    values = np.abs(loadings.values)
    mask = values > threshold
    if assign_max:
        for i in range(values.shape[0]):
            if not mask[i].any():
                mask[i, int(values[i].argmax())] = True
    m = loadings.m
    phi_free = ~np.eye(m, dtype=bool)
    return PatternSpec(
        labels=loadings.labels, loadings_free=mask, phi_free=phi_free
    )


@dataclass(frozen=True)
class CFAFit:
    """Standardized solution of a confirmatory factor model.

    Loadings are zero where the pattern masks them out; the matching cells
    of ``se``, ``z`` and ``p_values`` are NaN. ``r_squared`` is 1 - Theta_ii.
    """

    labels: tuple[str, ...]
    loadings: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    phi: np.ndarray
    uniquenesses: np.ndarray
    r_squared: np.ndarray
    discrepancy: float
    converged: bool
    iterations: int
    heywood: np.ndarray

    def loading_p_value(self, label):
        """Smallest loading p-value of a variable (its significance)."""
        i = self.labels.index(label)
        row = self.p_values[i]
        return float(np.nanmin(row))


def _pack_shapes(spec):
    n_load = int(spec.loadings_free.sum())
    pairs = [
        (i, j)
        for i in range(spec.m)
        for j in range(i + 1, spec.m)
        if spec.phi_free[i, j]
    ]
    return n_load, pairs


def _unpack(theta, spec, pairs, n_load):
    loadings = np.zeros((spec.p, spec.m))
    loadings[spec.loadings_free] = theta[:n_load]
    phi = np.eye(spec.m)
    for k, (i, j) in enumerate(pairs):
        phi[i, j] = phi[j, i] = theta[n_load + k]
    theta_diag = theta[n_load + len(pairs):]
    return loadings, phi, theta_diag


def cfa_fit(corr, n_obs, spec, max_iter=2000, ftol=1e-11, gtol=1e-8):
    """Fit the confirmatory model to a correlation matrix.

    Parameters
    ----------
    corr : CorrelationMatrix
        Analyzed moment matrix.
    n_obs : int
        Number of observations behind ``corr``; needs n_obs > p.
    spec : PatternSpec
    max_iter, ftol, gtol : optimizer budget and tolerances.

    Returns
    -------
    CFAFit
        The discrepancy is F = ln|Sigma| + tr(S Sigma^-1) - ln|S| - p, zero
        exactly when Sigma(theta) = S. Uniquenesses are bounded below at
        1e-4; hitting that bound flags a Heywood case.
    """
    if tuple(corr.labels) != tuple(spec.labels):
        raise ValidationError("correlation labels do not match the pattern")
    p = spec.p
    if n_obs <= p:
        raise ValidationError("need more observations than variables")
    s = np.asarray(corr.values)
    sign, log_det_s = np.linalg.slogdet(s)
    if sign <= 0:
        raise ValidationError("sample matrix must be positive definite")

    n_load, pairs = _pack_shapes(spec)
    dim = n_load + len(pairs) + p

    def discrepancy(theta):
        loadings, phi, theta_diag = _unpack(theta, spec, pairs, n_load)
        sigma = loadings @ phi @ loadings.T + np.diag(theta_diag)
        sig, log_det = np.linalg.slogdet(sigma)
        if sig <= 0:
            return 1e12
        try:
            inv = np.linalg.inv(sigma)
        except np.linalg.LinAlgError:
            return 1e12
        return float(log_det + (s * inv).sum() - log_det_s - p)

    def gradient(theta):
        grad = np.empty(dim)
        for i in range(dim):
            step = _GRAD_STEP * (1.0 + abs(theta[i]))
            plus = theta.copy()
            plus[i] += step
            minus = theta.copy()
            minus[i] -= step
            grad[i] = (discrepancy(plus) - discrepancy(minus)) / (2.0 * step)
        return grad

    start = np.concatenate(
        [np.full(n_load, 0.7), np.full(len(pairs), 0.3), np.full(p, 0.5)]
    )
    bounds = (
        [(None, None)] * n_load
        + [(-_PHI_BOUND, _PHI_BOUND)] * len(pairs)
        + [(_THETA_FLOOR, None)] * p
    )
    result = minimize(
        discrepancy,
        start,
        jac=gradient,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iter, "ftol": ftol, "gtol": gtol},
    )
    if not np.isfinite(result.fun) or result.fun >= 1e12:
        raise ConvergenceError(
            "the search never reached an admissible covariance matrix",
            last_iterate=result.x,
        )

    theta = result.x
    loadings, phi, theta_diag = _unpack(theta, spec, pairs, n_load)
    heywood = theta_diag <= _THETA_FLOOR * (1.0 + 1e-6)
    if heywood.any():
        warnings.warn(
            "uniqueness at the admissible boundary (Heywood case)",
            HeywoodWarning,
            stacklevel=2,
        )

    hessian = np.empty((dim, dim))
    for i in range(dim):
        step = _HESS_STEP * (1.0 + abs(theta[i]))
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        hessian[:, i] = (gradient(plus) - gradient(minus)) / (2.0 * step)
    hessian = (hessian + hessian.T) / 2.0
    try:
        covariance = np.linalg.inv(hessian) * 2.0 / (n_obs - 1)
        se_vector = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    except np.linalg.LinAlgError:
        se_vector = np.full(dim, np.nan)

    se = np.full((p, spec.m), np.nan)
    z = np.full((p, spec.m), np.nan)
    p_values = np.full((p, spec.m), np.nan)
    se[spec.loadings_free] = se_vector[:n_load]
    with np.errstate(divide="ignore", invalid="ignore"):
        z[spec.loadings_free] = np.where(
            se_vector[:n_load] > 0,
            theta[:n_load] / se_vector[:n_load],
            np.nan,
        )
    # the lower tail keeps precision where 1 - Phi(|z|) would cancel to 0
    p_values[spec.loadings_free] = 2.0 * normal_cdf(-np.abs(z[spec.loadings_free]))

    return CFAFit(
        labels=spec.labels,
        loadings=loadings,
        se=se,
        z=z,
        p_values=p_values,
        phi=phi,
        uniquenesses=theta_diag,
        r_squared=1.0 - theta_diag,
        discrepancy=float(result.fun),
        converged=bool(result.success),
        iterations=int(result.nit),
        heywood=heywood,
    )


def model_implied(fit):
    """Sigma(theta) for a fitted model."""
    return fit.loadings @ fit.phi @ fit.loadings.T + np.diag(fit.uniquenesses)
