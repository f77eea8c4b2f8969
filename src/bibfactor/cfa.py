"""Confirmatory factor analysis with a fixed loading pattern.

Fits the standardized model Sigma = Lambda Phi Lambda' + Theta by maximum
likelihood (factor variances fixed to 1, Theta diagonal) by bounded Fisher
scoring. One closed-form dSigma/dtheta gives the gradient tr(G dSigma/dtheta_a),
G = Sigma^-1 - Sigma^-1 S Sigma^-1, and the expected information
tr(Sigma^-1 dSigma/dtheta_a Sigma^-1 dSigma/dtheta_b). Each scoring step solves
that information for the free coordinates (Joreskog 1969; Lee & Jennrich
1979), and its inverse scaled by 2 / (n - 1) gives the standard errors.

The analyzed moment matrix here is a correlation matrix, which is what the
rest of the pipeline produces; standard errors computed on correlation input
carry the usual caveat and should be read as indicative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .efa import _singular, check_threshold
from .errors import (
    ConvergenceError,
    HeywoodWarning,
    SpecificationError,
    ValidationError,
)
from .stats import normal_cdf

_THETA_FLOOR = 1e-4
_PHI_BOUND = 0.999
# a scoring step that lowers F by less than _TOL * (1 + F) ends the search
_TOL = 1e-12
_MAX_ITER = 2000
# halvings of one step before the search gives up on lowering F
_MAX_HALVINGS = 50
# widest band next to a bound in which a coordinate may count as active
_ACTIVE_BAND = 1e-6


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
    are assigned to their maximum-|loading| factor. The threshold must lie
    in (0, 1).
    """
    check_threshold(threshold)
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

    def to_dict(self):
        """Plain data; the masked cells of ``se``, ``z`` and ``p_values`` are None."""
        def cells(matrix):
            return [[v if math.isfinite(v) else None for v in row]
                    for row in matrix.tolist()]

        return {
            "loadings": self.loadings.tolist(),
            "se": cells(self.se),
            "z": cells(self.z),
            "p_values": cells(self.p_values),
            "phi": self.phi.tolist(),
            "uniquenesses": self.uniquenesses.tolist(),
            "r_squared": self.r_squared.tolist(),
            "discrepancy": self.discrepancy,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _unpack(theta, spec, pairs, n_load):
    loadings = np.zeros((spec.p, spec.m))
    loadings[spec.loadings_free] = theta[:n_load]
    phi = np.eye(spec.m)
    phi[pairs] = phi[pairs[::-1]] = theta[n_load:-spec.p]
    return loadings, phi, theta[-spec.p:]


def _implied(loadings, phi, uniquenesses):
    return loadings @ phi @ loadings.T + np.diag(uniquenesses)


def _sigma_derivatives(loadings, phi, spec, pairs):
    """dSigma/dtheta as a (dim, p, p) array, parameters in ``_unpack`` order.

    A free loading lambda_ij gives e_i (Lambda Phi)_j' plus its transpose, a
    free phi_kl gives Lambda_k Lambda_l' plus its transpose, theta_i gives
    e_i e_i'.
    """
    rows, cols = np.nonzero(spec.loadings_free)
    eye = np.eye(spec.p)
    half = np.concatenate([
        np.einsum("ai,aj->aij", eye[rows], (loadings @ phi).T[cols]),
        np.einsum("ai,aj->aij", loadings.T[pairs[0]], loadings.T[pairs[1]]),
    ])
    return np.concatenate(
        [half + half.transpose(0, 2, 1), np.einsum("ai,aj->aij", eye, eye)]
    )


class _Solution(NamedTuple):
    x: np.ndarray
    fun: float
    information: np.ndarray
    nit: int
    nfev: int
    success: bool


def minimize(fun, x0, *, lower, upper):
    """Minimize F over the box [lower, upper] by projected Fisher scoring.

    ``fun(x)`` returns (F, gradient, information), with (inf, None, None)
    where Sigma is not positive definite; the information stands in for the
    Hessian, and each step uses that of the point it starts from. The
    active set holds the coordinates within epsilon of the bound that their
    gradient pushes them towards, with epsilon no wider than the projected
    gradient (Bertsekas 1982). Active coordinates take a gradient step
    scaled by their diagonal of the information, the free ones the scoring
    step on their block of it. The step, clipped to the box, is halved
    while F rises, and the search stops at the first step that lowers F by
    less than _TOL * (1 + F). ``nit`` counts steps; ``information`` is that
    of the final point.
    """
    x = np.clip(x0, lower, upper)
    f, grad, info = fun(x)
    nfev = 1
    if not math.isfinite(f):
        return _Solution(x, f, info, 0, nfev, False)
    for nit in range(1, _MAX_ITER + 1):
        band = min(_ACTIVE_BAND, np.abs(x - np.clip(x - grad, lower, upper)).max())
        free = np.where(grad > 0, x - lower, upper - x) > band
        try:
            step = -grad / np.diagonal(info)
            step[free] = -np.linalg.solve(info[np.ix_(free, free)], grad[free])
        except np.linalg.LinAlgError:
            return _Solution(x, f, info, nit - 1, nfev, False)
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(x + step, lower, upper)
            f_trial, grad_trial, info_trial = fun(trial)
            nfev += 1
            if f_trial <= f:
                break
            step /= 2.0
        else:
            return _Solution(x, f, info, nit - 1, nfev, False)
        decrease = f - f_trial
        x, f, grad, info = trial, f_trial, grad_trial, info_trial
        if decrease < _TOL * (1.0 + f):
            return _Solution(x, f, info, nit, nfev, True)
    return _Solution(x, f, info, _MAX_ITER, nfev, False)


def cfa_fit(corr, n_obs, spec):
    """Fit the confirmatory model to a correlation matrix.

    Parameters
    ----------
    corr : CorrelationMatrix
        Analyzed moment matrix.
    n_obs : int
        Number of observations behind ``corr``; needs n_obs > p.
    spec : PatternSpec

    Returns
    -------
    CFAFit
        The discrepancy is F = ln|Sigma| + tr(S Sigma^-1) - ln|S| - p, zero
        exactly when Sigma(theta) = S, minimized by bounded Fisher scoring
        from a start signed by the leading eigenvector of S; ``iterations``
        counts scoring steps. Uniquenesses are bounded below at 1e-4 and
        factor correlations by 0.999 in absolute value; a uniqueness on its
        bound flags a Heywood case.
    """
    if tuple(corr.labels) != tuple(spec.labels):
        raise ValidationError("correlation labels do not match the pattern")
    p = spec.p
    if n_obs <= p:
        raise ValidationError("need more observations than variables")
    if _singular(corr.eigenvalues):
        raise ValidationError("sample matrix must be positive definite")
    s = np.asarray(corr.values)

    n_load = int(spec.loadings_free.sum())
    # free phi_ij with i < j in row-major order, theta's middle block
    pairs = np.nonzero(np.triu(spec.phi_free, 1))
    n_pairs = pairs[0].size
    dim = n_load + n_pairs + p

    def evaluate(theta):
        loadings, phi, theta_diag = _unpack(theta, spec, pairs, n_load)
        sigma = _implied(loadings, phi, theta_diag)
        try:
            root_inv = np.linalg.inv(np.linalg.cholesky(sigma))
        except np.linalg.LinAlgError:
            return math.inf, None, None
        inv = root_inv.T @ root_inv
        # F = sum(lambda - ln lambda - 1) over the eigenvalues of Sigma^-1 S,
        # a sum of non-negative terms that stays >= 0 at an exact fit
        excess = np.linalg.eigvalsh(root_inv @ s @ root_inv.T) - 1.0
        value = float((excess - np.log1p(excess)).sum())
        derivatives = _sigma_derivatives(loadings, phi, spec, pairs)
        # tr(Sigma^-1 dSigma_a Sigma^-1 dSigma_b), the Hessian of F where
        # Sigma = S: the scoring steps and the standard errors both use it
        weighted = np.linalg.inv(sigma) @ derivatives
        return (value, np.einsum("ij,aij->a", inv - inv @ s @ inv, derivatives),
                np.einsum("aij,bji->ab", weighted, weighted))

    # each free loading starts at 0.7 with the sign of its variable in the
    # leading eigenvector of S, each factor oriented to a non-negative sum
    signs = np.where(corr.eigenvectors[:, :1] < 0, -1.0, 1.0) * spec.loadings_free
    signs *= np.where(signs.sum(axis=0) < 0, -1.0, 1.0)
    start = np.concatenate(
        [0.7 * signs[spec.loadings_free], np.full(n_pairs, 0.3), np.full(p, 0.5)]
    )
    result = minimize(
        evaluate,
        start,
        lower=np.repeat([-np.inf, -_PHI_BOUND, _THETA_FLOOR], [n_load, n_pairs, p]),
        upper=np.repeat([np.inf, _PHI_BOUND, np.inf], [n_load, n_pairs, p]),
    )
    if not math.isfinite(result.fun):
        raise ConvergenceError(
            "the search never reached an admissible covariance matrix",
            last_iterate=result.x,
        )

    loadings, phi, theta_diag = _unpack(result.x, spec, pairs, n_load)
    heywood = theta_diag <= _THETA_FLOOR * (1.0 + 1e-6)
    if heywood.any():
        warnings.warn(
            "uniqueness at the admissible boundary (Heywood case)",
            HeywoodWarning,
            stacklevel=2,
        )

    try:
        covariance = np.linalg.inv(result.information) * 2.0 / (n_obs - 1)
        se_vector = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    except np.linalg.LinAlgError:
        se_vector = np.full(dim, np.nan)

    se = np.full((p, spec.m), np.nan)
    se[spec.loadings_free] = se_vector[:n_load]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, loadings / se, np.nan)
    # the lower tail keeps precision where 1 - Phi(|z|) would cancel to 0
    p_values = 2.0 * normal_cdf(-np.abs(z))

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
    return _implied(fit.loadings, fit.phi, fit.uniquenesses)
