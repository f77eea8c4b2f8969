"""Descriptive statistics, transforms and one-sample Kolmogorov-Smirnov tests.

The KS machinery tests a sample against a fully specified reference
distribution (normal or Student t with location/scale). P-values use the
asymptotic Kolmogorov distribution with the plug-in statistic, with no
small-sample correction; this matches how the reference tables for the
embedded dataset were produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, kolmogorov, ndtr, stdtr

from .errors import InsufficientDataError, ValidationError, ZeroVarianceError


class Transform(Enum):
    """Element-wise data transforms used ahead of the factor analyses."""

    IDENTITY = "raw"
    LOG = "ln"
    LOG_SHIFTED = "ln1p"
    SQRT = "sqrt"


@dataclass(frozen=True)
class Descriptives:
    n: int
    mean: float
    median: float
    sd: float


@dataclass(frozen=True)
class DistSpec:
    """A fitted reference distribution: ``normal`` or ``student``.

    ``df`` is only meaningful for the Student family and may be fractional.
    """

    family: str
    location: float
    scale: float
    df: float | None = None

    def __post_init__(self):
        if self.family not in ("normal", "student"):
            raise ValidationError(f"unknown distribution family {self.family!r}")
        if not self.scale > 0:
            raise ValidationError("scale must be positive")
        if self.family == "student" and not (self.df and self.df > 0):
            raise ValidationError("student family requires df > 0")

    def cdf(self, x):
        z = (x - self.location) / self.scale
        if self.family == "normal":
            return normal_cdf(z)
        return student_cdf(z, self.df)


@dataclass(frozen=True)
class KSResult:
    d: float
    p_value: float


def apply_transform(values, transform):
    """Apply a :class:`Transform` element-wise, preserving order.

    Domain violations raise :class:`ValidationError` naming the first
    offending position and the transform.
    """
    x = np.asarray(values, dtype=float)
    if transform is Transform.IDENTITY:
        return x.copy()
    if transform is Transform.LOG:
        bad = np.nonzero(~(x > 0))[0]
        if bad.size:
            raise ValidationError(
                f"ln transform requires positive values; got {x[bad[0]]!r} "
                f"at position {bad[0]}"
            )
        return np.log(x)
    if transform is Transform.LOG_SHIFTED:
        bad = np.nonzero(~(x > -1))[0]
        if bad.size:
            raise ValidationError(
                f"ln(x+1) transform requires values > -1; got {x[bad[0]]!r} "
                f"at position {bad[0]}"
            )
        return np.log1p(x)
    if transform is Transform.SQRT:
        bad = np.nonzero(~(x >= 0))[0]
        if bad.size:
            raise ValidationError(
                f"sqrt transform requires non-negative values; got {x[bad[0]]!r} "
                f"at position {bad[0]}"
            )
        return np.sqrt(x)
    raise ValidationError(f"unknown transform {transform!r}")


def describe(values):
    """Mean, median and sample standard deviation (n - 1 denominator)."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    return Descriptives(
        n=int(x.size),
        mean=float(x.mean()),
        median=float(np.median(x)),
        sd=float(x.std(ddof=1)),
    )


def normal_cdf(z):
    """Standard normal CDF, element-wise."""
    return ndtr(z)


def student_cdf(x, df):
    """CDF of the standard Student t with ``df`` degrees of freedom, element-wise."""
    if df <= 0:
        raise ValidationError("df must be positive")
    return stdtr(df, x)


def _student_logpdf(z, df):
    return (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1.0) / 2.0 * np.log1p(z * z / df)
    )


# Profile grid for the maximum-likelihood Student fit. The likelihood of a
# t with free (df, location, scale) is unbounded on tied data (scale -> 0
# around a repeated value), so candidates whose fitted scale collapses below
# a fraction of the sample sd are rejected as degenerate.
_STUDENT_DF_GRID = np.exp(np.linspace(math.log(1.0), math.log(1000.0), 200))
_MIN_SCALE_FRACTION = 0.25


def _student_location_scale(x, df, tol=1e-10, max_iter=500):
    # EM iteration for ML location/scale at fixed df.
    mu = float(np.median(x))
    sigma = float(x.std(ddof=1))
    for _ in range(max_iter):
        z = (x - mu) / sigma
        w = (df + 1.0) / (df + z * z)
        mu_new = float(np.sum(w * x) / np.sum(w))
        sigma_new = math.sqrt(float(np.sum(w * (x - mu_new) ** 2) / x.size))
        done = (
            abs(mu_new - mu) < tol * (1.0 + abs(mu))
            and abs(sigma_new - sigma) < tol * (1.0 + sigma)
        )
        mu, sigma = mu_new, sigma_new
        if done:
            break
    return mu, sigma


def fit_student_ml(values):
    """Maximum-likelihood Student fit of (df, location, scale).

    Profiles df over a fixed logarithmic grid, estimating location and scale
    by EM at each candidate, and keeps the best non-degenerate candidate.
    Deterministic for a given sample.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("sample is constant; cannot fit a scale")
    best = None
    for df in _STUDENT_DF_GRID:
        mu, sigma = _student_location_scale(x, df)
        if sigma < _MIN_SCALE_FRACTION * sd:
            continue
        loglik = float(np.sum(_student_logpdf((x - mu) / sigma, df))) - x.size * math.log(sigma)
        if best is None or loglik > best[0]:
            best = (loglik, df, mu, sigma)
    if best is None:
        raise ZeroVarianceError("no admissible Student fit for this sample")
    _, df, mu, sigma = best
    return DistSpec(family="student", location=mu, scale=sigma, df=float(df))


def fit_distspec(values, family, df=None):
    """Fit a reference distribution to a sample.

    Parameters
    ----------
    values : sequence of float
        The sample; needs n >= 2 and positive variance.
    family : {"normal", "student"}
        Reference family.
    df : float, optional
        Student only. When given, the location/scale are the sample mean and
        sample sd with the stated df. When omitted, all three Student
        parameters are estimated by maximum likelihood, which is what
        reproduces the published reference tables.

    Returns
    -------
    DistSpec
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("sample is constant; cannot fit a scale")
    if family == "normal":
        return DistSpec(family="normal", location=float(x.mean()), scale=sd)
    if family == "student":
        if df is not None:
            return DistSpec(family="student", location=float(x.mean()), scale=sd, df=float(df))
        return fit_student_ml(x)
    raise ValidationError(f"unknown distribution family {family!r}")


def kolmogorov_sf(lam):
    """Survival function of the Kolmogorov distribution, element-wise.

    Clamped into [1e-300, 1] so that a p-value is never exactly zero.
    """
    return np.clip(kolmogorov(lam), 1e-300, 1.0)


def ks_test(values, ref):
    """One-sample two-sided Kolmogorov-Smirnov test against ``ref``.

    Parameters
    ----------
    values : sequence of float
        Sample, n >= 1. Ties are handled by the two-sided step comparison
        at each sorted point.
    ref : DistSpec
        Fully specified reference distribution.

    Returns
    -------
    KSResult
        The statistic D = sup |F_n - F| evaluated at the sample points and
        the asymptotic p-value at sqrt(n) * D.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 1:
        raise InsufficientDataError("need at least 1 observation")
    cdf = ref.cdf(x)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    d = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    d = min(max(d, 0.0), 1.0)
    return KSResult(d=d, p_value=float(kolmogorov_sf(math.sqrt(n) * d)))
