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

from .errors import (
    BibfactorError,
    InsufficientDataError,
    ValidationError,
    ZeroVarianceError,
)


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


# function, domain test and domain message of each transform but the identity
_TRANSFORMS = {
    Transform.LOG: (np.log, lambda x: x > 0, "ln transform requires positive values"),
    Transform.LOG_SHIFTED: (np.log1p, lambda x: x > -1,
                            "ln(x+1) transform requires values > -1"),
    Transform.SQRT: (np.sqrt, lambda x: x >= 0,
                     "sqrt transform requires non-negative values"),
}


def apply_transform(values, transform):
    """Apply a :class:`Transform` element-wise, preserving order.

    Domain violations raise :class:`ValidationError` naming the first
    offending position and the transform.
    """
    x = np.asarray(values, dtype=float)
    if not isinstance(transform, Transform):
        raise ValidationError(f"unknown transform {transform!r}")
    if transform is Transform.IDENTITY:
        return x.copy()
    function, in_domain, requirement = _TRANSFORMS[transform]
    bad = np.nonzero(~in_domain(x))[0]
    if bad.size:
        raise ValidationError(f"{requirement}; got {float(x[bad[0]])} at position {bad[0]}")
    return function(x)


def transform_columns(values, labels, transform):
    """Yield each column of the (n, p) ``values`` under ``transform``, in order.

    The p ``labels`` name the columns: their count is checked before any
    column is transformed, and a domain error names its column.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[1:] != (len(labels),):
        raise ValidationError("number of labels must match number of columns")
    if not isinstance(transform, Transform):
        raise ValidationError(f"unknown transform {transform!r}")
    for label, column in zip(labels, x.T):
        try:
            column = apply_transform(column, transform)
        except ValidationError as exc:
            raise ValidationError(f"column {label!r}: {exc}") from None
        yield column


def _finite(values):
    """The sample as a float array; nan and inf are rejected by position."""
    x = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValidationError(
            f"non-finite value {float(x.flat[bad[0]])} at position {bad[0]}"
        )
    return x


def describe(values):
    """Mean, median and sample standard deviation (n - 1 denominator)."""
    x = _finite(values)
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
    from scipy.special import ndtr
    return ndtr(z)


def student_cdf(x, df):
    """CDF of the standard Student t with ``df`` degrees of freedom, element-wise."""
    if not df > 0:
        raise ValidationError("df must be positive")
    from scipy.special import stdtr
    return stdtr(df, x)


# df grid, degenerate-scale guard and EM stop rule of the ML Student fit
_STUDENT_DF_GRID = np.exp(np.linspace(math.log(1.0), math.log(1000.0), 200))
_MIN_SCALE_FRACTION = 0.25
_EM_TOL = 1e-10
_EM_MAX_ITER = 500
# candidates per EM block: max(1, _EM_BLOCK_CELLS // n), so that each of its
# three work arrays holds at most 65,536 cells (512 KB), or one sample when
# that is longer, however many samples are stacked; samples of
# _ROW_BUFFER_MIN values or more run their blocks with a one-row ufunc buffer
_EM_BLOCK_CELLS = 65536
# From this many values per sample up to numpy's ufunc buffer size, the EM
# runs with that buffer set to one row (16 * ceil(n / 16) elements), so a
# row-broadcast step (x - m, / s, + d) skips copying its per-candidate value
# into the buffer. Each element gets the same operation and the row sums are
# unbuffered, so no fit changes. Below the crossover, 100-160 values on numpy
# 2.4, the extra inner-loop call per row costs more than the copy saves.
_ROW_BUFFER_MIN = 128


def constant_samples(x, axis=None):
    """Mask of the samples along ``axis`` of ``x`` that are constant (by
    default ``x`` is one sample).

    A sample is constant when all its values are equal or its sd is 0.
    Neither test alone will do: rounding leaves ln of 26 equal values an sd
    of 1e-16, and squares of tiny deviations can underflow to an sd of 0.
    """
    return (x == x.take([0], axis=axis)).all(axis=axis) | (x.std(axis=axis) == 0.0)


def _sample(values):
    """The sample as a float array and its sd; needs n >= 2, finite values
    and a sample that is not constant."""
    x = _finite(values)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    if constant_samples(x):
        raise ZeroVarianceError("sample is constant; cannot fit a scale")
    return x, float(x.std(ddof=1))


def _gather(stack, col, x_buf):
    """The samples of candidates ``col``, copied into the head of ``x_buf``."""
    # mode="clip" writes straight into x_buf (every index is in range), where
    # the default mode would copy through a temporary
    return np.take(stack, col, axis=0, out=x_buf[:col.size], mode="clip")


def _em_block(stack, col, df, mu, sigma, x_buf, w_buf, t_buf):
    """Iterate the EM of one block of candidates to convergence.

    Candidate i fits sample ``stack[col[i]]`` at ``df[i]``. ``mu`` and
    ``sigma`` hold the start values and are updated in place; ``x_buf``,
    ``w_buf`` and ``t_buf`` are work arrays with at least ``df.size`` rows.
    A candidate leaves the block once it converges, and the samples of the
    rest are compacted into the head of ``x_buf``.
    """
    active = np.arange(df.size)
    x = _gather(stack, col, x_buf)
    for _ in range(_EM_MAX_ITER):
        d, m, s = df[active, None], mu[active], sigma[active]
        w, t = w_buf[:active.size], t_buf[:active.size]
        np.subtract(x, m[:, None], out=t)
        t /= s[:, None]
        np.square(t, out=t)
        t += d
        np.divide(d + 1.0, t, out=w)
        np.multiply(w, x, out=t)
        m_new = np.sum(t, axis=1) / np.sum(w, axis=1)
        np.subtract(x, m_new[:, None], out=t)
        np.square(t, out=t)
        w *= t
        s_new = np.sqrt(np.sum(w, axis=1) / stack.shape[1])
        done = (np.abs(m_new - m) < _EM_TOL * (1.0 + np.abs(m))) & (
            np.abs(s_new - s) < _EM_TOL * (1.0 + s)
        )
        mu[active], sigma[active] = m_new, s_new
        if done.any():
            active = active[~done]
            if not active.size:
                return
            x = _gather(stack, col[active], x_buf)


def _student_loglik(stack, col, df, mu, sigma, x_buf, t_buf):
    """Student log-likelihood of each candidate of a block, summed in ``t_buf``."""
    from scipy.special import gammaln
    t = t_buf[:col.size]
    np.subtract(_gather(stack, col, x_buf), mu[:, None], out=t)
    t /= sigma[:, None]
    np.square(t, out=t)
    t /= df[:, None]
    np.log1p(t, out=t)
    t *= ((df + 1.0) / 2.0)[:, None]
    norm = gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * math.pi)
    np.subtract(norm[:, None], t, out=t)
    return np.sum(t, axis=1) - stack.shape[1] * np.log(sigma)


def _student_ml_stack(stack, sd):
    """ML Student fits of the rows of a (k, n) sample ``stack`` with sds ``sd``.

    One EM runs all k * 200 candidates: candidate r fits row r // 200 at
    the (r % 200)-th df of the grid, in blocks that may cross rows.
    Returns a list of k DistSpecs, None where no candidate is admissible.
    """
    k, n = stack.shape
    grid = _STUDENT_DF_GRID.size
    col = np.repeat(np.arange(k), grid)
    df = np.tile(_STUDENT_DF_GRID, k)
    mu = np.repeat(np.median(stack, axis=1), grid)
    sigma = np.repeat(sd, grid)
    loglik = np.empty(df.size)
    rows = min(df.size, max(1, _EM_BLOCK_CELLS // n))
    x_buf, w_buf, t_buf = np.empty((3, rows, n))
    bufsize = np.getbufsize()
    if _ROW_BUFFER_MIN <= n < bufsize:
        np.setbufsize(16 * -(-n // 16))
    try:
        for start in range(0, df.size, rows):
            block = slice(start, start + rows)
            _em_block(stack, col[block], df[block], mu[block], sigma[block],
                      x_buf, w_buf, t_buf)
            loglik[block] = _student_loglik(stack, col[block], df[block], mu[block],
                                            sigma[block], x_buf, t_buf)
    finally:
        np.setbufsize(bufsize)
    rejected = (sigma < _MIN_SCALE_FRACTION * np.repeat(sd, grid)).reshape(k, grid)
    best = np.argmax(np.where(rejected, -np.inf, loglik.reshape(k, grid)), axis=1)
    return [
        None if out.all() else
        DistSpec(family="student", location=float(mu[r]), scale=float(sigma[r]),
                 df=float(df[r]))
        for out, r in zip(rejected, np.arange(k) * grid + best)
    ]


def _student_fits(samples):
    """The ML Student fit of each ``(x, sd)`` of ``samples``, None where no
    candidate is admissible; samples of one size share one stacked EM."""
    fits = [None] * len(samples)
    for n in {x.size for x, _ in samples}:
        same = [i for i, (x, _) in enumerate(samples) if x.size == n]
        stack = np.stack([samples[i][0] for i in same])
        sd = np.array([samples[i][1] for i in same])
        for i, fit in zip(same, _student_ml_stack(stack, sd)):
            fits[i] = fit
    return fits


def fit_student_ml(values):
    """Maximum-likelihood Student fit of (df, location, scale).

    Profiles df over 200 log-spaced values on [1, 1000]. Location and scale
    at each df come from EM (Lange, Little & Taylor 1989), started at the
    median and the sample sd; the candidates of a block iterate together,
    and each stops once both change by less than 1e-10 * (1 + |value|), or
    after 500 iterations. The likelihood is unbounded on tied data (scale
    -> 0 around a repeated value), so candidates with scale below 0.25 * sd
    are rejected as degenerate; the first of highest log-likelihood among
    the rest wins.

    This is the one-sample case of a stacked EM: :func:`column_summaries`
    runs the 200 candidates of every column it is given as the rows of one
    array, each row with its own stop. Rows run in blocks of
    max(1, 65536 // n), which may cross columns; that bounds the work arrays
    and does not change any fit. From n = 128 up to numpy's ufunc buffer
    size, the blocks run with that buffer set to one row, which is faster
    and does not change any fit either; the caller's size is restored.
    """
    (fit,) = _student_fits([_sample(values)])
    if fit is None:
        raise ZeroVarianceError("no admissible Student fit for this sample")
    return fit


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
    x, sd = _sample(values)
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
    from scipy.special import kolmogorov
    return np.clip(kolmogorov(lam), 1e-300, 1.0)


def ks_test(values, ref):
    """One-sample two-sided Kolmogorov-Smirnov test against ``ref``.

    Parameters
    ----------
    values : sequence of float
        Finite sample, n >= 1. Ties are handled by the two-sided step comparison
        at each sorted point.
    ref : DistSpec
        Fully specified reference distribution.

    Returns
    -------
    KSResult
        The statistic D = sup |F_n - F| evaluated at the sample points and
        the asymptotic p-value at sqrt(n) * D.
    """
    x = np.sort(_finite(values))
    n = x.size
    if n < 1:
        raise InsufficientDataError("need at least 1 observation")
    cdf = ref.cdf(x)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    d = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    d = min(max(d, 0.0), 1.0)
    return KSResult(d=d, p_value=float(kolmogorov_sf(math.sqrt(n) * d)))


def column_summary(values, df=None):
    """One row of the descriptive tables for a (transformed) sample.

    A dict of ``mean``, ``median`` and ``sd`` from :func:`describe`, then
    the KS statistic and p-value against the fitted normal (``D_normal``,
    ``p_normal``) and Student (``D_student``, ``p_student``) references, in
    that order. ``df`` fixes the Student df as in :func:`fit_distspec`; by
    default all three Student parameters are fitted by maximum likelihood.
    This is :func:`column_summaries` of one column.
    """
    return column_summaries([values], df)[0]


def column_summaries(columns, df=None):
    """The :func:`column_summary` dict of each sample of ``columns``, in order.

    Equal to ``[column_summary(c, df) for c in columns]``, but the maximum-
    likelihood Student fits of all samples of one size run as one stacked
    EM (see :func:`fit_student_ml`), so a table costs one EM, not one per
    column. Errors are that loop's as well: the first column that fails, in
    column order, raises what ``column_summary`` would raise for it, and an
    error raised by iterating ``columns`` (a column transformed lazily,
    say) counts as a failure of the column it was producing.
    """
    samples, error = [], None
    try:
        for values in columns:
            samples.append(_sample(values))
    except BibfactorError as exc:
        error = exc
    if df is None:
        students = _student_fits(samples)
    else:
        students = [fit_distspec(x, "student", df=df) for x, _ in samples]
    rows = []
    for (x, _), student in zip(samples, students):
        if student is None:
            raise ZeroVarianceError("no admissible Student fit for this sample")
        d = describe(x)
        ks_n = ks_test(x, fit_distspec(x, "normal"))
        ks_s = ks_test(x, student)
        rows.append({
            "mean": d.mean, "median": d.median, "sd": d.sd,
            "D_normal": ks_n.d, "p_normal": ks_n.p_value,
            "D_student": ks_s.d, "p_student": ks_s.p_value,
        })
    if error is not None:
        raise error
    return rows
