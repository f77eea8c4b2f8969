"""Correlation-based exploratory factor analysis.

Implements unweighted least-squares extraction (iterated principal-axis
factoring), varimax and promax rotations, sampling-adequacy statistics,
loading-based categorization, loading alignment, and a row-resampling
bootstrap of the whole pipeline.

The extraction defaults (communalities initialized at 1, iteration stopped
when the largest communality change drops below 1e-3) mirror the convergence
behaviour of the statistical package used to produce the published reference
tables for the embedded dataset; see ``ExtractionSettings``.

Correlation, extraction, rotation and alignment each have one
implementation: a private kernel over a stack of B matrices (leading axis).
The public functions call it with a stack of one, ``verify`` with the
transforms of a variable set, the bootstrap with stacks of resamples sized
by one cell budget, ``_BOOTSTRAP_CELLS``. A kernel returns, per matrix,
the error the public function raises for it (None when the matrix went
through), so one failing matrix never stops the rest of its stack. On a
stack, extraction and rotation run through one chain, ``_chain``, which
serves both failure policies: ``efa_pipeline`` and ``verify`` raise the
first error in stack order, the bootstrap drops and counts failures. Stacked
matrices keep the memory layout a lone matrix has (loading and eigenvector
matrices column-major), so every sum and BLAS call runs in the same order
and a matrix gets the same result bit for bit in a stack of any size.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    BibfactorError,
    ConvergenceError,
    DegenerateInputError,
    HeywoodWarning,
    InsufficientDataError,
    SingularMatrixError,
    ValidationError,
    ZeroVarianceError,
    check_unique,
)
from .stats import Transform, constant_samples, transform_columns

_EIGEN_SYMMETRY_TOL = 1e-10
_RELATIVE_RANK_TOL = 1e-12
_VARIMAX_TOL = 1e-8
_VARIMAX_MAX_SWEEPS = 1000
# float64 cells per stack of bootstrap_efa, which bounds its working memory:
# resampled (n, p) tables are correlated cells // (n p) at a time, and the
# p x p chain runs on stacks of cells // (p p) correlation matrices
_BOOTSTRAP_CELLS = 32_768
# rotation tags of a loading matrix, in the order the command line lists them
ROTATIONS = ("none", "varimax", "promax")


def _swap(a):
    return a.swapaxes(-1, -2)


def _per_matrix(order):
    """Index selecting ``order[b]`` along the last axis of matrix b."""
    return (order,) if order.ndim == 1 else (np.arange(len(order))[:, None], order)


def _take_columns(a, order):
    """``a[..., :, order]`` with one order per matrix, each result column-major."""
    return _swap(_swap(a)[_per_matrix(order)])


def _no_errors(shape):
    return np.full(shape, None, dtype=object)


def _fail(errors, failed, make):
    """Give each failed matrix that has no error yet the error ``make(i)``."""
    for i in map(tuple, np.argwhere(failed)):
        if errors[i] is None:
            errors[i] = make(i)


def _guarded(fn, stack):
    """``fn`` over a (..., k, k) stack, and the LinAlgError of each matrix.

    Matrices on which ``fn`` raises are found one by one and replaced by the
    identity, so that one bad matrix cannot stop the rest of the stack.
    """
    errors = _no_errors(stack.shape[:-2])
    try:
        return fn(stack), errors
    except np.linalg.LinAlgError:
        pass
    bad = np.zeros(errors.shape, dtype=bool)
    for i in np.ndindex(errors.shape):
        try:
            fn(stack[i])
        except np.linalg.LinAlgError as exc:
            errors[i], bad[i] = exc, True
    safe = np.where(bad[..., None, None], np.eye(stack.shape[-1]), stack)
    return fn(safe), errors


def symmetric_eigen(matrix):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    matrix : array-like, shape (p, p)
        Must be finite and symmetric within 1e-10 (absolute, relative to
        the largest entry). The symmetrized average is decomposed.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues in descending order; eigenvectors as orthonormal
        columns in matching order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    asym = float(np.abs(m - m.T).max()) if m.size else 0.0
    if asym > _EIGEN_SYMMETRY_TOL * scale:
        raise AsymmetricMatrixError(
            f"matrix is not symmetric (max |M - M'| = {asym:.3e})"
        )
    return _sorted_eigh(m)


def _sorted_eigh(m):
    # For stacks (..., k, k) this module built itself that may be asymmetric
    # at rounding level (a matmul's gram matrix): that asymmetry is averaged
    # away, without a check.
    return _top_eigh((m + _swap(m)) / 2.0)


def _top_eigh(m, k=None):
    """The top k (default all) eigenpairs of an exactly symmetric stack."""
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(values, axis=-1)[..., ::-1][..., :k]
    return values[_per_matrix(order)], _take_columns(vectors, order)


def _singular(values):
    """The numerically singular matrices, from descending eigenvalues."""
    top = values[..., 0]
    return (top <= 0) | (values[..., -1] <= _RELATIVE_RANK_TOL * top)


def _eigen_inverse(values, vectors):
    """Inverses from descending eigendecompositions, and the mask of the
    numerically singular matrices, whose inverse is meaningless."""
    singular = _singular(values)
    safe = np.where(singular[..., None], 1.0, values)
    return (vectors / safe[..., None, :]) @ _swap(vectors), singular


def _checked_correlations(v):
    """The checks of :class:`CorrelationMatrix` on a (..., p, p) stack.

    Returns the symmetrized matrices clipped into [-1, 1] with a unit
    diagonal, written over ``v``, their descending eigendecompositions, and
    per matrix the error it fails with (or None).
    """
    errors = _no_errors(v.shape[:-2])
    finite = np.isfinite(v).all(axis=(-2, -1))
    _fail(errors, ~finite,
          lambda i: ValidationError("correlation matrix has non-finite entries"))
    # a non-finite matrix goes on as the identity, so the steps below raise
    # no floating-point warning and cannot stop the rest of the stack
    np.copyto(v, np.eye(v.shape[-1]), where=~finite[..., None, None])
    # one scratch stack holds each temporary in turn
    work = np.subtract(v, _swap(v))
    asym = np.abs(work, out=work).max(axis=(-2, -1), initial=0.0)
    _fail(errors, asym > 1e-8,
          lambda i: ValidationError("correlation matrix is not symmetric"))
    # the commutative add leaves every matrix exactly symmetric
    np.divide(np.add(v, _swap(v), out=work), 2.0, out=v)
    diagonal = np.diagonal(v, axis1=-2, axis2=-1)
    _fail(errors, np.abs(diagonal - 1.0).max(axis=-1, initial=0.0) > 1e-8,
          lambda i: ValidationError("correlation matrix diagonal must be 1"))
    outside = np.abs(v, out=work).max(axis=(-2, -1), initial=0.0) > 1.0 + 1e-8
    _fail(errors, outside,
          lambda i: ValidationError("correlation entries must lie in [-1, 1]"))
    del work
    np.clip(v, -1.0, 1.0, out=v)
    d = np.arange(v.shape[-1])
    v[..., d, d] = 1.0
    (eigenvalues, eigenvectors), failed = _guarded(_top_eigh, v)
    _fail(errors, np.not_equal(failed, None), lambda i: failed[i])
    _fail(
        errors, eigenvalues.min(axis=-1, initial=0.0) < -1e-8,
        lambda i: ValidationError(
            "matrix is not positive semi-definite "
            f"(smallest eigenvalue {eigenvalues[i][-1]:.3e})"
        ),
    )
    return v, eigenvalues, eigenvectors, errors


@dataclass(frozen=True)
class CorrelationMatrix:
    """A validated Pearson correlation matrix with variable labels.

    Construction decomposes the matrix once; ``eigenvalues`` (descending)
    and ``eigenvectors`` (matching orthonormal columns) are kept read-only
    and reused by :func:`smc`, :func:`kmo`, :func:`bartlett`,
    :func:`suggest_n_factors` and the first :func:`uls_extract` iterate.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        check_unique(labels)
        # a copy: the checks write over it
        v = np.array(self.values, dtype=float)
        p = len(labels)
        if v.shape != (p, p):
            raise ValidationError(
                f"correlation matrix shape {v.shape} does not match "
                f"{p} labels"
            )
        v, eigenvalues, eigenvectors, error = _checked_correlations(v)
        if error.item() is not None:
            raise error.item()
        for array in (v, eigenvalues, eigenvectors):
            array.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def p(self):
        return len(self.labels)


def _correlations(x, labels):
    """Pearson correlations of each (n, p) table in a (B, n, p) stack.

    Equal to ``np.corrcoef(table, rowvar=False)`` bit for bit: the same
    column means, the same product of the centred columns, the same
    scaling. A table with a constant column gets a zero matrix and a
    ZeroVarianceError naming the column.
    """
    B, n, p = x.shape
    constant = constant_samples(x, axis=1)
    first = constant.argmax(axis=-1)
    errors = _no_errors(B)
    _fail(errors, constant.any(axis=-1),
          lambda i: ZeroVarianceError(f"column {labels[first[i]]!r} is constant"))
    ok = np.equal(errors, None)
    centred = x[ok]
    centred -= centred.mean(axis=1, keepdims=True)
    columns = _swap(centred)
    c = np.matmul(columns, _swap(columns))
    c *= np.true_divide(1, n - 1)
    sd = np.sqrt(np.diagonal(c, axis1=-2, axis2=-1))
    c /= sd[..., :, None]
    c /= sd[..., None, :]
    r = np.zeros((B, p, p))
    r[ok] = np.clip(c, -1.0, 1.0)
    return r, errors


def correlation_matrix(table, labels):
    """Pearson correlations of the columns of ``table``.

    Parameters
    ----------
    table : array-like, shape (n, p)
        Observations in rows; needs n >= 3 and finite values.
    labels : sequence of str
        One distinct name per column; used in error messages and results.
    """
    x = np.asarray(table, dtype=float)
    if x.ndim != 2:
        raise ValidationError("table must be two-dimensional")
    labels = tuple(labels)
    check_unique(labels)
    if x.shape[1] != len(labels):
        raise ValidationError("number of labels must match number of columns")
    if x.shape[0] < 3:
        raise InsufficientDataError("need at least 3 rows to correlate")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"non-finite value {float(x[i, j])} at row {i}, "
            f"column {labels[j]!r}"
        )
    r, errors = _correlations(x[None], labels)
    if errors[0] is not None:
        raise errors[0]
    return CorrelationMatrix(labels=labels, values=r[0])


def _smc(values, eigenvalues, eigenvectors):
    inverse, singular = _eigen_inverse(eigenvalues, eigenvectors)
    off = np.abs(values - np.eye(values.shape[-1])).max(axis=-1)
    return np.where(
        singular[..., None], off,
        1.0 - 1.0 / np.diagonal(inverse, axis1=-2, axis2=-1),
    )


def smc(corr):
    """Squared multiple correlations, 1 - 1/diag(R^-1).

    Falls back to the maximum absolute off-diagonal correlation per row when
    R is numerically singular.
    """
    return _smc(corr.values, corr.eigenvalues, corr.eigenvectors)


@dataclass(frozen=True)
class ExtractionSettings:
    """Settings for the least-squares extraction.

    ``initial`` selects the starting communalities: ``"ones"`` starts from
    unity, ``"smc"`` from squared multiple correlations. Iteration stops when
    the largest absolute communality change falls below ``tol``. The
    defaults (ones, 1e-3) reproduce the published reference tables; tighten
    ``tol`` to converge to the least-squares minimizer proper.
    """

    n_factors: int = 2
    tol: float = 1e-3
    max_iter: int = 500
    initial: str = "ones"

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValidationError("n_factors must be >= 1")
        if self.initial not in ("ones", "smc"):
            raise ValidationError("initial must be 'ones' or 'smc'")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


def _canonicalize(values):
    """Order columns by descending sum of squares, make column sums >= 0."""
    ss = (values**2).sum(axis=-2)
    order = np.argsort(-ss, axis=-1, kind="stable")
    values = _take_columns(values, order)
    signs = np.where(values.sum(axis=-2) >= 0.0, 1.0, -1.0)
    return values * signs[..., None, :], order, signs


@dataclass(frozen=True)
class LoadingMatrix:
    """A p x m loading matrix tagged with its rotation state.

    The extraction and rotation kernels return canonical loadings: columns
    ordered by descending sum of squared loadings and signed so every column
    sum is non-negative. The constructor keeps the columns as given, so the
    output of :func:`align_loadings` and a published reference table keep
    their own order and signs.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    rotation: str = "none"

    def __post_init__(self):
        labels = tuple(self.labels)
        check_unique(labels)
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(labels):
            raise ValidationError("loading matrix shape does not match labels")
        if self.rotation not in ROTATIONS:
            raise ValidationError(f"unknown rotation tag {self.rotation!r}")
        v.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)

    @property
    def p(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]

    def communalities(self):
        return (self.values**2).sum(axis=1)

    def ss_loadings(self):
        return (self.values**2).sum(axis=0)


def _warn_clamped(count):
    for _ in range(count):
        warnings.warn(
            "communality exceeded 1 during extraction and was clamped",
            HeywoodWarning,
            stacklevel=3,
        )


def _uls(values, eigenvalues, eigenvectors, settings):
    """Iterated principal axes on a (B, p, p) stack of correlation matrices.

    Each matrix iterates until its own largest communality change is below
    ``settings.tol``, so it runs exactly the iterates it would run alone.
    Returns canonical loadings (B, p, m), communalities (B, p), the mask of
    matrices whose communalities were clamped at some iterate, and per
    matrix a ConvergenceError or LinAlgError (or None).
    """
    B, p, _ = values.shape
    m = settings.n_factors
    ones = settings.initial == "ones"
    if ones:
        communalities = np.ones((B, p))
    else:
        communalities = np.clip(_smc(values, eigenvalues, eigenvectors), 0.0, 1.0)
    # last iterate of each matrix, written when it stops
    loadings = _swap(np.zeros((B, m, p)))
    updated = np.zeros((B, p))
    clamped = np.zeros(B, dtype=bool)
    errors = _no_errors(B)
    # the matrices still iterating and their current communalities
    active, current = np.arange(B), communalities
    diagonal = np.arange(p)
    for iteration in range(settings.max_iter):
        if iteration == 0 and ones:
            # unit communalities leave R itself as the reduced matrix
            w, vectors = eigenvalues, eigenvectors
        else:
            # exactly symmetric, as R is: only the diagonal changes
            reduced = values[active]
            reduced[:, diagonal, diagonal] = current
            (w, vectors), failed = _guarded(lambda s: _top_eigh(s, m), reduced)
            ok = np.equal(failed, None)
            if not ok.all():
                errors[active] = failed
                active, current, w, vectors = active[ok], current[ok], w[ok], vectors[ok]
        top = np.sqrt(np.clip(w[:, :m], 0.0, None))
        iterate = vectors[:, :, :m] * top[:, None, :]
        squares = (iterate**2).sum(axis=-1)
        clipped = np.clip(squares, 0.0, 1.0)
        clamped[active] |= (squares > 1.0 + 1e-12).any(axis=-1)
        step = np.abs(clipped - current).max(axis=-1)
        current = clipped
        stop = step < settings.tol
        last = iteration + 1 == settings.max_iter
        if last or stop.any():
            done = stop | last
            rows = active[done]
            loadings[rows], updated[rows] = iterate[done], squares[done]
            communalities[rows] = clipped[done]
            if last:
                for j in np.flatnonzero(~stop):
                    errors[active[j]] = ConvergenceError(
                        f"extraction did not converge in {settings.max_iter} "
                        f"iterations (last change {step[j]:.3e})",
                        last_iterate=(np.array(iterate[j]), clipped[j].copy()),
                    )
            active, current = active[~done], current[~done]
            if not active.size:
                break
    # keep clamped rows consistent: row sums of squares == communalities
    positive = updated > 0.0
    ratio = communalities / np.where(positive, updated, 1.0)
    scale = np.sqrt(np.where(positive, ratio, 1.0))
    canonical, _, _ = _canonicalize(loadings * scale[..., None])
    return canonical, np.minimum((canonical**2).sum(axis=-1), 1.0), clamped, errors


def _check_n_factors(settings, p):
    m = settings.n_factors
    if not m < p:
        raise ValidationError(f"need n_factors < p (got m={m}, p={p})")


def uls_extract(corr, settings=ExtractionSettings()):
    """Unweighted least-squares extraction by iterated principal axes.

    Repeats: place the current communalities on the diagonal of R, take the
    top-m eigenpairs of the reduced matrix, rebuild loadings and refresh the
    communalities from their squared rows, until the largest communality
    change is below ``settings.tol``. Communalities are clamped into [0, 1];
    a clamp emits a :class:`HeywoodWarning` once per call.

    Returns
    -------
    (LoadingMatrix, numpy.ndarray)
        Unrotated loadings (canonical column order/sign) and the final
        communalities (exactly the row sums of squares of the loadings).
    """
    _check_n_factors(settings, corr.p)
    loadings, communalities, clamped, errors = _uls(
        corr.values[None], corr.eigenvalues[None], corr.eigenvectors[None],
        settings,
    )
    _warn_clamped(int(clamped.sum()))
    if errors[0] is not None:
        raise errors[0]
    matrix = LoadingMatrix(labels=corr.labels, values=loadings[0], rotation="none")
    return matrix, communalities[0]


def _varimax_criterion(values):
    p = values.shape[-2]
    squared = values**2
    return (squared**2).sum(axis=(-2, -1)) - (squared.sum(axis=-2) ** 2).sum(axis=-1) / p


def _turn_columns(stack, rows, j, k, planes):
    """Apply a 2 x 2 plane rotation per row to columns j and k of a stack."""
    pair = _swap(np.stack([stack[rows, :, j], stack[rows, :, k]], axis=1))
    turned = pair @ planes
    stack[rows, :, j], stack[rows, :, k] = turned[..., 0], turned[..., 1]


def _varimax(values, kaiser_normalize=True):
    """Varimax of a (B, p, m) stack of loadings by pairwise plane rotations.

    Each matrix sweeps until its own criterion gains less than
    ``_VARIMAX_TOL``, at most ``_VARIMAX_MAX_SWEEPS`` times.
    Plane angles, cosines and sines come from ``math`` on Python floats, one
    matrix at a time: ``np.arctan2`` and array squaring differ from them in
    the last bit on some inputs. Returns the canonical rotated loadings and
    the (B, m, m) rotations T with ``rotated = unrotated @ T``.
    """
    B, p, m = values.shape
    rotation = np.array(np.broadcast_to(np.eye(m), (B, m, m)))
    work = np.array(values)
    if m == 1 or p <= 1:
        return work, rotation

    row_norms = np.sqrt((work**2).sum(axis=-1))
    row_norms[row_norms == 0.0] = 1.0
    if kaiser_normalize:
        work /= row_norms[..., None]

    criterion = _varimax_criterion(work)
    active = np.arange(B)
    for _ in range(_VARIMAX_MAX_SWEEPS):
        for j, k in itertools.combinations(range(m), 2):
            x, y = work[active, :, j], work[active, :, k]
            u = x**2 - y**2
            v = 2.0 * x * y
            a = u.sum(axis=-1)
            b = v.sum(axis=-1)
            c = (u**2 - v**2).sum(axis=-1)
            d = 2.0 * (u * v).sum(axis=-1)
            numerator = d - 2.0 * a * b / p
            angles = np.array([
                0.25 * math.atan2(num, cc - (aa**2 - bb**2) / p)
                for num, aa, bb, cc in zip(
                    numerator.tolist(), a.tolist(), b.tolist(), c.tolist()
                )
            ])
            turn = ~(np.abs(angles) < 1e-14)
            if not turn.any():
                continue
            planes = np.array([
                [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                for t in angles[turn].tolist()
            ])
            _turn_columns(work, active[turn], j, k, planes)
            _turn_columns(rotation, active[turn], j, k, planes)
        updated = _varimax_criterion(work[active])
        gain = updated - criterion[active]
        criterion[active] = updated
        active = active[~(gain < _VARIMAX_TOL)]
        if not active.size:
            break

    if kaiser_normalize:
        work *= row_norms[..., None]
    canonical, order, signs = _canonicalize(work)
    return canonical, _take_columns(rotation, order) * signs[..., None, :]


def varimax(loadings, kaiser_normalize=True):
    """Varimax rotation by pairwise plane rotations.

    Parameters
    ----------
    loadings : LoadingMatrix
        Untagged (rotation ``"none"``) loadings.
    kaiser_normalize : bool
        Scale rows to unit communality before rotating and undo afterwards.

    Returns
    -------
    (LoadingMatrix, numpy.ndarray)
        The rotated loadings tagged ``"varimax"`` and the m x m orthogonal
        rotation matrix T with ``rotated = unrotated @ T``.
    """
    if loadings.rotation != "none":
        raise ValidationError("varimax expects unrotated loadings")
    rotated, rotation = _varimax(loadings.values[None], kaiser_normalize)
    tagged = LoadingMatrix(loadings.labels, rotated[0], rotation="varimax")
    return tagged, rotation[0]


@dataclass(frozen=True)
class PromaxSolution:
    """Oblique solution: pattern loadings, structure, factor correlations."""

    pattern: LoadingMatrix
    structure: np.ndarray
    phi: np.ndarray


def _promax(values, kappa):
    """Promax of a (B, p, m) stack of varimax loadings.

    Returns the pattern loadings (B, p, m), the factor correlations
    (B, m, m) and per matrix a SingularMatrixError or LinAlgError (or None);
    a ``kappa`` outside [1, inf) fails every matrix with a ValidationError.
    Rank-deficient matrices are screened out before any inverse.
    """
    B, p, m = values.shape
    errors = _no_errors(B)
    if not 1 <= kappa < np.inf:
        errors[:] = [ValidationError(f"kappa must be a finite exponent >= 1, got {kappa}")
                     for _ in errors]
        return np.zeros_like(values), np.zeros((B, m, m)), errors
    if m == 1:
        return np.array(values), np.ones((B, 1, 1)), errors

    row_norms = np.sqrt((values**2).sum(axis=-1))
    row_norms[row_norms == 0.0] = 1.0
    normalized = values / row_norms[..., None]
    target = np.sign(normalized) * np.abs(normalized) ** kappa

    (gram_values, gram_vectors), errors = _guarded(
        _sorted_eigh, _swap(normalized) @ normalized
    )
    _fail(errors, _singular(gram_values),
          lambda i: SingularMatrixError("varimax loadings are rank deficient"))
    ok = np.equal(errors, None)
    normalized = normalized[ok]
    inverse, _ = _eigen_inverse(gram_values[ok], gram_vectors[ok])
    transform = inverse @ _swap(normalized) @ target[ok]

    inverse, failed = _guarded(np.linalg.inv, _swap(transform) @ transform)
    scale = np.sqrt(np.diagonal(inverse, axis1=-2, axis2=-1))
    transform = transform * scale[:, None, :]
    pattern = (normalized @ transform) * row_norms[ok][..., None]
    phi, phi_failed = _guarded(np.linalg.inv, _swap(transform) @ transform)
    errors[ok] = np.where(np.equal(failed, None), phi_failed, failed)

    pattern, order, signs = _canonicalize(pattern)
    phi = np.take_along_axis(phi, order[:, :, None], axis=1)
    phi = np.take_along_axis(phi, order[:, None, :], axis=2)
    phi = phi * (signs[:, :, None] * signs[:, None, :])
    phi = (phi + _swap(phi)) / 2.0
    d = np.arange(m)
    phi[:, d, d] = 1.0

    patterns = _swap(np.zeros((B, m, p)))
    patterns[ok] = pattern
    phis = np.array(np.broadcast_to(np.eye(m), (B, m, m)))
    phis[ok] = phi
    return patterns, phis, errors


def promax(varimax_loadings, kappa=3):
    """Promax oblique rotation of a varimax solution.

    Builds the target by raising the Kaiser-normalized varimax loadings to
    the power ``kappa`` (signs kept), fits the least-squares transform to
    that target, scales its columns so the implied factor correlation matrix
    has a unit diagonal, and maps the loadings through it. Pattern rows are
    denormalized back to the original scale.

    Returns
    -------
    PromaxSolution
        ``structure`` equals ``pattern @ phi`` exactly.
    """
    if varimax_loadings.rotation != "varimax":
        raise ValidationError("promax expects a varimax-rotated loading matrix")
    pattern, phi, errors = _promax(varimax_loadings.values[None], kappa)
    if errors[0] is not None:
        raise errors[0]
    pattern = LoadingMatrix(varimax_loadings.labels, pattern[0], rotation="promax")
    return PromaxSolution(
        pattern=pattern, structure=pattern.values @ phi[0], phi=phi[0]
    )


@dataclass(frozen=True)
class AdequacyResult:
    kmo: float
    bartlett_chi2: float
    bartlett_df: int
    bartlett_p: float

    def to_dict(self):
        return {
            "kmo": self.kmo,
            "bartlett": {
                "chi2": self.bartlett_chi2,
                "df": self.bartlett_df,
                "p": self.bartlett_p,
            },
        }


def kmo(corr):
    """Kaiser-Meyer-Olkin measure of sampling adequacy.

    Compares the squared observed correlations with the squared anti-image
    partial correlations derived from R^-1.
    """
    inverse, singular = _eigen_inverse(corr.eigenvalues, corr.eigenvectors)
    if singular:
        raise SingularMatrixError("matrix is numerically singular")
    d = np.sqrt(np.diag(inverse))
    partial = -inverse / np.outer(d, d)
    off = ~np.eye(corr.p, dtype=bool)
    r2 = float((corr.values[off] ** 2).sum())
    q2 = float((partial[off] ** 2).sum())
    if r2 + q2 == 0.0:
        raise DegenerateInputError(
            "all off-diagonal correlations are zero; KMO is 0/0"
        )
    return r2 / (r2 + q2)


def bartlett(corr, n_obs):
    """Bartlett's sphericity test of R = I.

    Returns ``(chi2, df, p_value)`` with
    chi2 = -(n - 1 - (2p + 5)/6) * ln det R and df = p (p - 1) / 2.
    """
    p = corr.p
    if n_obs <= p:
        raise InsufficientDataError("need more observations than variables")
    if _singular(corr.eigenvalues):
        raise SingularMatrixError("matrix is numerically singular")
    log_det = float(np.log(corr.eigenvalues).sum())
    chi2 = -(n_obs - 1 - (2 * p + 5) / 6.0) * log_det
    df = p * (p - 1) // 2
    from scipy.special import gammaincc
    p_value = float(gammaincc(df / 2.0, max(chi2, 0.0) / 2.0)) if df else 1.0
    return chi2, df, p_value


def adequacy(corr, n_obs):
    """Bundle KMO and the Bartlett test into one result."""
    chi2, df, p_value = bartlett(corr, n_obs)
    return AdequacyResult(
        kmo=kmo(corr), bartlett_chi2=chi2, bartlett_df=df, bartlett_p=p_value
    )


def suggest_n_factors(corr):
    """Number of correlation-matrix eigenvalues greater than 1."""
    return int((corr.eigenvalues > 1.0).sum())


@dataclass(frozen=True)
class EFAResult:
    """Everything the extraction + rotation pipeline produces.

    ``correlation`` is the matrix the loadings were extracted from, i.e.
    the correlations of the transformed columns; adequacy measures and a
    confirmatory follow-up can reuse it as is.
    """

    correlation: CorrelationMatrix
    unrotated: LoadingMatrix
    rotated: LoadingMatrix
    communalities: np.ndarray
    ss_loadings: np.ndarray
    variance_explained: np.ndarray
    structure: np.ndarray | None = None
    phi: np.ndarray | None = None

    @property
    def labels(self):
        return self.unrotated.labels

    def to_dict(self):
        payload = {
            "rotation": self.rotated.rotation,
            "variables": list(self.labels),
            "loadings": self.rotated.values.tolist(),
            "unrotated": self.unrotated.values.tolist(),
            "communalities": self.communalities.tolist(),
            "ss_loadings": self.ss_loadings.tolist(),
            "variance_explained": self.variance_explained.tolist(),
        }
        if self.structure is not None:
            payload["structure"] = self.structure.tolist()
            payload["phi"] = self.phi.tolist()
        return payload


def efa_pipeline(
    table,
    variables,
    transform=Transform.IDENTITY,
    settings=ExtractionSettings(),
    rotation="varimax",
    kappa=3,
):
    """Transform columns, correlate, extract and rotate in one call.

    Runs the steps of :func:`correlation_matrix`, :func:`uls_extract`,
    :func:`varimax` and :func:`promax` as a stack of one table; ``verify``
    stacks the four transforms of each variable set the same way.

    Parameters
    ----------
    table : array-like, shape (n, p)
        Raw data; column j holds the variable named ``variables[j]``.
    variables : sequence of str
        Column labels.
    transform : Transform
        Applied to every column before correlating.
    settings : ExtractionSettings
    rotation : str, one of :data:`ROTATIONS`
    kappa : int
        Promax exponent, used only for oblique rotation.

    Returns
    -------
    EFAResult
        ``correlation`` holds the correlations of the transformed columns.
        ``ss_loadings`` are column sums of squares of the rotated loadings
        (of the structure matrix for promax, whose per-factor sums overlap
        and may exceed the number of variables); ``variance_explained`` is
        ``ss_loadings / p``.
    """
    if rotation not in ROTATIONS:
        raise ValidationError(f"unknown rotation {rotation!r}")
    x = np.asarray(table, dtype=float)
    xt = np.column_stack(list(transform_columns(x, variables, transform)))
    (result,) = _pipelines([xt], variables, settings, rotation, kappa)
    return result


def _pipelines(tables, labels, settings, rotation, kappa):
    """The :class:`EFAResult` of each (n, p) table of the iterable ``tables``.

    Equal to ``[efa_pipeline(x, labels, Transform.IDENTITY, settings,
    rotation, kappa) for x in tables]`` bit for bit, but extraction and
    rotation run once, through :func:`_chain` on the stack of all the
    correlation matrices, with the chain's raising policy: each clamped
    extraction warns once, in table order, and the first table that fails
    raises what its pipeline would raise. An error raised by iterating
    ``tables`` (a table transformed lazily, say) counts as a failure of the
    table it was producing.
    """
    labels = tuple(labels)
    corrs, pending = [], None
    try:
        for x in tables:
            corr = correlation_matrix(x, labels)
            _check_n_factors(settings, corr.p)
            corrs.append(corr)
    except (BibfactorError, np.linalg.LinAlgError) as exc:
        pending = exc
    if corrs:
        loadings, communalities, turned, phis, clamped, errors = _chain(
            np.stack([c.values for c in corrs]),
            np.stack([c.eigenvalues for c in corrs]),
            # column-major eigenvectors, as the kernels keep them
            _swap(np.stack([_swap(c.eigenvectors) for c in corrs])),
            _no_errors(len(corrs)), settings, rotation, kappa,
        )
    results = []
    for i, corr in enumerate(corrs):
        _warn_clamped(int(clamped[i]))
        if errors[i] is not None:
            raise errors[i]
        # every table before this one went through, so it is survivor i
        unrotated = LoadingMatrix(labels, loadings[i], rotation="none")
        rotated, structure, phi = unrotated, None, None
        if rotation != "none":
            rotated = LoadingMatrix(labels, turned[i], rotation=rotation)
        if rotation == "promax":
            structure, phi = rotated.values @ phis[i], phis[i]
        ss = ((rotated.values if structure is None else structure) ** 2).sum(axis=0)
        results.append(EFAResult(
            correlation=corr, unrotated=unrotated, rotated=rotated,
            communalities=communalities[i], ss_loadings=ss,
            variance_explained=ss / corr.p, structure=structure, phi=phi,
        ))
    if pending is not None:
        raise pending
    return results


@dataclass(frozen=True)
class Categorization:
    """Per-variable factor memberships at a loading threshold (1-based)."""

    threshold: float
    labels: tuple[str, ...]
    memberships: tuple[frozenset[int], ...]

    def on_factor(self, factor):
        """Labels of the variables loading on ``factor`` (1-based)."""
        return {
            label
            for label, members in zip(self.labels, self.memberships)
            if factor in members
        }


def check_threshold(threshold):
    """Raise ``ValidationError`` unless a loading threshold lies in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")


def categorize(loadings, threshold=0.6):
    """Assign each variable to every factor where |loading| > threshold."""
    check_threshold(threshold)
    memberships = tuple(
        frozenset(
            j + 1
            for j in range(loadings.m)
            if abs(loadings.values[i, j]) > threshold
        )
        for i in range(loadings.p)
    )
    return Categorization(
        threshold=threshold, labels=loadings.labels, memberships=memberships
    )


def _align(values, reference):
    """Align each matrix of a (B, p, m) stack to the (p, m) ``reference``.

    Picks the column permutation with the largest summed absolute Tucker
    congruence (the first of equal ones, in ``itertools.permutations``
    order), then flips signs to make each congruence non-negative. The m!
    permutations are scored ``_BOOTSTRAP_CELLS // B`` at a time.
    """
    B, _, m = values.shape
    cross = _swap(values) @ reference
    norms = (values**2).sum(axis=-2)[:, :, None] * (reference**2).sum(axis=0)
    denom = np.sqrt(norms)
    # congruence[b, a, j]: column a of matrix b against reference column j
    congruence = np.divide(cross, denom, out=np.zeros_like(cross), where=denom != 0.0)
    perms = itertools.permutations(range(m))
    size = max(1, _BOOTSTRAP_CELLS // max(B, 1))
    columns, rows = np.arange(m), np.arange(B)
    best, top = np.zeros((B, m), dtype=int), np.full(B, -np.inf)
    while block := list(itertools.islice(perms, size)):
        block = np.array(block)
        totals = sum(np.abs(congruence[:, block[:, j], j]) for j in columns)
        first = np.argmax(totals, axis=-1)
        total = totals[rows, first]
        # a later block wins only with a strictly larger total
        better = total > top
        top[better], best[better] = total[better], block[first[better]]
    chosen = congruence[rows[:, None], best, columns]
    signs = np.where(chosen < 0.0, -1.0, 1.0)
    return np.ascontiguousarray(_take_columns(values, best) * signs[:, None, :])


def align_loadings(loadings, reference):
    """Permute and sign-flip columns to best match a reference matrix.

    Searches all column permutations (m! of them, fine for the small m used
    here) for the one maximizing the summed absolute Tucker congruence with
    the reference columns, then flips signs to make each congruence
    non-negative.
    """
    if loadings.values.shape != reference.values.shape:
        raise ValidationError(
            f"shape mismatch: {loadings.values.shape} vs "
            f"{reference.values.shape}"
        )
    aligned = _align(loadings.values[None], reference.values)
    return LoadingMatrix(loadings.labels, aligned[0], rotation=loadings.rotation)


@dataclass(frozen=True)
class BootstrapResult:
    """Per-entry summaries of the aligned rotated loadings over resamples.

    ``failures`` counts the failed resamples by exception class name (the
    counts sum to ``n_failed``); ``n_clamped`` counts the resamples whose
    extraction clamped a communality.
    """

    n_boot: int
    seed: int
    labels: tuple[str, ...]
    reference: LoadingMatrix
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_failed: int
    failures: dict[str, int]
    n_clamped: int

    def to_dict(self):
        return {
            "B": self.n_boot,
            "seed": self.seed,
            "n_failed": self.n_failed,
            "failures": dict(self.failures),
            "n_clamped": self.n_clamped,
            "variables": list(self.labels),
            "reference": self.reference.values.tolist(),
            "mean": self.mean.tolist(),
            "sd": self.sd.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


def _chain(values, eigenvalues, eigenvectors, stage, settings, rotation, kappa):
    """Extraction and rotation of a (k, p, p) stack of checked correlations.

    Takes what :func:`_checked_correlations` returns, ``stage`` being the
    errors (None where a matrix went through). A failed matrix is left out
    of the later steps. This one chain serves both failure policies:
    :func:`_pipelines` raises the first error in stack order, the bootstrap
    drops and counts failures. Returns the unrotated loadings,
    communalities, rotated loadings (the pattern under promax) and factor
    correlations (None unless promax) of the matrices that went through, in
    stack order, then per matrix the clamp mask and the error (or None).
    """
    alive = np.arange(len(values))
    errors, clamped = _no_errors(len(values)), np.zeros(len(values), dtype=bool)

    def survivors(stage_errors, *stacks):
        nonlocal alive
        errors[alive] = stage_errors
        ok = np.equal(stage_errors, None)
        if ok.all():
            return stacks
        alive = alive[ok]
        return [stack[ok] for stack in stacks]

    corr = survivors(stage, values, eigenvalues, eigenvectors)
    loadings, communalities, stage_clamped, stage = _uls(*corr, settings)
    clamped[alive] = stage_clamped
    loadings, communalities = survivors(stage, loadings, communalities)
    rotated, phi = loadings, None
    if rotation != "none":
        rotated, _ = _varimax(loadings)
    if rotation == "promax":
        rotated, phi, stage = _promax(rotated, kappa)
        loadings, communalities, rotated, phi = survivors(
            stage, loadings, communalities, rotated, phi
        )
    return loadings, communalities, rotated, phi, clamped, errors


def _resample_correlations(xt, indices, labels):
    """:func:`_checked_correlations` of the resamples ``xt[indices[b]]``,
    whose tables are built at most ``_BOOTSTRAP_CELLS // (n p)`` at a time;
    an error of :func:`_correlations` goes ahead of a check's."""
    k, (n, p) = len(indices), xt.shape
    size = max(1, _BOOTSTRAP_CELLS // (n * p))
    r, stage = np.empty((k, p, p)), _no_errors(k)
    for start in range(0, k, size):
        part = slice(start, start + size)
        r[part], stage[part] = _correlations(xt[indices[part]], labels)
    *checked, errors = _checked_correlations(r)
    _fail(stage, np.not_equal(errors, None), lambda i: errors[i])
    return *checked, stage


def bootstrap_efa(
    table,
    variables,
    transform=Transform.IDENTITY,
    settings=ExtractionSettings(),
    rotation="varimax",
    n_boot=1000,
    seed=0,
    kappa=3,
    indices=None,
):
    """Bootstrap the EFA pipeline by resampling rows with replacement.

    Each resample runs the full pipeline; its rotated loadings are aligned
    to the full-sample solution before summarizing. Resamples where the
    pipeline fails (constant column, not positive semi-definite, no
    convergence, singularity) are skipped and counted in ``n_failed`` and,
    by exception class, in ``failures``. ``n_clamped`` counts the resamples
    whose extraction clamped a communality; each also emits one
    :class:`HeywoodWarning`. Deterministic for a fixed seed. A table with
    no more rows than variables raises :class:`InsufficientDataError`
    before any resample runs, as :func:`bartlett` does in ``efa``.

    The table is transformed once, and the resamples run through the
    stacked kernels on stacks of at most ``_BOOTSTRAP_CELLS`` float64
    cells, which bounds the working memory: (n, p) tables
    ``_BOOTSTRAP_CELLS // (n p)`` at a time, p x p matrices
    ``_BOOTSTRAP_CELLS // (p p)`` at a time, and alignment scores the m!
    column permutations of k matrices ``_BOOTSTRAP_CELLS // k`` at a time.
    Every resample runs exactly the iterates it would run alone through
    :func:`efa_pipeline`, so the result equals that per-resample
    definition bit for bit.

    Parameters
    ----------
    seed : int
        Non-negative seed of the row generator.
    indices : array-like of int, shape (n_boot, n), optional
        Explicit resample row indices in [0, n), overriding the seeded
        generator. Intended for tests.
    """
    if n_boot < 1:
        raise ValidationError("n_boot must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    x = np.asarray(table, dtype=float)
    n = x.shape[0]
    if n <= len(variables):
        raise InsufficientDataError("need more observations than variables")
    if indices is None:
        indices = np.random.default_rng(seed).integers(0, n, (n_boot, n), dtype=np.int32)
    else:
        indices = np.asarray(indices)
        if indices.shape != (n_boot, n):
            raise ValidationError(
                f"indices must have shape ({n_boot}, {n}), got {indices.shape}"
            )
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValidationError(
                f"indices must be integers, got dtype {indices.dtype}"
            )
        if ((indices < 0) | (indices >= n)).any():
            raise ValidationError(f"indices must lie in [0, {n})")
    labels = tuple(variables)
    xt = np.column_stack(list(transform_columns(x, labels, transform)))
    reference = efa_pipeline(xt, labels, Transform.IDENTITY, settings, rotation, kappa)
    size = max(1, _BOOTSTRAP_CELLS // len(labels) ** 2)
    chunks = []
    for start in range(0, n_boot, size):
        *_, rotated, _, clamped, errors = _chain(
            *_resample_correlations(xt, indices[start:start + size], labels),
            settings, rotation, kappa,
        )
        chunks.append((_align(rotated, reference.rotated.values), errors, clamped))
    draws, errors, clamped = (np.concatenate(part) for part in zip(*chunks))
    n_clamped = int(clamped.sum())
    _warn_clamped(n_clamped)
    failed = errors[np.not_equal(errors, None)]
    failures = Counter(type(error).__name__ for error in failed)

    if not len(draws):
        raise ConvergenceError("every bootstrap resample failed")
    sd = draws.std(axis=0, ddof=1) if len(draws) > 1 else np.zeros_like(draws[0])
    lower, upper = np.percentile(draws, [2.5, 97.5], axis=0)
    return BootstrapResult(
        n_boot=n_boot, seed=seed, labels=labels, reference=reference.rotated,
        mean=draws.mean(axis=0), sd=sd, lower=lower, upper=upper,
        n_failed=len(failed), failures=dict(sorted(failures.items())),
        n_clamped=n_clamped,
    )
