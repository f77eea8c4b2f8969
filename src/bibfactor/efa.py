"""Correlation-based exploratory factor analysis.

Implements unweighted least-squares extraction (iterated principal-axis
factoring), varimax and promax rotations, sampling-adequacy statistics,
loading-based categorization, loading alignment, and a row-resampling
bootstrap of the whole pipeline.

The extraction defaults (communalities initialized at 1, iteration stopped
when the largest communality change drops below 1e-3) mirror the convergence
behaviour of the statistical package used to produce the published reference
tables for the embedded dataset; see ``ExtractionSettings``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

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
)
from .stats import Transform, apply_transform

_EIGEN_SYMMETRY_TOL = 1e-10
_RELATIVE_RANK_TOL = 1e-12


def symmetric_eigen(matrix):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    matrix : array-like, shape (p, p)
        Must be symmetric within 1e-10 (absolute, relative to the largest
        entry). The symmetrized average is decomposed.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues in descending order; eigenvectors as orthonormal
        columns in matching order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    asym = float(np.abs(m - m.T).max()) if m.size else 0.0
    if asym > _EIGEN_SYMMETRY_TOL * scale:
        raise AsymmetricMatrixError(
            f"matrix is not symmetric (max |M - M'| = {asym:.3e})"
        )
    return _sorted_eigh(m)


def _sorted_eigh(m):
    # For matrices this module built itself: symmetric by construction, so
    # only the rounding-level asymmetry is averaged away, without a check.
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def _eigen_inverse(values, vectors):
    w_max = float(values.max())
    if w_max <= 0 or values.min() <= _RELATIVE_RANK_TOL * w_max:
        raise SingularMatrixError("matrix is numerically singular")
    return (vectors / values) @ vectors.T


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
        v = np.asarray(self.values, dtype=float)
        p = len(self.labels)
        if v.shape != (p, p):
            raise ValidationError(
                f"correlation matrix shape {v.shape} does not match "
                f"{p} labels"
            )
        if p and float(np.abs(v - v.T).max()) > 1e-8:
            raise ValidationError("correlation matrix is not symmetric")
        v = (v + v.T) / 2.0
        if p and float(np.abs(np.diag(v) - 1.0).max()) > 1e-8:
            raise ValidationError("correlation matrix diagonal must be 1")
        if p and float(np.abs(v).max()) > 1.0 + 1e-8:
            raise ValidationError("correlation entries must lie in [-1, 1]")
        v = np.clip(v, -1.0, 1.0)
        np.fill_diagonal(v, 1.0)
        eigenvalues, eigenvectors = _sorted_eigh(v)
        if p and eigenvalues[-1] < -1e-8:
            raise ValidationError(
                "matrix is not positive semi-definite "
                f"(smallest eigenvalue {eigenvalues[-1]:.3e})"
            )
        for array in (v, eigenvalues, eigenvectors):
            array.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def p(self):
        return len(self.labels)


def correlation_matrix(table, labels):
    """Pearson correlations of the columns of ``table``.

    Parameters
    ----------
    table : array-like, shape (n, p)
        Observations in rows; needs n >= 3.
    labels : sequence of str
        One name per column; used in error messages and results.
    """
    x = np.asarray(table, dtype=float)
    if x.ndim != 2:
        raise ValidationError("table must be two-dimensional")
    labels = tuple(labels)
    if x.shape[1] != len(labels):
        raise ValidationError("number of labels must match number of columns")
    if x.shape[0] < 3:
        raise InsufficientDataError("need at least 3 rows to correlate")
    sd = x.std(axis=0)
    for j, s in enumerate(sd):
        if s == 0.0:
            raise ZeroVarianceError(f"column {labels[j]!r} is constant")
    r = np.corrcoef(x, rowvar=False)
    return CorrelationMatrix(labels=labels, values=r)


def smc(corr):
    """Squared multiple correlations, 1 - 1/diag(R^-1).

    Falls back to the maximum absolute off-diagonal correlation per row when
    R is numerically singular.
    """
    try:
        inv = _eigen_inverse(corr.eigenvalues, corr.eigenvectors)
    except SingularMatrixError:
        off = np.abs(corr.values - np.eye(corr.p))
        return off.max(axis=1)
    return 1.0 - 1.0 / np.diag(inv)


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
    ss = (values**2).sum(axis=0)
    order = np.argsort(-ss, kind="stable")
    values = values[:, order]
    signs = np.where(values.sum(axis=0) >= 0.0, 1.0, -1.0)
    return values * signs, order, signs


@dataclass(frozen=True)
class LoadingMatrix:
    """A p x m loading matrix tagged with its rotation state.

    Columns are ordered by descending sum of squared loadings and signed so
    every column sum is non-negative.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    rotation: str = "none"

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(self.labels):
            raise ValidationError("loading matrix shape does not match labels")
        if self.rotation not in ("none", "varimax", "promax"):
            raise ValidationError(f"unknown rotation tag {self.rotation!r}")
        v.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
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
    p = corr.p
    m = settings.n_factors
    if not m < p:
        raise ValidationError(f"need n_factors < p (got m={m}, p={p})")
    ones = settings.initial == "ones"
    communalities = np.ones(p) if ones else np.clip(smc(corr), 0.0, 1.0)
    reduced = np.array(corr.values)
    warned = False
    for iteration in range(settings.max_iter):
        if iteration == 0 and ones:
            # unit communalities leave R itself as the reduced matrix
            values, vectors = corr.eigenvalues, corr.eigenvectors
        else:
            np.fill_diagonal(reduced, communalities)
            values, vectors = _sorted_eigh(reduced)
        top = np.sqrt(np.clip(values[:m], 0.0, None))
        loadings = vectors[:, :m] * top
        updated = (loadings**2).sum(axis=1)
        clipped = np.clip(updated, 0.0, 1.0)
        if not warned and np.any(updated > 1.0 + 1e-12):
            warnings.warn(
                "communality exceeded 1 during extraction and was clamped",
                HeywoodWarning,
                stacklevel=2,
            )
            warned = True
        change = float(np.abs(clipped - communalities).max())
        communalities = clipped
        if change < settings.tol:
            break
    else:
        raise ConvergenceError(
            f"extraction did not converge in {settings.max_iter} iterations "
            f"(last change {change:.3e})",
            last_iterate=(loadings, communalities),
        )
    # keep clamped rows consistent: row sums of squares == communalities
    positive = updated > 0.0
    scale = np.ones(p)
    scale[positive] = np.sqrt(communalities[positive] / updated[positive])
    loadings = loadings * scale[:, None]
    canonical, _, _ = _canonicalize(loadings)
    matrix = LoadingMatrix(labels=corr.labels, values=canonical, rotation="none")
    return matrix, np.minimum(matrix.communalities(), 1.0)


def _varimax_criterion(values):
    p = values.shape[0]
    squared = values**2
    return float((squared**2).sum() - (squared.sum(axis=0) ** 2).sum() / p)


def varimax(loadings, kaiser_normalize=True, tol=1e-8, max_sweeps=1000):
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
    p, m = loadings.p, loadings.m
    if m == 1 or p <= 1:
        tagged = LoadingMatrix(loadings.labels, loadings.values, rotation="varimax")
        return tagged, np.eye(m)

    work = np.array(loadings.values)
    row_norms = np.sqrt((work**2).sum(axis=1))
    row_norms[row_norms == 0.0] = 1.0
    if kaiser_normalize:
        work /= row_norms[:, None]

    rotation = np.eye(m)
    criterion = _varimax_criterion(work)
    for _ in range(max_sweeps):
        for j, k in itertools.combinations(range(m), 2):
            x, y = work[:, j], work[:, k]
            u = x**2 - y**2
            v = 2.0 * x * y
            a = u.sum()
            b = v.sum()
            c = (u**2 - v**2).sum()
            d = 2.0 * (u * v).sum()
            numerator = d - 2.0 * a * b / p
            denominator = c - (a**2 - b**2) / p
            angle = 0.25 * math.atan2(numerator, denominator)
            if abs(angle) < 1e-14:
                continue
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            plane = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
            work[:, [j, k]] = work[:, [j, k]] @ plane
            rotation[:, [j, k]] = rotation[:, [j, k]] @ plane
        updated = _varimax_criterion(work)
        if updated - criterion < tol:
            break
        criterion = updated

    if kaiser_normalize:
        work *= row_norms[:, None]
    canonical, order, signs = _canonicalize(work)
    rotation = rotation[:, order] * signs
    tagged = LoadingMatrix(loadings.labels, canonical, rotation="varimax")
    return tagged, rotation


@dataclass(frozen=True)
class PromaxSolution:
    """Oblique solution: pattern loadings, structure, factor correlations."""

    pattern: LoadingMatrix
    structure: np.ndarray
    phi: np.ndarray


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
    if kappa < 1:
        raise ValidationError("kappa must be a positive exponent")
    v = np.array(varimax_loadings.values)
    p, m = v.shape
    if m == 1:
        pattern = LoadingMatrix(varimax_loadings.labels, v, rotation="promax")
        return PromaxSolution(pattern=pattern, structure=v.copy(), phi=np.eye(1))

    row_norms = np.sqrt((v**2).sum(axis=1))
    row_norms[row_norms == 0.0] = 1.0
    normalized = v / row_norms[:, None]

    target = np.sign(normalized) * np.abs(normalized) ** kappa
    gram = normalized.T @ normalized
    gram_values, gram_vectors = _sorted_eigh(gram)
    if gram_values[-1] <= _RELATIVE_RANK_TOL * gram_values[0]:
        raise SingularMatrixError("varimax loadings are rank deficient")
    transform = _eigen_inverse(gram_values, gram_vectors) @ normalized.T @ target

    scale = np.sqrt(np.diag(np.linalg.inv(transform.T @ transform)))
    transform = transform * scale

    pattern_values = (normalized @ transform) * row_norms[:, None]
    phi = np.linalg.inv(transform.T @ transform)

    pattern_values, order, signs = _canonicalize(pattern_values)
    phi = phi[np.ix_(order, order)] * np.outer(signs, signs)
    phi = (phi + phi.T) / 2.0
    np.fill_diagonal(phi, 1.0)

    pattern = LoadingMatrix(
        varimax_loadings.labels, pattern_values, rotation="promax"
    )
    return PromaxSolution(
        pattern=pattern, structure=pattern.values @ phi, phi=phi
    )


@dataclass(frozen=True)
class AdequacyResult:
    kmo: float
    bartlett_chi2: float
    bartlett_df: int
    bartlett_p: float


def kmo(corr):
    """Kaiser-Meyer-Olkin measure of sampling adequacy.

    Compares the squared observed correlations with the squared anti-image
    partial correlations derived from R^-1.
    """
    inverse = _eigen_inverse(corr.eigenvalues, corr.eigenvectors)
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
    if corr.eigenvalues[-1] <= 0.0:
        raise SingularMatrixError("determinant of R is not positive")
    log_det = float(np.log(corr.eigenvalues).sum())
    chi2 = -(n_obs - 1 - (2 * p + 5) / 6.0) * log_det
    df = p * (p - 1) // 2
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


def efa_pipeline(
    table,
    variables,
    transform=Transform.IDENTITY,
    settings=ExtractionSettings(),
    rotation="varimax",
    kappa=3,
):
    """Transform columns, correlate, extract and rotate in one call.

    Parameters
    ----------
    table : array-like, shape (n, p)
        Raw data; column j holds the variable named ``variables[j]``.
    variables : sequence of str
        Column labels.
    transform : Transform
        Applied to every column before correlating.
    settings : ExtractionSettings
    rotation : {"none", "varimax", "promax"}
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
    if rotation not in ("none", "varimax", "promax"):
        raise ValidationError(f"unknown rotation {rotation!r}")
    x = np.asarray(table, dtype=float)
    columns = [apply_transform(x[:, j], transform) for j in range(x.shape[1])]
    corr = correlation_matrix(np.column_stack(columns), variables)
    unrotated, communalities = uls_extract(corr, settings)

    structure = None
    phi = None
    if rotation == "none":
        rotated = unrotated
        ss = rotated.ss_loadings()
    elif rotation == "varimax":
        rotated, _ = varimax(unrotated)
        ss = rotated.ss_loadings()
    else:
        rotated_varimax, _ = varimax(unrotated)
        solution = promax(rotated_varimax, kappa=kappa)
        rotated = solution.pattern
        structure = solution.structure
        phi = solution.phi
        ss = (structure**2).sum(axis=0)

    return EFAResult(
        correlation=corr,
        unrotated=unrotated,
        rotated=rotated,
        communalities=communalities,
        ss_loadings=ss,
        variance_explained=ss / corr.p,
        structure=structure,
        phi=phi,
    )


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


def categorize(loadings, threshold=0.6):
    """Assign each variable to every factor where |loading| > threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")
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


def _congruence(x, y):
    denom = math.sqrt(float((x**2).sum()) * float((y**2).sum()))
    if denom == 0.0:
        return 0.0
    return float(x @ y) / denom


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
    m = loadings.m
    best_perm = None
    best_total = -math.inf
    for perm in itertools.permutations(range(m)):
        total = sum(
            abs(_congruence(loadings.values[:, perm[j]], reference.values[:, j]))
            for j in range(m)
        )
        if total > best_total:
            best_total = total
            best_perm = perm
    aligned = loadings.values[:, best_perm].copy()
    for j in range(m):
        if _congruence(aligned[:, j], reference.values[:, j]) < 0.0:
            aligned[:, j] = -aligned[:, j]
    return LoadingMatrix(loadings.labels, aligned, rotation=loadings.rotation)


@dataclass(frozen=True)
class BootstrapResult:
    """Per-entry summaries of the aligned rotated loadings over resamples."""

    n_boot: int
    seed: int
    labels: tuple[str, ...]
    reference: LoadingMatrix
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_failed: int


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
    pipeline fails (constant column, no convergence, singularity) are
    counted in ``n_failed`` and skipped. Deterministic for a fixed seed.

    Parameters
    ----------
    indices : array-like of shape (n_boot, n), optional
        Explicit resample row indices, overriding the seeded generator.
        Intended for tests.
    """
    if n_boot < 1:
        raise ValidationError("n_boot must be >= 1")
    x = np.asarray(table, dtype=float)
    n = x.shape[0]
    reference = efa_pipeline(x, variables, transform, settings, rotation, kappa)

    if indices is None:
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, n, size=(n_boot, n))
    else:
        indices = np.asarray(indices, dtype=int)
        if indices.shape != (n_boot, n):
            raise ValidationError(
                f"indices must have shape ({n_boot}, {n}), got {indices.shape}"
            )

    draws = []
    n_failed = 0
    for b in range(n_boot):
        resample = x[indices[b]]
        try:
            result = efa_pipeline(
                resample, variables, transform, settings, rotation, kappa
            )
        except (BibfactorError, np.linalg.LinAlgError):
            n_failed += 1
            continue
        aligned = align_loadings(result.rotated, reference.rotated)
        draws.append(aligned.values)

    if not draws:
        raise ConvergenceError("every bootstrap resample failed")
    stack = np.stack(draws)
    sd = (
        stack.std(axis=0, ddof=1)
        if stack.shape[0] > 1
        else np.zeros_like(stack[0])
    )
    lower, upper = np.percentile(stack, [2.5, 97.5], axis=0)
    return BootstrapResult(
        n_boot=n_boot,
        seed=seed,
        labels=tuple(variables),
        reference=reference.rotated,
        mean=stack.mean(axis=0),
        sd=sd,
        lower=lower,
        upper=upper,
        n_failed=n_failed,
    )
