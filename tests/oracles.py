"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from the definitions, without
reusing any package internals, so the tests compare two independent routes
to the same quantity.
"""

import csv
import io
import itertools
import math
from collections import Counter

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from bibfactor.errors import ParseError


def oracle_h(counts):
    """Largest h where h papers have >= h citations and the rest <= h."""
    n = len(counts)
    best = 0
    for h in range(0, n + 1):
        top_ok = all(c >= h for c in counts[:h])
        rest_ok = all(c <= h for c in counts[h:])
        if top_ok and rest_ok and h <= n:
            best = max(best, h)
    return best


def oracle_h2(counts):
    best = 0
    for k in range(0, len(counts) + 1):
        if all(c >= k * k for c in counts[:k]):
            best = max(best, k)
    return best


def oracle_g_padded(counts):
    total = sum(counts)
    best = 0
    for g in range(0, math.isqrt(total) + 2 if total else 1):
        core = counts[: min(g, len(counts))]
        if sum(core) >= g * g:
            best = max(best, g)
    return best


def oracle_g_capped(counts):
    best = 0
    for g in range(0, len(counts) + 1):
        if sum(counts[:g]) >= g * g:
            best = max(best, g)
    return best


def oracle_g_core_average(counts):
    """Equivalent padded formulation: g-core averages >= g citations."""
    total = sum(counts)
    best = 0
    for g in range(1, math.isqrt(total) + 2 if total else 1):
        padded = list(counts) + [0] * max(0, g - len(counts))
        if sum(padded[:g]) / g >= g:
            best = max(best, g)
    return best


def oracle_a(counts, h):
    return sum(counts[:h]) / h


def oracle_m(counts, h):
    core = sorted(counts[:h])
    mid = h // 2
    if h % 2:
        return float(core[mid])
    return (core[mid - 1] + core[mid]) / 2.0


def oracle_r(counts, h):
    return math.sqrt(sum(counts[:h]))


def oracle_hw(counts, h):
    r0 = 0
    for i in range(1, len(counts) + 1):
        if sum(counts[:i]) / h <= counts[i - 1]:
            r0 = i
        else:
            break
    return math.sqrt(sum(counts[:r0]))


def _bisect(fn, lo, hi, tol=1e-12):
    flo = fn(lo)
    if abs(flo) < tol:
        return lo
    for _ in range(200):
        mid = (lo + hi) / 2.0
        fmid = fn(mid)
        if abs(fmid) < tol or hi - lo < tol:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _count_line(counts, x):
    """Piecewise-linear interpolation of the rank-frequency function."""
    n = len(counts)
    k = int(math.floor(x))
    c_k = counts[k - 1] if 1 <= k <= n else 0
    c_k1 = counts[k] if k + 1 <= n else 0
    return c_k + (x - k) * (c_k1 - c_k)


def _cumulative_line(counts, x):
    """Linear interpolation of cumulative citations, constant beyond N."""
    n = len(counts)
    k = int(math.floor(x))
    s_k = sum(counts[: min(k, n)])
    slope = counts[k] if k + 1 <= n else 0
    return s_k + (x - k) * slope


def oracle_interpolated(counts, h, h2, g):
    h_i = _bisect(lambda x: _count_line(counts, x) - x, h, h + 1)
    h2_i = _bisect(lambda x: _count_line(counts, x) - x * x, h2, h2 + 1)
    g_i = _bisect(lambda x: _cumulative_line(counts, x) - x * x, g, g + 1)
    return h_i, h2_i, g_i


def random_record_counts(rng, max_papers=50, max_citations=200):
    n = int(rng.integers(0, max_papers + 1))
    counts = sorted(
        (int(c) for c in rng.integers(0, max_citations + 1, size=n)),
        reverse=True,
    )
    return counts


def oracle_ks_d(values, cdf, n_grid=200_001):
    """Brute-force sup over a fine grid plus the jump points."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    lo = xs[0] - 4.0 * (xs[-1] - xs[0] + 1.0)
    hi = xs[-1] + 4.0 * (xs[-1] - xs[0] + 1.0)
    grid = np.concatenate([np.linspace(lo, hi, n_grid), xs])
    grid.sort()
    f = cdf(grid)
    below = np.searchsorted(xs, grid, side="left") / n
    at = np.searchsorted(xs, grid, side="right") / n
    return float(max(np.abs(below - f).max(), np.abs(at - f).max()))


def oracle_student_cdf(x, df, n_panels=40_000):
    """Quadrature of the t density (Simpson on a wide bracket)."""

    def pdf(t):
        return math.exp(
            math.lgamma((df + 1) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - (df + 1) / 2.0 * math.log1p(t * t / df)
        )

    if x < 0:
        return 1.0 - oracle_student_cdf(-x, df, n_panels)
    # integrate the upper tail from x outward via the substitution t = x + u/(1-u)
    total = 0.0
    h = 1.0 / n_panels
    for i in range(n_panels):
        u0, u2 = i * h, (i + 1) * h
        u1 = (u0 + u2) / 2.0
        vals = []
        for u in (u0, u1, u2):
            if u >= 1.0:
                vals.append(0.0)
                continue
            t = x + u / (1.0 - u)
            jac = 1.0 / (1.0 - u) ** 2
            vals.append(pdf(t) * jac)
        total += (u2 - u0) / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2])
    return 1.0 - total


def oracle_student_ml(values):
    """Student (df, location, scale) by the scalar profile loop.

    One EM run per df on the 200-point log grid over [1, 1000], started at
    the median and the sample sd, stopping when location and scale both
    move by less than 1e-10 * (1 + |value|) or after 500 iterations.
    Candidates with scale below 0.25 * sd are skipped; the first maximum of
    the log-likelihood wins. Returns None when no candidate is admissible.
    """
    x = np.asarray(values, dtype=float)
    sd = float(x.std(ddof=1))
    best = None
    for df in np.exp(np.linspace(math.log(1.0), math.log(1000.0), 200)):
        mu = float(np.median(x))
        sigma = sd
        for _ in range(500):
            z = (x - mu) / sigma
            w = (df + 1.0) / (df + z * z)
            mu_new = float(np.sum(w * x) / np.sum(w))
            sigma_new = math.sqrt(float(np.sum(w * (x - mu_new) ** 2) / x.size))
            done = (
                abs(mu_new - mu) < 1e-10 * (1.0 + abs(mu))
                and abs(sigma_new - sigma) < 1e-10 * (1.0 + sigma)
            )
            mu, sigma = mu_new, sigma_new
            if done:
                break
        if sigma < 0.25 * sd:
            continue
        z = (x - mu) / sigma
        logpdf = (
            gammaln((df + 1.0) / 2.0)
            - gammaln(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - (df + 1.0) / 2.0 * np.log1p(z * z / df)
        )
        loglik = float(np.sum(logpdf)) - x.size * math.log(sigma)
        if best is None or loglik > best[0]:
            best = (loglik, float(df), mu, sigma)
    return None if best is None else best[1:]


def _oracle_csv_rows(reader):
    """(start line, row) per row; a row starts on the line after the last
    line the reader consumed for the row before it."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def oracle_parse_citations_long(stream):
    """Long-format citation records by the csv row loop.

    Returns ``[(label, counts)]`` in first-appearance order with counts
    sorted non-increasing, or raises ``ParseError`` with the physical line
    on which the first bad row starts; a row the csv reader cannot split
    raises it at the reader's line count.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = _oracle_csv_rows(csv.reader(stream))
    try:
        _, header = next(reader)
    except StopIteration:
        raise ParseError("empty input", line=1) from None
    if [h.strip().lower() for h in header] != ["scientist", "citations"]:
        raise ParseError("long format needs the header 'scientist,citations'", line=1)
    grouped = {}
    for line_no, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 cells, got {len(row)}", line=line_no)
        label = row[0].strip()
        if not label:
            raise ParseError("empty scientist label", line=line_no)
        text = row[1].strip()
        try:
            count = int(text)
        except ValueError:
            raise ParseError(
                f"citation count {text!r} is not an integer", line=line_no
            ) from None
        if count < 0:
            raise ParseError(f"negative citation count {count}", line=line_no)
        grouped.setdefault(label, []).append(count)
    if not grouped:
        raise ParseError("no data rows", line=2)
    return [(label, tuple(sorted(counts, reverse=True))) for label, counts in grouped.items()]


# --- per-resample bootstrap of the EFA pipeline -----------------------------
#
# The serial definition the stacked bootstrap must reproduce bit for bit:
# one resample at a time, each matrix on its own, with the per-matrix
# memory layouts, sums and scalar math of that definition.


class _OracleFailure(Exception):
    """A table the pipeline rejects; ``args[0]`` names the error class."""


def _oracle_sorted_eigh(m):
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def _oracle_eigen_inverse(values, vectors):
    w_max = float(values.max())
    if w_max <= 0 or values.min() <= 1e-12 * w_max:
        raise _OracleFailure("SingularMatrixError")
    return (vectors / values) @ vectors.T


def _oracle_canonicalize(values):
    ss = (values**2).sum(axis=0)
    values = values[:, np.argsort(-ss, kind="stable")]
    return values * np.where(values.sum(axis=0) >= 0.0, 1.0, -1.0)


def _oracle_correlation(x):
    if np.any(x.std(axis=0) == 0.0):
        raise _OracleFailure("ZeroVarianceError")
    v = np.corrcoef(x, rowvar=False)
    if float(np.abs(v - v.T).max()) > 1e-8:
        raise _OracleFailure("ValidationError")
    v = (v + v.T) / 2.0
    if float(np.abs(np.diag(v) - 1.0).max()) > 1e-8:
        raise _OracleFailure("ValidationError")
    if float(np.abs(v).max()) > 1.0 + 1e-8:
        raise _OracleFailure("ValidationError")
    v = np.clip(v, -1.0, 1.0)
    np.fill_diagonal(v, 1.0)
    values, vectors = _oracle_sorted_eigh(v)
    if values[-1] < -1e-8:
        raise _OracleFailure("ValidationError")
    return v, values, vectors


def _oracle_uls(v, values, vectors, m, tol, max_iter, state):
    """Principal axes from unit communalities; sets state["clamped"]."""
    communalities = np.ones(v.shape[0])
    reduced = np.array(v)
    for iteration in range(max_iter):
        if iteration:
            np.fill_diagonal(reduced, communalities)
            values, vectors = _oracle_sorted_eigh(reduced)
        top = np.sqrt(np.clip(values[:m], 0.0, None))
        loadings = vectors[:, :m] * top
        updated = (loadings**2).sum(axis=1)
        clipped = np.clip(updated, 0.0, 1.0)
        if np.any(updated > 1.0 + 1e-12):
            state["clamped"] = True
        change = float(np.abs(clipped - communalities).max())
        communalities = clipped
        if change < tol:
            break
    else:
        raise _OracleFailure("ConvergenceError")
    positive = updated > 0.0
    scale = np.ones(v.shape[0])
    scale[positive] = np.sqrt(communalities[positive] / updated[positive])
    return _oracle_canonicalize(loadings * scale[:, None])


def _oracle_varimax_criterion(values):
    squared = values**2
    return float(
        (squared**2).sum() - (squared.sum(axis=0) ** 2).sum() / values.shape[0]
    )


def _oracle_varimax(values):
    """Kaiser-normalized varimax, tol 1e-8, at most 1000 sweeps."""
    p, m = values.shape
    if m == 1 or p <= 1:
        return values
    work = np.array(values)
    row_norms = np.sqrt((work**2).sum(axis=1))
    row_norms[row_norms == 0.0] = 1.0
    work /= row_norms[:, None]
    criterion = _oracle_varimax_criterion(work)
    for _ in range(1000):
        for j, k in itertools.combinations(range(m), 2):
            x, y = work[:, j], work[:, k]
            u = x**2 - y**2
            v = 2.0 * x * y
            a = u.sum()
            b = v.sum()
            c = (u**2 - v**2).sum()
            d = 2.0 * (u * v).sum()
            angle = 0.25 * math.atan2(d - 2.0 * a * b / p, c - (a**2 - b**2) / p)
            if abs(angle) < 1e-14:
                continue
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            plane = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
            work[:, [j, k]] = work[:, [j, k]] @ plane
        updated = _oracle_varimax_criterion(work)
        if updated - criterion < 1e-8:
            break
        criterion = updated
    work *= row_norms[:, None]
    return _oracle_canonicalize(work)


def _oracle_promax(values, kappa):
    p, m = values.shape
    if m == 1:
        return values
    row_norms = np.sqrt((values**2).sum(axis=1))
    row_norms[row_norms == 0.0] = 1.0
    normalized = values / row_norms[:, None]
    target = np.sign(normalized) * np.abs(normalized) ** kappa
    gram_values, gram_vectors = _oracle_sorted_eigh(normalized.T @ normalized)
    if gram_values[-1] <= 1e-12 * gram_values[0]:
        raise _OracleFailure("SingularMatrixError")
    transform = (
        _oracle_eigen_inverse(gram_values, gram_vectors) @ normalized.T @ target
    )
    transform = transform * np.sqrt(np.diag(np.linalg.inv(transform.T @ transform)))
    np.linalg.inv(transform.T @ transform)  # phi: a singular one fails the table
    return _oracle_canonicalize((normalized @ transform) * row_norms[:, None])


def _oracle_congruence(x, y):
    denom = math.sqrt(float((x**2).sum()) * float((y**2).sum()))
    return 0.0 if denom == 0.0 else float(x @ y) / denom


def _oracle_align(values, reference):
    m = values.shape[1]
    best_perm, best_total = None, -math.inf
    for perm in itertools.permutations(range(m)):
        total = sum(
            abs(_oracle_congruence(values[:, perm[j]], reference[:, j]))
            for j in range(m)
        )
        if total > best_total:
            best_perm, best_total = perm, total
    aligned = values[:, best_perm].copy()
    for j in range(m):
        if _oracle_congruence(aligned[:, j], reference[:, j]) < 0.0:
            aligned[:, j] = -aligned[:, j]
    return aligned


_ORACLE_TRANSFORMS = {
    "raw": np.copy, "ln": np.log, "ln1p": np.log1p, "sqrt": np.sqrt,
}


def _oracle_fit(table, transform, rotation, kappa, m, tol, max_iter, state):
    f = _ORACLE_TRANSFORMS[transform]
    x = np.column_stack([f(table[:, j]) for j in range(table.shape[1])])
    v, values, vectors = _oracle_correlation(x)
    unrotated = _oracle_uls(v, values, vectors, m, tol, max_iter, state)
    rotated = unrotated if rotation == "none" else _oracle_varimax(unrotated)
    if rotation == "promax":
        rotated = _oracle_promax(rotated, kappa)
    return unrotated, rotated


def oracle_efa_loadings(table, transform="raw", rotation="varimax", kappa=3,
                        n_factors=2):
    """Unrotated and rotated loadings of one table, one matrix at a time."""
    return _oracle_fit(np.asarray(table, dtype=float), transform, rotation,
                       kappa, n_factors, 1e-3, 500, {})


def _oracle_pipeline(table, transform, rotation, kappa, m, tol, max_iter):
    """(rotated loadings or None, extraction clamped, failure class or None)."""
    state = {"clamped": False}
    try:
        _, loadings = _oracle_fit(
            table, transform, rotation, kappa, m, tol, max_iter, state
        )
    except _OracleFailure as exc:
        return None, state["clamped"], exc.args[0]
    except np.linalg.LinAlgError:
        return None, state["clamped"], "LinAlgError"
    return loadings, state["clamped"], None


def oracle_bootstrap_efa(table, transform="raw", rotation="varimax",
                         n_boot=1000, seed=0, kappa=3, n_factors=2,
                         tol=1e-3, max_iter=500, indices=None):
    """The row bootstrap of the EFA pipeline, one resample at a time.

    Each resample is transformed column by column, correlated, extracted
    (communalities from 1, stop below ``tol``), rotated and aligned to the
    full-sample solution on its own. Returns a dict of mean, sd, lower,
    upper (2.5/97.5 percentiles), n_failed, failures (class name -> count),
    n_clamped (resamples whose extraction clamped a communality) and
    warnings (clamped extractions including the full-sample one).
    """
    x = np.asarray(table, dtype=float)
    n = x.shape[0]
    args = (transform, rotation, kappa, n_factors, tol, max_iter)
    reference, reference_clamped, _ = _oracle_pipeline(x, *args)
    if indices is None:
        indices = np.random.default_rng(seed).integers(0, n, size=(n_boot, n))
    draws, failures, n_clamped = [], Counter(), 0
    for rows in indices:
        loadings, clamped, failure = _oracle_pipeline(x[rows], *args)
        n_clamped += clamped
        if failure is not None:
            failures[failure] += 1
        else:
            draws.append(_oracle_align(loadings, reference))
    stack = np.stack(draws)
    sd = stack.std(axis=0, ddof=1) if len(stack) > 1 else np.zeros_like(stack[0])
    lower, upper = np.percentile(stack, [2.5, 97.5], axis=0)
    return {
        "mean": stack.mean(axis=0), "sd": sd, "lower": lower, "upper": upper,
        "n_failed": sum(failures.values()), "failures": dict(failures),
        "n_clamped": n_clamped, "warnings": n_clamped + reference_clamped,
    }


def oracle_cfa_fit(s, loadings_free, phi_free):
    """ML confirmatory fit of a correlation matrix by L-BFGS-B.

    Minimizes F = ln|Sigma| + tr(S Sigma^-1) - ln|S| - p over the free
    loadings, the free factor correlations (|phi| <= 0.999) and the
    uniquenesses (>= 1e-4), from loadings 0.7, correlations 0.3 and
    uniquenesses 0.5, with dF/dtheta_a = tr(G dSigma/dtheta_a),
    G = Sigma^-1 - Sigma^-1 S Sigma^-1, and dSigma/dtheta_a built one
    parameter at a time. Returns a dict of discrepancy, loadings, phi,
    uniquenesses and iterations.
    """
    s = np.asarray(s, dtype=float)
    p, m = loadings_free.shape
    cells = [(i, j) for i in range(p) for j in range(m) if loadings_free[i, j]]
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m) if phi_free[k, l]]
    log_det_s = np.linalg.slogdet(s)[1]

    def unpack(theta):
        loadings = np.zeros((p, m))
        for (i, j), value in zip(cells, theta):
            loadings[i, j] = value
        phi = np.eye(m)
        for (k, l), value in zip(pairs, theta[len(cells):]):
            phi[k, l] = phi[l, k] = value
        return loadings, phi, theta[len(cells) + len(pairs):]

    def objective(theta):
        loadings, phi, uniquenesses = unpack(theta)
        sigma = loadings @ phi @ loadings.T + np.diag(uniquenesses)
        sign, log_det = np.linalg.slogdet(sigma)
        if sign <= 0:
            return 1e12, np.zeros(theta.size)
        inv = np.linalg.inv(sigma)
        g = inv - inv @ s @ inv
        derivatives = []
        for i, j in cells:
            d = np.zeros((p, p))
            d[i, :] = (loadings @ phi)[:, j]
            derivatives.append(d + d.T)
        for k, l in pairs:
            d = np.outer(loadings[:, k], loadings[:, l])
            derivatives.append(d + d.T)
        for i in range(p):
            d = np.zeros((p, p))
            d[i, i] = 1.0
            derivatives.append(d)
        value = float(log_det + (s * inv).sum() - log_det_s - p)
        return value, np.einsum("ij,aij->a", g, np.array(derivatives))

    start = np.array([0.7] * len(cells) + [0.3] * len(pairs) + [0.5] * p)
    bounds = (
        [(None, None)] * len(cells) + [(-0.999, 0.999)] * len(pairs)
        + [(1e-4, None)] * p
    )
    result = minimize(objective, start, jac=True, method="L-BFGS-B", bounds=bounds,
                      options={"maxiter": 2000, "ftol": 1e-11, "gtol": 1e-8})
    loadings, phi, uniquenesses = unpack(result.x)
    return {
        "discrepancy": float(result.fun), "loadings": loadings, "phi": phi,
        "uniquenesses": uniquenesses, "iterations": int(result.nit),
    }
