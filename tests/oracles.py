"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from the definitions, without
reusing any package internals, so the tests compare two independent routes
to the same quantity.
"""

import math

import numpy as np
from scipy.special import gammaln


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
    best = 0.0
    for x in grid:
        f = cdf(x)
        below = np.searchsorted(xs, x, side="left") / n
        at = np.searchsorted(xs, x, side="right") / n
        best = max(best, abs(below - f), abs(at - f))
    return best


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
