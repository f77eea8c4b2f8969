"""Hirsch-type indices computed from a scientist's per-paper citation counts.

All functions operate on a :class:`CitationRecord`, i.e. citation counts
sorted in non-increasing order (the rank-frequency function). They are pure
and never mutate their input.
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyCoreError, ValidationError


class GConvention(Enum):
    """Treatment of ranks beyond the number of published papers.

    ``PADDED`` appends fictitious papers with zero citations, so the g-index
    may exceed the paper count N. ``CAPPED`` limits g to at most N. The two
    agree whenever g <= N.
    """

    PADDED = "padded"
    CAPPED = "capped"


@dataclass(frozen=True)
class CitationRecord:
    """Citation counts of one scientist, sorted non-increasing."""

    label: str
    counts: tuple[int, ...]

    @property
    def n_papers(self):
        return len(self.counts)


@dataclass(frozen=True)
class IndicatorSet:
    """The full bundle of per-scientist indicators.

    ``a``, ``m`` and ``hw`` require a non-empty h-core; when h = 0 they are
    reported as 0.0 and ``empty_core`` is set instead of raising, so tables
    over mixed corpora still render.
    """

    h: int
    h2: int
    g: int
    a: float
    m: float
    r: float
    hw: float
    n: int
    s: int
    c: float
    empty_core: bool = False

    def as_dict(self):
        """Map to the canonical indicator column names."""
        return {
            "h": self.h, "m": self.m, "g": self.g, "h2": self.h2,
            "A": self.a, "R": self.r, "hw": self.hw,
            "N": self.n, "S": self.s, "C": self.c,
        }


@dataclass(frozen=True)
class InterpolatedIndicatorSet:
    """Non-integer index variants from piecewise-linear interpolation.

    Each value lies in [x, x + 1) where x is the corresponding integer index.
    """

    h_interp: float
    h2_interp: float
    g_interp: float


def normalize_record(label, raw_counts):
    """Validate raw citation counts and return a sorted CitationRecord.

    Counts must be integers >= 0; order and multiplicity of the input do not
    matter. Raises :class:`ValidationError` naming the offending position.
    """
    counts = []
    for pos, value in enumerate(raw_counts):
        try:
            count = operator.index(value)
        except TypeError:
            raise ValidationError(
                f"record {label!r}: non-integer citation count {value!r} "
                f"at position {pos}"
            ) from None
        if count < 0:
            raise ValidationError(
                f"record {label!r}: negative citation count {count} "
                f"at position {pos}"
            )
        counts.append(count)
    counts.sort(reverse=True)
    return CitationRecord(label=str(label), counts=tuple(counts))


def h_index(rec):
    """Largest h such that the h most cited papers have >= h citations each."""
    h = 0
    for rank, count in enumerate(rec.counts, start=1):
        if count >= rank:
            h = rank
        else:
            break
    return h


def h2_index(rec):
    """Largest k such that the k most cited papers have >= k**2 citations each."""
    k = 0
    for rank, count in enumerate(rec.counts, start=1):
        if count >= rank * rank:
            k = rank
        else:
            break
    return k


def g_index(rec, convention=GConvention.PADDED):
    """Largest g whose g most cited papers together received >= g**2 citations.

    Under ``PADDED`` the record is conceptually extended with zero-cited
    papers, so only the total citation count limits g; under ``CAPPED``
    additionally g <= N.
    """
    total = sum(rec.counts)
    bound = math.isqrt(total) if total else 0
    if convention is GConvention.CAPPED:
        bound = min(bound, rec.n_papers)
    g = 0
    cumulative = 0
    for rank in range(1, bound + 1):
        if rank <= rec.n_papers:
            cumulative += rec.counts[rank - 1]
        if cumulative >= rank * rank:
            g = rank
        else:
            break
    return g


def _h_core(rec):
    h = h_index(rec)
    if h == 0:
        raise EmptyCoreError(f"record {rec.label!r}: h = 0, the h-core is empty")
    return rec.counts[:h]


# Formulas on a known h-core: indicator_set finds h once and calls them directly.
def _core_mean(core):
    return sum(core) / len(core)


def _core_median(core):
    return float(statistics.median(core))


def _core_root(core):
    return math.sqrt(sum(core))


def _hw_from(counts, h):
    cumulative = 0
    core_sum = 0
    for count in counts:
        cumulative += count
        if cumulative / h <= count:
            core_sum = cumulative
        else:
            break
    return math.sqrt(core_sum)


def a_index(rec):
    """Mean number of citations of the papers in the h-core."""
    return _core_mean(_h_core(rec))


def m_index(rec):
    """Median number of citations of the papers in the h-core."""
    return _core_median(_h_core(rec))


def r_index(rec):
    """Square root of the total citations of the h-core; 0 when h = 0."""
    return _core_root(rec.counts[:h_index(rec)])


def hw_index(rec):
    """Citation-weighted variant of the h-index.

    With h = h_index and r_w(i) = (c_1 + ... + c_i) / h, the core extends to
    the largest rank r0 with r_w(r0) <= c_r0, and the index is the square
    root of the citations collected by those r0 papers. r_w is increasing
    while the counts are non-increasing, so the first failure is final.
    """
    return _hw_from(rec.counts, len(_h_core(rec)))


def totals(rec):
    """Return (N, S, C): paper count, total citations, citations per paper."""
    n = rec.n_papers
    s = sum(rec.counts)
    if n == 0:
        raise ValidationError(
            f"record {rec.label!r}: C = S/N is undefined for an empty record"
        )
    return n, s, s / n


def indicator_set(rec, convention=GConvention.PADDED):
    """Compute the full :class:`IndicatorSet` for one record.

    Empty records and records with h = 0 yield zeros plus the
    ``empty_core`` flag instead of an error.
    """
    h = h_index(rec)
    n = rec.n_papers
    s = sum(rec.counts)
    if h == 0:
        return IndicatorSet(
            h=0, h2=0, g=g_index(rec, convention), a=0.0, m=0.0, r=0.0,
            hw=0.0, n=n, s=s, c=(s / n if n else 0.0), empty_core=True,
        )
    core = rec.counts[:h]
    return IndicatorSet(
        h=h,
        h2=h2_index(rec),
        g=g_index(rec, convention),
        a=_core_mean(core),
        m=_core_median(core),
        r=_core_root(core),
        hw=_hw_from(rec.counts, h),
        n=n,
        s=s,
        c=s / n,
        empty_core=False,
    )


def _count_at(rec, rank):
    # rank beyond N reads as a fictitious zero-cited paper
    return rec.counts[rank - 1] if rank <= rec.n_papers else 0


def interpolated_set(rec):
    """Interpolated index variants from the piecewise-linear rank-frequency
    function.

    The interpolated h solves the segment from (h, c_h) to (h+1, c_{h+1})
    against y = x; the h(2) analogue solves the same segment family against
    y = x**2; the g analogue solves the linearly interpolated cumulative
    citation count, constant beyond rank N, against y = x**2. Each solution
    is the unique root inside [x, x + 1).
    """
    h = h_index(rec)
    if h == 0:
        raise EmptyCoreError(f"record {rec.label!r}: h = 0, nothing to interpolate")

    ch, ch1 = _count_at(rec, h), _count_at(rec, h + 1)
    h_interp = (ch + h * ch - h * ch1) / (1 + ch - ch1)

    k = h2_index(rec)
    ck, ck1 = _count_at(rec, k), _count_at(rec, k + 1)
    slope = ck1 - ck
    h2_interp = (slope + math.sqrt(slope * slope + 4 * (ck - k * slope))) / 2

    g = g_index(rec, GConvention.PADDED)
    s_g = sum(rec.counts[: min(g, rec.n_papers)])
    g_slope = _count_at(rec, g + 1)
    g_interp = (g_slope + math.sqrt(g_slope * g_slope + 4 * (s_g - g * g_slope))) / 2

    return InterpolatedIndicatorSet(
        h_interp=h_interp, h2_interp=h2_interp, g_interp=g_interp
    )
