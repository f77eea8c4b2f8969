"""Hirsch-type indices computed from a scientist's per-paper citation counts.

All functions operate on a :class:`CitationRecord`, i.e. citation counts
sorted in non-increasing order (the rank-frequency function). They are pure
and never mutate their input. One engine, :func:`indicator_rows`, computes
every index with whole-array operations over the counts of many records at
once; the single-record functions run it on one record.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import EmptyCoreError, ValidationError

INDICATOR_COLUMNS = ("h", "m", "g", "h2", "A", "R", "hw", "N", "S", "C")

# Indices are exact up to this many citations per record: every partial
# sum, int-to-float conversion and quotient then equals its Python-int value.
MAX_TOTAL = 2**53

# Records are taken in chunks of about this many papers.
_CHUNK_PAPERS = 1 << 16


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
    """Citation counts of one scientist: non-negative, sorted non-increasing.

    :func:`normalize_record` builds one from counts in any order; the index
    functions reject any other record with ``ValidationError``.
    """

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


def _too_many_citations(label):
    return ValidationError(
        f"record {label!r}: more than 2**53 citations in total; "
        f"indices are exact only up to 2**53"
    )


def record_arrays(records):
    """The counts of CitationRecords as one int64 array, and record bounds.

    Record i is ``counts[bounds[i]:bounds[i + 1]]``. A count beyond int64,
    a negative count or counts that are not sorted non-increasing raise
    ``ValidationError`` naming the record, and a count that is not an
    integer raises ``TypeError``.
    """
    bounds = np.zeros(len(records) + 1, np.int64)
    np.cumsum([len(rec.counts) for rec in records], out=bounds[1:])
    try:
        counts = np.fromiter(
            map(operator.index, chain.from_iterable(rec.counts for rec in records)),
            np.int64, bounds[-1],
        )
    except OverflowError:
        label = next(rec.label for rec in records
                     if max(map(abs, rec.counts), default=0) > MAX_TOTAL)
        raise _too_many_citations(label) from None
    # the first count of each record is compared with none before it
    starts = bounds[:-1][np.diff(bounds) > 0]
    bad = counts < 0
    bad[1:] |= counts[1:] > counts[:-1]
    bad[starts] = counts[starts] < 0
    if bad.any():
        label = records[int(np.searchsorted(bounds, bad.argmax(), "right")) - 1].label
        raise ValidationError(
            f"record {label!r}: citation counts must be non-negative and sorted "
            f"non-increasing; normalize_record builds such a record"
        )
    return counts, bounds


def indicator_rows(labels, counts, bounds, convention=GConvention.PADDED):
    """Indicator rows of many records, in ``INDICATOR_COLUMNS`` order.

    ``counts`` holds each record's citation counts, sorted non-increasing,
    record after record; record i, labelled ``labels[i]``, is
    ``counts[bounds[i]:bounds[i + 1]]``. Records are taken in chunks of
    about ``_CHUNK_PAPERS`` papers, which bounds the temporaries.

    Raises ``ValidationError`` naming a record with no papers (its C = S/N
    is undefined) or with more than ``MAX_TOTAL`` citations.
    """
    rows = np.empty((len(labels), len(INDICATOR_COLUMNS)))
    first = 0
    while first < len(labels):
        stop = int(np.searchsorted(bounds, bounds[first] + _CHUNK_PAPERS, "right")) - 1
        stop = max(stop, first + 1)
        rows[first:stop] = _chunk_rows(
            labels[first:stop],
            counts[bounds[first]:bounds[stop]],
            bounds[first:stop + 1] - bounds[first],
            convention,
        )
        first = stop
    return rows


def _chunk_rows(labels, counts, bounds, convention):
    starts, sizes = bounds[:-1], np.diff(bounds)
    if not sizes.all():
        label = labels[int(np.argmin(sizes))]
        raise ValidationError(f"record {label!r} has no papers; C = S/N is undefined")
    rank = np.arange(1, counts.size + 1) - np.repeat(starts, sizes)
    # running sum within each record; the int64 sums wrap silently, but the
    # first partial sum of a record past MAX_TOTAL is exact when no count
    # exceeds MAX_TOTAL, so the bound check below cannot be fooled
    cumulative = np.cumsum(counts)
    cumulative -= np.repeat(cumulative[starts] - counts[starts], sizes)
    inexact = np.add.reduceat((counts > MAX_TOTAL) | (cumulative > MAX_TOTAL), starts)
    if inexact.any():
        raise _too_many_citations(labels[int(np.argmax(inexact))])

    # each condition holds on a prefix of ranks, so its count is the index
    def prefix(flags):
        return np.add.reduceat(flags, starts)

    square = rank * rank
    h = prefix(counts >= rank)
    h2 = prefix(counts >= square)
    g = prefix(cumulative >= square)
    total = cumulative[bounds[1:] - 1]
    if convention is GConvention.PADDED:
        # g held at every paper; zero-cited papers carry it on to isqrt(S)
        root = np.sqrt(total).astype(np.int64)
        root -= root * root > total
        root += (root + 1) * (root + 1) <= total
        g = np.where(g == sizes, root, g)
    # h = 0 only when every count is 0, so a core of one paper then gives 0.0
    core = np.maximum(h, 1)
    core_sum = cumulative[starts + core - 1]
    middle = counts[starts + (core - 1) // 2] + counts[starts + core // 2]
    # hw: r_w(r) = S_r / h grows while the counts fall, so the first failure is final
    weighted = prefix(cumulative / np.repeat(core, sizes) <= counts)
    hw_sum = cumulative[starts + weighted - 1]
    return np.column_stack([
        h, middle / 2, g, h2, core_sum / core, np.sqrt(core_sum),
        np.sqrt(hw_sum), sizes, total, total / sizes,
    ])


def indicator_set(rec, convention=GConvention.PADDED):
    """Compute the full :class:`IndicatorSet` for one record.

    Empty records and records with h = 0 yield zeros plus the
    ``empty_core`` flag instead of an error.
    """
    if not rec.counts:
        return IndicatorSet(h=0, h2=0, g=0, a=0.0, m=0.0, r=0.0, hw=0.0,
                            n=0, s=0, c=0.0, empty_core=True)
    h, m, g, h2, a, r, hw, n, s, c = indicator_rows(
        [rec.label], *record_arrays([rec]), convention
    )[0].tolist()
    return IndicatorSet(
        h=int(h), h2=int(h2), g=int(g), a=a, m=m, r=r, hw=hw,
        n=int(n), s=int(s), c=c, empty_core=h == 0,
    )


def h_index(rec):
    """Largest h such that the h most cited papers have >= h citations each."""
    return indicator_set(rec).h


def h2_index(rec):
    """Largest k such that the k most cited papers have >= k**2 citations each."""
    return indicator_set(rec).h2


def g_index(rec, convention=GConvention.PADDED):
    """Largest g whose g most cited papers together received >= g**2 citations.

    Under ``PADDED`` the record is conceptually extended with zero-cited
    papers, so only the total citation count limits g; under ``CAPPED``
    additionally g <= N.
    """
    return indicator_set(rec, convention).g


def _with_core(rec):
    indicators = indicator_set(rec)
    if indicators.empty_core:
        raise EmptyCoreError(f"record {rec.label!r}: h = 0, the h-core is empty")
    return indicators


def a_index(rec):
    """Mean number of citations of the papers in the h-core."""
    return _with_core(rec).a


def m_index(rec):
    """Median number of citations of the papers in the h-core."""
    return _with_core(rec).m


def r_index(rec):
    """Square root of the total citations of the h-core; 0 when h = 0."""
    return indicator_set(rec).r


def hw_index(rec):
    """Citation-weighted variant of the h-index.

    With h = h_index and r_w(i) = (c_1 + ... + c_i) / h, the core extends to
    the largest rank r0 with r_w(r0) <= c_r0, and the index is the square
    root of the citations collected by those r0 papers. r_w is increasing
    while the counts are non-increasing, so the first failure is final.
    """
    return _with_core(rec).hw


def totals(rec):
    """Return (N, S, C): paper count, total citations, citations per paper."""
    if not rec.counts:
        raise ValidationError(
            f"record {rec.label!r}: C = S/N is undefined for an empty record"
        )
    indicators = indicator_set(rec)
    return indicators.n, indicators.s, indicators.c


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
    indicators = indicator_set(rec)
    h, k, g = indicators.h, indicators.h2, indicators.g
    if h == 0:
        raise EmptyCoreError(f"record {rec.label!r}: h = 0, nothing to interpolate")

    ch, ch1 = _count_at(rec, h), _count_at(rec, h + 1)
    h_interp = (ch + h * ch - h * ch1) / (1 + ch - ch1)

    ck, ck1 = _count_at(rec, k), _count_at(rec, k + 1)
    slope = ck1 - ck
    h2_interp = (slope + math.sqrt(slope * slope + 4 * (ck - k * slope))) / 2

    s_g = sum(rec.counts[: min(g, rec.n_papers)])
    g_slope = _count_at(rec, g + 1)
    g_interp = (g_slope + math.sqrt(g_slope * g_slope + 4 * (s_g - g * g_slope))) / 2

    return InterpolatedIndicatorSet(
        h_interp=h_interp, h2_interp=h2_interp, g_interp=g_interp
    )
