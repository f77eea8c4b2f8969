import math

import numpy as np
import pytest

from bibfactor import (
    CitationRecord,
    EmptyCoreError,
    GConvention,
    ValidationError,
    a_index,
    g_index,
    h2_index,
    h_index,
    hw_index,
    indicator_set,
    interpolated_set,
    m_index,
    normalize_record,
    r_index,
    table_from_records,
    totals,
)
from bibfactor import indices
from oracles import (
    oracle_a,
    oracle_g_capped,
    oracle_g_core_average,
    oracle_g_padded,
    oracle_h,
    oracle_h2,
    oracle_hw,
    oracle_interpolated,
    oracle_m,
    oracle_r,
    random_record_counts,
)


class TestNormalizeRecord:
    def test_sorts_descending(self):
        rec = normalize_record("x", [3, 10, 5])
        assert rec.counts == (10, 5, 3)

    def test_empty_record_allowed(self):
        assert normalize_record("x", []).counts == ()

    def test_negative_count_names_position(self):
        with pytest.raises(ValidationError, match="position 1"):
            normalize_record("x", [3, -1])

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            normalize_record("x", [3, 2.5])

    def test_preserves_multiplicities(self):
        rec = normalize_record("x", [4, 4, 1, 4])
        assert rec.counts == (4, 4, 4, 1)


class TestHIndex:
    def test_five_paper_example(self, five_paper_record):
        assert oracle_h(five_paper_record.counts) == 4
        assert h_index(five_paper_record) == 4

    def test_empty(self):
        assert h_index(normalize_record("x", [])) == 0

    def test_all_zero(self):
        assert h_index(normalize_record("x", [0, 0, 0])) == 0


class TestH2Index:
    def test_five_paper_example(self, five_paper_record):
        # c_2 = 8 >= 4 while c_3 = 5 < 9
        assert oracle_h2(five_paper_record.counts) == 2
        assert h2_index(five_paper_record) == 2

    def test_single_citation(self):
        assert h2_index(normalize_record("x", [1])) == 1

    def test_empty(self):
        assert h2_index(normalize_record("x", [])) == 0


class TestGIndex:
    def test_five_paper_example(self, five_paper_record):
        # cumulative sums 10, 18, 23, 27, 30: 25 <= 30 < 36
        assert oracle_g_padded(five_paper_record.counts) == 5
        assert g_index(five_paper_record) == 5

    def test_padding_beyond_paper_count(self):
        rec = normalize_record("x", [25])
        assert oracle_g_padded(rec.counts) == 5
        assert oracle_g_capped(rec.counts) == 1
        assert g_index(rec, GConvention.PADDED) == 5
        assert g_index(rec, GConvention.CAPPED) == 1

    def test_empty(self):
        assert g_index(normalize_record("x", [])) == 0

    def test_padded_tail_in_closed_form(self):
        # one paper with 10**14 citations pads up to isqrt(S) = 10**7 ranks
        rec = normalize_record("x", [10**14])
        assert g_index(rec) == 10**7
        assert g_index(rec, GConvention.CAPPED) == 1


class TestCoreIndices:
    def test_a_example(self, five_paper_record):
        assert oracle_a(five_paper_record.counts, 4) == pytest.approx(27 / 4)
        assert a_index(five_paper_record) == pytest.approx(6.75)

    def test_a_single_paper(self):
        assert a_index(normalize_record("x", [7])) == pytest.approx(7.0)

    def test_a_empty_core(self):
        for counts in ([0], [0, 0, 0], []):
            with pytest.raises(EmptyCoreError, match="'x': h = 0, the h-core is empty"):
                a_index(normalize_record("x", counts))

    def test_m_example(self, five_paper_record):
        assert oracle_m(five_paper_record.counts, 4) == pytest.approx(6.5)
        assert m_index(five_paper_record) == pytest.approx(6.5)

    def test_m_constant_core(self):
        assert m_index(normalize_record("x", [9, 9, 9])) == pytest.approx(9.0)

    def test_m_empty_core(self):
        for counts in ([], [0], [0, 0]):
            with pytest.raises(EmptyCoreError, match="'x': h = 0, the h-core is empty"):
                m_index(normalize_record("x", counts))

    def test_r_example(self, five_paper_record):
        assert oracle_r(five_paper_record.counts, 4) == pytest.approx(math.sqrt(27))
        assert r_index(five_paper_record) == pytest.approx(math.sqrt(27))

    def test_r_empty(self):
        assert r_index(normalize_record("x", [])) == 0.0

    def test_hw_example(self, five_paper_record):
        # r_w = 2.5, 4.5, 5.75 -> r0 = 2 -> sqrt(18)
        assert oracle_hw(five_paper_record.counts, 4) == pytest.approx(math.sqrt(18))
        assert hw_index(five_paper_record) == pytest.approx(math.sqrt(18))

    def test_hw_can_undercut_h(self):
        rec = normalize_record("x", [5, 5, 5, 4])
        # r_w(4) = 4.75 > 4 -> r0 = 3 -> sqrt(15), below h = 4
        assert oracle_hw(rec.counts, 4) == pytest.approx(math.sqrt(15))
        assert hw_index(rec) == pytest.approx(math.sqrt(15))
        assert hw_index(rec) < h_index(rec)

    def test_hw_single_paper(self):
        # h = 1, r_w(1) = 7 <= 7, so the weighted core is that one paper
        assert oracle_hw((7,), 1) == pytest.approx(math.sqrt(7))
        assert hw_index(normalize_record("x", [7])) == pytest.approx(math.sqrt(7))

    def test_hw_empty_core(self):
        for counts in ([0, 0], [0], []):
            with pytest.raises(EmptyCoreError, match="'x': h = 0, the h-core is empty"):
                hw_index(normalize_record("x", counts))


class TestTotals:
    def test_five_paper_example(self, five_paper_record):
        assert totals(five_paper_record) == (5, 30, 6.0)

    def test_single_zero_paper(self):
        assert totals(normalize_record("x", [0])) == (1, 0, 0.0)

    def test_empty_record_errors(self):
        with pytest.raises(ValidationError):
            totals(normalize_record("x", []))

    def test_fixture_row_a(self, fixture):
        row = {c: fixture.column(c)[0] for c in fixture.columns}
        assert row["N"] == 290 and row["S"] == 5997
        assert abs(row["C"] - row["S"] / row["N"]) <= 0.05


class TestIndicatorSet:
    def test_five_paper_bundle(self, five_paper_record):
        s = indicator_set(five_paper_record)
        assert (s.h, s.h2, s.g, s.n, s.s) == (4, 2, 5, 5, 30)
        assert s.a == pytest.approx(6.75)
        assert s.m == pytest.approx(6.5)
        assert s.r == pytest.approx(math.sqrt(27))
        assert s.hw == pytest.approx(math.sqrt(18))
        assert s.c == pytest.approx(6.0)
        assert not s.empty_core

    def test_empty_record_flagged(self):
        s = indicator_set(normalize_record("x", []))
        assert s.empty_core
        assert (s.h, s.h2, s.g, s.a, s.m, s.r, s.hw, s.n, s.s, s.c) == (
            0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0
        )

    def test_r_squared_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            counts = random_record_counts(rng)
            s = indicator_set(normalize_record("x", counts))
            if s.h:
                assert s.r**2 == pytest.approx(s.a * s.h, rel=1e-12)


def _oracle_row(counts, convention):
    """One table row in INDICATOR_COLUMNS order, from the brute-force oracles.

    The padded g oracle walks every rank up to isqrt(S), so above S = 10**8
    the closed form it reduces to stands in: g = isqrt(S) once the g
    condition holds at every paper.
    """
    h, n, s = oracle_h(counts), len(counts), sum(counts)
    g = oracle_g_capped(counts)
    if convention is GConvention.PADDED:
        g = oracle_g_padded(counts) if s <= 10**8 else (math.isqrt(s) if g == n else g)
    a, m, r, hw = (oracle_a(counts, h), oracle_m(counts, h), oracle_r(counts, h),
                   oracle_hw(counts, h)) if h else (0.0,) * 4
    return [h, m, g, oracle_h2(counts), a, r, hw, n, s, s / n]


EDGE_CASES = {
    "all zero": [0, 0, 0],
    "h = 0": [0],
    "N = 1": [7],
    "N = 1, one citation": [1],
    "g > N": [25, 3],
    "S a perfect square": [40, 9],
    "S one below a square": [40, 8],
    "S one above a square": [40, 10],
    "S = 2**53": [2**53],
    "S = 2**53, spread": [2**52, 2**51, 2**51],
    "S = 2**53 - 1": [2**52, 2**52 - 1],
    "largest square below 2**53": [94906265**2],
    "one below it": [94906265**2 - 1],
    "ties at the h boundary": [5, 5, 5, 5, 5],
    "h-core of even size": [9, 7, 4, 4, 1],
}


class TestEngineEquivalence:
    """Engine rows against the brute-force oracles, compared with ==."""

    @pytest.mark.parametrize("convention", list(GConvention))
    def test_seeded_records_and_edge_cases(self, convention):
        rng = np.random.default_rng(2024)
        records = [
            normalize_record(f"r{i}", counts)
            for i, counts in enumerate(
                random_record_counts(rng, max_papers=50, max_citations=200)
                for _ in range(1000)
            )
            if counts
        ]
        records += [normalize_record(name, counts) for name, counts in EDGE_CASES.items()]
        table = table_from_records(records, convention)
        for rec, row in zip(records, table.values.tolist()):
            assert row == _oracle_row(rec.counts, convention), rec.label
            expected = indicator_set(rec, convention).as_dict()
            assert row == [expected[c] for c in table.columns], rec.label

    def test_chunks_do_not_change_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        records = [normalize_record(f"r{i}", random_record_counts(rng) or [0])
                   for i in range(300)]
        whole = table_from_records(records)
        monkeypatch.setattr(indices, "_CHUNK_PAPERS", 7)
        assert table_from_records(records) == whole

    def test_exactness_bound(self):
        ok = table_from_records([normalize_record("a", [2**53])])
        assert ok.column("S")[0] == 2**53
        assert ok.column("g")[0] == math.isqrt(2**53)
        # int64 sums past 2**63 wrap; counts past int64 cannot be converted
        for counts in ([2**53 + 1], [2**53, 1], [2**52, 2**52, 1], [2**62] * 3,
                       [2**63 - 1, 2**53], [10**400]):
            rec = normalize_record("b", counts)
            with pytest.raises(ValidationError, match="'b': more than 2[*][*]53"):
                table_from_records([normalize_record("a", [3]), rec])
            with pytest.raises(ValidationError, match="'b': more than 2[*][*]53"):
                indicator_set(rec)


class TestInterpolated:
    def test_h_interp_example(self):
        rec = normalize_record("x", [6, 5, 4, 2])
        # segment (3, 4) -> (4, 2) meets y = x at 10/3
        assert interpolated_set(rec).h_interp == pytest.approx(10 / 3)

    def test_h_interp_fixed_point(self):
        rec = normalize_record("x", [5, 4, 3])
        assert interpolated_set(rec).h_interp == pytest.approx(3.0)

    def test_g_interp_example(self, five_paper_record):
        # cumulative sum is constant at 30 beyond rank 5, so the root of
        # s(x) = x^2 on [5, 6) is sqrt(30); the bisection oracle agrees
        h, h2, g = 4, 2, 5
        _, _, g_oracle = oracle_interpolated(five_paper_record.counts, h, h2, g)
        assert g_oracle == pytest.approx(math.sqrt(30), abs=1e-9)
        assert interpolated_set(five_paper_record).g_interp == pytest.approx(
            math.sqrt(30), abs=1e-9
        )

    def test_empty_core_errors(self):
        with pytest.raises(EmptyCoreError):
            interpolated_set(normalize_record("x", [0]))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            counts = random_record_counts(rng, max_papers=30)
            rec = normalize_record("x", counts)
            if h_index(rec) == 0:
                continue
            checked += 1
            got = interpolated_set(rec)
            want = oracle_interpolated(
                rec.counts, h_index(rec), h2_index(rec), g_index(rec)
            )
            assert got.h_interp == pytest.approx(want[0], abs=1e-9)
            assert got.h2_interp == pytest.approx(want[1], abs=1e-9)
            assert got.g_interp == pytest.approx(want[2], abs=1e-9)


class TestProperties:
    def test_ordering_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            rec = normalize_record("x", random_record_counts(rng))
            h, k = h_index(rec), h2_index(rec)
            g_pad = g_index(rec, GConvention.PADDED)
            g_cap = g_index(rec, GConvention.CAPPED)
            assert k <= h <= g_pad
            assert g_cap <= g_pad
            if h:
                assert a_index(rec) >= h
                assert r_index(rec) >= h
                assert r_index(rec) == pytest.approx(
                    math.sqrt(a_index(rec) * h), rel=1e-12
                )

    def test_g_definition_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            counts = random_record_counts(rng)
            assert oracle_g_padded(counts) == oracle_g_core_average(counts)
            assert g_index(normalize_record("x", counts)) == oracle_g_padded(counts)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            counts = random_record_counts(rng, max_papers=20)
            if not counts:
                continue
            shuffled = list(counts)
            rng.shuffle(shuffled)
            a, b = normalize_record("x", counts), normalize_record("x", shuffled)
            assert indicator_set(a) == indicator_set(b)

    def test_interpolation_bracketing(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            rec = normalize_record("x", random_record_counts(rng))
            if h_index(rec) == 0:
                continue
            checked += 1
            interp = interpolated_set(rec)
            h, k, g = h_index(rec), h2_index(rec), g_index(rec)
            assert h <= interp.h_interp < h + 1
            assert k <= interp.h2_interp < k + 1
            assert g <= interp.g_interp < g + 1
            if rec.counts[h - 1] == h:
                assert interp.h_interp == pytest.approx(float(h))

    def test_direct_construction_matches_normalized(self):
        rec = CitationRecord("y", (9, 4, 4, 1))
        assert indicator_set(rec) == indicator_set(normalize_record("y", [4, 1, 9, 4]))
        with pytest.raises(TypeError):
            indicator_set(CitationRecord("y", (9.5, 4)))

    @pytest.mark.parametrize("counts", [(1, 5, 3), (3, -1), (-2,), (4, 4, 0, 1)])
    @pytest.mark.parametrize("call", [
        indicator_set,
        interpolated_set,
        lambda rec: table_from_records([normalize_record("a", [2, 7]), rec]),
        lambda rec: table_from_records([rec, CitationRecord("empty", ())]),
    ], ids=["indicator_set", "interpolated_set", "table second", "table first"])
    def test_unsorted_or_negative_record_rejected(self, counts, call):
        message = ("^record 'x': citation counts must be non-negative and sorted "
                   "non-increasing; normalize_record builds such a record$")
        with pytest.raises(ValidationError, match=message):
            call(CitationRecord("x", counts))
