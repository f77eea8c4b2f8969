import io

import numpy as np
import pytest

from bibfactor import (
    GConvention,
    IndicatorTable,
    ParseError,
    ValidationError,
    indicator_set,
    indicator_table_to_csv,
    normalize_record,
    parse_citations,
    parse_indicator_table,
    table_from_records,
)
from bibfactor.fixture import FIXTURE_SHA256, fixture_table
from bibfactor.tables import format_number, render_text_table


class TestParseCitationsLong:
    def test_groups_by_label(self):
        text = "scientist,citations\na,10\na,3\nb,0\n"
        records = parse_citations(text, fmt="long")
        assert [(r.label, r.counts) for r in records] == [
            ("a", (10, 3)), ("b", (0,))
        ]

    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_citations("a,10\n", fmt="long")

    def test_negative_count_reports_line(self):
        text = "scientist,citations\na,10\na,-2\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_citations(text, fmt="long")

    def test_malformed_row_reports_line(self):
        text = "scientist,citations\na,10,4\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_citations(text, fmt="long")

    def test_non_integer_count(self):
        with pytest.raises(ParseError, match="3.5"):
            parse_citations("scientist,citations\na,3.5\n", fmt="long")


class TestParseCitationsWide:
    def test_sorts_counts(self):
        records = parse_citations("a,3,10,5\n", fmt="wide")
        assert records[0].counts == (10, 5, 3)

    def test_variable_length_rows(self):
        records = parse_citations("a,3,10,5\nb,1\nc\n", fmt="wide")
        assert [r.counts for r in records] == [(10, 5, 3), (1,), ()]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError, match="duplicate label 'a'"):
            parse_citations("a,1\na,2\n", fmt="wide")

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            parse_citations("a,1\n", fmt="tall")


class TestIndicatorTableParsing:
    def test_fixture_round_trip(self):
        table = fixture_table()
        text = indicator_table_to_csv(table)
        parsed = parse_indicator_table(io.StringIO(text))
        assert parsed == table
        assert indicator_table_to_csv(parsed) == text

    def test_subset_of_columns_accepted(self):
        parsed = parse_indicator_table("scientist,h,g\nA,39,67\n")
        assert parsed.columns == ("h", "g")
        assert parsed.column("g")[0] == 67.0

    def test_header_typo_rejected(self):
        with pytest.raises(ParseError, match="'hh'"):
            parse_indicator_table("scientist,hh\nA,1\n")

    def test_h2_alias_accepted(self):
        parsed = parse_indicator_table("scientist,h(2),h\nA,10,39\n")
        assert parsed.columns == ("h2", "h")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_indicator_table("scientist,h\nA,x\n")

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValidationError):
            parse_indicator_table("scientist,h\nA,1\nA,2\n")


class TestIndicatorTable:
    def test_subset_preserves_order(self, fixture):
        sub = fixture.subset(("h", "A", "g"))
        assert sub.columns == ("h", "A", "g")
        assert sub.column("A")[0] == pytest.approx(93.9)

    def test_unknown_column(self, fixture):
        with pytest.raises(ValidationError):
            fixture.column("cpp")

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            IndicatorTable(["a"], ["h", "g"], np.ones((1, 3)))


class TestFixture:
    def test_checksum_matches(self):
        table = fixture_table()
        assert table.n_rows == 26
        assert len(FIXTURE_SHA256) == 64

    def test_shape_and_labels(self, fixture):
        assert fixture.columns == ("g", "h2", "h", "A", "m", "R", "hw", "N", "S", "C")
        assert fixture.labels[0] == "A" and fixture.labels[-1] == "Z"


class TestTableFromRecords:
    def test_matches_indicator_set(self, five_paper_record):
        records = [five_paper_record, normalize_record("y", [25])]
        table = table_from_records(records, GConvention.PADDED)
        s = indicator_set(five_paper_record)
        assert table.column("h")[0] == s.h
        assert table.column("hw")[0] == pytest.approx(s.hw)
        assert table.column("g")[1] == 5.0
        capped = table_from_records(records, GConvention.CAPPED)
        assert capped.column("g")[1] == 1.0

    def test_record_without_papers_rejected(self, five_paper_record):
        # C = S/N is undefined, so no row of zeros may stand in for it
        records = [five_paper_record, normalize_record("empty", [])]
        with pytest.raises(ValidationError, match="'empty'"):
            table_from_records(records)


class TestRendering:
    def test_format_number_half_even(self):
        assert format_number(0.5, 0) == "0"
        assert format_number(1.5, 0) == "2"
        assert format_number(2.5, 0) == "2"
        # 0.125 and 0.375 are exactly representable ties
        assert format_number(0.125, 2) == "0.12"
        assert format_number(0.375, 2) == "0.38"

    def test_format_number_nan(self):
        assert format_number(float("nan"), 2) == "nan"

    def test_render_alignment(self):
        text = render_text_table(["name", "x"], [["a", "1.00"], ["bb", "12.50"]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].endswith("1.00")
        assert len(lines) == 4
