import csv
import io
import tracemalloc

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
from bibfactor import fixture as fx
from bibfactor import tables
from bibfactor.cli import _table
from bibfactor.fixture import FIXTURE_SHA256, fixture_table
from bibfactor.tables import format_number
from oracles import oracle_parse_citations_long


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


HEADER = "scientist,citations\n"
_FIELD_LIMIT = csv.field_size_limit()

# Inputs the columnar path must hand to the csv row reader.
ROW_READER_CASES = {
    "lone CR": HEADER + "a,5\rb,3\n",
    "lone CR at the end": HEADER + "a,5\nb,3\r",
    "quoted label": HEADER + '"Doe, J.",5\na,3\n"Doe, J.",8\n',
    "quoted newline": HEADER + '"Doe\nJ.",5\nb,3\n',
    "negative count": HEADER + "a,10\na,-2\n",
    "fractional count": HEADER + "a,3.5\n",
    "empty count": HEADER + "a,\n",
    "count 2**63": HEADER + f"a,{2**63}\n",
    "count 2**70": HEADER + f"a,1\nb,{2**70}\n",
    "key beyond int64": HEADER + f"a,{2**62}\nb,1\n",
    "empty label": HEADER + "a,1\n,5\n",
    "blank label": HEADER + "a,1\n  ,5\n",
    "3-cell row": HEADER + "a,5,6\n",
    "1-cell and 3-cell rows": HEADER + "a\n5,b,7\n",
    "header only": HEADER,
    "header without newline": "scientist,citations",
    "empty input": "",
    "blank first line": "\n" + HEADER + "a,1\n",
    "wrong header": "name,count\na,1\n",
    "NUL in label": HEADER + "a\0b,5\n",
    "label beyond the field limit": HEADER + "x" * (_FIELD_LIMIT + 1) + ",5\n",
    "count beyond the field limit": HEADER + "a,5" + " " * _FIELD_LIMIT + "\n",
    "blank line beyond the field limit": HEADER + "a,5\n" + " " * (_FIELD_LIMIT + 1) + "\nb,3\n",
    # a block longer than the limit, whose cells are not
    "line beyond the field limit, cells within it":
        HEADER + "a,5\n" + "b" * 70_000 + ",3" + " " * 70_000 + "\n",
    "70K line crossing a block end": HEADER + "a,5\n" * 16_384 + "b,3" + " " * 70_000 + "\n",
    # canonical text only takes the columnar path; the row reader owns the rest
    "blank line": HEADER + "a,5\n\nb,3\n",
    "blank CRLF line": "scientist,citations\r\na,5\r\n\r\nb,3\r\n",
    "whitespace-only line": HEADER + "a,5\n \t \nb,3\n",
    "trailing blank line": HEADER + "a,5\nb,3\n\n",
    "trailing whitespace without newline": HEADER + "a,5\nb,3\n \x0c",
    "only blank lines after a row": HEADER + "a,5\n\n\n  \n",
    "padded labels and counts": HEADER + "  a ,5\na, 3 \n\tb\t,2\n\x0ca,1\n",
    "count syntax of int()": HEADER + "a,+5\na,1_000\na,３\na,007\na,-0\n",
    "non-ASCII labels": HEADER + "　é　,5\né,2\n\x85é,1\n",
    "largest key": HEADER + f"a,{2**62 - 1}\n",
    "19-digit count below 2**63": HEADER + f"a,{10**18}\na,5\n",
}

# Inputs the columnar path must parse itself.
COLUMNAR_CASES = {
    "LF": HEADER + "a,10\nb,0\na,3\n",
    "CRLF": "scientist,citations\r\na,5\r\nb,3\r\na,7\r\n",
    "no trailing newline": HEADER + "a,5\nb,3",
    "header case and padding": " Scientist , CITATIONS \nA,1\n",
    "unpadded non-ASCII labels": HEADER + "é,5\nDoe J.,2\nx　y,1\né,3\n",
    "18-digit count": HEADER + f"a,{10**18 - 1}\na,5\n",
    "leading zeros": HEADER + "a,007\nb,00\na,000000000000000012\n",
    "CRLF with multi-digit counts": "scientist,citations\r\na,12345\r\nb,678\r\na,90\r\n",
}


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)
    except csv.Error as exc:
        return ("csv.Error", str(exc))
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def _same_table_both_ways(text):
    """citation_table, which skips the records, against parse_citations
    followed by table_from_records."""
    def via_records(text):
        return table_from_records(parse_citations(text, fmt="long"))
    return _outcome(tables.citation_table, text) == _outcome(via_records, text)


def _parsed(text):
    records = parse_citations(text, fmt="long")
    assert all(type(c) is int for rec in records for c in rec.counts)
    return [(rec.label, rec.counts) for rec in records]


def _random_long_text(rng):
    labels = ["a", "b", " a", "c ", "Doe J.", "é", "　x", "12"]
    counts = ["0", "1", "5", "17", " 7", "+5", "1_000", "３", "007", "-0", "123456789",
              "123456789012345678"]
    odd_counts = ["-2", "3.5", "", "x", str(2**63), str(2**70), '"4"']
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    lines = ["scientist,citations"]
    for _ in range(rng.integers(0, 40)):
        label = labels[rng.integers(len(labels))]
        count = counts[rng.integers(len(counts))]
        u = rng.random()
        if u < 0.02:
            count = odd_counts[rng.integers(len(odd_counts))]
        elif u < 0.025:
            lines.append("")
        elif u < 0.03:
            lines.append(" \t")
        elif u < 0.04:
            count += ",9"
        elif u < 0.05:
            lines.append(label)
            continue
        elif u < 0.06:
            label = f'"{label}, Q"'
        elif u < 0.07:
            label = ""
        lines.append(f"{label},{count}")
    text = newline.join(lines)
    if rng.random() < 0.8:
        text += newline
    if rng.random() < 0.03:
        text = text.replace(newline, "\r", 1)
    return text


class TestParseCitationsLongEquivalence:
    """The columnar long-format path against the csv row loop."""

    @pytest.mark.parametrize("name", sorted(COLUMNAR_CASES))
    def test_columnar_cases(self, name):
        text = COLUMNAR_CASES[name]
        assert tables._parse_long_columns(text) is not None
        assert _parsed(text) == oracle_parse_citations_long(text)
        assert _same_table_both_ways(text)

    @pytest.mark.parametrize("name", sorted(ROW_READER_CASES))
    def test_row_reader_cases(self, name):
        text = ROW_READER_CASES[name]
        assert tables._parse_long_columns(text) is None
        assert _outcome(_parsed, text) == _outcome(oracle_parse_citations_long, text)
        assert _same_table_both_ways(text)

    @pytest.mark.parametrize("block_chars", [1 << 16, 8])
    def test_seeded_random_inputs(self, monkeypatch, block_chars):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            text = _random_long_text(rng)
            assert _outcome(_parsed, text) == _outcome(oracle_parse_citations_long, text)
            assert _same_table_both_ways(text)

    @staticmethod
    def _many_block_copies():
        """An LF text of over four blocks and six copies of it that read to
        the same records."""
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 500, 40_000)
        counts = rng.integers(0, 10**6, 40_000)
        body = "".join(f"s{a},{c}\n" for a, c in zip(labels, counts))
        lf = HEADER + body
        first, rest = body.split("\n", 1)
        label, count = first.split(",")
        return lf, {
            "CRLF": lf.replace("\n", "\r\n"),
            "zero-led": HEADER + body.replace(",", ",00"),
            "quoted first label": f'{HEADER}"{label}",{count}\n{rest}',
            "padded counts": HEADER + body.replace(",", ", "),
            "blank lines": f"{HEADER}\n{first}\n \t\n{rest}\n \n",
            "padded labels": HEADER + "  " + body[:-1].replace("\n", "\n  ") + "\n",
        }

    def test_many_blocks_keep_first_appearance_order(self):
        text, _ = self._many_block_copies()
        assert len(text) > 4 * tables._BLOCK_CHARS
        assert tables._parse_long_columns(text) is not None
        assert _parsed(text) == oracle_parse_citations_long(text)

    @pytest.mark.parametrize("copy", ["CRLF", "zero-led", "quoted first label",
                                      "padded counts", "blank lines", "padded labels"])
    def test_many_blocks_copies_match_the_lf_copy(self, copy):
        """Each copy gives the records and table of the LF text; the last
        four take the row reader."""
        lf, copies = self._many_block_copies()
        text = copies[copy]
        assert len(text) > 4 * tables._BLOCK_CHARS
        columnar = copy in ("CRLF", "zero-led")
        assert (tables._parse_long_columns(text) is not None) == columnar
        assert _parsed(text) == _parsed(lf) == oracle_parse_citations_long(text)
        assert tables.citation_table(text) == tables.citation_table(lf)

    def test_sort_key_beyond_int64_takes_the_row_reader(self):
        # 22 line feeds leave the sort key a low field of 2**58 - 1, below
        # 10**18 - 1, so the columnar path hands the text on
        text = HEADER + f"s0,{10**18 - 1}\n" + "".join(f"s{i},5\ns{i},7\n" for i in range(10))
        assert tables._parse_long_columns(text) is None
        assert _parsed(text) == oracle_parse_citations_long(text)
        with pytest.raises(ValidationError, match=r"^record 's0': more than 2\*\*53 "):
            tables.citation_table(text)

    @pytest.mark.parametrize("big, columnar", [(2**53 - 1, True), (2**53, False)])
    def test_count_at_the_low_field_boundary(self, big, columnar):
        # 702 line feeds leave the sort key a low field of 2**53 - 1
        text = HEADER + "".join(f"s{i % 50},{i % 13}\n" for i in range(700)) + f"big,{big}\n"
        assert text.count("\n") == 702
        assert (tables._parse_long_columns(text) is not None) == columnar
        assert tables.citation_table(text) == table_from_records(
            tables._parse_rows(text, "\n", "long"))

    def test_reader_keeps_one_int64_per_paper(self):
        """The traced peak of the columnar reader on 400,000 papers is at
        most 8 bytes a paper plus 2.5 MB of per-block buffers. Labels and
        counts are one character each, cells that CPython does not
        allocate, so tracing stays fast."""
        n = 400_000
        rng = np.random.default_rng(3)
        alphabet = np.frombuffer(bytes(sorted(set(range(33, 127)) - {ord(","), ord('"')})), np.uint8)
        lines = np.empty((n, 4), np.uint8)
        lines[:, 0] = rng.choice(alphabet, n)
        lines[:, 1] = ord(",")
        lines[:, 2] = rng.integers(ord("0"), ord("9") + 1, n)
        lines[:, 3] = ord("\n")
        text = HEADER + lines.tobytes().decode("ascii")
        tracemalloc.start()
        try:
            parsed = tables._parse_long_columns(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed is not None and parsed[2][-1] == n
        assert peak <= 8 * n + 2_500_000

    @pytest.mark.parametrize("block_chars", [1 << 16, 64])
    def test_blank_lines_across_blocks(self, monkeypatch, block_chars):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(5)
        lines = [f"s{a},{c}" for a, c in zip(rng.integers(0, 300, 20_000),
                                             rng.integers(0, 10**5, 20_000))]
        for i in sorted(rng.choice(len(lines), 50, replace=False), reverse=True):
            lines.insert(i, ["", "  ", "\t"][i % 3])
        text = HEADER + "\n".join(lines) + "\n\n"
        assert tables._parse_long_columns(text) is None
        assert _parsed(text) == oracle_parse_citations_long(text)

    def test_block_of_whitespace_only_lines(self, monkeypatch):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", 8)
        text = HEADER + "a,5\n" + "   \n\t\n" * 8 + "b,3\n"
        assert tables._parse_long_columns(text) is None
        assert _parsed(text) == oracle_parse_citations_long(text)
        assert _same_table_both_ways(text)

    def test_byte_and_int_blocks_mixed(self, monkeypatch):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", 8)
        text = HEADER + "a,5\nb,17\na,300\n" * 4 + "b,+5\na,1\n" + "b,42\n" * 3
        assert tables._parse_long_columns(text) is None
        assert _parsed(text) == oracle_parse_citations_long(text)
        assert _same_table_both_ways(text)

    def test_padded_label_first_keeps_its_place(self):
        text = HEADER + "b,9\n a,1\na,2\na ,3\n"
        assert tables._parse_long_columns(text) is None
        assert _parsed(text) == [("b", (9,)), ("a", (3, 2, 1))]
        assert _parsed(text) == oracle_parse_citations_long(text)
        assert _same_table_both_ways(text)

    @pytest.mark.parametrize("block, expected", [
        ("a,5\nb,17\n", [5, 17]),
        ("a,12345\r\nb,007\r\n", [12345, 7]),
        (f"a,{10**18 - 1}\nb,0\n", [10**18 - 1, 0]),
        (f"a,{10**18}\n", None),
        ("a,5\nb,+5\n", None),
        ("a, 7\n", None),
        ("a,３\n", None),
        ("a,\n", None),
        ("a,\r\n", None),
        ("a,5\n\nb,3\n", None),
        ("a,5,6\n", None),
    ])
    def test_counts_from_bytes(self, block, expected):
        """Only blocks of one comma per line and 1 to 18 ASCII digits per
        count are read from bytes."""
        counts = tables._block_counts(block)
        assert (None if counts is None else counts.tolist()) == expected

    def test_text_file_stream(self, tmp_path):
        path = tmp_path / "mac.csv"
        path.write_text("scientist,citations\ra,5\rb,3\ra,1\r", newline="")
        with open(path, encoding="utf-8", newline="") as handle:
            records = parse_citations(handle)
        assert [(r.label, r.counts) for r in records] == [("a", (5, 1)), ("b", (3,))]

    @pytest.mark.parametrize("text, newline", [
        ("scientist,citations\na,5\nb,3\na,1\n", None),
        ("scientist,citations\ra,5\rb,3\ra,1\r", ""),
        ("scientist,citations\r\na,5\r\nb,3\r\na,1\r\n", ""),
        ("scientist,citations\r\na,5\r\nb,3\r\na,1\r\n", None),
        ('scientist,citations\r\n"a",5\rb,3\n"a\r\n",1\r\n', ""),
    ], ids=["LF default", "Mac newline=''", "CRLF newline=''", "CRLF default", "mixed quoted"])
    def test_text_file_equals_its_text(self, tmp_path, text, newline):
        """A file is split into lines as iterating it with newline='' splits
        it, so it gives the records of its text with every line end an LF."""
        path = tmp_path / "long.csv"
        path.write_text(text, newline="")
        with open(path, encoding="utf-8", newline=newline) as handle:
            records = parse_citations(handle)
        assert [(r.label, r.counts) for r in records] == [("a", (5, 1)), ("b", (3,))]
        lines = text.replace("\r\n", "\n").replace("\r", "\n")
        assert records == parse_citations(lines)

    @pytest.mark.parametrize("block_chars", [1 << 16, 8])
    def test_seeded_random_inputs_from_a_file(self, tmp_path, monkeypatch, block_chars):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(20261018)
        path = tmp_path / "long.csv"
        for _ in range(400):
            text = _random_long_text(rng)
            path.write_text(text, encoding="utf-8", newline="")
            for read in (_parsed, tables.citation_table):
                with open(path, encoding="utf-8", newline="") as handle:
                    assert _outcome(read, handle) == _outcome(read, _lf(text))


@pytest.mark.parametrize("parse, text, message", [
    (parse_citations, 'scientist,citations\n"q\nr",5\nb,x\n',
     "line 4: citation count 'x' is not an integer"),
    (lambda text: parse_citations(text, fmt="wide"), 'a,1\n"q\nr",5\nb,x\n',
     "line 4: citation count 'x' is not an integer"),
    (parse_indicator_table, 'scientist,h,g\n"q\nr",5,6\n\nb,7\n',
     "line 5: expected 3 cells, got 2"),
    (parse_citations, 'scientist,citations\r\n"q\r\n\r\nr",5\r\nb,-1\r\n',
     "line 5: negative citation count -1"),
], ids=["long", "wide", "indicators", "long CRLF"])
def test_error_line_is_where_its_row_starts(parse, text, message):
    """After a quoted cell that spans lines, errors name the physical line."""
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(text)


def _lf(text):
    """The text with every line end a line feed."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


_LONG_STREAM_INPUTS = [
    "scientist,citations\na,5\nb,3\na,1\n",
    "scientist,citations\r\na,5\r\nb,3\r\na,1\r\n",
    "scientist,citations\ra,5\rb,3\ra,1\r",
    'scientist,citations\r\n"Doe, J.",5\rb,3\n"Doe, J.\r\n",1\r\n',
    'scientist,citations\r\n"q\r\nr",5\rb,x\n',
    "scientist,citations\na,5\rb,-1\r\n",
    f"scientist,citations\ra,{2**63}\rb,3\r",
    f"scientist,citations\ra,{2**53}\ra,1\r",
    "scientist,citations\r\n\r\n",
    "",
]
_WIDE_STREAM_INPUTS = [
    "a,3,10,5\nb,1\n",
    "a,3,10,5\r\nb,1\r\nc\r\n",
    "a,3,10,5\rb,1\r",
    f"a,{2**63},1\rb,1\r",
    'a,1\r"q\r\nr",5\nb,x\r',
    "a,1\ra,2\r",
    "a,3\r\n\r\n  ,2\r\n",
    "\r\n \r",
]
_INDICATOR_STREAM_INPUTS = [
    "scientist,h,g\nA,39,67\nB,12,20\n",
    "scientist,h,g\r\nA,39,67\r\nB,12,20\r\n",
    "scientist,h,g\rA,39,67\r\rB,12,20\r",
    'scientist,h,g\r"q\r\nr",5,6\n\rb,7\r\n',
    "scientist,h\r\nA,nan\r\n",
    "scientist,h\r\r",
]
_STREAM_READERS = {
    "parse_citations long": (parse_citations, _LONG_STREAM_INPUTS),
    "parse_citations wide": (lambda s: parse_citations(s, fmt="wide"), _WIDE_STREAM_INPUTS),
    "citation_table long": (tables.citation_table, _LONG_STREAM_INPUTS),
    "citation_table wide": (lambda s: tables.citation_table(s, "wide"), _WIDE_STREAM_INPUTS),
    "parse_indicator_table": (parse_indicator_table, _INDICATOR_STREAM_INPUTS),
}


def _streams(tmp_path, text):
    """The text as an ``io.StringIO``, then as a file opened with
    ``newline=""`` and as one opened with the default newline."""
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    yield io.StringIO(text)
    for newline in ("", None):
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle


@pytest.mark.parametrize("reader, text", [
    pytest.param(name, text, id=f"{name} {i}")
    for name, (_, inputs) in _STREAM_READERS.items() for i, text in enumerate(inputs)
])
def test_stream_gives_what_its_lf_text_gives(tmp_path, reader, text):
    """Every reader splits a stream's lines by one rule: records, table or
    error are those of the stream's text with every line end an LF."""
    read = _STREAM_READERS[reader][0]
    expected = _outcome(read, _lf(text))
    for stream in _streams(tmp_path, text):
        assert _outcome(read, stream) == expected


def test_citation_table_reads_a_stream():
    text = "scientist,citations\na,5\n"
    table = tables.citation_table(io.StringIO(text))
    assert table == tables.citation_table(text)
    assert table.labels == ("a",) and table.column("N").tolist() == [1.0]


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

    @pytest.mark.parametrize("text, message", [
        ("a,1\n  ,2\n", "line 2: empty scientist label"),
        ("", "line 1: no data rows"),
        ("\n \n\t\n", "line 1: no data rows"),
    ])
    def test_input_errors(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_citations(text, fmt="wide")


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(ParseError, match=f"line 3: non-finite cell '{cell}'"):
            parse_indicator_table(f"scientist,h,g\nA,39,67\nB,{cell},12\n")

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ParseError, match="^line 3: duplicate label 'A'$"):
            parse_indicator_table("scientist,h\nA,1\nA ,2\n")

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty input"),
        ("scientist\nA\n", "line 1: expected a label column plus indicator columns"),
        ("\nscientist,h\n", "line 1: expected a label column plus indicator columns"),
        ("scientist,h\n", "line 2: no data rows"),
        ("scientist,h\n\n  \n", "line 2: no data rows"),
        ("scientist,h,h\nA,1,1\n", "line 1: duplicate column 'h'"),
        ("scientist,h2,h(2)\nA,1,1\n", "line 1: duplicate column 'h2'"),
        ("scientist,h\nA,1\n  ,2\n", "line 3: empty scientist label"),
    ])
    def test_input_errors(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_indicator_table(text)

    def test_blank_rows_skipped(self):
        parsed = parse_indicator_table("scientist,h\n\nA,1\n \t\nB,2\n")
        assert parsed.labels == ("A", "B")
        assert parsed.column("h").tolist() == [1.0, 2.0]


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

    def test_repeated_column_is_named(self, fixture):
        with pytest.raises(ValidationError, match=r"^duplicate column 'h'$"):
            fixture.subset(("h", "h"))

    def test_first_repeated_label_is_named(self):
        # the reader's words: the first row whose label was seen before
        with pytest.raises(ValidationError, match=r"^duplicate label 'a'$"):
            IndicatorTable(["b", "a", "a", "b"], ["h"], np.ones((4, 1)))


class TestFixture:
    def test_checksum_matches(self):
        table = fixture_table()
        assert table.n_rows == 26
        assert len(FIXTURE_SHA256) == 64

    def test_shape_and_labels(self, fixture):
        assert fixture.columns == ("g", "h2", "h", "A", "m", "R", "hw", "N", "S", "C")
        assert fixture.labels[0] == "A" and fixture.labels[-1] == "Z"

    def test_modified_transcription_fails_its_checksum(self, monkeypatch):
        # monkeypatch restores both, so later tests read the real fixture
        rows = list(fx._APPENDIX_ROWS)
        rows[0] = ("A", 68, *rows[0][2:])
        monkeypatch.setattr(fx, "_APPENDIX_ROWS", tuple(rows))
        monkeypatch.setattr(fx, "_cached_table", None)
        with pytest.raises(ValidationError, match="^embedded fixture failed its checksum"):
            fixture_table()


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
        message = "^record 'empty' has no papers; C = S/N is undefined$"
        with pytest.raises(ValidationError, match=message):
            table_from_records([five_paper_record, normalize_record("empty", [])])
        with pytest.raises(ValidationError, match=message):
            tables.citation_table("a,3,10,5\nempty,\n", "wide")


class TestRendering:
    def test_format_number_half_even(self):
        assert format_number(0.5, 0) == "0"
        assert format_number(1.5, 0) == "2"
        assert format_number(2.5, 0) == "2"
        # 0.125 and 0.375 are exactly representable ties
        assert format_number(0.125, 2) == "0.12"
        assert format_number(0.375, 2) == "0.38"

    def test_format_number_matches_round_then_format(self):
        # formatting alone rounds the exact binary value, as round() does
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        ties = (np.arange(-1000, 1000) + 0.5) / 2.0 ** rng.integers(0, 12, size=2000)
        values = [*bits[np.isfinite(bits)].tolist(), *ties.tolist(),
                  -0.0, 0.0, -0.004, 2.675, 1e300, 5e-324]
        for decimals in (0, 1, 2, 3, 4):
            for v in values:
                assert format_number(v, decimals) == format(round(v, decimals), f".{decimals}f")

    def test_format_number_nan(self):
        for value in (float("nan"), float("inf"), float("-inf"), None):
            assert format_number(value, 2) == "nan"

    def test_render_alignment(self):
        text = _table(["name", "x"], [["a", "bb"]], [[1.0], [12.5]], 2)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].endswith("1.00")
        assert len(lines) == 4
