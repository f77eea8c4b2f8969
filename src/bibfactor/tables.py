"""Indicator tables, CSV ingestion and rendering helpers.

Two citation-input formats are supported. The long format is canonical:
a ``scientist,citations`` header followed by one publication per line. The
wide format has no header; each line is ``label,c1,c2,...`` with one line
per scientist. Indicator tables are plain CSV with a leading label column
and indicator columns drawn from the canonical vocabulary.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import math

import numpy as np

from .errors import ParseError, ValidationError
from .indices import (
    INDICATOR_COLUMNS,
    CitationRecord,
    GConvention,
    indicator_rows,
    normalize_record,
    record_arrays,
)

_COLUMN_ALIASES = {"h(2)": "h2", "h_w": "hw", "hW": "hw"}

# variable sets accepted by the command line, in presentation order
VARIABLE_SETS = {
    "7": ("h", "m", "g", "h2", "A", "R", "hw"),
    "7+NS": ("h", "m", "g", "h2", "A", "R", "hw", "N", "S"),
    "7+NC": ("h", "m", "g", "h2", "A", "R", "hw", "N", "C"),
    "7+NSC": ("h", "m", "g", "h2", "A", "R", "hw", "N", "S", "C"),
}


class IndicatorTable:
    """Rectangular table: one row per scientist, one column per indicator."""

    def __init__(self, labels, columns, values):
        self.labels = tuple(str(x) for x in labels)
        self.columns = tuple(str(x) for x in columns)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.labels), len(self.columns)):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.labels)} rows x {len(self.columns)} columns"
            )
        for kind, names in (("label", self.labels), ("column", self.columns)):
            if len(set(names)) != len(names):
                repeat = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValidationError(f"duplicate {kind} {repeat!r}")

    @property
    def n_rows(self):
        return len(self.labels)

    def _index(self, name):
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None

    def column(self, name):
        return self.values[:, self._index(name)].copy()

    def subset(self, columns):
        """A new table restricted to the given columns, in the given order."""
        idx = [self._index(name) for name in columns]
        return IndicatorTable(self.labels, columns, self.values[:, idx])

    def __eq__(self, other):
        return (
            isinstance(other, IndicatorTable)
            and self.labels == other.labels
            and self.columns == other.columns
            and np.array_equal(self.values, other.values)
        )


def _canonical_column(name, line=None):
    name = name.strip()
    name = _COLUMN_ALIASES.get(name, name)
    if name not in INDICATOR_COLUMNS:
        raise ParseError(f"unknown indicator column {name!r}", line=line)
    return name


def _parse_cell(text, line):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric cell {text!r}", line=line) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite cell {text!r}", line=line)
    return value


def _read(stream):
    """The text of a str or a text file, read once, and the ``newline`` that
    splits it: a str at line feeds only, a file as ``newline=""`` does."""
    return (stream, "\n") if isinstance(stream, str) else (stream.read(), "")


def _csv_rows(text, newline, header):
    """``(line, cells)`` for each row of the CSV ``text`` split at
    ``newline``, where ``line`` is the physical line on which the row starts.

    With ``header``, the first row is yielded as it is, blank or not, and no
    row at all is "empty input". Blank rows after it are skipped, and no
    data row is "no data rows", at line 2 with a header and 1 without. A
    ``csv.Error`` (a lone carriage return, a cell beyond the field size
    limit) becomes a :class:`ParseError` at the reader's line.
    """
    reader = csv.reader(io.StringIO(text, newline=newline))
    start = 1
    rows = 0
    try:
        for cells in reader:
            line, start = start, reader.line_num + 1
            if (header and line == 1) or (cells and (len(cells) > 1 or cells[0].strip())):
                rows += 1
                yield line, cells
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if header and not rows:
        raise ParseError("empty input", line=1)
    if rows == (1 if header else 0):
        raise ParseError("no data rows", line=rows + 1)


def _new_label(cell, line, seen):
    """The stripped label of the row at ``line``; it must be non-empty and
    not in ``seen``."""
    label = cell.strip()
    if not label:
        raise ParseError("empty scientist label", line=line)
    if label in seen:
        raise ParseError(f"duplicate label {label!r}", line=line)
    return label


def parse_indicator_table(stream):
    """Parse a CSV indicator table (label column first, then indicators)
    from a str or a text file."""
    reader = _csv_rows(*_read(stream), header=True)
    _, header = next(reader)
    if len(header) < 2:
        raise ParseError("expected a label column plus indicator columns", line=1)
    columns = []
    for name in header[1:]:
        name = _canonical_column(name, line=1)
        if name in columns:
            raise ParseError(f"duplicate column {name!r}", line=1)
        columns.append(name)
    labels = {}
    rows = []
    for line, row in reader:
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}", line=line
            )
        labels[_new_label(row[0], line, labels)] = None
        rows.append([_parse_cell(cell, line) for cell in row[1:]])
    return IndicatorTable(labels, columns, np.array(rows))


def indicator_table_to_csv(table):
    """Serialize an indicator table to canonical CSV.

    Values are written with ``repr`` fidelity (integers without a decimal
    point), so parse/render round-trips exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("scientist",) + table.columns)
    for label, row in zip(table.labels, table.values.tolist()):
        writer.writerow([label] + [
            str(int(v)) if v.is_integer() else repr(v) for v in row
        ])
    return out.getvalue()


def _parse_count(cell, line):
    text = cell.strip()
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"citation count {text!r} is not an integer", line=line) from None
    if value < 0:
        raise ParseError(f"negative citation count {value}", line=line)
    return value


# Long-format text is tokenised in blocks of this many characters plus the
# rest of the line that crosses the end: under csv's default field size
# limit unless that line is about as long, so one length check per block
# stands in for a check of each cell against the limit.
_BLOCK_CHARS = 1 << 16


def _long_header_ok(cells):
    return [h.strip().lower() for h in cells] == ["scientist", "citations"]


def _parse_long_columns(text):
    """Long-format records tokenised column by column, as arrays, or None.

    Returns ``(labels, counts, bounds)``: the labels in first-appearance
    order, an int64 array of every count grouped by label and sorted
    non-increasing within each group, and the int64 group bounds, so that
    record i is ``labels[i]`` with ``counts[bounds[i]:bounds[i + 1]]``.
    These feed :func:`indices.indicator_rows` directly.

    Only canonical text is read here: after the header, every line holds
    exactly one comma and ends in LF or CRLF (the last may end the text),
    no line is blank, every label is non-empty and equal to its ``strip()``,
    and every count is 1 to 18 ASCII digits. None means any other text, or
    a line or block beyond the csv field size limit, or a sort key beyond
    int64; the csv row reader then returns the same records or raises the
    same error.
    """
    if '"' in text or "\0" in text or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    limit = csv.field_size_limit()
    head_end = text.find("\n")
    if not 0 <= head_end <= limit or not _long_header_ok(text[:head_end].split(",")):
        return None
    codes = collections.defaultdict(itertools.count().__next__)
    rows = text.count("\n") + 1
    key, counts = np.empty(rows, np.int64), np.empty(rows, np.int64)
    filled = 0
    start = head_end + 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        block = text[start:end]
        start = end
        # a block is longer than the limit whenever one of its cells is
        if len(block) > limit:
            return None
        if not block.endswith("\n"):
            block += "\n"
        values = _block_counts(block)
        if values is None:
            return None
        n = len(values)
        label_cells = block.replace("\n", ",").split(",")[0:-1:2]
        key[filled:filled + n] = np.fromiter(map(codes.__getitem__, label_cells), np.int64, n)
        counts[filled:filled + n] = values
        filled += n
    labels = list(codes)
    if not labels or not all(label and label == label.strip() for label in labels):
        return None
    key, counts = key[:filled], counts[:filled]
    top = int(counts.max()) + 1
    if len(labels) * top > np.iinfo(np.int64).max:
        return None
    # one sort orders by label code, then by count, largest first
    bounds = np.zeros(len(labels) + 1, np.int64)
    np.cumsum(np.bincount(key), out=bounds[1:])
    key *= top
    key += top - 1
    key -= counts
    del counts
    key.sort()
    np.remainder(key, top, out=key)
    np.subtract(top - 1, key, out=key)
    return labels, key, bounds


def _block_counts(block):
    """The counts of a block of whole lines, read from its UTF-8 bytes, or
    None unless every line holds exactly one comma and ends in a line feed,
    with a count of 1 to 18 ASCII digits (and one carriage return) before
    it. 18 digits stay below 2**63.

    Commas and line feeds never occur inside a multi-byte UTF-8 sequence,
    so their bytes alone show where cells and lines end.
    """
    raw = np.frombuffer(block.encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    commas, feeds = seps[0::2], seps[1::2]
    if not ((raw[commas] == ord(",")).all() and (raw[feeds] == ord("\n")).all()):
        return None
    end = feeds - (raw[feeds - 1] == ord("\r"))
    width = end - commas - 1
    if width.min() < 1 or width.max() > 18:
        return None
    counts = np.zeros(len(end), np.int64)
    for k in range(width.max()):
        # digit k from the right; a shorter cell reads a byte left of it
        digit = raw[end - 1 - k] - np.uint8(ord("0"))
        digit[width <= k] = 0
        if digit.max() > 9:
            return None
        counts += np.multiply(digit, 10**k, dtype=np.int64)
    return counts


def _read_citations(stream, fmt):
    """The arrays of :func:`_parse_long_columns` when the columnar path
    parses the input, else the row reader's list of records as it is, so
    counts beyond int64 stay Python ints."""
    text, newline = _read(stream)
    columns = _parse_long_columns(text) if fmt == "long" else None
    return _parse_rows(text, newline, fmt) if columns is None else columns


def parse_citations(stream, fmt="long"):
    """Parse citation records from CSV text.

    Parameters
    ----------
    stream : str or text file
        A str is split into lines at line feeds only, so a lone carriage
        return is a parse error. A text file is read whole, and its lines
        are split as iterating a file opened with ``newline=""`` splits
        them, so a Mac file (lone CR line ends) parses.
    fmt : {"long", "wide"}
        Long: ``scientist,citations`` header, one publication per line.
        Wide: no header, ``label,c1,c2,...`` per scientist; duplicate labels
        are rejected.

    Canonical long-format text (see :func:`_parse_long_columns`: one
    comma per line, no blank line, unpadded labels, counts of 1 to 18
    digits) is tokenised column by column. All other text goes through the
    csv row reader, which gives the same records and reports errors at the
    physical line on which their row starts.

    Returns
    -------
    list of CitationRecord
        Grouped by label in first-appearance order, counts sorted.
    """
    parsed = _read_citations(stream, fmt)
    if isinstance(parsed, list):
        return parsed
    labels, counts, bounds = parsed
    counts, bounds = counts.tolist(), bounds.tolist()
    return [
        CitationRecord(label, tuple(counts[a:b]))
        for label, a, b in zip(labels, bounds, bounds[1:])
    ]


def _parse_rows(text, newline, fmt):
    """Citation records through the csv row reader."""
    if fmt == "long":
        reader = _csv_rows(text, newline, header=True)
        if not _long_header_ok(next(reader)[1]):
            raise ParseError(
                "long format needs the header 'scientist,citations'", line=1
            )
        grouped = {}
        for line, row in reader:
            if len(row) != 2:
                raise ParseError(f"expected 2 cells, got {len(row)}", line=line)
            label = _new_label(row[0], line, ())
            grouped.setdefault(label, []).append(_parse_count(row[1], line))
        return [normalize_record(label, counts) for label, counts in grouped.items()]
    if fmt == "wide":
        records = {}
        for line, row in _csv_rows(text, newline, header=False):
            label = _new_label(row[0], line, records)
            counts = [_parse_count(cell, line) for cell in row[1:] if cell.strip() != ""]
            records[label] = normalize_record(label, counts)
        return list(records.values())
    raise ValidationError(f"unknown citation format {fmt!r}")


def citation_table(stream, fmt="long", convention=GConvention.PADDED):
    """Parse citation CSV, a str or a text file as :func:`parse_citations`
    takes it, straight into its indicator table.

    Canonical long-format text goes to the index engine as arrays, without
    building records; other input takes the csv
    row reader and :func:`table_from_records`. Errors are those of
    :func:`parse_citations` and :func:`table_from_records`.
    """
    parsed = _read_citations(stream, fmt)
    if isinstance(parsed, list):
        return table_from_records(parsed, convention)
    return IndicatorTable(
        parsed[0], INDICATOR_COLUMNS, indicator_rows(*parsed, convention)
    )


def table_from_records(records, convention=GConvention.PADDED):
    """Compute the full indicator table for a list of citation records.

    The records' counts are flattened into one int64 array for the index
    engine, :func:`indices.indicator_rows`. A record with no papers raises
    ``ValidationError``: its C = S/N is undefined. So does a record with
    more than 2**53 citations, the bound below which every index is exact.
    """
    labels = [rec.label for rec in records]
    return IndicatorTable(labels, INDICATOR_COLUMNS, indicator_rows(
        labels, *record_arrays(records), convention
    ))


def render_text_table(headers, rows):
    """Monospace table: headers plus pre-formatted cell strings."""
    columns = [headers] + [[str(c) for c in row] for row in rows]
    widths = [
        max(6, *(len(row[j]) for row in columns))
        for j in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(columns):
        cells = [
            row[j].ljust(widths[j]) if j == 0 else row[j].rjust(widths[j])
            for j in range(len(headers))
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_number(value, decimals):
    """The value correctly rounded (ties to even) at ``decimals``, as text."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "nan"
    return f"{value:.{decimals}f}"
