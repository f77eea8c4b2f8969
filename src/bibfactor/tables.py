"""Indicator tables, CSV ingestion and rendering helpers.

Two citation-input formats are supported. The long format is canonical:
a ``scientist,citations`` header followed by one publication per line. The
wide format has no header; each line is ``label,c1,c2,...`` with one line
per scientist. Indicator tables are plain CSV with a leading label column
and indicator columns drawn from the canonical vocabulary.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import ParseError, ValidationError
from .indices import GConvention, indicator_set, normalize_record

INDICATOR_COLUMNS = ("h", "m", "g", "h2", "A", "R", "hw", "N", "S", "C")
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
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("row labels must be unique")
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("column names must be unique")

    @property
    def n_rows(self):
        return len(self.labels)

    def column(self, name):
        try:
            j = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None
        return self.values[:, j].copy()

    def subset(self, columns):
        """A new table restricted to the given columns, in the given order."""
        idx = []
        for name in columns:
            if name not in self.columns:
                raise ValidationError(f"no column named {name!r}")
            idx.append(self.columns.index(name))
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


def parse_indicator_table(stream):
    """Parse a CSV indicator table (label column first, then indicators)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input", line=1) from None
    if len(header) < 2:
        raise ParseError("expected a label column plus indicator columns", line=1)
    columns = [_canonical_column(name, line=1) for name in header[1:]]
    labels = []
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}", line=line_no
            )
        labels.append(row[0].strip())
        rows.append([_parse_cell(cell, line_no) for cell in row[1:]])
    if not rows:
        raise ParseError("no data rows", line=2)
    return IndicatorTable(labels, columns, np.array(rows))


def indicator_table_to_csv(table, precision=None):
    """Serialize an indicator table to canonical CSV.

    With ``precision=None`` values are written with ``repr`` fidelity, so
    parse/render round-trips exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("scientist",) + table.columns)
    for i, label in enumerate(table.labels):
        cells = []
        for v in table.values[i]:
            if precision is not None:
                cells.append(format(round(v, precision), f".{precision}f"))
            elif float(v).is_integer():
                cells.append(str(int(v)))
            else:
                cells.append(repr(float(v)))
        writer.writerow([label] + cells)
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


def parse_citations(stream, fmt="long"):
    """Parse citation records from CSV text.

    Parameters
    ----------
    stream : str or text file
    fmt : {"long", "wide"}
        Long: ``scientist,citations`` header, one publication per line.
        Wide: no header, ``label,c1,c2,...`` per scientist; duplicate labels
        are rejected.

    Returns
    -------
    list of CitationRecord
        Grouped by label in first-appearance order, counts sorted.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    if fmt == "long":
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input", line=1) from None
        if [h.strip().lower() for h in header] != ["scientist", "citations"]:
            raise ParseError(
                "long format needs the header 'scientist,citations'", line=1
            )
        grouped = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 cells, got {len(row)}", line=line_no)
            label = row[0].strip()
            if not label:
                raise ParseError("empty scientist label", line=line_no)
            grouped.setdefault(label, []).append(_parse_count(row[1], line_no))
        if not grouped:
            raise ParseError("no data rows", line=2)
        return [normalize_record(label, counts) for label, counts in grouped.items()]
    if fmt == "wide":
        records = []
        seen = set()
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            label = row[0].strip()
            if not label:
                raise ParseError("empty scientist label", line=line_no)
            if label in seen:
                raise ParseError(f"duplicate label {label!r}", line=line_no)
            seen.add(label)
            counts = [_parse_count(cell, line_no) for cell in row[1:] if cell.strip() != ""]
            records.append(normalize_record(label, counts))
        if not records:
            raise ParseError("no data rows", line=1)
        return records
    raise ValidationError(f"unknown citation format {fmt!r}")


def table_from_records(records, convention=GConvention.PADDED):
    """Compute the full indicator table for a list of citation records.

    A record with no papers raises ``ValidationError``: its C = S/N is
    undefined.
    """
    labels = [rec.label for rec in records]
    rows = []
    for rec in records:
        if rec.n_papers == 0:
            raise ValidationError(
                f"record {rec.label!r} has no papers; C = S/N is undefined"
            )
        indicators = indicator_set(rec, convention)
        mapping = indicators.as_dict()
        rows.append([mapping[c] for c in INDICATOR_COLUMNS])
    return IndicatorTable(labels, INDICATOR_COLUMNS, np.array(rows, dtype=float))


def render_text_table(headers, rows, min_width=6):
    """Monospace table: headers plus pre-formatted cell strings."""
    columns = [headers] + [[str(c) for c in row] for row in rows]
    widths = [
        max(min_width, *(len(row[j]) for row in columns))
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
    """Half-even rounding at a fixed number of decimals, as text."""
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "nan"
    return format(round(float(value), decimals), f".{decimals}f")
