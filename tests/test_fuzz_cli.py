"""Seeded fuzz of every input command on mutated long, wide and indicator files.

Each mutated file goes through ``cli.main`` in-process, by ``run_main``. A
run must exit 0 or 2, raise nothing, put ``error:`` first on stderr when it
exits 2, and finish within ``BUDGET_S`` seconds, which ``signal.alarm``
enforces on this process.
"""

import csv
import signal

import numpy as np
import pytest

from bibfactor import fixture_table, indicator_table_to_csv
from conftest import run_main

BUDGET_S = 1
PAIRS_PER_FORMAT = 3
COMMANDS = (
    ("indices",),
    ("describe", "--vars", "7"),
    ("efa", "--vars", "7"),
    ("cfa", "--vars", "7+NC"),
    ("bootstrap", "--vars", "7", "--B", "20"),
)


def _long_and_wide(rng, n_scientists=30):
    records = {
        f"s{i}": sorted(rng.zipf(1.6, rng.integers(3, 25)).tolist(), reverse=True)
        for i in range(n_scientists)
    }
    long_text = "scientist,citations\n" + "".join(
        f"{label},{count}\n" for label, counts in records.items() for count in counts
    )
    wide_text = "".join(
        ",".join([label, *map(str, counts)]) + "\n" for label, counts in records.items()
    )
    return long_text, wide_text


def _cells(text):
    """(start, end) of every cell of every line after the first."""
    spans = []
    offset = text.find("\n") + 1
    for line in text[offset:].split("\n"):
        start = offset
        for cell in line.split(","):
            spans.append((start, start + len(cell)))
            start += len(cell) + 1
        offset += len(line) + 1
    return [span for span in spans if span[1] > span[0]]


def _replace_cell(rng, text, new):
    spans = _cells(text)
    start, end = spans[rng.integers(len(spans))]
    return text[:start] + new + text[end:]


def _insert(rng, text, piece):
    at = int(rng.integers(len(text) + 1))
    return text[:at] + piece + text[at:]


def _duplicate_line(rng, text):
    lines = text.split("\n")
    i = int(rng.integers(1, max(2, len(lines) - 1)))
    lines.insert(i, lines[i - 1] if i > 1 else lines[i])
    return "\n".join(lines)


def _huge_count(rng):
    digits = int(rng.choice([19, 20, 33, 400]))
    return str(int(rng.integers(1, 10))) + "".join(
        str(int(d)) for d in rng.integers(0, 10, digits - 1)
    )


MUTATIONS = {
    "carriage return": lambda rng, t: _insert(rng, t, "\r"),
    "quote": lambda rng, t: _insert(rng, t, '"'),
    "NUL": lambda rng, t: _insert(rng, t, "\0"),
    "byte-order mark": lambda rng, t: "\ufeff" + t,
    "invalid UTF-8": lambda rng, t: _insert(rng, t, "\udcff"),
    "over-limit cell": lambda rng, t: _replace_cell(
        rng, t, "7" * (csv.field_size_limit() + 1)),
    "duplicate label": _duplicate_line,
    "blank lines": lambda rng, t: _insert(rng, t, "\n \n\n"),
    "non-finite cell": lambda rng, t: _replace_cell(
        rng, t, str(rng.choice(["nan", "inf", "-inf", "NaN"]))),
    "broken header": lambda rng, t: str(rng.choice(["", "x,", "scientist;citations"]))
    + t[t.find("\n"):],
    "huge count": lambda rng, t: _replace_cell(rng, t, _huge_count(rng)),
}


def _mutated_inputs(seed):
    rng = np.random.default_rng(seed)
    long_text, wide_text = _long_and_wide(rng)
    indicators = indicator_table_to_csv(fixture_table())
    names = sorted(MUTATIONS)
    for fmt, text in (("long", long_text), ("wide", wide_text),
                      ("indicators", indicators)):
        # every mutation alone, then a few random pairs
        choices = [[name] for name in names] + [
            list(rng.choice(names, size=2, replace=False))
            for _ in range(PAIRS_PER_FORMAT)
        ]
        for i, chosen in enumerate(choices):
            mutated = text
            for name in chosen:
                mutated = MUTATIONS[name](rng, mutated)
            data = mutated.encode("utf-8", "surrogateescape")
            options = ["--format", fmt]
            if fmt != "indicators" and rng.random() < 0.5:
                options += ["--g-convention", "capped"]
            yield f"{fmt}-{i}-{'+'.join(chosen)}", fmt, data, options


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, _over_budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [20261019])
def test_mutated_inputs_exit_cleanly(tmp_path, alarm, seed):
    failures = []
    for name, fmt, data, options in _mutated_inputs(seed):
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        for command in COMMANDS:
            if command[0] == "indices" and fmt == "indicators":
                continue  # indices reads citation records only
            argv = [command[0], "--input", str(path), *options, *command[1:]]
            signal.alarm(BUDGET_S)
            try:
                code, _, err = run_main(argv)
            except _OverBudget:
                code, err = "over budget", ""
            except Exception as exc:  # the failure is recorded with its input
                code, err = repr(exc), ""
            finally:
                signal.alarm(0)
            if code not in (0, 2) or (code == 2 and not err.startswith("error: ")):
                failures.append((name, command[0], code, err[:200]))
    assert not failures
