"""Golden outputs of the ingest, analysis and usage-error commands.

Each command runs in-process through ``conftest.run_main``; its stdout,
stderr and exit code must match ``tests/golden`` byte for byte. ``cli.main``
prints every warning a command raises as a ``note:`` line, so a stderr golden
also pins that no other warning, numpy's floating-point ones included, was
raised, and ``run_main`` fails on any warning that escapes ``main``. The
inputs are small committed files, so no random stream decides what is
compared.

The ``--json`` goldens print full-precision floats, whose last bits may
differ between LAPACK builds, so their stdout is compared by key sequence,
strings, ints and bools exactly and floats within ``FLOAT_TOL``.

After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and say why each one moved.
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

from conftest import run_main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
# argparse wraps help text to the terminal width, which it reads from COLUMNS
COLUMNS = "80"


def _input(name):
    return ["--input", str(INPUTS / name)]


_SOURCES = {
    "fixture": ["--fixture"],
    "long-lf": _input("long_lf.csv"),
    "long-crlf-quoted": _input("long_crlf_quoted.csv"),
    "long-canonical": _input("long_canonical.csv"),
    "long-noncanonical": _input("long_noncanonical.csv"),
    "wide": [*_input("wide.csv"), "--format", "wide"],
}

# name -> (argv, exit code)
COMMANDS = {
    f"indices-{source}{suffix}": (["indices", *argv, *flag], 0)
    for source, argv in _SOURCES.items()
    for suffix, flag in (("", []), ("-json", ["--json"]), ("-csv", ["--csv"]))
}
COMMANDS.update({
    "error-lone-cr": (["indices", *_input("lone_cr.csv")], 2),
    "error-quoted-two-line": (["indices", *_input("quoted_two_line.csv")], 2),
    "error-beyond-2-53": (["indices", *_input("beyond_2_53.csv")], 2),
    "error-efa-threshold-2": (["efa", "--fixture", "--threshold", "2"], 2),
    "error-cfa-threshold-1": (["cfa", "--fixture", "--threshold", "1"], 2),
    "error-describe-repeated-var": (["describe", "--fixture", "--vars", "h,h"], 2),
    "error-describe-unknown-var": (["describe", "--fixture", "--vars", "h,q"], 2),
    "error-describe-df-0": (["describe", "--fixture", "--df", "0"], 2),
    "error-efa-factors-0": (["efa", "--fixture", "--factors", "0"], 2),
    "error-efa-factors-7": (["efa", "--fixture", "--factors", "7"], 2),
    "error-efa-empty-vars": (["efa", "--fixture", "--vars", ","], 2),
    "error-cfa-threshold-negative": (["cfa", "--fixture", "--threshold", "-1"], 2),
    "error-cfa-threshold-nan": (["cfa", "--fixture", "--threshold", "nan"], 2),
    "error-bootstrap-repeated-var": (
        ["bootstrap", "--fixture", "--vars", "h,h,m,g", "--B", "20"], 2),
    "error-bootstrap-b-0": (["bootstrap", "--fixture", "--B", "0"], 2),
    "error-bootstrap-negative-seed": (["bootstrap", "--fixture", "--seed", "-1", "--B", "5"], 2),
    "error-verify-negative-tolerance": (["verify", "--tolerance-scale", "-1"], 2),
    # --vars is checked before the input is read
    "error-describe-repeated-var-bad-input": (
        ["describe", *_input("lone_cr.csv"), "--vars", "h,h"], 2),
    "error-bootstrap-unknown-var-bad-input": (
        ["bootstrap", *_input("lone_cr.csv"), "--vars", "h,q", "--B", "5"], 2),
})
# text only: it prints rounded values, so it reads the same on every numpy build
COMMANDS.update({
    "verify": (["verify"], 0),
    "efa-fixture": (["efa", "--fixture"], 0),
    "efa-fixture-7nc-ln-promax": (
        ["efa", "--fixture", "--vars", "7+NC", "--transform", "ln", "--rotation", "promax"], 0),
    "efa-fixture-7nc-promax": (["efa", "--fixture", "--vars", "7+NC", "--rotation", "promax"], 0),
    "efa-fixture-none-3": (["efa", "--fixture", "--rotation", "none", "--factors", "3"], 0),
    "efa-fixture-1-promax": (["efa", "--fixture", "--factors", "1", "--rotation", "promax"], 0),
    "describe-fixture": (["describe", "--fixture"], 0),
    **{f"describe-fixture-7nsc-{t}": (
        ["describe", "--fixture", "--vars", "7+NSC", "--transform", t], 0)
       for t in ("raw", "ln", "ln1p", "sqrt")},
    # 150 scientists: describe's Student-t EM runs with a one-row ufunc buffer
    "describe-long150-7nsc-ln1p": (
        ["describe", *_input("long_150.csv"), "--vars", "7+NSC", "--transform", "ln1p"], 0),
    "efa-long150-7nsc-ln1p-promax": (
        ["efa", *_input("long_150.csv"), "--vars", "7+NSC", "--transform", "ln1p",
         "--rotation", "promax"], 0),
    "cfa-fixture": (["cfa", "--fixture"], 0),
    "cfa-fixture-1": (["cfa", "--fixture", "--factors", "1"], 0),
    "cfa-fixture-7-ln-06": (
        ["cfa", "--fixture", "--vars", "7", "--transform", "ln", "--threshold", "0.6"], 0),
    "bootstrap-fixture-b50": (["bootstrap", "--fixture", "--B", "50", "--seed", "1"], 0),
    "bootstrap-fixture-b1000-7-raw-varimax": (
        ["bootstrap", "--fixture", "--B", "1000", "--seed", "31",
         "--vars", "7", "--transform", "raw", "--rotation", "varimax"], 0),
    "bootstrap-fixture-b1000-7nc-ln-promax": (
        ["bootstrap", "--fixture", "--B", "1000", "--seed", "31",
         "--vars", "7+NC", "--transform", "ln", "--rotation", "promax"], 0),
})


# the option lists and choices each command accepts
COMMANDS.update({
    "help": (["--help"], 0),
    **{f"help-{command}": ([command, "--help"], 0)
       for command in ("indices", "describe", "efa", "cfa", "bootstrap", "verify")},
})

# compared as parsed JSON, floats within FLOAT_TOL
JSON_COMMANDS = {
    "verify-json": (["verify", "--json"], 0),
    "efa-fixture-json": (["efa", "--fixture", "--json"], 0),
    "efa-fixture-7nc-ln-promax-json": (
        ["efa", "--fixture", "--vars", "7+NC", "--transform", "ln", "--rotation", "promax",
         "--json"], 0),
    "describe-fixture-json": (["describe", "--fixture", "--json"], 0),
    "cfa-fixture-json": (["cfa", "--fixture", "--json"], 0),
    "bootstrap-fixture-b50-seed31-json": (
        ["bootstrap", "--fixture", "--B", "50", "--seed", "31", "--json"], 0),
    # the bootstrap's promax path, which reads the pattern and phi stages
    "bootstrap-fixture-b50-seed31-7nc-ln-promax-json": (
        ["bootstrap", "--fixture", "--vars", "7+NC", "--transform", "ln",
         "--rotation", "promax", "--B", "50", "--seed", "31", "--json"], 0),
    "describe-long150-7nsc-ln1p-json": (
        ["describe", *_input("long_150.csv"), "--vars", "7+NSC", "--transform", "ln1p",
         "--json"], 0),
    "efa-long150-7nsc-ln1p-promax-json": (
        ["efa", *_input("long_150.csv"), "--vars", "7+NSC", "--transform", "ln1p",
         "--rotation", "promax", "--json"], 0),
}
FLOAT_TOL = {"rel_tol": 1e-9, "abs_tol": 1e-12}


def _read(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", COMMANDS)
def test_golden_output(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    argv, expected_code = COMMANDS[name]
    code, out, err = run_main(argv)
    assert code == expected_code
    assert out == _read(GOLDEN / f"{name}.stdout")
    assert err == _read(GOLDEN / f"{name}.stderr")


def _assert_json_close(got, want, path="$"):
    """``got`` equals ``want`` but for floats, which agree within FLOAT_TOL."""
    assert type(got) is type(want), f"{path}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} against {list(want)}"
        for key in want:
            _assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} against {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_json_close(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, **FLOAT_TOL), f"{path}: {got!r} against {want!r}"
    else:
        assert got == want, f"{path}: {got!r} against {want!r}"


@pytest.mark.parametrize("name", JSON_COMMANDS)
def test_golden_json_output(name):
    argv, expected_code = JSON_COMMANDS[name]
    code, out, err = run_main(argv)
    assert code == expected_code
    _assert_json_close(json.loads(out), json.loads(_read(GOLDEN / f"{name}.stdout")))
    assert err == _read(GOLDEN / f"{name}.stderr")


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    for name, (argv, expected_code) in {**COMMANDS, **JSON_COMMANDS}.items():
        code, out, err = run_main(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        for suffix, text in ((".stdout", out), (".stderr", err)):
            with open(GOLDEN / f"{name}{suffix}", "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
