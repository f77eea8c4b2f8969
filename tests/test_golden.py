"""Golden outputs of the ingest, analysis and usage-error commands.

Each command runs in-process through ``cli.main``; its stdout, stderr and
exit code must match ``tests/golden`` byte for byte. ``cli.main`` prints
every warning a command raises as a ``note:`` line, so a stderr golden also
pins that no other warning, numpy's floating-point ones included, was
raised, with or without pytest's warning capture. The inputs are small
committed files, so no random stream decides what is compared.

After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and say why each one moved.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from bibfactor.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


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
    "cfa-fixture": (["cfa", "--fixture"], 0),
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


def run(argv):
    """Exit code, stdout and stderr of ``cli.main`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", COMMANDS)
def test_golden_output(name):
    argv, expected_code = COMMANDS[name]
    code, out, err = run(argv)
    assert code == expected_code
    assert out == _read(GOLDEN / f"{name}.stdout")
    assert err == _read(GOLDEN / f"{name}.stderr")


if __name__ == "__main__":
    for name, (argv, expected_code) in COMMANDS.items():
        code, out, err = run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        for suffix, text in ((".stdout", out), (".stderr", err)):
            with open(GOLDEN / f"{name}{suffix}", "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
