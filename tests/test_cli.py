import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import bibfactor
from bibfactor import (
    HeywoodWarning, IndicatorTable, cli, fixture_table, indicator_table_to_csv,
)
from bibfactor.cfa import cfa_fit, pattern_from_efa
from bibfactor.cli import main
from bibfactor.efa import ExtractionSettings, adequacy, bootstrap_efa, efa_pipeline
from bibfactor.fixture import VARIMAX_TABLES
from bibfactor.stats import Transform
from bibfactor.tables import INDICATOR_COLUMNS, VARIABLE_SETS, format_number
from bibfactor.verify import run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_payload(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


def strict_json(result):
    """A result's ``to_dict()`` as the CLI would print it; NaN is refused."""
    return json.loads(json.dumps(result.to_dict(), allow_nan=False))


def fixture_columns(variables):
    return np.column_stack([fixture_table().column(v) for v in variables])


# every --json payload's top-level keys, in order; later fields may only append
EFA_KEYS = ["kmo", "bartlett", "rotation", "variables", "loadings", "unrotated",
            "communalities", "ss_loadings", "variance_explained"]
DESCRIBE_STATS = ["mean", "median", "sd", "D_normal", "p_normal", "D_student",
                  "p_student"]


def test_import_leaves_scipy_optimize_unloaded():
    # in a fresh interpreter: the test oracles import scipy.optimize into this one
    src = str(Path(bibfactor.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, bibfactor.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == "False\n"


class TestIndicesCommand:
    def test_long_input(self, capsys, tmp_path):
        path = tmp_path / "cites.csv"
        path.write_text("scientist,citations\na,10\na,3\nb,0\n")
        code, out, err = run_cli(capsys, "indices", "--input", str(path))
        assert code == 0
        assert "scientist" in out and "a" in out and "b" in out

    def test_text_rendering(self, capsys, tmp_path):
        path = tmp_path / "cites.csv"
        path.write_text("scientist,citations\nx,3\nx,10\ny,0\nx,5\ny,2\nx,4\nx,8\n")
        code, out, _ = run_cli(capsys, "indices", "--input", str(path))
        assert code == 0
        assert out.splitlines() == [
            "scientist       h       m       g      h2       A       R      hw"
            "       N       S       C",
            "---------  ------  ------  ------  ------  ------  ------  ------"
            "  ------  ------  ------",
            "x               4     6.5       5       2     6.8     5.2     4.2"
            "       5      30     6.0",
            "y               1     2.0       1       1     2.0     1.4     1.4"
            "       2       2     1.0",
        ]

    def test_json_keys(self, capsys):
        payload = json_payload(capsys, "indices", "--fixture")
        assert list(payload) == ["columns", "rows"]
        assert payload["columns"] == list(INDICATOR_COLUMNS)
        assert list(payload["rows"]) == list(fixture_table().labels)
        assert {tuple(row) for row in payload["rows"].values()} == {INDICATOR_COLUMNS}

    def test_fixture_columns_in_canonical_order(self, capsys):
        # the fixture table stores its columns in the appendix order g, h2, h, ...
        canonical = ["h", "m", "g", "h2", "A", "R", "hw", "N", "S", "C"]
        code, out, _ = run_cli(capsys, "indices", "--fixture")
        assert code == 0
        assert out.splitlines()[0].split() == ["scientist"] + canonical
        code, out, _ = run_cli(capsys, "indices", "--fixture", "--csv")
        assert code == 0
        assert out == indicator_table_to_csv(fixture_table().subset(canonical))
        assert out.splitlines()[0].split(",") == ["scientist"] + canonical
        code, out, _ = run_cli(capsys, "indices", "--fixture", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == canonical
        table = fixture_table()
        assert list(payload["rows"]) == list(table.labels)
        for label, row in payload["rows"].items():
            assert list(row) == canonical
            i = table.labels.index(label)
            assert row == {c: table.column(c)[i] for c in canonical}

    def test_five_paper_record_values(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,3,10,5,4,8\n")
        code, out, _ = run_cli(
            capsys, "indices", "--input", str(path), "--format", "wide", "--json"
        )
        assert code == 0
        row = json.loads(out)["rows"]["x"]
        assert row["h"] == 4 and row["h2"] == 2 and row["g"] == 5
        assert row["A"] == pytest.approx(6.75)
        assert row["m"] == pytest.approx(6.5)
        assert row["R"] == pytest.approx(math.sqrt(27))
        assert row["hw"] == pytest.approx(math.sqrt(18))
        assert (row["N"], row["S"]) == (5, 30)
        assert row["C"] == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "command", ["indices", "describe", "efa", "cfa", "bootstrap"]
    )
    def test_g_convention_flag(self, capsys, tmp_path, command):
        extra = {
            "cfa": ("--assign-max",), "bootstrap": ("--B", "20", "--seed", "3"),
        }.get(command, ())
        # x has g = 5 padded but only one paper, so capping changes its g
        rng = np.random.default_rng(1)
        lines = ["x,25"]
        for i in range(24):
            ranks = np.arange(1, rng.integers(2, 30) + 1)
            top = rng.lognormal(3.5, 0.8)
            counts = np.floor(top * ranks ** -rng.uniform(0.3, 1.0)).astype(int)
            lines.append(f"s{i}," + ",".join(map(str, counts)))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        payloads = {}
        for convention in ("padded", "capped"):
            code, out, _ = run_cli(
                capsys, command, "--input", str(path), "--format", "wide",
                "--g-convention", convention, *extra, "--json",
            )
            assert code == 0
            payloads[convention] = json.loads(out)
        assert payloads["capped"] != payloads["padded"]
        if command == "indices":
            assert payloads["padded"]["rows"]["x"]["g"] == 5
            assert payloads["capped"]["rows"]["x"]["g"] == 1

    def test_bad_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scientist,citations\na,-2\n")
        code, _, err = run_cli(capsys, "indices", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_record_without_papers_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,3,10,5\nx,\n")
        code, out, err = run_cli(
            capsys, "indices", "--input", str(path), "--format", "wide"
        )
        assert code == 2
        assert out == ""
        assert err == "error: record 'x' has no papers; C = S/N is undefined\n"

    @pytest.mark.parametrize("argv, content", [
        ((), "scientist,citations\na,9000000000000000000\n"),
        (("--format", "wide"), "b,3\na," + "1" * 33 + "\n"),
        (("--format", "wide", "--g-convention", "capped"), "a,1" + "0" * 400 + "\n"),
    ], ids=["long 9e18", "wide 33 digits", "wide 400 digits capped"])
    def test_count_beyond_exactness_bound_exits_2(self, capsys, tmp_path, argv, content):
        path = tmp_path / "big.csv"
        path.write_text(content)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "indices", "--input", str(path), *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err == ("error: record 'a': more than 2**53 citations in total; "
                       "indices are exact only up to 2**53\n")

    @pytest.mark.parametrize("command", ["efa", "cfa", "describe"])
    def test_non_finite_indicator_exits_2(self, capsys, tmp_path, command):
        lines = indicator_table_to_csv(fixture_table()).splitlines()
        label, _, rest = lines[2].split(",", 2)
        lines[2] = f"{label},nan,{rest}"
        path = tmp_path / "indicators.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, command, "--input", str(path), "--format", "indicators"
        )
        assert code == 2
        assert out == ""
        assert "line 3: non-finite cell 'nan'" in err

    @pytest.mark.parametrize(
        "argv, content, where",
        [
            (("indices",), b"scientist,citations\na,5\nb,\xff\xfe3\n",
             "line 3: byte 0xff at offset 26"),
            (("efa", "--format", "wide"), b"a,3,10\n\xff\xfe,1,2\n",
             "line 2: byte 0xff at offset 7"),
        ],
    )
    def test_invalid_utf8_exits_2(self, capsys, tmp_path, argv, content, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {where} is not valid UTF-8\n"

    @pytest.mark.parametrize(
        "argv, content, where",
        [
            (("indices",), "scientist,citations\na,5\rb,3\n", "line 2: new-line character"),
            (("indices", "--format", "wide"), "a,3,10\rb,1\n", "line 1: new-line character"),
            (("describe", "--format", "indicators"), "scientist,h,g\na,5,1\nb,3,2\rc,1,1\n",
             "line 3: new-line character"),
            (("indices",), "scientist,citations\na,5\n" + "x" * 200_000 + ",3\n",
             "line 3: field larger than field limit"),
        ],
        ids=["long lone CR", "wide lone CR", "indicators lone CR", "long field limit"],
    )
    def test_unsplittable_csv_exits_2(self, capsys, tmp_path, argv, content, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(content.encode())
        code, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}")

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        text = "scientist,citations\na,5\na,3\nb,2\n"
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.csv"
            path.write_text(text, encoding=encoding)
            outputs.append(run_cli(capsys, "indices", "--input", str(path), "--json"))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--input", "/no/such/file.csv")
        assert code == 2
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        for argv in (
            ["indices", "--fixture", "--json", "--csv"],
            # options a command does not act on are refused before any work
            ["describe", "--fixture", "--factors", "9"],
            ["cfa", "--fixture", "--csv"],
            ["bootstrap", "--fixture", "--csv"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert capsys.readouterr().out == ""


class TestDescribeCommand:
    def test_fixture_matches_published_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "describe", "--fixture", "--transform", "raw"
        )
        assert code == 0
        assert "14.88" in out  # mean of h
        assert "23.25" in out  # median of m
        assert "0.186" in out  # KS D of h against the fitted normal

    def test_json_and_text_agree_after_rounding(self, capsys):
        _, text, _ = run_cli(capsys, "describe", "--fixture")
        _, raw, _ = run_cli(capsys, "describe", "--fixture", "--json")
        payload = json.loads(raw)
        mean_line = next(
            line for line in text.splitlines() if line.startswith("mean")
        )
        cells = mean_line.split()[1:]
        for cell, variable in zip(cells, ["h", "m", "g", "h2", "A", "R", "hw"]):
            assert float(cell) == pytest.approx(
                round(payload[variable]["mean"], 2), abs=1e-9
            )

    def test_json_keys(self, capsys):
        payload = json_payload(capsys, "describe", "--fixture")
        assert list(payload) == list(VARIABLE_SETS["7"])
        assert all(list(stats) == DESCRIBE_STATS for stats in payload.values())

    def test_fixed_df_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "describe", "--fixture", "--df", "25", "--json"
        )
        payload = json.loads(out)
        # with df = n - 1 the Student reference is nearly normal
        assert payload["h"]["D_student"] == pytest.approx(
            payload["h"]["D_normal"], abs=5e-3
        )


    @pytest.mark.parametrize("transform, columns, message", [
        ("raw", {2: "constant"}, "sample is constant; cannot fit a scale"),
        ("raw", {2: "collapsed", 4: "constant"}, "no admissible Student fit for this sample"),
        ("ln", {2: "collapsed", 4: "zero"}, "no admissible Student fit for this sample"),
        ("ln", {2: "zero", 4: "collapsed"}, "ln transform requires positive values"),
    ])
    def test_first_failing_column_decides_the_error(self, capsys, tmp_path, transform,
                                                    columns, message):
        # the error a per-column loop meets first, though the fits are stacked
        rng = np.random.default_rng(3)
        values = np.abs(rng.standard_t(4, size=(1001, 7))) + 1.0
        for j, kind in columns.items():
            if kind == "constant":
                values[:, j] = 2.0
            elif kind == "collapsed":
                # ln of it is 1000 zeros and a one: every candidate collapses
                values[:, j] = 1.0
                values[0, j] = math.e
            else:
                values[7, j] = 0.0
        variables = VARIABLE_SETS["7"]
        lines = ["scientist," + ",".join(variables)]
        lines += [f"s{i}," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
        path = tmp_path / "indicators.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path), "--format",
                                 "indicators", "--transform", transform)
        assert (code, out) == (2, "")
        # a transform error names its column, here the third, g
        prefix = "column 'g': " if "transform" in message else ""
        assert err.startswith(f"error: {prefix}{message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, message", [
        ("describe", "sample is constant; cannot fit a scale"),
        ("efa", "column 'A' is constant"),
    ])
    @pytest.mark.parametrize("transform", ["raw", "ln", "ln1p", "sqrt"])
    def test_constant_column_exits_2(self, capsys, tmp_path, command, message, transform):
        # ln of 26 values of 2.0 has an sd of 1e-16, not 0: still constant
        table = fixture_table()
        values = table.values.copy()
        values[:, table.columns.index("A")] = 2.0
        path = tmp_path / "indicators.csv"
        path.write_text(indicator_table_to_csv(
            IndicatorTable(table.labels, table.columns, values)))
        code, out, err = run_cli(capsys, command, "--input", str(path), "--format",
                                 "indicators", "--transform", transform)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_one_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "indicators.csv"
        path.write_text("scientist,h,g\na,5,7\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path), "--format",
                                 "indicators", "--vars", "h,g")
        assert (code, out, err) == (2, "", "error: need at least 2 observations\n")


class TestEfaCommand:
    def test_varimax_json_matches_published_loadings(self, capsys):
        code, out, _ = run_cli(
            capsys, "efa", "--fixture", "--vars", "7", "--transform", "raw",
            "--rotation", "varimax", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        computed = np.array(payload["loadings"])
        expected = np.array([
            VARIMAX_TABLES["table3"]["loadings"]["raw"][v]
            for v in payload["variables"]
        ])
        assert np.abs(computed - expected).max() <= 0.03
        assert payload["kmo"] == pytest.approx(0.737, abs=0.005)

    def test_promax_includes_structure_and_phi(self, capsys):
        code, out, _ = run_cli(
            capsys, "efa", "--fixture", "--rotation", "promax", "--json"
        )
        payload = json.loads(out)
        assert "structure" in payload and "phi" in payload
        phi = np.array(payload["phi"])
        assert phi[0, 1] == pytest.approx(phi[1, 0])

    @pytest.mark.parametrize("rotation, extra", [
        ("none", []),
        ("varimax", []),
        # an oblique solution appends its structure and factor correlations
        ("promax", ["structure", "phi"]),
    ])
    def test_json_is_the_results_dicts(self, capsys, rotation, extra):
        payload = json_payload(capsys, "efa", "--fixture", "--rotation", rotation)
        assert list(payload) == EFA_KEYS + extra + ["memberships"]
        variables = VARIABLE_SETS["7"]
        result = efa_pipeline(fixture_columns(variables), variables,
                              Transform.IDENTITY, ExtractionSettings(), rotation)
        for part in (adequacy(result.correlation, fixture_table().n_rows), result):
            expected = strict_json(part)
            assert {k: payload[k] for k in expected} == expected

    def test_text_output_sections(self, capsys):
        code, out, _ = run_cli(capsys, "efa", "--fixture")
        assert "KMO" in out
        assert "varimax loadings" in out
        assert "communalities" in out
        assert "variance explained" in out

    def test_custom_variable_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "efa", "--fixture", "--vars", "h,g,A,R", "--json"
        )
        assert code == 0
        assert json.loads(out)["variables"] == ["h", "g", "A", "R"]

    def test_unknown_variable_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "efa", "--fixture", "--vars", "h,xx")
        assert code == 2
        assert "xx" in err


@pytest.mark.parametrize("command", ["describe", "efa", "cfa", "bootstrap"])
def test_transform_error_names_its_column(capsys, tmp_path, command):
    table = fixture_table()
    values = table.values.copy()
    values[2, table.columns.index("h")] = 0.0
    path = tmp_path / "indicators.csv"
    path.write_text(indicator_table_to_csv(IndicatorTable(table.labels, table.columns, values)))
    code, out, err = run_cli(capsys, command, "--input", str(path), "--format",
                             "indicators", "--transform", "ln")
    assert (code, out) == (2, "")
    assert err == ("error: column 'h': ln transform requires positive values; "
                   "got 0.0 at position 2\n")


@pytest.mark.parametrize("command", ["describe", "efa", "cfa", "bootstrap"])
def test_repeated_variable_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "--fixture", "--vars", "h,m,h")
    assert (code, out, err) == (2, "", "error: indicator 'h' is listed twice\n")


def test_warning_filters_still_apply(capsys):
    # main records warnings as notes but leaves the filters as they are
    with warnings.catch_warnings():
        warnings.simplefilter("error", HeywoodWarning)
        with pytest.raises(HeywoodWarning):
            main(["efa", "--fixture"])


class TestCfaCommand:
    def test_default_variables_are_the_paper_model(self, capsys):
        default = run_cli(capsys, "cfa", "--fixture")
        assert default[0] == 0
        assert default[:2] == run_cli(capsys, "cfa", "--fixture", "--vars", "7+NC")[:2]

    def test_fixture_fit(self, capsys):
        code, out, _ = run_cli(
            capsys, "cfa", "--fixture", "--vars", "7+NC", "--threshold", "0.7",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        variables = payload["variables"]
        r2 = dict(zip(variables, payload["r_squared"]))
        assert r2["h"] == pytest.approx(0.94, abs=0.1)

    def test_json_is_the_fits_dict(self, capsys):
        payload = json_payload(capsys, "cfa", "--fixture")
        variables = VARIABLE_SETS["7+NC"]
        efa = efa_pipeline(fixture_columns(variables), variables)
        fit = cfa_fit(efa.correlation, fixture_table().n_rows, pattern_from_efa(efa.rotated, 0.7))
        expected = strict_json(fit)
        assert list(payload) == ["variables", "pattern", *expected]
        assert list(expected) == ["loadings", "se", "z", "p_values", "phi",
                                  "uniquenesses", "r_squared", "discrepancy",
                                  "converged", "iterations"]
        assert {k: payload[k] for k in expected} == expected
        # the masked loadings have no standard error: NaN on the fit, null here
        masked = np.array(payload["pattern"]) == 0
        assert masked.any() and np.isnan(fit.se[masked]).all()
        for key in ("se", "z", "p_values"):
            cells = np.array(payload[key], dtype=object)
            assert all(c is None for c in cells[masked])
            assert all(isinstance(c, float) for c in cells[~masked])

    def test_non_converged_fit_exits_2(self, capsys, monkeypatch):
        real = cli.cfa_fit
        monkeypatch.setattr(
            cli, "cfa_fit",
            lambda *args: dataclasses.replace(real(*args), converged=False),
        )
        code, out, err = run_cli(
            capsys, "cfa", "--fixture", "--vars", "7+NC", "--json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "did not converge" in err

    def test_threshold_too_high_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "cfa", "--fixture", "--vars", "7", "--threshold", "0.95"
        )
        assert code == 2

    @pytest.mark.parametrize("threshold", ["-1", "nan", "1"])
    def test_threshold_outside_unit_interval_exits_2(self, capsys, threshold):
        code, out, err = run_cli(capsys, "cfa", "--fixture", "--threshold", threshold)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: threshold must lie in (0, 1)"

    def test_text_cells_are_the_fit(self, capsys, monkeypatch):
        # each row shows the variable's first free loading; a cell without a
        # finite value prints as nan
        real = cli.cfa_fit
        seen = {}

        def with_nan_cells(corr, n_obs, spec):
            fit = real(corr, n_obs, spec)
            se, z = fit.se.copy(), fit.z.copy()
            se[0, 0] = z[1, 0] = np.nan
            seen.update(spec=spec, fit=dataclasses.replace(fit, se=se, z=z))
            return seen["fit"]

        monkeypatch.setattr(cli, "cfa_fit", with_nan_cells)
        code, out, _ = run_cli(capsys, "cfa", "--fixture")
        assert code == 0
        fit, spec = seen["fit"], seen["spec"]
        rows = []
        for i, v in enumerate(spec.labels):
            j = spec.loadings_free[i].tolist().index(True)
            cells = [fit.loadings[i, j], fit.se[i, j], fit.z[i, j],
                     fit.p_values[i, j], fit.r_squared[i]]
            rows.append([v, f"F{j + 1}", *map(format_number, cells, [3, 3, 2, 4, 3])])
        lines = out.splitlines()
        assert lines[0].split() == ["variable", "factor", "loading", "se", "z", "p", "R2"]
        assert [line.split() for line in lines[2:2 + spec.p]] == rows
        assert lines[2 + spec.p] == ""
        assert sum(row.count("nan") for row in rows) == 2


class TestBootstrapCommand:
    def test_small_run(self, capsys):
        code, out, err = run_cli(
            capsys, "bootstrap", "--fixture", "--B", "25", "--seed", "7", "--json"
        )
        assert code == 0
        # one note for the clamps of the full-sample fit and the resamples
        assert err == "note: communality exceeded 1 during extraction and was clamped\n"
        payload = json.loads(out)
        assert payload["B"] == 25 and payload["seed"] == 7
        lower = np.array(payload["lower"])
        upper = np.array(payload["upper"])
        assert (lower <= upper).all()
        assert payload["failures"] == {} and payload["n_failed"] == 0
        assert 0 <= payload["n_clamped"] <= 25

    def test_json_is_the_results_dict(self, capsys):
        payload = json_payload(capsys, "bootstrap", "--fixture", "--B", "20",
                               "--seed", "3")
        variables = VARIABLE_SETS["7"]
        expected = strict_json(bootstrap_efa(
            fixture_columns(variables), variables, Transform.IDENTITY,
            ExtractionSettings(), n_boot=20, seed=3))
        assert list(payload) == ["B", "seed", "n_failed", "failures", "n_clamped",
                                 "variables", "reference", "mean", "sd", "lower",
                                 "upper"]
        assert payload == expected

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "bootstrap", "--fixture", "--B", "5", "--seed", "-1"
        )
        assert code == 2
        assert out == "" and "seed must be non-negative" in err


class TestVerifyCommand:
    def test_passes_on_unmodified_build(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS" in out.splitlines()[-1]

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tolerance-scale", "0")
        assert code == 1
        assert "FAIL" in out
        # a scale that is no tolerance at all is a usage error, not a failure
        for scale, shown in (("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")):
            assert run_cli(capsys, "verify", "--tolerance-scale", scale) == (
                2, "", "error: tolerance scale must be finite and non-negative, "
                       f"got {shown}\n")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        payload = json.loads(out)
        assert payload["overall_pass"] is True
        assert payload["n_binding"] > 500
        assert list(payload) == ["overall_pass", "n_binding", "n_binding_failed",
                                 "n_reported", "checks"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert payload == strict_json(run_verification())
