import dataclasses
import json
import math

import numpy as np
import pytest

from bibfactor import cli
from bibfactor.cli import main
from bibfactor.fixture import VARIMAX_TABLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndicesCommand:
    def test_long_input(self, capsys, tmp_path):
        path = tmp_path / "cites.csv"
        path.write_text("scientist,citations\na,10\na,3\nb,0\n")
        code, out, err = run_cli(capsys, "indices", "--input", str(path))
        assert code == 0
        assert "scientist" in out and "a" in out and "b" in out

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
        assert "'x'" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--input", "/no/such/file.csv")
        assert code == 2
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["indices", "--fixture", "--json", "--csv"])
        assert info.value.code == 2


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

    def test_fixed_df_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "describe", "--fixture", "--df", "25", "--json"
        )
        payload = json.loads(out)
        # with df = n - 1 the Student reference is nearly normal
        assert payload["h"]["D_student"] == pytest.approx(
            payload["h"]["D_normal"], abs=5e-3
        )


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


class TestCfaCommand:
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


class TestBootstrapCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bootstrap", "--fixture", "--B", "25", "--seed", "7", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["B"] == 25 and payload["seed"] == 7
        lower = np.array(payload["lower"])
        upper = np.array(payload["upper"])
        assert (lower <= upper).all()


class TestVerifyCommand:
    def test_passes_on_unmodified_build(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS" in out.splitlines()[-1]

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tolerance-scale", "0")
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        payload = json.loads(out)
        assert payload["overall_pass"] is True
        assert payload["n_binding"] > 500
