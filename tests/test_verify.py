import hashlib

import numpy as np
import pytest

from bibfactor import IndicatorTable, ValidationError
from bibfactor.fixture import fixture_table
from bibfactor.verify import run_verification


def perturbed_fixture(row_label, column, value):
    table = fixture_table()
    values = table.values.copy()
    i = table.labels.index(row_label)
    j = table.columns.index(column)
    values[i, j] = value
    return IndicatorTable(table.labels, table.columns, values)


class TestVerify:
    def test_report_shape(self, verification_report):
        assert verification_report.overall_pass
        assert verification_report.n_binding > 500
        assert verification_report.n_binding_failed == 0
        assert verification_report.n_reported > 20
        payload = verification_report.to_dict()
        assert payload["overall_pass"] is True
        assert len(payload["checks"]) == len(verification_report.checks)

    def test_fixture_is_read_only(self):
        with pytest.raises(ValueError):
            fixture_table().values[0, 0] = 999
        assert fixture_table().values[0, 0] != 999
        assert run_verification().overall_pass
        # a table built from a caller's array leaves that array writable
        values = fixture_table().values.copy()
        IndicatorTable(fixture_table().labels, fixture_table().columns, values)
        assert values.flags.writeable

    def test_deterministic(self):
        a = run_verification().to_dict()
        b = run_verification().to_dict()
        assert a == b

    def test_perturbed_cell_fails_only_its_checks(self):
        # nudge one total-citation count: large enough to break the S/N
        # identity of that row, small enough to leave the factor models
        # inside their bands
        table = perturbed_fixture("D", "S", 2100)
        report = run_verification(fixture_table=table)
        failures = report.failures()
        assert not report.overall_pass
        assert [f.cell for f in failures] == ["D: C vs S/N"]

    def test_zero_tolerance_fails_rounded_cells(self):
        report = run_verification(tolerance_scale=0.0)
        assert not report.overall_pass
        assert report.n_binding_failed > 100
        # exactly reported values (integer medians and the like) still pass
        assert report.n_binding_failed < report.n_binding
        # a negative or non-finite scale is refused before any check runs
        for scale in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tolerance scale must be finite"):
                run_verification(tolerance_scale=scale)

    def test_format_lines_summary(self, verification_report):
        lines = verification_report.format_lines()
        assert lines[-1].startswith("PASS:")
        verbose = verification_report.format_lines(verbose=True)
        assert len(verbose) > len(lines)

    def test_check_sequence_is_pinned(self, verification_report):
        # a change that reorders, drops or re-tolerances a check changes this
        sequence = "\n".join(f"{c.table}\t{c.cell}\t{c.binding}\t{c.tolerance!r}"
                             for c in verification_report.checks)
        assert len(verification_report.checks) == 633
        assert hashlib.sha256(sequence.encode()).hexdigest() == (
            "846a887da2b38ba91698632135914518c782d96c220df32b8f3442c1352a7c7d"
        )
