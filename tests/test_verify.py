import hashlib
import warnings

import numpy as np
import pytest

from bibfactor import (
    ExtractionSettings,
    IndicatorTable,
    Transform,
    ValidationError,
    ZeroVarianceError,
    efa_pipeline,
)
from bibfactor import fixture as fx
from bibfactor.efa import _pipelines
from bibfactor.fixture import fixture_table
from bibfactor.stats import transform_columns
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


def changed_fixture(changes):
    """The fixture with ``changes[(column, row)]`` written in; a row of None
    sets the whole column."""
    table = fixture_table()
    values = table.values.copy()
    for (column, row), value in changes.items():
        values[slice(None) if row is None else row, table.columns.index(column)] = value
    return IndicatorTable(table.labels, table.columns, values)


def rounding_draw(seed):
    """The fixture with uniform +-0.05 added to each A, R, hw and C cell."""
    table = fixture_table()
    values = table.values.copy()
    rng = np.random.default_rng(seed)
    for column in ("A", "R", "hw", "C"):
        values[:, table.columns.index(column)] += rng.uniform(-0.05, 0.05, table.n_rows)
    return IndicatorTable(table.labels, table.columns, values)


class TestStackedStages:
    """verify runs the four transforms of a variable set as one EFA stack and
    the 21 descriptive columns as one Student-t EM; a table that fails must
    still raise what the first failing (variable set, transform) pipeline of
    a per-pipeline loop raises."""

    @pytest.mark.parametrize("changes, error, message", [
        # the raw pipeline of set 7 fails before the ln transform of m does
        ({("h", None): 5.0, ("m", 2): 0.0}, ZeroVarianceError, "column 'h' is constant"),
        ({("A", 3): -1.0}, ValidationError,
         "column 'A': ln transform requires positive values; got -1.0 at position 3"),
        ({("h", None): 5.0}, ZeroVarianceError, "column 'h' is constant"),
        ({("N", 2): 0.0}, ValidationError,
         "column 'N': ln transform requires positive values; got 0.0 at position 2"),
    ], ids=["h-constant-m-zero", "A-negative", "h-constant", "N-zero"])
    def test_first_failing_pipeline_decides_the_error(self, changes, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(error) as caught:
                run_verification(fixture_table=changed_fixture(changes))
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_stacks_equal_one_pipeline_per_transform(self, seed):
        table = fixture_table() if seed is None else rounding_draw(seed)
        settings = ExtractionSettings()
        pairs = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for spec in fx.VARIMAX_TABLES.values():
                variables = spec["variables"]
                values = np.column_stack([table.column(v) for v in variables])
                keys = list(spec["loadings"])
                stack = _pipelines(
                    (np.column_stack(list(transform_columns(values, variables, Transform(k))))
                     for k in keys),
                    variables, settings, "varimax", 3,
                )
                for key, got in zip(keys, stack, strict=True):
                    want = efa_pipeline(values, variables, Transform(key), settings, "varimax")
                    for name in ("values", "eigenvalues", "eigenvectors"):
                        assert (getattr(got.correlation, name).tobytes()
                                == getattr(want.correlation, name).tobytes()), (key, name)
                    for name in ("unrotated", "rotated"):
                        assert (getattr(got, name).values.tobytes()
                                == getattr(want, name).values.tobytes()), (key, name)
                    for name in ("communalities", "ss_loadings", "variance_explained"):
                        assert (getattr(got, name).tobytes()
                                == getattr(want, name).tobytes()), (key, name)
                    pairs += 1
        assert pairs == 12

    def test_warnings_are_one_per_clamp(self):
        # 12 clamped extractions and one CFA uniqueness on its bound; the
        # count also holds without pytest's warning capture (see the CI)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_verification()
        messages = [str(w.message) for w in caught]
        clamps = [m for m in messages if m.startswith("communality exceeded 1 ")]
        bounds = [m for m in messages if m.startswith("uniqueness at the admissible boundary ")]
        assert (len(clamps), len(bounds), len(messages)) == (12, 1, 13)
