"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 1-9 compare the recomputed pipeline against the published tables
for the embedded dataset at their stated tolerance bands (via the shared
verification report); criteria 10-13 are the randomized oracle and property
suites. Published cells documented as internally inconsistent are exercised
as reported-only checks, never silently skipped.
"""

import time

import numpy as np
import pytest

import bibfactor as bf
from bibfactor.cfa import PatternSpec
from bibfactor.efa import _varimax_criterion
from oracles import (
    oracle_a,
    oracle_g_capped,
    oracle_g_core_average,
    oracle_g_padded,
    oracle_h,
    oracle_h2,
    oracle_hw,
    oracle_interpolated,
    oracle_m,
    oracle_r,
    random_record_counts,
)

SEVEN = bf.VARIABLE_SETS["7"]


def _emit(number, title, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:>2} ({title})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _table_checks(report, table_id, cells=None):
    checks = [c for c in report.checks if c.table == table_id]
    if cells is not None:
        checks = [c for c in checks if any(c.cell.startswith(s) for s in cells)]
    return checks


def _binding_ok(checks):
    binding = [c for c in checks if c.binding]
    return binding and all(c.passed for c in binding)


class TestAcceptance:
    def test_criterion_01_dataset_consistency(self, verification_report):
        checks = _table_checks(verification_report, "tableA1")
        reported = [c for c in checks if not c.binding]
        # 26 rows x 2 identities; one published cell is provably off and
        # stays a reported-only check with its explanation attached
        assert len(checks) == 52
        assert len(reported) == 1 and "transcription" in reported[0].note
        _emit(1, "dataset self-consistency", _binding_ok(checks),
              f"{len(checks) - len(reported)} binding identities pass; "
              f"1 known-inconsistent published cell reported")

    def test_criterion_02_raw_moments_and_ks(self, verification_report):
        checks = _table_checks(verification_report, "table1")
        student_p = [c for c in checks if c.cell.endswith("p_student")]
        beyond = [c for c in student_p if not c.passed]
        _emit(2, "raw moments and KS tests", _binding_ok(checks),
              f"{sum(c.binding for c in checks)} binding cells pass; "
              f"{len(beyond)} Student p deviations reported")

    def test_criterion_03_transformed_moments_and_ks(self, verification_report):
        checks = _table_checks(verification_report, "tableA2") + _table_checks(
            verification_report, "tableA3"
        )
        inconsistent = [
            c for c in checks
            if not c.binding and "inconsistent" in c.note and not c.passed
        ]
        assert len(inconsistent) == 1  # the transformed m column p-value
        _emit(3, "transformed moments and KS tests", _binding_ok(checks),
              "1 known-inconsistent published p-value reported")

    def test_criterion_04_sampling_adequacy(self, verification_report):
        checks = _table_checks(verification_report, "table2")
        _emit(4, "KMO and sphericity", _binding_ok(checks),
              "four KMO values within 0.005, all sphericity p < 0.001")

    def test_criterion_05_varimax_seven_indicators(self, verification_report):
        checks = [
            c for c in _table_checks(verification_report, "table3")
        ]
        _emit(5, "varimax loadings, SS, variance explained",
              _binding_ok(checks), f"{len(checks)} cells within band")

    def test_criterion_06_communalities(self, verification_report):
        checks = _table_checks(verification_report, "tableA4")
        _emit(6, "communalities of the seven-indicator models",
              _binding_ok(checks), "within 0.02, raw mean >= 0.97")

    def test_criterion_07_promax_seven_indicators(self, verification_report):
        checks = _table_checks(verification_report, "table4")
        _emit(7, "promax pattern loadings", _binding_ok(checks),
              f"{len(checks)} cells within 0.05")

    def test_criterion_08_expanded_models(self, verification_report):
        checks = (
            _table_checks(verification_report, "table5")
            + _table_checks(verification_report, "table6")
            + _table_checks(verification_report, "tableA5")
            + _table_checks(verification_report, "table7")
        )
        _emit(8, "expanded variable sets", _binding_ok(checks),
              f"{len(checks)} cells within band")

    def test_criterion_09_categorization(self, verification_report):
        checks = _table_checks(verification_report, "categorize")
        _emit(9, "loading-threshold categorization", _binding_ok(checks),
              "memberships at 0.6 and 0.7 match")

    def test_criterion_10_index_oracles(self):
        rng = np.random.default_rng(2024)
        n_interpolated = 0
        for _ in range(1000):
            counts = random_record_counts(rng, max_papers=50, max_citations=200)
            rec = bf.normalize_record("r", counts)
            sorted_counts = rec.counts
            h = bf.h_index(rec)
            assert h == oracle_h(sorted_counts)
            assert bf.h2_index(rec) == oracle_h2(sorted_counts)
            g_padded = bf.g_index(rec, bf.GConvention.PADDED)
            assert g_padded == oracle_g_padded(sorted_counts)
            assert g_padded == oracle_g_core_average(sorted_counts)
            assert bf.g_index(rec, bf.GConvention.CAPPED) == oracle_g_capped(
                sorted_counts
            )
            if h:
                # the engine's int64 and float64 steps are exact below 2**53
                assert bf.a_index(rec) == oracle_a(sorted_counts, h)
                assert bf.m_index(rec) == oracle_m(sorted_counts, h)
                assert bf.r_index(rec) == oracle_r(sorted_counts, h)
                assert bf.hw_index(rec) == oracle_hw(sorted_counts, h)
                interp = bf.interpolated_set(rec)
                want = oracle_interpolated(
                    sorted_counts, h, bf.h2_index(rec), g_padded
                )
                assert interp.h_interp == pytest.approx(want[0], abs=1e-9)
                assert interp.h2_interp == pytest.approx(want[1], abs=1e-9)
                assert interp.g_interp == pytest.approx(want[2], abs=1e-9)
                assert h <= interp.h_interp < h + 1
                assert bf.h2_index(rec) <= interp.h2_interp < bf.h2_index(rec) + 1
                assert g_padded <= interp.g_interp < g_padded + 1
                n_interpolated += 1
        _emit(10, "index engine vs brute-force oracles", True,
              f"1000 records, {n_interpolated} with interpolated variants")

    def test_criterion_11_efa_properties(self, fixture):
        # varimax preserves row communalities and total load
        sub = fixture.subset(SEVEN)
        corr = bf.correlation_matrix(sub.values, sub.columns)
        unrotated, _ = bf.uls_extract(corr)
        rotated, _ = bf.varimax(unrotated)
        comm_dev = float(
            np.abs(
                (rotated.values**2).sum(axis=1)
                - (unrotated.values**2).sum(axis=1)
            ).max()
        )
        assert comm_dev <= 1e-8
        assert _varimax_criterion(rotated.values) >= _varimax_criterion(
            unrotated.values
        ) - 1e-10

        # planted-structure recovery at tight tolerance; p >= 6 keeps at
        # least three indicators per factor, so the model is identified
        rng = np.random.default_rng(11)
        worst_recovery = 0.0
        for _ in range(10):
            p = int(rng.integers(6, 11))
            planted = np.zeros((p, 2))
            for i in range(p):
                planted[i, i % 2] = rng.uniform(0.5, 0.9)
            sigma = planted @ planted.T
            np.fill_diagonal(sigma, 1.0)
            corr_p = bf.CorrelationMatrix(
                tuple(f"v{i}" for i in range(p)), sigma
            )
            settings = bf.ExtractionSettings(n_factors=2, tol=1e-8, max_iter=2000)
            loadings, _ = bf.uls_extract(corr_p, settings)
            aligned = bf.align_loadings(
                loadings, bf.LoadingMatrix(corr_p.labels, planted)
            )
            worst_recovery = max(
                worst_recovery, float(np.abs(aligned.values - planted).max())
            )
        assert worst_recovery <= 1e-4

        # eigen kernel reconstruction
        worst_eigen = 0.0
        for _ in range(10):
            a = rng.normal(size=(7, 7))
            sym = (a + a.T) / 2.0
            values, vectors = bf.symmetric_eigen(sym)
            worst_eigen = max(
                worst_eigen,
                float(np.abs(vectors @ np.diag(values) @ vectors.T - sym).max()),
            )
        assert worst_eigen <= 1e-8

        # promax factor correlations stay positive definite
        for variables in (SEVEN, bf.VARIABLE_SETS["7+NC"]):
            sub = fixture.subset(variables)
            result = bf.efa_pipeline(
                sub.values, sub.columns, bf.Transform.IDENTITY, rotation="promax"
            )
            eig, _ = bf.symmetric_eigen(result.phi)
            assert eig[-1] > 0.0
            assert result.structure == pytest.approx(
                result.rotated.values @ result.phi
            )

        _emit(11, "factor-analysis property suite", True,
              f"recovery {worst_recovery:.2e}, eigen {worst_eigen:.2e}, "
              f"communality drift {comm_dev:.2e}")

    def test_criterion_12_cfa_properties(self, verification_report):
        rng = np.random.default_rng(12)
        worst = 0.0
        for trial in range(50):
            p = int(rng.integers(6, 10))
            mask = np.zeros((p, 2), dtype=bool)
            for i in range(p):
                mask[i, i % 2] = True
            loadings = np.zeros((p, 2))
            loadings[mask] = rng.uniform(0.4, 0.9, size=p)
            phi_offdiag = float(rng.uniform(-0.5, 0.5))
            phi = np.array([[1.0, phi_offdiag], [phi_offdiag, 1.0]])
            sigma = loadings @ phi @ loadings.T
            np.fill_diagonal(sigma, 1.0)
            labels = tuple(f"v{i}" for i in range(p))
            corr = bf.CorrelationMatrix(labels, sigma)
            spec = PatternSpec(labels, mask, ~np.eye(2, dtype=bool))
            fit = bf.cfa_fit(corr, 200, spec)
            assert fit.discrepancy >= 0.0
            assert fit.discrepancy < 1e-10
            err = max(
                float(np.abs(fit.loadings[mask] - loadings[mask]).max()),
                abs(fit.phi[0, 1] - phi_offdiag),
            )
            worst = max(worst, err)
            assert err < 1e-5
            if trial % 5 == 0 and not fit.heywood.any():
                assert (fit.se[mask] > 0.0).all()

        diagnostics = [
            c for c in verification_report.checks if c.table == "tableA7"
        ]
        assert any(c.binding and c.passed for c in diagnostics)  # convergence
        logged = [
            f"{c.cell}: expected {c.expected}, computed {c.computed}"
            f"{' (deviates)' if not c.passed else ''}"
            for c in diagnostics if not c.binding
        ]
        r2_h = next(c for c in diagnostics if c.cell == "R2 h")
        _emit(12, "confirmatory-fit property suite", True,
              f"50 exact-fit recoveries <= {worst:.2e}; diagnostics logged: "
              f"{r2_h.cell} computed {r2_h.computed}; "
              f"{sum(1 for c in diagnostics if not c.binding and not c.passed)} "
              f"published-value deviations logged, not failed")
        for line in logged:
            print("    logged:", line)

    def test_criterion_13_bootstrap(self, fixture):
        sub = fixture.subset(SEVEN)
        start = time.perf_counter()
        first = bf.bootstrap_efa(
            sub.values, sub.columns, n_boot=1000, seed=31, rotation="varimax"
        )
        elapsed = time.perf_counter() - start
        second = bf.bootstrap_efa(
            sub.values, sub.columns, n_boot=1000, seed=31, rotation="varimax"
        )
        identical = (
            np.array_equal(first.mean, second.mean)
            and np.array_equal(first.sd, second.sd)
            and np.array_equal(first.lower, second.lower)
            and np.array_equal(first.upper, second.upper)
            and first.n_failed == second.n_failed
        )
        assert identical
        assert elapsed < 10.0
        # the interval for the strongest published loading covers it
        h_row = sub.columns.index("h")
        assert first.lower[h_row, 0] <= 0.842 <= first.upper[h_row, 0]
        _emit(13, "bootstrap determinism and budget", True,
              f"B=1000 in {elapsed:.2f}s, repeat run bit-identical, "
              f"{first.n_failed} resamples failed")
