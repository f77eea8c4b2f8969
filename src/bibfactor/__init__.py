"""Hirsch-type citation indices and their factor-analytic categorization.

The package computes the classic h-index family from raw citation records,
runs the accompanying statistical pipeline (distribution tests, exploratory
and confirmatory factor analysis, rotations, adequacy measures, bootstrap),
and ships a verification harness that re-derives the published reference
tables for the embedded 26-scientist dataset.
"""

from .cfa import CFAFit, PatternSpec, cfa_fit, pattern_from_efa
from .efa import (
    AdequacyResult,
    BootstrapResult,
    Categorization,
    CorrelationMatrix,
    EFAResult,
    ExtractionSettings,
    LoadingMatrix,
    PromaxSolution,
    adequacy,
    align_loadings,
    bartlett,
    bootstrap_efa,
    categorize,
    correlation_matrix,
    efa_pipeline,
    kmo,
    promax,
    smc,
    suggest_n_factors,
    symmetric_eigen,
    uls_extract,
    varimax,
)
from .errors import (
    AsymmetricMatrixError,
    BibfactorError,
    ConvergenceError,
    DegenerateInputError,
    EmptyCoreError,
    HeywoodWarning,
    InsufficientDataError,
    ParseError,
    SingularMatrixError,
    SpecificationError,
    ValidationError,
    ZeroVarianceError,
)
from .fixture import fixture_table
from .indices import (
    CitationRecord,
    GConvention,
    IndicatorSet,
    InterpolatedIndicatorSet,
    a_index,
    g_index,
    h2_index,
    h_index,
    hw_index,
    indicator_set,
    interpolated_set,
    m_index,
    normalize_record,
    r_index,
    totals,
)
from .stats import (
    Descriptives,
    DistSpec,
    KSResult,
    Transform,
    apply_transform,
    column_summaries,
    column_summary,
    describe,
    fit_distspec,
    fit_student_ml,
    kolmogorov_sf,
    ks_test,
    normal_cdf,
    student_cdf,
)
from .tables import (
    INDICATOR_COLUMNS,
    VARIABLE_SETS,
    IndicatorTable,
    indicator_table_to_csv,
    parse_citations,
    parse_indicator_table,
    table_from_records,
)
from .verify import CheckResult, VerifyReport, run_verification

__version__ = "0.1.0"
