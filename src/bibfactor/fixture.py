"""The embedded 26-scientist dataset and its published reference values.

The indicator table below was transcribed verbatim from the published
characteristics of 26 physicists' citation records (datasets labeled A-Z)
and is the canonical fixture for the verification harness. The expected
values further down are the cells of the published statistical tables for
this dataset, each carrying the id of its source table and compared within
a per-table tolerance band by :mod:`bibfactor.verify`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError
from .tables import VARIABLE_SETS, IndicatorTable, indicator_table_to_csv

APPENDIX_COLUMNS = ("g", "h2", "h", "A", "m", "R", "hw", "N", "S", "C")

_APPENDIX_ROWS = (
    ("A", 67, 10, 39, 93.9, 72.0, 60.5, 51.7, 290, 5997, 20.7),
    ("B", 45, 8, 27, 62.6, 47.0, 41.1, 35.3, 270, 3177, 11.8),
    ("C", 36, 7, 23, 47.3, 40.0, 33.0, 28.5, 126, 1661, 13.2),
    ("D", 29, 6, 20, 35.5, 30.5, 26.6, 23.6, 322, 2124, 6.6),
    ("E", 37, 6, 19, 62.4, 38.0, 34.4, 28.2, 63, 1439, 22.8),
    ("F", 26, 5, 18, 32.2, 29.0, 24.1, 20.7, 131, 1127, 8.6),
    ("G", 23, 5, 17, 28.4, 26.0, 22.0, 18.3, 49, 697, 14.2),
    ("H", 26, 6, 16, 35.9, 30.5, 24.0, 21.4, 70, 749, 10.7),
    ("I", 28, 6, 15, 46.1, 24.0, 26.3, 22.3, 65, 885, 13.6),
    ("J", 23, 5, 15, 32.1, 23.0, 21.9, 18.1, 51, 574, 11.3),
    ("K", 21, 5, 14, 27.7, 26.5, 19.7, 16.8, 79, 596, 7.5),
    ("L", 22, 5, 14, 30.6, 23.0, 20.7, 17.8, 88, 681, 7.7),
    ("M", 24, 5, 14, 34.0, 21.0, 21.8, 18.3, 70, 726, 10.4),
    ("N", 22, 5, 14, 27.7, 26.0, 19.7, 17.7, 72, 687, 9.5),
    ("O", 19, 4, 13, 22.8, 18.0, 17.2, 14.9, 77, 550, 7.1),
    ("P", 24, 5, 13, 41.5, 27.0, 23.2, 20.5, 47, 631, 13.4),
    ("Q", 15, 4, 13, 17.1, 17.0, 14.9, 13.0, 86, 422, 4.9),
    ("R", 19, 5, 12, 27.0, 19.5, 18.0, 15.4, 46, 451, 9.8),
    ("S", 18, 4, 12, 22.8, 18.0, 16.6, 13.8, 61, 439, 7.2),
    ("T", 15, 4, 10, 18.0, 15.5, 13.4, 11.4, 78, 375, 4.8),
    ("U", 17, 4, 10, 23.7, 23.5, 15.4, 13.4, 44, 351, 8.0),
    ("V", 17, 4, 10, 24.4, 14.5, 15.6, 13.0, 60, 389, 6.5),
    ("W", 13, 3, 9, 15.6, 12.0, 11.8, 10.1, 53, 261, 4.9),
    ("X", 18, 3, 8, 35.1, 10.5, 16.8, 14.3, 35, 346, 9.9),
    ("Y", 9, 3, 7, 11.0, 10.0, 8.8, 7.9, 25, 116, 4.6),
    ("Z", 10, 3, 5, 17.0, 23.0, 9.2, 8.5, 15, 103, 6.9),
)

# SHA-256 of the canonical CSV serialization; guards accidental edits.
FIXTURE_SHA256 = "79d81cad84c997f70303ac960c177654cd51203036430bb846bd0c915c70df62"

_cached_table = None


def fixture_table():
    """The embedded indicator table (26 rows x 10 columns), checksummed.

    Every call returns the same table; its values are read-only.
    """
    global _cached_table
    if _cached_table is None:
        labels = [row[0] for row in _APPENDIX_ROWS]
        values = np.array([row[1:] for row in _APPENDIX_ROWS], dtype=float)
        values.setflags(write=False)
        table = IndicatorTable(labels, APPENDIX_COLUMNS, values)
        digest = hashlib.sha256(
            indicator_table_to_csv(table).encode("utf-8")
        ).hexdigest()
        if digest != FIXTURE_SHA256:
            raise ValidationError(
                "embedded fixture failed its checksum; the transcription "
                f"was modified (got {digest})"
            )
        _cached_table = table
    return _cached_table


# ---------------------------------------------------------------------------
# Published reference values, by source table id.
#
# Descriptive/KS tables: per variable,
#   (mean, median, sd, D_normal, p_normal, D_student, p_student)
# ---------------------------------------------------------------------------

DESCRIPTIVE_TABLES = {
    "table1": {
        "transform": "raw",
        "rows": {
            "h": (14.88, 14.0, 6.92, 0.186, 0.332, 0.100, 0.955),
            "m": (25.58, 23.25, 12.95, 0.198, 0.260, 0.114, 0.887),
            "g": (23.96, 22.0, 11.99, 0.202, 0.241, 0.094, 0.976),
            "h2": (5.0, 5.0, 1.6, 0.230, 0.125, 0.189, 0.312),
            "A": (33.55, 29.5, 17.80, 0.217, 0.174, 0.096, 0.970),
            "R": (22.18, 20.2, 10.82, 0.199, 0.255, 0.090, 0.983),
            "hw": (19.04, 17.75, 9.20, 0.186, 0.331, 0.092, 0.980),
        },
    },
    "tableA2": {
        "transform": "ln",
        "rows": {
            "h": (2.61, 2.64, 0.42, 0.113, 0.892, 0.099, 0.957),
            "m": (3.14, 3.15, 0.45, 0.114, 0.885, 0.116, 0.876),
            "g": (3.08, 3.09, 0.43, 0.111, 0.908, 0.068, 0.999),
            "h2": (1.56, 1.60, 0.30, 0.174, 0.408, 0.181, 0.364),
            "A": (3.41, 3.38, 0.47, 0.121, 0.838, 0.100, 0.956),
            "R": (3.0, 3.0, 0.43, 0.110, 0.912, 0.073, 0.999),
            "hw": (2.86, 2.88, 0.42, 0.106, 0.933, 0.084, 0.993),
        },
    },
    "tableA3": {
        "transform": "sqrt",
        "rows": {
            "h": (3.77, 3.74, 0.82, 0.145, 0.645, 0.099, 0.958),
            "m": (4.93, 4.82, 1.15, 0.150, 0.555, 0.110, 0.908),
            "g": (4.78, 4.69, 1.10, 0.153, 0.576, 0.081, 0.995),
            "h2": (2.21, 2.24, 0.34, 0.198, 0.258, 0.183, 0.346),
            "A": (5.63, 5.43, 1.39, 0.167, 0.464, 0.078, 0.997),
            "R": (4.60, 4.49, 1.04, 0.151, 0.590, 0.076, 0.998),
            "hw": (4.26, 4.21, 0.95, 0.147, 0.629, 0.080, 0.996),
        },
    },
}

# Published cells that no consistent computation can reproduce, with the
# reason; the verify harness reports them without letting them fail the run.
KNOWN_INCONSISTENT_CELLS = {
    ("tableA3", "m", "p_normal"): (
        "published p = 0.555 is inconsistent with the published D = 0.150: "
        "the same table gives D = 0.153 -> p = 0.576 for g, and p must "
        "decrease as D grows at fixed n (the computed value is ~0.605)"
    ),
    ("tableA1", "S", "r_identity"): (
        "published A = 22.8 and R = 16.6 disagree beyond display rounding: "
        "sqrt(22.8 * 12) = 16.54, off by 0.059; R = 16.6 with h = 12 implies "
        "A = 23.0, so the printed A is likely a transcription slip"
    ),
}

# KMO per transform for the seven-indicator model; Bartlett p < 0.001 in all.
KMO_TABLE2 = {"raw": 0.737, "ln": 0.830, "ln1p": 0.813, "sqrt": 0.744}

# KMO ranges quoted in prose for the expanded models (diagnostic only).
KMO_EXPANDED = {
    ("7+NS", "raw"): 0.799,
    ("7+NS", "ln"): 0.844,
    ("7+NC", "raw"): 0.758,
    ("7+NC", "ln"): 0.819,
}

VARIMAX_TABLES = {
    "table3": {
        "variables": VARIABLE_SETS["7"],
        "loadings": {
            "raw": {
                "h": (0.842, 0.522), "m": (0.752, 0.597), "g": (0.722, 0.691),
                "h2": (0.789, 0.572), "A": (0.536, 0.844), "R": (0.718, 0.695),
                "hw": (0.732, 0.681),
            },
            "ln": {
                "h": (0.825, 0.496), "m": (0.721, 0.525), "g": (0.705, 0.705),
                "h2": (0.843, 0.514), "A": (0.491, 0.871), "R": (0.708, 0.703),
                "hw": (0.719, 0.694),
            },
            "ln1p": {
                "h": (0.828, 0.496), "m": (0.728, 0.524), "g": (0.707, 0.702),
                "h2": (0.839, 0.520), "A": (0.494, 0.870), "R": (0.709, 0.701),
                "hw": (0.722, 0.691),
            },
            "sqrt": {
                "h": (0.841, 0.504), "m": (0.742, 0.561), "g": (0.717, 0.694),
                "h2": (0.812, 0.548), "A": (0.514, 0.858), "R": (0.716, 0.696),
                "hw": (0.728, 0.685),
            },
        },
        "ss_loadings": {
            "raw": (3.755, 3.094), "ln": (3.667, 3.017),
            "ln1p": (3.688, 3.010), "sqrt": (3.739, 3.042),
        },
    },
    "table5": {
        "variables": VARIABLE_SETS["7+NS"],
        "loadings": {
            "raw": {
                "h": (0.815, 0.545), "m": (0.855, 0.436), "g": (0.902, 0.434),
                "h2": (0.846, 0.463), "A": (0.919, 0.301), "R": (0.907, 0.422),
                "hw": (0.898, 0.443), "N": (0.375, 0.926), "S": (0.765, 0.592),
            },
            "ln": {
                "h": (0.672, 0.711), "m": (0.766, 0.440), "g": (0.847, 0.528),
                "h2": (0.779, 0.566), "A": (0.914, 0.320), "R": (0.853, 0.520),
                "hw": (0.854, 0.522), "N": (0.348, 0.890), "S": (0.702, 0.712),
            },
            "ln1p": {
                "h": (0.680, 0.705), "m": (0.770, 0.441), "g": (0.849, 0.525),
                "h2": (0.784, 0.563), "A": (0.914, 0.319), "R": (0.855, 0.516),
                "hw": (0.855, 0.520), "N": (0.349, 0.891), "S": (0.703, 0.710),
            },
            "sqrt": {
                "h": (0.738, 0.640), "m": (0.795, 0.476), "g": (0.869, 0.494),
                "h2": (0.805, 0.535), "A": (0.914, 0.321), "R": (0.876, 0.481),
                "hw": (0.868, 0.498), "N": (0.363, 0.889), "S": (0.715, 0.687),
            },
        },
    },
    "table6": {
        "variables": VARIABLE_SETS["7+NC"],
        "loadings": {
            "raw": {
                "h": (0.827, 0.536), "m": (0.729, 0.620), "g": (0.745, 0.666),
                "h2": (0.768, 0.591), "A": (0.601, 0.769), "R": (0.734, 0.679),
                "hw": (0.753, 0.658), "N": (0.909, 0.095), "C": (0.162, 0.986),
            },
            "ln": {
                "h": (0.812, 0.537), "m": (0.591, 0.658), "g": (0.689, 0.722),
                "h2": (0.722, 0.640), "A": (0.500, 0.825), "R": (0.681, 0.730),
                "hw": (0.688, 0.725), "N": (0.970, 0.131), "C": (0.124, 0.992),
            },
            "ln1p": {
                "h": (0.810, 0.542), "m": (0.597, 0.659), "g": (0.689, 0.722),
                "h2": (0.723, 0.642), "A": (0.502, 0.824), "R": (0.681, 0.730),
                "hw": (0.689, 0.725), "N": (0.969, 0.130), "C": (0.124, 0.992),
            },
            "sqrt": {
                "h": (0.808, 0.552), "m": (0.666, 0.644), "g": (0.708, 0.704),
                "h2": (0.740, 0.625), "A": (0.544, 0.803), "R": (0.698, 0.715),
                "hw": (0.714, 0.701), "N": (0.948, 0.116), "C": (0.138, 0.991),
            },
        },
    },
}

PROMAX_TABLES = {
    "table4": {
        "variables": VARIABLE_SETS["7"],
        "kappa": 3,
        "loadings": {
            "raw": {
                "h": (0.842, 0.183), "m": (0.663, 0.350), "g": (0.556, 0.504),
                "h2": (0.732, 0.290), "A": (0.187, 0.848), "R": (0.547, 0.514),
                "hw": (0.577, 0.484),
            },
            "ln": {
                "h": (0.824, 0.173), "m": (0.661, 0.279), "g": (0.519, 0.543),
                "h2": (0.838, 0.186), "A": (0.110, 0.914), "R": (0.524, 0.538),
                "hw": (0.546, 0.518),
            },
            "ln1p": {
                "h": (0.829, 0.170), "m": (0.671, 0.272), "g": (0.524, 0.537),
                "h2": (0.829, 0.196), "A": (0.114, 0.910), "R": (0.528, 0.534),
                "hw": (0.552, 0.512),
            },
            "sqrt": {
                "h": (0.848, 0.164), "m": (0.670, 0.311), "g": (0.546, 0.515),
                "h2": (0.778, 0.246), "A": (0.148, 0.882), "R": (0.542, 0.520),
                "hw": (0.568, 0.495),
            },
        },
    },
    "table7": {
        "variables": VARIABLE_SETS["7+NC"],
        "kappa": 3,
        "loadings": {
            "raw": {
                "h": (0.777, 0.289), "m": (0.623, 0.433), "g": (0.622, 0.483),
                "h2": (0.682, 0.381), "A": (0.403, 0.670), "R": (0.604, 0.502),
                "hw": (0.635, 0.470), "N": (1.065, -0.282), "C": (-0.224, 1.126),
            },
            "ln": {
                "h": (0.750, 0.315), "m": (0.439, 0.547), "g": (0.529, 0.584),
                "h2": (0.601, 0.474), "A": (0.264, 0.782), "R": (0.517, 0.596),
                "hw": (0.528, 0.588), "N": (1.102, -0.233), "C": (-0.252, 1.133),
            },
            "ln1p": {
                "h": (0.746, 0.321), "m": (0.445, 0.545), "g": (0.529, 0.584),
                "h2": (0.603, 0.475), "A": (0.266, 0.780), "R": (0.517, 0.597),
                "hw": (0.529, 0.587), "N": (1.101, -0.234), "C": (-0.252, 1.133),
            },
            "sqrt": {
                "h": (0.743, 0.327), "m": (0.534, 0.497), "g": (0.560, 0.551),
                "h2": (0.631, 0.443), "A": (0.322, 0.738), "R": (0.544, 0.568),
                "hw": (0.568, 0.545), "N": (1.090, -0.254), "C": (-0.243, 1.132),
            },
        },
    },
}

COMMUNALITY_TABLES = {
    "tableA4": {
        "variables": VARIABLE_SETS["7"],
        "values": {
            "raw": {"h": 0.981, "m": 0.921, "g": 0.998, "h2": 0.949,
                    "A": 0.999, "R": 0.999, "hw": 0.999},
            "ln": {"h": 0.926, "m": 0.795, "g": 0.993, "h2": 0.975,
                   "A": 0.999, "R": 0.995, "hw": 0.999},
            "ln1p": {"h": 0.932, "m": 0.804, "g": 0.993, "h2": 0.975,
                     "A": 0.999, "R": 0.995, "hw": 0.999},
            "sqrt": {"h": 0.961, "m": 0.866, "g": 0.996, "h2": 0.960,
                     "A": 0.999, "R": 0.997, "hw": 0.999},
        },
    },
    "tableA5": {
        "variables": VARIABLE_SETS["7+NC"],
        "values": {
            "raw": {"h": 0.971, "m": 0.916, "g": 0.998, "h2": 0.939,
                    "A": 0.953, "R": 0.999, "hw": 0.999, "N": 0.835, "C": 0.999},
            "ln": {"h": 0.948, "m": 0.783, "g": 0.995, "h2": 0.931,
                   "A": 0.931, "R": 0.996, "hw": 0.999, "N": 0.957, "C": 0.999},
            "ln1p": {"h": 0.951, "m": 0.790, "g": 0.995, "h2": 0.935,
                     "A": 0.931, "R": 0.997, "hw": 0.999, "N": 0.956, "C": 0.999},
            "sqrt": {"h": 0.957, "m": 0.859, "g": 0.997, "h2": 0.938,
                     "A": 0.941, "R": 0.999, "hw": 0.999, "N": 0.913, "C": 0.999},
        },
    },
}

# Percent of total variance explained by the two factors of the
# seven-indicator models; per-factor split published for raw only.
VARIANCE_EXPLAINED_PCT = {
    "raw": {"total": 97.83, "split": (53.64, 44.19)},
    "ln": {"total": 95.48},
    "ln1p": {"total": 95.68},
    "sqrt": {"total": 96.87},
}

# Loading-threshold categorization of the raw seven-indicator varimax model.
CATEGORIZATION = {
    0.6: {1: {"h", "m", "g", "h2", "R", "hw"}, 2: {"g", "A", "R", "hw"}},
    0.7: {1: {"h", "m", "g", "h2", "R", "hw"}, 2: {"A"}},
}

# Confirmatory follow-up of the raw expanded model (diagnostic targets: the
# published fit came from a different program whose exact input matrix and
# standardization are not recoverable).
CFA_RAW_PATTERN = {
    1: ("h", "m", "g", "h2", "R", "hw", "N"),
    2: ("A", "C"),
}
CFA_R_SQUARED = {
    "h": 0.94, "m": 0.91, "g": 0.99, "h2": 0.93, "A": 0.99,
    "R": 0.99, "hw": 0.99, "N": 0.55, "C": 0.69,
}
CFA_NONSIGNIFICANT = ("N",)

TOLERANCES = {
    "consistency": 0.05,
    "moment": 0.01,
    "ks_d": 0.005,
    "ks_p_normal": 0.02,
    "ks_p_student": 0.03,
    "kmo": 0.005,
    "bartlett_p_max": 0.001,
    "loading": 0.03,
    "ss_loadings": 0.05,
    "promax": 0.05,
    "communality_a4": 0.02,
    "communality_a5": 0.03,
    "variance_pct": 1.0,
    "cfa_r2": 0.1,
}
