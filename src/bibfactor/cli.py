"""Command-line interface.

Subcommands: ``indices`` (citation records to an indicator table),
``describe`` (moments and goodness-of-fit tests per indicator), ``efa``
(adequacy, loadings, communalities, variance explained), ``cfa``
(confirmatory follow-up of an EFA pattern), ``bootstrap`` (resampled
loading summaries) and ``verify`` (the published-table regression harness).

Exit codes: 0 on success, 1 when verification fails, 2 on input or usage
errors and on a confirmatory fit that does not converge. Diagnostics go to
stderr: an ``error:`` line, then one ``note:`` line per distinct warning
the command raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .cfa import cfa_fit, pattern_from_efa
from .efa import (
    ExtractionSettings,
    adequacy,
    bootstrap_efa,
    categorize,
    efa_pipeline,
)
from .errors import BibfactorError, ConvergenceError, ParseError
from .fixture import fixture_table
from .indices import GConvention
from .stats import Transform, column_summaries, transform_columns
from .tables import (
    INDICATOR_COLUMNS,
    VARIABLE_SETS,
    format_number,
    indicator_table_to_csv,
    parse_citations,
    parse_indicator_table,
    render_text_table,
    table_from_records,
)
from .verify import run_verification

_INT_COLUMNS = {"h", "h2", "g", "N", "S"}


class _UsageError(BibfactorError):
    pass


def _add_input_options(parser, formats=("long", "wide", "indicators")):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", action="store_true",
                       help="use the embedded 26-scientist dataset")
    group.add_argument("--input", metavar="PATH", help="CSV input file")
    parser.add_argument("--format", choices=formats, default="long",
                        help="input file format (default: long)")
    parser.add_argument("--g-convention", choices=["padded", "capped"],
                        default="padded",
                        help="g-index beyond the paper count, for citation "
                             "input (default: padded)")


def _add_output_options(parser, formats=("json", "csv")):
    group = parser.add_mutually_exclusive_group()
    for name in formats:
        group.add_argument(f"--{name}", action="store_true",
                           help=f"{name.upper()} output")


def _add_model_options(parser, factors=True):
    parser.add_argument("--vars", default="7",
                        help="variable set: 7, 7+NS, 7+NC, 7+NSC or a "
                             "comma-separated list (default: %(default)s)")
    parser.add_argument("--transform", choices=["raw", "ln", "ln1p", "sqrt"],
                        default="raw")
    if factors:
        parser.add_argument("--factors", type=int, default=2)


def _add_rotation_options(parser):
    parser.add_argument("--rotation", choices=["none", "varimax", "promax"],
                        default="varimax")
    parser.add_argument("--kappa", type=int, choices=[2, 3, 4], default=3)


def _resolve_vars(spec_text):
    if spec_text in VARIABLE_SETS:
        return VARIABLE_SETS[spec_text]
    names = tuple(v.strip() for v in spec_text.split(",") if v.strip())
    if not names:
        raise _UsageError(f"empty variable list {spec_text!r}")
    for name in names:
        if name not in INDICATOR_COLUMNS:
            raise _UsageError(f"unknown indicator {name!r}")
    return names


def _read_text(path):
    """The file's text; a leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc}") from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not valid UTF-8",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def _load_table(args):
    if args.fixture:
        return fixture_table()
    text = _read_text(args.input)
    if args.format == "indicators":
        return parse_indicator_table(text)
    records = parse_citations(text, fmt=args.format)
    return table_from_records(records, GConvention(args.g_convention))


def _model_input(args):
    """Columns, labels and transform of a describe/efa/cfa/bootstrap run."""
    table = _load_table(args)
    variables = _resolve_vars(args.vars)
    values = np.column_stack([table.column(v) for v in variables])
    return values, variables, Transform(args.transform)


def _emit(args, text_fn, payload_fn, csv_fn=None):
    if args.json:
        print(json.dumps(payload_fn(), indent=2))
    elif getattr(args, "csv", False):
        sys.stdout.write(csv_fn())
    else:
        print(text_fn())


def _csv(header, rows):
    """A header line, then one line per (label, floats) row, at repr precision."""
    lines = [",".join(header)]
    lines += [",".join([label, *(repr(float(x)) for x in values)])
              for label, values in rows]
    return "\n".join(lines) + "\n"


def _cmd_indices(args):
    columns = list(INDICATOR_COLUMNS)
    table = _load_table(args).subset(columns)

    def rows():
        return zip(table.labels, table.values.tolist())

    def as_text():
        decimals = [0 if c in _INT_COLUMNS else 1 for c in columns]
        return render_text_table(["scientist"] + columns, [
            [label] + [format_number(v, nd) for v, nd in zip(values, decimals)]
            for label, values in rows()
        ])

    def as_payload():
        return {
            "columns": columns,
            "rows": {label: dict(zip(columns, values)) for label, values in rows()},
        }

    _emit(args, as_text, as_payload, lambda: indicator_table_to_csv(table))
    return 0


_DESCRIBE_ROWS = (
    ("mean", 2), ("median", 2), ("sd", 2),
    ("D_normal", 3), ("p_normal", 3), ("D_student", 3), ("p_student", 3),
)


def _cmd_describe(args):
    values, variables, transform = _model_input(args)
    # transformed lazily, so a column that fails to transform raises after
    # the columns before it, as in a per-column loop
    stats = dict(zip(variables, column_summaries(
        transform_columns(values, variables, transform), args.df)))

    def as_text():
        rows = [
            [name] + [format_number(stats[v][name], nd) for v in variables]
            for name, nd in _DESCRIBE_ROWS
        ]
        return render_text_table(["statistic"] + list(variables), rows)

    def as_csv():
        return _csv(["statistic", *variables], (
            (name, [stats[v][name] for v in variables]) for name, _ in _DESCRIBE_ROWS))

    _emit(args, as_text, lambda: stats, as_csv)
    return 0


def _loading_rows(labels, values, decimals=3):
    return [
        [label] + [format_number(v, decimals) for v in row]
        for label, row in zip(labels, values)
    ]


def _cmd_efa(args):
    values, variables, transform = _model_input(args)
    result = efa_pipeline(values, variables, transform,
                          ExtractionSettings(n_factors=args.factors),
                          args.rotation, kappa=args.kappa)
    quality = adequacy(result.correlation, len(values))
    cat = categorize(result.rotated, threshold=args.threshold)
    m = result.rotated.m
    factor_names = [f"F{j + 1}" for j in range(m)]

    def as_text():
        parts = [
            f"KMO = {format_number(quality.kmo, 3)}   Bartlett chi2 = "
            f"{format_number(quality.bartlett_chi2, 2)} "
            f"(df {quality.bartlett_df}, p = {quality.bartlett_p:.3g})",
            "",
            f"{args.rotation} loadings"
            + (" (pattern)" if args.rotation == "promax" else ""),
            render_text_table(
                ["variable"] + factor_names,
                _loading_rows(variables, result.rotated.values)
                + [["SS"] + [format_number(v, 3) for v in result.ss_loadings]],
            ),
        ]
        if result.structure is not None:
            parts += [
                "", "structure",
                render_text_table(["variable"] + factor_names,
                                  _loading_rows(variables, result.structure)),
                "", "factor correlations",
                render_text_table(["factor"] + factor_names,
                                  _loading_rows(factor_names, result.phi)),
            ]
        parts += [
            "", "communalities",
            render_text_table(
                ["variable", "communality"],
                [[v, format_number(c, 3)]
                 for v, c in zip(variables, result.communalities)],
            ),
            "",
            "variance explained (%): "
            + " + ".join(format_number(100 * v, 2)
                         for v in result.variance_explained)
            + " = " + format_number(100 * float(result.variance_explained.sum()), 2),
            "",
            f"memberships at |loading| > {args.threshold:g}: "
            + "; ".join(
                f"F{j + 1}: " + (",".join(sorted(cat.on_factor(j + 1))) or "-")
                for j in range(m)
            ),
        ]
        return "\n".join(parts)

    def as_payload():
        payload = {
            "kmo": quality.kmo,
            "bartlett": {
                "chi2": quality.bartlett_chi2,
                "df": quality.bartlett_df,
                "p": quality.bartlett_p,
            },
            "rotation": args.rotation,
            "variables": list(variables),
            "loadings": result.rotated.values.tolist(),
            "unrotated": result.unrotated.values.tolist(),
            "communalities": result.communalities.tolist(),
            "ss_loadings": result.ss_loadings.tolist(),
            "variance_explained": result.variance_explained.tolist(),
            "memberships": {
                v: sorted(members)
                for v, members in zip(cat.labels, cat.memberships)
            },
        }
        if result.structure is not None:
            payload["structure"] = result.structure.tolist()
            payload["phi"] = result.phi.tolist()
        return payload

    _emit(args, as_text, as_payload, lambda: _csv(
        ["variable", *factor_names], zip(variables, result.rotated.values)))
    return 0


def _cmd_cfa(args):
    values, variables, transform = _model_input(args)
    efa = efa_pipeline(values, variables, transform,
                       ExtractionSettings(n_factors=args.factors), "varimax")
    spec = pattern_from_efa(efa.rotated, threshold=args.threshold,
                            assign_max=args.assign_max)
    fit = cfa_fit(efa.correlation, len(values), spec)
    if not fit.converged:
        raise ConvergenceError(
            f"the confirmatory fit did not converge in {fit.iterations} "
            f"iterations (discrepancy {fit.discrepancy:.6g})"
        )

    def as_text():
        rows = []
        for i, v in enumerate(variables):
            j = int(np.argmax(spec.loadings_free[i]))
            rows.append([
                v, f"F{j + 1}",
                format_number(fit.loadings[i, j], 3),
                format_number(fit.se[i, j], 3),
                format_number(fit.z[i, j], 2),
                format_number(fit.p_values[i, j], 4),
                format_number(fit.r_squared[i], 3),
            ])
        header = ["variable", "factor", "loading", "se", "z", "p", "R2"]
        phi_text = ", ".join(
            f"phi({i + 1},{j + 1}) = {format_number(fit.phi[i, j], 3)}"
            for i in range(spec.m) for j in range(i + 1, spec.m)
        )
        return "\n".join([
            render_text_table(header, rows),
            "",
            phi_text,
            f"discrepancy = {fit.discrepancy:.6g}   converged = {fit.converged} "
            f"({fit.iterations} iterations)",
        ])

    def as_payload():
        return {
            "variables": list(variables),
            "pattern": spec.loadings_free.tolist(),
            "loadings": fit.loadings.tolist(),
            "se": _nan_to_none(fit.se),
            "z": _nan_to_none(fit.z),
            "p_values": _nan_to_none(fit.p_values),
            "phi": fit.phi.tolist(),
            "uniquenesses": fit.uniquenesses.tolist(),
            "r_squared": fit.r_squared.tolist(),
            "discrepancy": fit.discrepancy,
            "converged": fit.converged,
            "iterations": fit.iterations,
        }

    _emit(args, as_text, as_payload)
    return 0


def _nan_to_none(matrix):
    return [
        [None if not np.isfinite(v) else float(v) for v in row]
        for row in matrix
    ]


def _cmd_bootstrap(args):
    values, variables, transform = _model_input(args)
    result = bootstrap_efa(
        values, variables, transform, ExtractionSettings(n_factors=args.factors),
        args.rotation, n_boot=args.B, seed=args.seed, kappa=args.kappa,
    )

    def as_text():
        rows = []
        for i, v in enumerate(variables):
            for j in range(result.mean.shape[1]):
                rows.append([
                    f"{v}/F{j + 1}",
                    format_number(result.reference.values[i, j], 3),
                    format_number(result.mean[i, j], 3),
                    format_number(result.sd[i, j], 3),
                    format_number(result.lower[i, j], 3),
                    format_number(result.upper[i, j], 3),
                ])
        header = ["loading", "full", "mean", "sd", "p2.5", "p97.5"]
        causes = ", ".join(f"{k} {v}" for k, v in result.failures.items())
        return "\n".join([
            f"B = {result.n_boot}  seed = {result.seed}  "
            f"failed resamples = {result.n_failed}"
            + (f" ({causes})" if causes else "")
            + f"  clamped resamples = {result.n_clamped}",
            render_text_table(header, rows),
        ])

    def as_payload():
        return {
            "B": result.n_boot,
            "seed": result.seed,
            "n_failed": result.n_failed,
            "failures": result.failures,
            "n_clamped": result.n_clamped,
            "variables": list(variables),
            "reference": result.reference.values.tolist(),
            "mean": result.mean.tolist(),
            "sd": result.sd.tolist(),
            "lower": result.lower.tolist(),
            "upper": result.upper.tolist(),
        }

    _emit(args, as_text, as_payload)
    return 0


def _cmd_verify(args):
    report = run_verification(tolerance_scale=args.tolerance_scale)
    if args.json:
        print(report.to_json())
    else:
        print("\n".join(report.format_lines(verbose=args.verbose)))
    return 0 if report.overall_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bibfactor",
        description="Hirsch-type citation indices and their factor-analytic "
                    "categorization",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="compute the indicator table")
    _add_input_options(p, formats=("long", "wide"))
    _add_output_options(p)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("describe", help="moments and KS tests per indicator")
    _add_input_options(p)
    _add_model_options(p, factors=False)
    p.add_argument("--df", type=float, default=None,
                   help="fix the Student df (default: fit by ML)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("efa", help="exploratory factor analysis")
    _add_input_options(p)
    _add_model_options(p)
    _add_rotation_options(p)
    p.add_argument("--threshold", type=float, default=0.6,
                   help="categorization threshold (default: 0.6)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_efa)

    p = sub.add_parser("cfa", help="confirmatory follow-up of the EFA pattern")
    _add_input_options(p)
    _add_model_options(p)
    p.add_argument("--threshold", type=float, default=0.7,
                   help="pattern threshold on the varimax loadings")
    p.add_argument("--assign-max", action="store_true",
                   help="assign variables below the threshold to their "
                        "maximum-loading factor")
    _add_output_options(p, formats=("json",))
    # the two-factor model of the paper's Table A7
    p.set_defaults(func=_cmd_cfa, vars="7+NC")

    p = sub.add_parser("bootstrap", help="bootstrap the EFA loadings")
    _add_input_options(p)
    _add_model_options(p)
    _add_rotation_options(p)
    p.add_argument("--B", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p, formats=("json",))
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("verify", help="re-derive the published tables")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    p.add_argument("--verbose", action="store_true",
                   help="also list passing checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # records without a filter of its own, so the interpreter's filters apply
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except BibfactorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"note: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
