"""Command-line interface.

Subcommands: ``indices`` (citation records to an indicator table),
``describe`` (moments and goodness-of-fit tests per indicator), ``efa``
(adequacy, loadings, communalities, variance explained), ``cfa``
(confirmatory follow-up of an EFA pattern), ``bootstrap`` (resampled
loading summaries) and ``verify`` (the published-table regression harness).

This module parses arguments and lays out text. Each result serialises
itself (``to_dict()``); a command's ``--json`` payload is that dict plus the
keys the command computes itself. Text tables of numbers go through
``_table``, which also takes text label columns such as cfa's factor.

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
    ROTATIONS,
    ExtractionSettings,
    adequacy,
    bootstrap_efa,
    categorize,
    check_threshold,
    efa_pipeline,
)
from .errors import BibfactorError, ConvergenceError, ParseError
from .fixture import fixture_table
from .indices import GConvention
from .stats import Transform, column_summaries, transform_columns
from .tables import (
    INDICATOR_COLUMNS,
    VARIABLE_SETS,
    citation_table,
    format_number,
    indicator_table_to_csv,
    parse_indicator_table,
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
    parser.add_argument("--g-convention", choices=[c.value for c in GConvention],
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
                        help=f"variable set: {', '.join(VARIABLE_SETS)} or a "
                             "comma-separated list (default: %(default)s)")
    parser.add_argument("--transform", choices=[t.value for t in Transform],
                        default="raw",
                        help="transform applied to every variable "
                             "(default: %(default)s)")
    if factors:
        parser.add_argument("--factors", type=int, default=2,
                            help="factors to extract (default: %(default)s)")


def _add_rotation_options(parser):
    parser.add_argument("--rotation", choices=ROTATIONS,
                        default="varimax",
                        help="factor rotation (default: %(default)s)")
    parser.add_argument("--kappa", type=int, choices=[2, 3, 4], default=3,
                        help="promax exponent (default: %(default)s)")


def _resolve_vars(spec_text):
    if spec_text in VARIABLE_SETS:
        return VARIABLE_SETS[spec_text]
    names = tuple(v.strip() for v in spec_text.split(",") if v.strip())
    if not names:
        raise _UsageError(f"empty variable list {spec_text!r}")
    for i, name in enumerate(names):
        if name not in INDICATOR_COLUMNS:
            raise _UsageError(f"unknown indicator {name!r}")
        if name in names[:i]:
            raise _UsageError(f"indicator {name!r} is listed twice")
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
    return citation_table(text, args.format, GConvention(args.g_convention))


def _model_input(args):
    """Columns, labels and transform of a describe/efa/cfa/bootstrap run."""
    variables = _resolve_vars(args.vars)
    values = _load_table(args).subset(variables).values
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


def _table(headers, labels, values, decimals=3):
    """A text table: the columns in ``labels``, then ``values`` at ``decimals``,
    which broadcasts: one number, one per column, or per row as ``[[d], ...]``.
    Columns are at least 6 wide, the first left-aligned and the rest right."""
    values = np.asarray(values, dtype=float)
    places = np.broadcast_to(decimals, values.shape).tolist()
    rows = [headers] + [
        [*cells, *map(format_number, row, nd)]
        for cells, row, nd in zip(zip(*labels), values.tolist(), places)
    ]
    widths = [max(6, *map(len, column)) for column in zip(*rows)]
    lines = ["  ".join([first.ljust(widths[0]), *map(str.rjust, rest, widths[1:])]).rstrip()
             for first, *rest in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cmd_indices(args):
    columns = list(INDICATOR_COLUMNS)
    table = _load_table(args).subset(columns)

    def as_text():
        decimals = [0 if c in _INT_COLUMNS else 1 for c in columns]
        return _table(["scientist", *columns], [table.labels], table.values, decimals)

    def as_payload():
        return {
            "columns": columns,
            "rows": {label: dict(zip(columns, values))
                     for label, values in zip(table.labels, table.values.tolist())},
        }

    _emit(args, as_text, as_payload, lambda: indicator_table_to_csv(table))
    return 0


# describe's rows and the decimals each is printed with
_DESCRIBE_ROWS = {
    "mean": 2, "median": 2, "sd": 2,
    "D_normal": 3, "p_normal": 3, "D_student": 3, "p_student": 3,
}


def _cmd_describe(args):
    values, variables, transform = _model_input(args)
    # transformed lazily, so a column that fails to transform raises after
    # the columns before it, as in a per-column loop
    stats = dict(zip(variables, column_summaries(
        transform_columns(values, variables, transform), args.df)))
    matrix = [[stats[v][name] for v in variables] for name in _DESCRIBE_ROWS]
    header = ["statistic", *variables]
    _emit(args,
          lambda: _table(header, [_DESCRIBE_ROWS], matrix,
                         [[nd] for nd in _DESCRIBE_ROWS.values()]),
          lambda: stats,
          lambda: _csv(header, zip(_DESCRIBE_ROWS, matrix)))
    return 0


def _cmd_efa(args):
    check_threshold(args.threshold)
    values, variables, transform = _model_input(args)
    result = efa_pipeline(values, variables, transform,
                          ExtractionSettings(n_factors=args.factors),
                          args.rotation, kappa=args.kappa)
    quality = adequacy(result.correlation, len(values))
    cat = categorize(result.rotated, threshold=args.threshold)
    m = result.rotated.m
    factor_names = [f"F{j + 1}" for j in range(m)]
    header = ["variable", *factor_names]

    def as_text():
        parts = [
            f"KMO = {format_number(quality.kmo, 3)}   Bartlett chi2 = "
            f"{format_number(quality.bartlett_chi2, 2)} "
            f"(df {quality.bartlett_df}, p = {quality.bartlett_p:.3g})",
            "",
            f"{args.rotation} loadings"
            + (" (pattern)" if args.rotation == "promax" else ""),
            _table(header, [[*variables, "SS"]],
                   np.vstack([result.rotated.values, result.ss_loadings])),
        ]
        if result.structure is not None:
            parts += [
                "", "structure", _table(header, [variables], result.structure),
                "", "factor correlations",
                _table(["factor", *factor_names], [factor_names], result.phi),
            ]
        parts += [
            "", "communalities",
            _table(["variable", "communality"], [variables],
                   result.communalities[:, None]),
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
        return {
            **quality.to_dict(),
            **result.to_dict(),
            "memberships": {
                v: sorted(members)
                for v, members in zip(cat.labels, cat.memberships)
            },
        }

    _emit(args, as_text, as_payload, lambda: _csv(
        header, zip(variables, result.rotated.values)))
    return 0


def _cmd_cfa(args):
    check_threshold(args.threshold)
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
        # each variable's first free loading
        rows, cols = np.arange(spec.p), np.argmax(spec.loadings_free, axis=1)
        cells = np.column_stack([fit.loadings[rows, cols], fit.se[rows, cols],
                                 fit.z[rows, cols], fit.p_values[rows, cols],
                                 fit.r_squared])
        phi_text = ", ".join(
            f"phi({i + 1},{j + 1}) = {format_number(fit.phi[i, j], 3)}"
            for i in range(spec.m) for j in range(i + 1, spec.m)
        )
        return "\n".join([
            _table(["variable", "factor", "loading", "se", "z", "p", "R2"],
                   [variables, [f"F{j + 1}" for j in cols]], cells, [3, 3, 2, 4, 3]),
            "",
            # a one-factor model has no factor pairs
            *([phi_text] if phi_text else []),
            f"discrepancy = {fit.discrepancy:.6g}   converged = {fit.converged} "
            f"({fit.iterations} iterations)",
        ])

    def as_payload():
        return {
            "variables": list(variables),
            "pattern": spec.loadings_free.tolist(),
            **fit.to_dict(),
        }

    _emit(args, as_text, as_payload)
    return 0


def _cmd_bootstrap(args):
    values, variables, transform = _model_input(args)
    result = bootstrap_efa(
        values, variables, transform, ExtractionSettings(n_factors=args.factors),
        args.rotation, n_boot=args.B, seed=args.seed, kappa=args.kappa,
    )

    def as_text():
        # one row per loading, variable by variable
        labels = [f"{v}/F{j + 1}" for v in variables
                  for j in range(result.mean.shape[1])]
        summaries = np.column_stack([
            a.ravel() for a in (result.reference.values, result.mean,
                                result.sd, result.lower, result.upper)
        ])
        causes = ", ".join(f"{k} {v}" for k, v in result.failures.items())
        return "\n".join([
            f"B = {result.n_boot}  seed = {result.seed}  "
            f"failed resamples = {result.n_failed}"
            + (f" ({causes})" if causes else "")
            + f"  clamped resamples = {result.n_clamped}",
            _table(["loading", "full", "mean", "sd", "p2.5", "p97.5"],
                   [labels], summaries),
        ])

    _emit(args, as_text, result.to_dict)
    return 0


def _cmd_verify(args):
    report = run_verification(tolerance_scale=args.tolerance_scale)
    _emit(args, lambda: "\n".join(report.format_lines(verbose=args.verbose)),
          report.to_dict)
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
                   help="categorization threshold (default: %(default)s)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_efa)

    p = sub.add_parser("cfa", help="confirmatory follow-up of the EFA pattern")
    _add_input_options(p)
    _add_model_options(p)
    p.add_argument("--threshold", type=float, default=0.7,
                   help="pattern threshold on the varimax loadings "
                        "(default: %(default)s)")
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
    p.add_argument("--B", type=int, default=1000,
                   help="bootstrap resamples (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the row resampling (default: %(default)s)")
    _add_output_options(p, formats=("json",))
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("verify", help="re-derive the published tables")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="factor on every published tolerance (default: %(default)s)")
    p.add_argument("--verbose", action="store_true",
                   help="also list passing checks")
    p.add_argument("--json", action="store_true", help="JSON output")
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
