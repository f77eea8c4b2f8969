"""bibfactor benchmark: CLI latency on three workloads, per-module trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Each run starts one fresh interpreter (``child.py``) that drives
``bibfactor.cli.main`` in-process for ``--seconds`` and, between passes,
times further fresh interpreters that only import bibfactor (set-up time).
Timings are in reference seconds: CPU seconds scaled by a speed probe that
runs in the same process while the work runs (``speedprobe.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Human-readable lines come first; the last stdout line is one JSON
object. The exit code is 0 when every output check passed, 1 when one
failed and 2 when the run could not be made (no ``src/bibfactor`` next to
this directory, a crash, a timeout).

Generated inputs, the full run record (``BENCH_*.json``) and the traced
spans go to ``.perfbench_out/`` in the checkout. See README.md in this
directory for the metric definitions and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus as corpus_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
IMPORTTIME_SAMPLES = 3
BLAS_THREADS = "1"

WORKLOADS = ("verify", "bootstrap", "corpus")

END_TO_END = (("setup_s", "s"), ("cmd_s", "s"), ("peak_rss_mb", "MB"))

# name -> unit; values come from the traced passes unless noted in README.md
PER_LAYER = {
    "setup.import_bibfactor_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "cmd_verify_s": "s",
    "resamples_per_s": "resamples/s",
    "cmd_indices_s": "s",
    "cmd_describe_s": "s",
    "corpus_s": "s",
    "failed_frac": "failed/attempted",
    "cmd_wall_s": "s",
    "host.probe_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "cli.first_pass_s": "s",
    "cli.main_calls": "count",
    "cli.self_s": "s",
    "tables.parse_citations_s": "s",
    "tables.parse_citations_calls": "count",
    "tables.papers_parsed": "count",
    "tables.table_from_records_s": "s",
    "tables.self_s": "s",
    "indices.indicator_set_s": "s",
    "indices.indicator_set_calls": "count",
    "indices.self_s": "s",
    "stats.fit_student_ml_s": "s",
    "stats.fit_student_ml_calls": "count",
    "stats.ks_test_s": "s",
    "stats.ks_test_calls": "count",
    "stats.ks_points": "count",
    "stats.describe_s": "s",
    "stats.self_s": "s",
    "efa.correlation_matrix_s": "s",
    "efa.correlation_matrix_calls": "count",
    "efa.uls_extract_s": "s",
    "efa.uls_extract_calls": "count",
    "efa.symmetric_eigen_calls": "count",
    "efa.eigen_per_resample": "calls/resample",
    "efa.varimax_s": "s",
    "efa.promax_s": "s",
    "efa.align_loadings_s": "s",
    "efa.adequacy_s": "s",
    "efa.bootstrap_efa_s": "s",
    "efa.bootstrap_attempted": "count",
    "efa.bootstrap_failed": "count",
    "efa.heywood_warnings": "count",
    "efa.self_s": "s",
    "cfa.cfa_fit_s": "s",
    "cfa.minimize_s": "s",
    "cfa.se_s": "s",
    "cfa.iterations": "count",
    "cfa.nfev": "count",
    "cfa.converged": "count",
    "cfa.heywood_rows": "count",
    "cfa.self_s": "s",
    "verify.run_verification_s": "s",
    "verify.self_s": "s",
    "verify.binding": "count",
    "verify.binding_failed": "count",
    "verify.reported": "count",
}

# Derived per-layer metrics and the probe keys they need.
DERIVED_FROM = {
    "cfa.se_s": ("cfa.cfa_fit", "cfa.minimize"),
    "efa.eigen_per_resample": ("efa.symmetric_eigen", "efa.bootstrap_efa"),
}

# per-command untraced medians, under the names later performance work cites
COMMAND_METRICS = {
    "verify": {"cmd_verify_s": "verify"},
    "corpus": {"cmd_indices_s": "indices", "cmd_describe_s": "describe"},
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one string-hash seed for every run, so dict layouts do not differ
    # from run to run
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def remaining(started):
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise RunError("out of time")
    return left


def python(args, env, started, **kwargs):
    try:
        return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=remaining(started), **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"timed out: {' '.join(args)[:200]}") from exc


def import_split(env, started):
    """Cumulative import time of bibfactor and scipy.optimize, from
    ``-X importtime``; scipy.optimize reads 0 when importing bibfactor no
    longer imports it."""
    found = {"bibfactor": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_SAMPLES):
        done = python(["-X", "importtime", "-c", "import bibfactor"], env, started)
        seen = {}
        for line in done.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and match.group(2) in found:
                seen[match.group(2)] = int(match.group(1)) / 1e6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {
        "setup.import_bibfactor_s": statistics.median(found["bibfactor"]),
        "setup.import_scipy_optimize_s": statistics.median(found["scipy.optimize"]),
    }


def run_child(args, env, started, corpus_path, spans_path):
    argv = [str(HERE / "child.py"), "--workload", args.workload,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--seed", str(args.seed)]
    if corpus_path:
        argv += ["--corpus", str(corpus_path)]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    done = python(argv, env, started)
    if done.returncode != 0 or not done.stdout.strip():
        raise RunError(f"workload process failed ({done.returncode}):\n"
                       f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def command_metrics(workload, record):
    """Per-workload command metrics, from the untraced passes."""
    untraced = record["untraced"]
    values = {name: untraced["per_command_s"][command]
              for name, command in COMMAND_METRICS.get(workload, {}).items()}
    if workload == "corpus":
        values["corpus_s"] = untraced["cmd_s"]
    if workload == "bootstrap":
        values["resamples_per_s"] = untraced["resamples_per_s"]
    values["failed_frac"] = record["failed"] / record["attempted"]
    values["cmd_wall_s"] = untraced["cmd_wall_s"]
    values["host.probe_s"] = statistics.fmean(record["probe_mean_s"])
    return values


def per_layer_metrics(workload, record, split):
    traced = record["traced"]
    absent = set(record["absent"])
    untraced_pass = statistics.median(record["untraced"]["pass_s"])
    values = {**split, **command_metrics(workload, record)}
    values["trace.overhead_s"] = traced["pass_s"] - untraced_pass
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_pass
    values["cli.first_pass_s"] = record["first_pass_s"]

    metrics = {}
    for name, unit in PER_LAYER.items():
        stem = re.sub(r"_(s|calls)$", "", name)
        needs = DERIVED_FROM.get(name, (stem, name))
        if any(key in absent for key in needs):
            value = None
        elif name in values:
            value = values[name]
        else:
            value = traced.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "bibfactor" / "__init__.py").is_file():
        raise RunError(f"no bibfactor sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    corpus_path = None
    inputs = {"benchmark_seed": args.seed}
    if args.workload == "corpus":
        corpus = corpus_mod.generate(args.seed)
        corpus_path = OUT / f"corpus_{stem}.csv"
        corpus_mod.write_long_csv(corpus, corpus_path, args.seed)
        inputs.update(scientists=len(corpus),
                      papers=sum(len(c) for c in corpus.values()))
        del corpus

    try:
        split = import_split(env, started) if args.trace else {}
        spans_path = OUT / f"spans_{stem}.json" if args.trace else None
        record = run_child(args, env, started, corpus_path, spans_path)
    finally:
        if corpus_path is not None:
            corpus_path.unlink(missing_ok=True)

    inputs.update(record["inputs"])
    record["inputs"] = inputs
    if args.trace:
        metrics = per_layer_metrics(args.workload, record, split)
    else:
        measured = {"setup_s": record["setup_s"],
                    "cmd_s": record["untraced"]["cmd_s"],
                    "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {n: {"value": measured[n], "unit": u} for n, u in END_TO_END}
    correct = all(c["ok"] for c in record["checks"])
    record["metrics"] = metrics
    with open(OUT / f"BENCH_{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    env_info = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print("inputs " + " ".join(f"{k}={v}" for k, v in inputs.items()))
    print(f"passes {record['passes']} untraced"
          + (f", {record['traced_passes']} traced" if args.trace
             else f", setup from {len(record['setup_cpu_s'])} fresh interpreters")
          + ", 1 warm-up pass not counted")
    print(f"failed {record['failed']} of {record['attempted']} attempted operations")
    if not args.trace:
        for name, value in command_metrics(args.workload, record).items():
            print(f"  {name:32} {value:>12.6g} {PER_LAYER[name]}")
    for name, value in metrics.items():
        shown = "absent" if value["value"] is None else f"{value['value']:.6g}"
        print(f"  {name:32} {shown:>12} {value['unit']}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
