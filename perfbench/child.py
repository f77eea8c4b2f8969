"""One benchmark run in a fresh interpreter: drives ``bibfactor.cli.main``
in-process, one command at a time (a closed loop with one client), checks
the outputs and prints one JSON record on its last stdout line.

Started by ``run.py``; the environment it gets pins the BLAS thread count
and puts the checkout's ``src`` on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy
import scipy

import corpus as corpus_mod
import speedprobe
import tracing

BOOTSTRAP_SEED = 31
BOOTSTRAP_B = 1000
BOOTSTRAP_CONFIGS = (("7", "raw", "varimax"), ("7+NC", "ln", "promax"))
ORACLE_SAMPLE = 200
KNOWN_INCONSISTENT = {("tableA3", "m p_normal"), ("tableA1", "S: R vs sqrt(A*h)")}
EXPECTED_BINDING = 596
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SETUP_SAMPLES = 5


def program_inputs(workload):
    """What the program is given beyond the generated corpus."""
    if workload == "bootstrap":
        return {"program_seed": BOOTSTRAP_SEED, "B": BOOTSTRAP_B, "n": 26, "p": [7, 9]}
    if workload == "verify":
        return {"n": 26}
    return {}


def commands(workload, corpus_path):
    """The (name, argv) sequence that makes up one pass of a workload."""
    if workload == "verify":
        return [("verify", ["verify", "--json"])]
    if workload == "bootstrap":
        return [
            (f"bootstrap_{vars_}_{transform}_{rotation}",
             ["bootstrap", "--fixture", "--vars", vars_, "--transform", transform,
              "--rotation", rotation, "--B", str(BOOTSTRAP_B),
              "--seed", str(BOOTSTRAP_SEED), "--json"])
            for vars_, transform, rotation in BOOTSTRAP_CONFIGS
        ]
    if workload == "corpus":
        source = ["--input", corpus_path, "--format", "long"]
        return [
            ("indices", ["indices", *source]),
            ("describe", ["describe", *source, "--vars", "7+NSC", "--transform", "ln1p"]),
            ("efa", ["efa", *source, "--vars", "7+NSC", "--transform", "ln1p",
                     "--rotation", "promax", "--json"]),
        ]
    raise SystemExit(f"unknown workload {workload!r}")


class Runner:
    def __init__(self, cli, workload, corpus_path):
        self.cli = cli
        self.commands = commands(workload, corpus_path)
        self.warnings = Counter()
        self.tracer = None
        self.probe_means = []  # mean probe kernel seconds of each probed call

    def count_warning(self, message, category, *args, **kwargs):
        """Stands in for ``warnings.showwarning``: counts instead of printing."""
        self.warnings[category.__name__] += 1
        if self.tracer is not None:
            self.tracer.note_warning(category)

    def call(self, argv, probed=False):
        """Run one command in-process: (wall seconds, exit code, stdout,
        reference seconds). With ``probed``, a speed probe runs alongside;
        its time is taken out of the wall seconds, and the reference seconds
        are the command's CPU time on the reference host (speedprobe.py).
        Without, the reference seconds are None.
        """
        stdout = io.StringIO()
        probe = speedprobe.Probe() if probed else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            with probe:
                start = time.perf_counter()
                cpu = time.process_time()
                code = self.cli.main(list(argv))
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - start
        if not probed:
            return wall, code, stdout.getvalue(), None
        self.probe_means.append(statistics.fmean(probe.samples))
        return wall - probe.overhead_s, code, stdout.getvalue(), probe.reference_s(cpu)

    def run_pass(self, probed=False):
        """Run every command once: {name: (wall s, exit code, stdout,
        reference s)}."""
        return {name: self.call(argv, probed) for name, argv in self.commands}


# Imports nothing before ``import bibfactor`` but the probe, whose own
# imports (gc, signal) bibfactor loads anyway.
SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
import speedprobe
with speedprobe.Probe() as probe:
    cpu = time.process_time()
    import bibfactor
    cpu = time.process_time() - cpu
print(repr(cpu - probe.overhead_s), repr(probe.reference_s(cpu)))
"""


def setup_sample():
    """(wall seconds of the whole interpreter, CPU seconds of ``import
    bibfactor``, the same in reference seconds) from a fresh interpreter
    that imports bibfactor, with a speed probe running, and exits."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(here=os.path.dirname(__file__))],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"import bibfactor failed:\n{done.stderr[-2000:]}")
    cpu, reference = map(float, done.stdout.split())
    return elapsed, cpu, reference


def blas_threads():
    """Threads each loaded OpenBLAS reports, read through its own API."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = int(getter())
                break
    return found


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------- checks


def check_verify(outputs):
    report = json.loads(outputs["verify"][2])
    reported = {(c["table"], c["cell"]) for c in report["checks"]
                if not c["binding"] and c["note"]}
    missing = KNOWN_INCONSISTENT - reported
    return [
        ("verify.overall_pass", report["overall_pass"] is True, ""),
        ("verify.binding_count", report["n_binding"] == EXPECTED_BINDING,
         f"{report['n_binding']} binding checks, expected {EXPECTED_BINDING}"),
        ("verify.binding_failed", report["n_binding_failed"] == 0,
         f"{report['n_binding_failed']} binding checks failed"),
        ("verify.known_cells_reported", not missing, f"missing {sorted(missing)}"),
    ]


def _all_finite(values):
    if isinstance(values, list):
        return all(_all_finite(v) for v in values)
    return isinstance(values, (int, float)) and math.isfinite(values)


def check_bootstrap(runner, outputs):
    results = []
    for (name, _), (vars_, transform, rotation) in zip(runner.commands, BOOTSTRAP_CONFIGS):
        payload = json.loads(outputs[name][2])
        _, code, efa, _ = runner.call(["efa", "--fixture", "--vars", vars_, "--transform",
                                       transform, "--rotation", rotation, "--json"])
        results += [
            (f"{name}.reference_equals_efa",
             code == 0 and payload["reference"] == json.loads(efa)["loadings"], ""),
            (f"{name}.finite",
             all(_all_finite(payload[k]) for k in ("mean", "sd", "lower", "upper")), ""),
            (f"{name}.B", payload["B"] == BOOTSTRAP_B and payload["seed"] == BOOTSTRAP_SEED, ""),
        ]
    return results


def _parse_text_table(text):
    lines = [line.split() for line in text.splitlines() if line.strip()]
    header = lines[0]
    return {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in lines[2:]}


def check_corpus(outputs, corpus_path, sample_seed):
    grouped = {}
    with open(corpus_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            label, count = line.rstrip("\n").split(",")
            grouped.setdefault(label, []).append(int(count))
    table = _parse_text_table(outputs["indices"][2])
    labels = sorted(grouped)
    rng = numpy.random.default_rng(sample_seed)
    sample = [labels[i] for i in rng.choice(len(labels), ORACLE_SAMPLE, replace=False)]
    bad = []
    for label in sample:
        expected = corpus_mod.indices_by_definition(grouped[label])
        row = table.get(label)
        for column, value in expected.items():
            # the text table shows integers exactly and the rest to 1 decimal
            tol = 0.0 if isinstance(value, int) else 0.05 + 1e-9
            if row is None or abs(row[column] - value) > tol:
                bad.append(f"{label}.{column}")
    efa = json.loads(outputs["efa"][2])
    describe = _parse_text_table(outputs["describe"][2])
    return [
        ("corpus.rows", len(table) == len(grouped), f"{len(table)} rows"),
        ("corpus.oracle", not bad, f"{len(bad)} mismatches: {bad[:5]}"),
        ("corpus.efa_finite",
         all(_all_finite(efa[k]) for k in ("loadings", "communalities", "phi")), ""),
        ("corpus.describe_finite",
         all(math.isfinite(v) for row in describe.values() for v in row.values()), ""),
    ]


def check_repeats(passes):
    """Every pass, traced or not, must print exactly what the first printed."""
    first = passes[0]
    return [(f"{name}.repeats", all(p[name][2] == first[name][2] for p in passes), "")
            for name in first]


# ---------------------------------------------------------------- counts


def attempted_failed(workload, passes):
    attempted = failed = 0
    for outputs in passes:
        for name, (_, code, stdout, _) in outputs.items():
            attempted += 1
            failed += code != 0
            if code != 0:
                continue
            if workload == "bootstrap":
                payload = json.loads(stdout)
                attempted += payload["B"]
                failed += payload["n_failed"]
            elif workload == "verify":
                payload = json.loads(stdout)
                attempted += payload["n_binding"]
                failed += payload["n_binding_failed"]
    return attempted, failed


def untraced_summary(workload, passes):
    """Per-command medians over the untraced (probed) passes.

    ``per_command_s`` holds each command's median reference seconds, its
    CPU time on the reference host (speedprobe.py). ``cmd_s`` sums the
    per-command medians: a burst of load on the host then spoils one sample
    of one command instead of a whole pass.
    """
    names = list(passes[0])
    wall = {n: statistics.median(p[n][0] for p in passes) for n in names}
    per_command = {n: statistics.median(p[n][3] for p in passes) for n in names}
    summary = {
        "pass_s": [sum(p[n][0] for n in names) for p in passes],
        "pass_reference_s": [sum(p[n][3] for n in names) for p in passes],
        "per_command_s": per_command,
        "per_command_wall_s": wall,
        "cmd_s": sum(per_command.values()),
        "cmd_wall_s": sum(wall.values()),
    }
    if workload == "bootstrap":
        summary["resamples_per_s"] = len(names) * BOOTSTRAP_B / summary["cmd_s"]
    return summary


def traced_summary(per_pass):
    """Medians over the traced passes of each per-layer quantity."""
    keys = set()
    for snap in per_pass:
        keys.update(snap)
    return {k: statistics.median(s.get(k, 0.0) for s in per_pass) for k in sorted(keys)}


def snapshot(tracer, pass_s):
    """Per-layer quantities of one traced pass."""
    snap = {"pass_s": pass_s}
    for key, value in tracer.time.items():
        snap[key + "_s"] = value
    for key, value in tracer.calls.items():
        snap[key + "_calls"] = value
    for key, value in tracer.counts.items():
        snap[key] = value
    for layer, value in tracer.self_times().items():
        snap[layer + ".self_s"] = value
    for (layer, category), value in tracer.warnings.items():
        snap[f"{layer}.warnings.{category}"] = value
    snap["efa.heywood_warnings"] = snap.get("efa.warnings.HeywoodWarning", 0)
    # time in cfa_fit outside its optimizer: mostly the finite-difference Hessian
    snap["cfa.se_s"] = snap.get("cfa.cfa_fit_s", 0.0) - snap.get("cfa.minimize_s", 0.0)
    attempted = snap.get("efa.bootstrap_attempted", 0)
    in_bootstrap = snap.get("efa.symmetric_eigen.in_bootstrap", 0)
    snap["efa.eigen_per_resample"] = in_bootstrap / attempted if attempted else 0.0
    return snap


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import bibfactor.cli as cli

    runner = Runner(cli, args.workload, args.corpus)
    warnings.simplefilter("always")
    warnings.showwarning = runner.count_warning

    first = runner.run_pass()
    first_pass_s = sum(v[0] for v in first.values())

    # Set-up samples sit between the passes, so they are spread over the
    # whole run rather than bunched into one burst of host load.
    setup_samples = []
    probed_pass = functools.partial(runner.run_pass, probed=True)
    if args.trace:
        passes = _loop(probed_pass, args.seconds / 2, MIN_TRACED_PASSES)
    else:
        setup_sample()  # the first spawn after start-up reads a cold page cache

        def run_pass():
            setup_samples.append(setup_sample())
            return probed_pass()

        passes = _loop(run_pass, args.seconds, MIN_PASSES)
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(setup_sample())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_wall, setup_cpu, setup_reference = tuple(zip(*setup_samples)) or ((),) * 3
    record = {
        "workload": args.workload,
        "inputs": program_inputs(args.workload),
        "first_pass_s": first_pass_s,
        "probe_mean_s": runner.probe_means,
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "setup_reference_s": setup_reference,
        "setup_s": statistics.median(setup_reference) if setup_samples else None,
        "passes": len(passes),
        "untraced": untraced_summary(args.workload, passes),
        "peak_rss_mb": rss_mb,
        "warnings_per_pass": {k: v / (len(passes) + 1) for k, v in runner.warnings.items()},
        "environment": environment(),
    }

    all_passes = [first] + passes
    if args.trace:
        tracer = tracing.Tracer()
        runner.tracer = tracer
        tracer.install()
        per_pass = []

        def traced_pass():
            tracer.reset()
            outputs = runner.run_pass()
            per_pass.append(snapshot(tracer, sum(v[0] for v in outputs.values())))
            return outputs

        traced = _loop(traced_pass, args.seconds / 2, MIN_TRACED_PASSES)
        tracer.uninstall()
        runner.tracer = None
        all_passes += traced
        record["traced"] = traced_summary(per_pass)
        record["traced_passes"] = len(traced)
        record["absent"] = sorted(tracer.absent)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "request"],
                           "spans": tracer.spans}, handle)

    attempted, failed = attempted_failed(args.workload, all_passes)
    checks = check_repeats(all_passes)
    codes = {name: {p[name][1] for p in all_passes} for name in first}
    checks += [(f"{name}.exit_code", seen == {0}, f"exit codes {sorted(seen)}")
               for name, seen in codes.items()]
    last = passes[-1]
    if all(seen == {0} for seen in codes.values()):
        if args.workload == "verify":
            checks += check_verify(last)
        elif args.workload == "bootstrap":
            checks += check_bootstrap(runner, last)
        else:
            checks += check_corpus(last, args.corpus, [args.seed, 2])
    record["attempted"] = attempted
    record["failed"] = failed
    record["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    print(json.dumps(record))


def _loop(run, seconds, min_passes):
    done = []
    start = time.perf_counter()
    while len(done) < min_passes or time.perf_counter() - start < seconds:
        done.append(run())
    return done


if __name__ == "__main__":
    sys.exit(main())
