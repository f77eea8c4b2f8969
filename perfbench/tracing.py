"""Spans and counters at the boundaries of bibfactor's modules.

The tracer wraps public functions from outside the package: each wrapper
replaces the function in every ``bibfactor`` module namespace that binds
it, because modules import each other's functions by name and patching
only the defining module would miss those calls. A probe whose module or
function is missing is recorded as absent instead of failing the run.

Spans ``(name, start, end, parent, request)`` stay in memory until the run
ends. A layer's self time is the duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

def _papers(tracer, args, kwargs, result):
    tracer.counts["tables.papers_parsed"] += sum(len(rec.counts) for rec in result)


def _ks_points(tracer, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tracer.counts["stats.ks_points"] += len(values)


def _bootstrap(tracer, args, kwargs, result):
    tracer.counts["efa.bootstrap_attempted"] += result.n_boot
    tracer.counts["efa.bootstrap_failed"] += result.n_failed


def _cfa(tracer, args, kwargs, result):
    tracer.counts["cfa.iterations"] += result.iterations
    tracer.counts["cfa.converged"] += int(result.converged)
    tracer.counts["cfa.heywood_rows"] += int(result.heywood.sum())


def _minimize(tracer, args, kwargs, result):
    tracer.counts["cfa.nfev"] += int(result.nfev)


def _verify(tracer, args, kwargs, result):
    tracer.counts["verify.binding"] += result.n_binding
    tracer.counts["verify.binding_failed"] += result.n_binding_failed
    tracer.counts["verify.reported"] += result.n_reported


# (module, function, layer, timing key, result hook). Calls to a key nested
# inside another call to the same key add neither time nor calls, so
# adequacy -> kmo counts once under efa.adequacy.
PROBES = (
    ("bibfactor.cli", "main", "cli", "cli.main", None),
    ("bibfactor.tables", "parse_citations", "tables", "tables.parse_citations", _papers),
    ("bibfactor.tables", "table_from_records", "tables", "tables.table_from_records", None),
    ("bibfactor.indices", "indicator_set", "indices", "indices.indicator_set", None),
    ("bibfactor.stats", "fit_student_ml", "stats", "stats.fit_student_ml", None),
    ("bibfactor.stats", "ks_test", "stats", "stats.ks_test", _ks_points),
    ("bibfactor.stats", "describe", "stats", "stats.describe", None),
    ("bibfactor.efa", "efa_pipeline", "efa", "efa.efa_pipeline", None),
    ("bibfactor.efa", "correlation_matrix", "efa", "efa.correlation_matrix", None),
    ("bibfactor.efa", "uls_extract", "efa", "efa.uls_extract", None),
    ("bibfactor.efa", "varimax", "efa", "efa.varimax", None),
    ("bibfactor.efa", "promax", "efa", "efa.promax", None),
    ("bibfactor.efa", "align_loadings", "efa", "efa.align_loadings", None),
    ("bibfactor.efa", "adequacy", "efa", "efa.adequacy", None),
    ("bibfactor.efa", "kmo", "efa", "efa.adequacy", None),
    ("bibfactor.efa", "bartlett", "efa", "efa.adequacy", None),
    ("bibfactor.efa", "bootstrap_efa", "efa", "efa.bootstrap_efa", _bootstrap),
    ("bibfactor.cfa", "cfa_fit", "cfa", "cfa.cfa_fit", _cfa),
    ("bibfactor.cfa", "minimize", "cfa", "cfa.minimize", _minimize),
    ("bibfactor.verify", "run_verification", "verify", "verify.run_verification", _verify),
)

# Called thousands of times per bootstrap: counted, without a span.
COUNTED = (("bibfactor.efa", "symmetric_eigen", "efa.symmetric_eigen"),)

# Counters that a result hook fills, by the probe key that feeds them.
HOOK_COUNTERS = {
    "tables.parse_citations": ("tables.papers_parsed",),
    "stats.ks_test": ("stats.ks_points",),
    "efa.bootstrap_efa": ("efa.bootstrap_attempted", "efa.bootstrap_failed"),
    "cfa.cfa_fit": ("cfa.iterations", "cfa.converged", "cfa.heywood_rows"),
    "cfa.minimize": ("cfa.nfev",),
    "verify.run_verification": ("verify.binding", "verify.binding_failed", "verify.reported"),
}


class Tracer:
    """Installs the probes, records spans and per-pass counters."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []
        self._depth = Counter()
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new pass: clear counters, keep spans."""
        self.time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.warnings = Counter()
        self._first_span = len(self.spans)

    def install(self):
        for module_name, name, layer, key, hook in PROBES:
            original = self._lookup(module_name, name)
            if original is None:
                self.absent.add(key)
                self.absent.update(HOOK_COUNTERS.get(key, ()))
                continue
            self._replace(original, self._spanned(original, name, layer, key, hook))
        for module_name, name, key in COUNTED:
            original = self._lookup(module_name, name)
            if original is None:
                self.absent.add(key)
                continue
            self._replace(original, self._counted(original, key))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def note_warning(self, category):
        """Attribute a warning to the layer of the innermost open span."""
        layer = self._stack[-1][1] if self._stack else "none"
        self.warnings[(layer, category.__name__)] += 1

    def self_times(self):
        """Self time per layer over the spans of the current pass."""
        spans = self.spans[self._first_span:]
        covered = Counter()
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        totals = Counter()
        for offset, (name, start, end, _, _) in enumerate(spans):
            span_id = self._first_span + offset
            totals[name.split(".", 1)[0]] += end - start - covered[span_id]
        return totals

    @staticmethod
    def _lookup(module_name, name):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        value = getattr(module, name, None)
        return value if callable(value) else None

    def _replace(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "bibfactor"
                                      or module_name.startswith("bibfactor.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _spanned(self, fn, name, layer, key, hook):
        spans, stack, depth = self.spans, self._stack, self._depth
        span_name = f"{layer}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent, request = (stack[-1][0], stack[-1][2]) if stack else (None, span_id)
            stack.append((span_id, layer, request))
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                spans[span_id] = (span_name, start, end, parent, request)
                if not depth[key]:
                    self.time[key] += end - start
                    self.calls[key] += 1
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.absent.update(HOOK_COUNTERS[key])
            return result

        return wrapper

    def _counted(self, fn, key):
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if depth["efa.bootstrap_efa"]:
                self.counts[key + ".in_bootstrap"] += 1
            return fn(*args, **kwargs)

        return wrapper
