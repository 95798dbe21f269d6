"""Span tracer for the traced benchmark run.

While installed, the tracer replaces, in each heavytail module's namespace,
every public function that module imported from another heavytail module
with a wrapper that records a span.  A few named points inside a module
are wrapped too: ``monte_carlo.collect_stats``, ``ar_quadform.build_a``,
numpy's ``SeedSequence`` and ``default_rng`` (stream setup, charged to
``monte_carlo``) and the thread pool class ``monte_carlo`` uses, whose
tasks become spans parented to the span that submitted them.  Nothing
under ``src/`` changes; every replaced attribute is put back when the
``installed`` context exits, also on error.

Each thread keeps its own parent stack; finished spans go to one
append-only list.  A span's self time is its duration minus the union of
its children's intervals, so in a serial call the self times of all spans
add up to the root spans' durations, and with a pool they add up to the
busy time of all threads.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import namedtuple
from contextlib import contextmanager

import numpy as np

Span = namedtuple("Span", "sid parent name layer thread start end items")

PACKAGE = "heavytail"
LAYERS = ("cli", "monte_carlo", "student_dist", "ar_quadform", "tail_formulas",
          "ar2_regions")

# Wrap points inside a module, beyond the automatic cross-module set.
INNER_POINTS = (("monte_carlo", "collect_stats"), ("ar_quadform", "build_a"))
STREAM_POINTS = ("SeedSequence", "default_rng")
POOL_POINT = ("monte_carlo", "ThreadPoolExecutor")
POOL_TASK = "monte_carlo.pool_task"

# Span names every profile lists, with zero calls when a workload never
# reaches them (or the attribute no longer exists).
NAMED_SPANS = (
    "cli.main",
    "monte_carlo.run_tail_experiment", "monte_carlo.calibrate_risk",
    "monte_carlo.collect_stats", POOL_TASK,
    "monte_carlo.write_tail_csv", "monte_carlo.write_risk_csv",
    "numpy.random.SeedSequence", "numpy.random.default_rng",
    "student_dist.sample",
    "ar_quadform.autocov_matrix", "ar_quadform.test_matrix", "ar_quadform.build_a",
    "tail_formulas.classify", "tail_formulas.ar1_upper_tail",
    "tail_formulas.test_stat_tail", "tail_formulas.critical_value",
    "tail_formulas.evaluate",
    "ar2_regions.region_grid", "ar2_regions.write_region_csv",
)

# Per-layer counts that must not depend on the worker count.
WORK_COUNTS = ("monte_carlo.streams", "student_dist.sample_calls", "student_dist.draws",
               "ar_quadform.form_calls", "tail_formulas.classify_calls",
               "ar2_regions.points")

# Work counts taken from a wrapped call's result.
ITEMS = {
    "student_dist.sample": np.size,
    "ar2_regions.region_grid": len,
}


class Tracer:
    """Records spans while installed; ``take`` hands over and clears them."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of the calling thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name, layer, adopt=None):
        """``fn`` recording one span per call.  ``adopt`` is the parent used
        when the calling thread has no open span (pool tasks)."""
        items = ITEMS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else adopt
            stack.append(sid)
            count = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    count = items(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, layer,
                                         threading.get_ident(), start, end, count))
        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                task = tracer.wrap(fn, POOL_TASK, "monte_carlo", adopt=tracer.current())
                return super().submit(task, *args, **kwargs)
        return TracedPool

    def _install(self):
        self.absent = []
        modules = {short: sys.modules["%s.%s" % (PACKAGE, short)] for short in LAYERS}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ == "%s.%s" % (PACKAGE, home) and home in LAYERS \
                        and home != short:
                    self._patch(mod, attr,
                                self.wrap(obj, "%s.%s" % (home, obj.__name__), home))
        for short, attr in INNER_POINTS:
            obj = getattr(modules[short], attr, None)
            if obj is None:
                self.absent.append("%s.%s" % (short, attr))
            else:
                self._patch(modules[short], attr,
                            self.wrap(obj, "%s.%s" % (short, attr), short))
        for attr in STREAM_POINTS:
            self._patch(np.random, attr,
                        self.wrap(getattr(np.random, attr), "numpy.random." + attr,
                                  "monte_carlo"))
        short, attr = POOL_POINT
        base = getattr(modules[short], attr, None)
        if base is None:
            self.absent.append("%s.%s" % POOL_POINT)
        else:
            self._patch(modules[short], attr, self._pool_class(base))

    def _uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every trace point; restore them all on exit."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()


# ------------------------------------------------------------ aggregation

def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map sid -> self time: duration minus the union of child intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def profile(spans, own=None):
    """Per span name: calls, total (sum of durations), self, items.  Every
    name in NAMED_SPANS is present, at zero when it saw no call."""
    own = self_times(spans) if own is None else own
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
             for name in NAMED_SPANS}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "items": 0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.sid]
        row["items"] += s.items or 0
    return table


def layer_metrics(spans):
    """The per-layer metrics of one traced call (see BENCHMARK.json)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    table = profile(spans, own)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    def outermost(names):
        """Total time and count of spans in ``names`` not nested directly
        inside another span of ``names``."""
        top = [s for s in spans if s.name in names and parent_name(s) not in names]
        return sum(s.end - s.start for s in top), len(top)

    def self_with_tasks(name):
        """Self time of ``name`` plus that of the pool tasks it submitted."""
        return sum(own[s.sid] for s in spans
                   if s.name == name or (s.name == POOL_TASK and parent_name(s) == name))

    form_s, form_calls = outermost({"ar_quadform.autocov_matrix",
                                    "ar_quadform.test_matrix", "ar_quadform.build_a"})
    classify_s, classify_calls = outermost({"tail_formulas.classify"})
    closed_s, _ = outermost({"tail_formulas.ar1_upper_tail", "tail_formulas.test_stat_tail",
                             "tail_formulas.critical_value", "tail_formulas.evaluate"})
    out = {
        "monte_carlo.stream_s": table["numpy.random.SeedSequence"]["total_s"]
        + table["numpy.random.default_rng"]["total_s"],
        "monte_carlo.streams": table["numpy.random.default_rng"]["calls"],
        "monte_carlo.reduce_self_s": self_with_tasks("monte_carlo.collect_stats"),
        "monte_carlo.reuse_self_s": self_with_tasks("monte_carlo.calibrate_risk"),
        "monte_carlo.survival_s": table["monte_carlo.run_tail_experiment"]["self_s"],
        "monte_carlo.csv_s": table["monte_carlo.write_tail_csv"]["total_s"]
        + table["monte_carlo.write_risk_csv"]["total_s"],
        "monte_carlo.pool_tasks": table[POOL_TASK]["calls"],
        "student_dist.sample_s": table["student_dist.sample"]["total_s"],
        "student_dist.sample_calls": table["student_dist.sample"]["calls"],
        "student_dist.draws": table["student_dist.sample"]["items"],
        "ar_quadform.form_s": form_s,
        "ar_quadform.form_calls": form_calls,
        "tail_formulas.classify_s": classify_s,
        "tail_formulas.classify_calls": classify_calls,
        "tail_formulas.closed_form_s": closed_s,
        "ar2_regions.scan_s": table["ar2_regions.region_grid"]["total_s"],
        "ar2_regions.points": table["ar2_regions.region_grid"]["items"],
        "ar2_regions.csv_s": table["ar2_regions.write_region_csv"]["total_s"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out["%s.self_s" % layer] = sum(own[s.sid] for s in spans if s.layer == layer)
    return out
