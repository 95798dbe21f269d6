"""heavytail benchmark: one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload mc_short --seed 0 --seconds 20 --trace 0

One caller issues each call only after the previous one returned; calls go
through ``heavytail.cli.main`` in-process with ``--out`` pointing at a file
under ``perfbench/.work``.  Every call passes its workload's output gate or
counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(median wall time of one call), ``setup_s`` (median time for a fresh
interpreter to import heavytail) and ``peak_rss_mb`` (peak resident memory
of this process).  On a shared machine the speed of a core drifts by up
to 2x over minutes, so both times are reported at a nominal speed: a fixed
reference loop is timed before every probe and call, and the medians are
scaled by REF_NOMINAL_S / median(reference time).  The raw samples are
printed above the result.  ``--trace 1`` gives the per-layer metrics: it cycles through
untraced and traced calls, with the default pool and with one worker,
checks that all of them wrote the same bytes, and reports span metrics
(see tracing.py) next to the pool speedup and the tracing overhead.

The last stdout line is the result as JSON; a ``# env`` line before it
records the machine, library versions, BLAS threads, worker count, seed and
every step's argv.  ``--workload all`` runs each workload in its own
process and prints their results.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 5
REF_LOOPS = 750_000
REF_NOMINAL_S = 0.1

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, check_call, run_call  # noqa: E402

Api = namedtuple("Api", "main test_matrix test_stat_tail classify")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RATIO_METRICS = {"monte_carlo.pool_speedup"}


def load_package():
    """Import heavytail from this checkout's src/, never from elsewhere."""
    if not (SRC / "heavytail" / "__init__.py").is_file():
        raise SystemExit("error: no heavytail sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import heavytail
    import heavytail.cli
    if Path(heavytail.__file__).resolve().parent != (SRC / "heavytail").resolve():
        raise SystemExit("error: heavytail imported from %s, not %s"
                         % (heavytail.__file__, SRC))
    return heavytail


def plain_api(ht):
    return Api(ht.cli.main, ht.ar_quadform.test_matrix,
               ht.tail_formulas.test_stat_tail, ht.tail_formulas.classify)


def traced_api(ht, tracer):
    """The benchmark's entry points, each recorded as a root span."""
    return Api(tracer.wrap(ht.cli.main, "cli.main", "cli"),
               tracer.wrap(ht.ar_quadform.test_matrix, "ar_quadform.test_matrix",
                           "ar_quadform"),
               tracer.wrap(ht.tail_formulas.test_stat_tail,
                           "tail_formulas.test_stat_tail", "tail_formulas"),
               tracer.wrap(ht.tail_formulas.classify, "tail_formulas.classify",
                           "tail_formulas"))


def setup_time():
    """Seconds from spawning a fresh interpreter to its `import heavytail`
    being done and the interpreter gone."""
    code = "import sys; sys.path.insert(0, %r); import heavytail" % str(SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@contextmanager
def single_worker():
    old = os.environ.get("HEAVYTAIL_THREADS")
    os.environ["HEAVYTAIL_THREADS"] = "1"
    try:
        yield
    finally:
        if old is None:
            del os.environ["HEAVYTAIL_THREADS"]
        else:
            os.environ["HEAVYTAIL_THREADS"] = old


class Caller:
    """Issues gated calls of one workload and counts attempts and failures."""

    def __init__(self, steps, workdir):
        self.steps = steps
        self.paths = [str(Path(workdir) / ("%d-%s.out" % (i, s.label)))
                      for i, s in enumerate(steps)]
        self.attempted = 0
        self.failed = 0

    def fail(self, why):
        self.failed += 1
        print("# call %d failed: %s" % (self.attempted, why), file=sys.stderr)

    def call(self, api):
        """One call; returns (wall, cpu, output blobs), blobs None on failure."""
        self.attempted += 1
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            run_call(self.steps, api, self.paths)
        except Exception as exc:  # a failed call is counted, the loop goes on
            wall = time.perf_counter() - start
            self.fail("%s: %s" % (type(exc).__name__, exc))
            return wall, time.process_time() - cpu0, None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        try:
            blobs = check_call(self.steps, self.paths)
        except Exception as exc:  # gate failures and unreadable output alike
            self.fail("%s: %s" % (type(exc).__name__, exc))
            blobs = None
        return wall, cpu, blobs

    def same(self, blobs, ref, what):
        """Count a call whose (gated) output differs from the reference."""
        if blobs is not None and ref is not None and blobs != ref:
            self.fail("%s output differs from the untraced pool output" % what)


def closed_loop(seconds, cycle):
    """Run ``cycle()`` (returns nothing) at least once, then again while the
    next one is expected to finish within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        cycle()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def reference_time():
    """Seconds for a fixed pure-Python float loop, about REF_NOMINAL_S on a
    quiet core; timed between calls to track the machine's current speed."""
    start = time.perf_counter()
    x, y = 0.5, 0.25
    for _ in range(REF_LOOPS):
        x, y = 0.5 * x + 0.25 * y, x
    return time.perf_counter() - start


def end_to_end(ht, caller, seconds):
    """wall_s and setup_s are scaled by REF_NOMINAL_S / median(reference
    time), the reference loop being timed before every probe and call, so
    a change in machine speed between runs cancels out; the raw medians are
    printed next to them."""
    refs, setups, walls = [], [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_time())
        setups.append(setup_time())
    api = plain_api(ht)
    caller.call(api)  # warm-up: page cache, lazy imports, BLAS threads

    def cycle():
        refs.append(reference_time())
        walls.append(caller.call(api)[0])
    closed_loop(seconds, cycle)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = REF_NOMINAL_S / statistics.median(refs)
    samples = {"raw wall_s": walls, "raw setup_s": setups, "reference loop": refs}
    metrics = {"wall_s": statistics.median(walls) * speed,
               "setup_s": statistics.median(setups) * speed,
               "peak_rss_mb": peak_kib / 1024.0}
    return metrics, samples, {}


def traced(ht, caller, seconds):
    """Per-layer metrics.  Each cycle makes an untraced call with the default
    pool, an untraced single-worker call, a traced call with the pool and a
    traced single-worker call; all four must write the reference bytes.

    The time metrics come from the single-worker traced call, where spans
    do not overlap and self times add up to the call's wall time; in the
    pooled call, worker-thread spans also hold the time spent waiting for
    the interpreter lock.  The pooled traced call checks that spans recorded
    from the pool threads give the same work counts."""
    plain = plain_api(ht)
    tracer = tracing.Tracer()
    api = traced_api(ht, tracer)
    ref = caller.call(plain)[2]  # warm-up and the reference bytes
    pool, single, cpus, traced_pool, traced_single = [], [], [], [], []
    per_call, tasks = [], []
    profile = {}

    def timed(label, traced_call, one_worker):
        with single_worker() if one_worker else nullcontext():
            if not traced_call:
                wall, cpu, blobs = caller.call(plain)
            else:
                with tracer.installed():
                    wall, cpu, blobs = caller.call(api)
        caller.same(blobs, ref, label)
        return wall, cpu

    def cycle():
        nonlocal profile
        wall, cpu = timed("repeated", False, False)
        pool.append(wall)
        cpus.append(cpu)
        single.append(timed("single-worker", False, True)[0])
        traced_pool.append(timed("traced pooled", True, False)[0])
        pooled = tracing.layer_metrics(tracer.take())
        traced_single.append(timed("traced single-worker", True, True)[0])
        spans = tracer.take()
        serial = tracing.layer_metrics(spans)
        for key in tracing.WORK_COUNTS:
            if pooled[key] != serial[key]:
                caller.fail("%s: %s traced with the pool, %s single-worker"
                            % (key, pooled[key], serial[key]))
        per_call.append(serial)
        tasks.append(pooled["monte_carlo.pool_tasks"])
        profile = tracing.profile(spans)

    closed_loop(seconds, cycle)
    metrics = {key: statistics.median(row[key] for row in per_call)
               for key in per_call[0]}
    metrics.update({
        "monte_carlo.pool_tasks": statistics.median(tasks),
        "monte_carlo.workers": ht.monte_carlo.worker_count(),
        "monte_carlo.wall_pool_s": statistics.median(pool),
        "monte_carlo.wall_1worker_s": statistics.median(single),
        "monte_carlo.pool_speedup": statistics.median(single) / statistics.median(pool),
        "process.cpu_s": statistics.median(cpus),
        "trace.wall_s": statistics.median(traced_pool),
        "trace.wall_1worker_s": statistics.median(traced_single),
        "trace.overhead_s": statistics.median(traced_pool) - statistics.median(pool),
    })
    samples = {"wall_pool_s": pool, "wall_1worker_s": single,
               "trace.wall_pool_s": traced_pool, "trace.wall_1worker_s": traced_single}
    extra = {"profile": profile, "absent_points": tracer.absent}
    return metrics, samples, extra


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in RATIO_METRICS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


# ------------------------------------------------------------ environment

def openblas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": path.name, "threads": fn()}
    return None


def environment(ht, workload, seed, steps):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "workload": workload,
        "seed": seed,
        "argv": [list(s.argv) if s.argv else ["<api> pivots"] + [list(p) for p in s.pivots]
                 for s in steps],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heavytail": ht.__version__,
        "blas": blas_version,
        "openblas_threads": openblas_threads(numpy),
        "worker_count": ht.monte_carlo.worker_count(),
        "env": {k: os.environ.get(k) for k in ("HEAVYTAIL_THREADS", "OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS")},
    }


# ------------------------------------------------------------------ main

def run_one(args):
    ht = load_package()
    seed = args.seed % 2 ** 32
    steps = WORKLOADS[args.workload].plan(seed, ht)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        caller = Caller(steps, workdir)
        measure = traced if args.trace else end_to_end
        metrics, samples, extra = measure(ht, caller, args.seconds)
    env = environment(ht, args.workload, seed, steps)
    result = {"correct": caller.failed == 0, "attempted": caller.attempted,
              "failed": caller.failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    for key, values in samples.items():
        print("# %s median %.6g s of %d: %s" % (key, statistics.median(values), len(values),
                                                " ".join("%.4f" % v for v in values)))
    for key, m in result["metrics"].items():
        print("# metric %s %.6g %s" % (key, m["value"], m["unit"]))
    print("# fail_rate %.6g ratio (%d of %d calls)"
          % (caller.failed / caller.attempted, caller.failed, caller.attempted))
    if extra:
        print("# absent wrap points: %s" % (", ".join(extra["absent_points"]) or "none"))
        for name, row in sorted(extra["profile"].items()):
            print("# span %-34s calls %8d total %9.4f s self %9.4f s items %d"
                  % (name, row["calls"], row["total_s"], row["self_s"], row["items"]))
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit("error: workload %s exited %d" % (name, proc.returncode))
        for line in lines[:-1]:
            print("# [%s] %s" % (name, line.lstrip("# ")))
        results[name] = json.loads(lines[-1])
        for key, m in results[name]["metrics"].items():
            print("%-14s %-30s %.6g %s" % (name, key, m["value"], m["unit"]))
        print("%-14s %-30s %.6g ratio" % (name, "fail_rate", results[name]["failed"]
                                           / results[name]["attempted"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, taken modulo 2**32")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
