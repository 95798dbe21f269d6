"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q -p no:cacheprovider

They check that the workload seed reaches the program, that every gate
rejects a corrupted output, that the tracer restores every attribute it
wraps and records pool-thread spans consistently, and that the per-layer
self times of one traced single-worker call add up to its wall time.
The file name keeps the repository's own test run from collecting them.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, GateError, check_call, pivot_pairs, run_call  # noqa: E402

ht = run.load_package()
SEED = 5


@pytest.fixture(scope="module")
def workdir():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as path:
        yield Path(path)
    try:
        run.WORK.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def produce(name, seed, workdir, api=None, timing=None, steps=None):
    """Run one call of a workload; return its steps and gated outputs.
    The call's wall time, gates excluded, is appended to ``timing``."""
    steps = steps or WORKLOADS[name].plan(seed, ht)
    paths = [str(workdir / ("%s-%d-%d.out" % (name, seed, i))) for i in range(len(steps))]
    start = time.perf_counter()
    run_call(steps, api or run.plain_api(ht), paths)
    if timing is not None:
        timing.append(time.perf_counter() - start)
    return steps, check_call(steps, paths)


@pytest.fixture(scope="module")
def outputs(workdir):
    return {name: produce(name, SEED, workdir) for name in WORKLOADS}


# ------------------------------------------------------------------ seeds

@pytest.mark.parametrize("name", ["mc_short", "mc_long", "calibrate_crn"])
def test_seed_reaches_program(name, outputs):
    steps, blobs = outputs[name]
    assert ("--seed", str(SEED)) in zip(steps[0].argv, steps[0].argv[1:])
    assert ("seed=%d " % SEED).encode() in blobs[0].splitlines()[0]
    with pytest.raises(GateError):  # the gate for another seed rejects this output
        WORKLOADS[name].plan(SEED + 1, ht)[0].gate(blobs[0])


def test_another_seed_draws_other_numbers(outputs, workdir):
    _, blobs = produce("mc_long", SEED + 1, workdir)
    assert blobs[0] != outputs["mc_long"][1][0]


def test_analytic_seed_picks_pivots(outputs):
    assert pivot_pairs(SEED) != pivot_pairs(SEED + 1)
    assert pivot_pairs(SEED) == pivot_pairs(SEED)
    steps, blobs = outputs["analytic"]
    for (a, a0, _, _), line in zip(pivot_pairs(SEED), blobs[2].decode().splitlines()):
        assert line.startswith("a=%r a0=%r " % (a, a0))


# ------------------------------------------------------------------ gates

def edit_csv(blob, column, fn, row_filter=lambda row: True):
    """Apply ``fn`` to ``column`` of every data row ``row_filter`` accepts."""
    lines = blob.decode().split("\n")
    head = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    names = lines[head].split(",")
    col = names.index(column)
    for i in range(head + 1, len(lines)):
        if lines[i]:
            cells = lines[i].split(",")
            if row_filter(dict(zip(names, cells))):
                cells[col] = fn(cells[col])
                lines[i] = ",".join(cells)
    return "\n".join(lines).encode()


def in_band(row):
    return 10 ** -2.5 <= float(row["p_emp"]) <= 0.1


def scale_last_field(blob, factor):
    """Scale the last number on the first line (a pivot line's general coef)."""
    first, rest = blob.split(b"\n", 1)
    head, last = first.rsplit(b" ", 1)
    return head + b" " + repr(float(last) * factor).encode() + b"\n" + rest


def drop_last_row(blob):
    return blob.rstrip(b"\n").rsplit(b"\n", 1)[0] + b"\n"


CORRUPTIONS = {
    "mc_short": [
        (0, lambda b: edit_csv(b, "p_emp", lambda v: repr(2 * float(v)), in_band)),
        (0, lambda b: b.replace(b"seed=%d" % SEED, b"seed=%d" % (SEED + 1))),
        (0, drop_last_row),
    ],
    "mc_long": [
        (0, lambda b: b.replace(b"coef=5", b"coef=6", 1)),
        (0, lambda b: b.replace(b"regime=PowerHalf", b"regime=PowerLog")),
        (0, lambda b: edit_csv(b, "p_emp", lambda v: "1.5", lambda r: float(r["t"]) < 2e3)),
    ],
    "calibrate_crn": [
        (0, lambda b: edit_csv(b, "risk_hat", lambda v: "0.2", lambda r: r["a"] == "1")),
        (0, lambda b: edit_csv(b, "risk_hat", lambda v: "0.01", lambda r: r["a"] == "1")),
        (0, drop_last_row),
    ],
    "analytic": [
        (0, lambda b: b.replace(b"PowerLog", b"PowerHalf", 1)),
        (0, drop_last_row),
        (1, lambda b: b.replace(b"coef=2", b"coef=3", 1)),
        (1, lambda b: b.replace(b"regime=PowerHalf", b"regime=PowerLog")),
        (2, lambda b: b.replace(b"PowerHalf", b"PowerLog", 1)),
        (2, lambda b: scale_last_field(b, 1 + 1e-8)),
    ],
}


@pytest.mark.parametrize("name,case", [(name, i) for name, cases in CORRUPTIONS.items()
                                       for i in range(len(cases))])
def test_gate_rejects_corrupted_output(name, case, outputs):
    steps, blobs = outputs[name]
    step, corrupt = CORRUPTIONS[name][case]
    bad = corrupt(blobs[step])
    assert bad != blobs[step], "corruption left the output unchanged"
    steps[step].gate(blobs[step])
    with pytest.raises(GateError):
        steps[step].gate(bad)


# ---------------------------------------------------------------- tracing

def wrap_targets():
    """Identity of every attribute the tracer may replace."""
    names = [m for m in sys.modules if m.startswith("heavytail.")]
    snap = {(m, k): id(v) for m in names for k, v in vars(sys.modules[m]).items()}
    snap.update({("numpy.random", k): id(getattr(np.random, k))
                 for k in tracing.STREAM_POINTS})
    return snap


def test_tracer_restores_every_attribute_on_error():
    before = wrap_targets()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert wrap_targets() != before
            raise RuntimeError("boom")
    assert wrap_targets() == before
    assert tracer.absent == []


def test_zero_call_points_are_reported():
    table = tracing.profile([])
    assert set(tracing.NAMED_SPANS) <= set(table)
    assert all(row["calls"] == 0 for row in table.values())
    metrics = tracing.layer_metrics([])
    assert metrics and all(v == 0 for v in metrics.values())


@pytest.mark.parametrize("name", ["analytic", "mc_long"])
def test_single_worker_self_times_sum_to_wall(name, outputs, workdir):
    """Outside the root spans a traced call spends only the benchmark's
    own glue between steps, well within the tracing overhead."""
    walls = []
    tracer = tracing.Tracer()
    steps = WORKLOADS[name].plan(SEED, ht)  # gate references stay untraced
    with run.single_worker():
        produce(name, SEED, workdir, timing=walls, steps=steps)
        with tracer.installed():
            _, blobs = produce(name, SEED, workdir, api=run.traced_api(ht, tracer),
                               timing=walls, steps=steps)
    untraced, wall = walls
    spans = tracer.take()
    assert blobs == outputs[name][1]
    metrics = tracing.layer_metrics(spans)
    total = sum(metrics["%s.self_s" % layer] for layer in tracing.LAYERS)
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    assert abs(total - roots) <= 1e-6 * len(spans)
    assert 0.0 <= wall - total <= max(wall - untraced, 0.0) + 0.01 * wall


def test_pool_thread_spans_under_fast_switching(workdir):
    """More workers than cores and a short switch interval: every replica's
    stream and draw is recorded once, under a pool task of collect_stats."""
    argv = ["simulate", "--alpha", "1", "--a", "1", "--n", "10", "--k", "1",
            "--replicas", "3000", "--seed", "9", "--t-min", "100", "--t-max", "1e6",
            "--points", "7", "--out"]
    plain, traced = str(workdir / "plain.csv"), str(workdir / "traced.csv")
    tracer = tracing.Tracer()
    old_env = os.environ.get("HEAVYTAIL_THREADS")
    old_switch = sys.getswitchinterval()
    os.environ["HEAVYTAIL_THREADS"] = "4"
    sys.setswitchinterval(1e-5)
    try:
        start = time.perf_counter()
        assert ht.cli.main(argv + [plain]) == 0
        with tracer.installed():
            assert tracer.wrap(ht.cli.main, "cli.main", "cli")(argv + [traced]) == 0
        assert time.perf_counter() - start < 120
    finally:
        sys.setswitchinterval(old_switch)
        if old_env is None:
            del os.environ["HEAVYTAIL_THREADS"]
        else:
            os.environ["HEAVYTAIL_THREADS"] = old_env
    assert Path(plain).read_bytes() == Path(traced).read_bytes()
    spans = tracer.take()
    metrics = tracing.layer_metrics(spans)
    assert metrics["monte_carlo.streams"] == 3000
    assert metrics["student_dist.sample_calls"] == 3000
    assert metrics["student_dist.draws"] == 30000
    assert metrics["monte_carlo.pool_tasks"] > 1
    by_id = {s.sid: s for s in spans}
    assert len(by_id) == len(spans)
    assert all(s.parent is None or s.parent in by_id for s in spans)
    assert len({s.thread for s in spans}) > 1
    for s in spans:
        if s.name == tracing.POOL_TASK:
            assert by_id[s.parent].name == "monte_carlo.collect_stats"
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert tracer.current() is None


# -------------------------------------------------------------- contract

def test_bare_directory_exits_nonzero(workdir):
    """Without src/ the benchmark fails fast and prints no result."""
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_short",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
