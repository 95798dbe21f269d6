"""The four benchmark workloads: the steps of one call, derived from the
workload seed, and the output gate every call must pass.

A call is a short sequence of steps run back to back by one caller.  CLI
steps go through ``heavytail.cli.main`` with ``--out`` pointing at a file
in the run's work directory; the pivot step of ``analytic`` calls the
public classifier functions directly, because no subcommand exposes the
test-statistic tail.  Gates never pin Monte Carlo bytes: they check the
statistical or closed-form properties that any correct RNG scheme keeps.
"""

import hashlib
import math
import random
from dataclasses import dataclass

# sha256 of `regions --steps 201` output; the scan uses no RNG, so its bytes
# are fixed by the code.
REGIONS_SHA256 = "f55b0dc3cf12bbb072c8ea648a69586f4999028317ee04264adb8648b8162a1f"

COEF_RTOL = 1e-10


class GateError(Exception):
    """A call's output failed its correctness gate."""


@dataclass(frozen=True)
class Step:
    """One unit of a call.  ``argv`` is a CLI argument list (``--out`` is
    appended at run time); a step with ``pivots`` instead runs the
    test-statistic classifier pair on each (a, a0) and writes one line each."""

    label: str
    gate: object
    argv: tuple = ()
    pivots: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: object  # plan(seed, ht) -> list of Step


def _run_step(step, api, path):
    """Execute one step, leaving its output in ``path``."""
    if step.argv:
        code = api.main(list(step.argv) + ["--out", path])
        if code != 0:
            raise GateError("%s: exit code %d" % (step.label, code))
        return
    lines = []
    for a, a0, n, alpha in step.pivots:
        closed = api.test_stat_tail(a, a0, n, alpha)
        general = api.classify(api.test_matrix(a, a0, n), alpha)[1]
        lines.append("a=%r a0=%r %s %r %s %r\n" % (a, a0, closed.regime, closed.coef,
                                                   general.regime, general.coef))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def run_call(steps, api, paths):
    """Run every step of one call; ``paths[i]`` receives step i's output."""
    for step, path in zip(steps, paths):
        _run_step(step, api, path)


def check_call(steps, paths):
    """Apply each step's gate to its output and return the outputs' bytes;
    raises GateError."""
    blobs = []
    for step, path in zip(steps, paths):
        with open(path, "rb") as fh:
            blobs.append(fh.read())
        step.gate(blobs[-1])
    return blobs


# ---------------------------------------------------------------- parsing

def _lines(blob):
    return blob.decode("utf-8").splitlines()


def _header_fields(blob, prefix):
    """key=value fields of the first '#' line that starts with ``prefix``."""
    for line in _lines(blob):
        if line.startswith("# " + prefix):
            return dict(f.split("=", 1) for f in line[2:].split() if "=" in f)
    raise GateError("no '# %s' header line" % prefix)


def _csv_rows(blob):
    """Data rows of a CSV with '#' comment lines, as dicts of strings."""
    body = [line for line in _lines(blob) if line and not line.startswith("#")]
    if not body:
        raise GateError("empty CSV")
    names = body[0].split(",")
    return [dict(zip(names, line.split(","))) for line in body[1:]]


def _same_coef(got, want):
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= COEF_RTOL * abs(want)


def _check_seed(blob, seed):
    got = _header_fields(blob, "config").get("seed")
    if got != str(seed):
        raise GateError("config echoes seed=%s, expected %d" % (got, seed))


def _check_curve(rows, points):
    if len(rows) != points:
        raise GateError("%d curve rows, expected %d" % (len(rows), points))
    p_emp = [float(r["p_emp"]) for r in rows]
    if any(not 0.0 <= p <= 1.0 for p in p_emp):
        raise GateError("p_emp outside [0, 1]")
    if any(b > a for a, b in zip(p_emp, p_emp[1:])):
        raise GateError("p_emp increases along the threshold grid")


# ------------------------------------------------------------------ gates

def mc_short_gate(seed, points):
    """Acceptance 7: max |log10(p_emp/p_theory)| <= 0.15 over
    p_emp in [10^-2.5, 0.1], on at least 3 grid points."""
    def gate(blob):
        _check_seed(blob, seed)
        rows = _csv_rows(blob)
        _check_curve(rows, points)
        band = [r for r in rows if 10 ** -2.5 <= float(r["p_emp"]) <= 0.1]
        if len(band) < 3:
            raise GateError("%d points in the acceptance band, need 3" % len(band))
        gap = max(abs(math.log10(float(r["p_emp"]) / float(r["p_theory"])))
                  for r in band)
        if not gap <= 0.15:
            raise GateError("max |log10 ratio| %.4f > 0.15" % gap)
    return gate


def mc_long_gate(seed, points, ref):
    """Regime and coef in the CSV header equal the AR(1) closed form."""
    def gate(blob):
        _check_seed(blob, seed)
        fields = _header_fields(blob, "replicas=")
        if fields.get("regime") != ref.regime:
            raise GateError("regime %s, closed form says %s"
                            % (fields.get("regime"), ref.regime))
        if not _same_coef(float(fields.get("coef", "nan")), ref.coef):
            raise GateError("coef %s, closed form says %r" % (fields.get("coef"), ref.coef))
        _check_curve(_csv_rows(blob), points)
    return gate


def calibrate_gate(seed, grid_size):
    """Acceptance 8 band: risk at a = 1.0 inside [0.02, 0.125]."""
    def gate(blob):
        _check_seed(blob, seed)
        rows = _csv_rows(blob)
        if len(rows) != grid_size:
            raise GateError("%d risk rows, expected %d" % (len(rows), grid_size))
        unit = [r for r in rows if float(r["a"]) == 1.0]
        if len(unit) != 1:
            raise GateError("no single row at a = 1")
        risk = float(unit[0]["risk_hat"])
        if not 0.02 <= risk <= 0.125:
            raise GateError("risk %.5f at a = 1 outside [0.02, 0.125]" % risk)
    return gate


def digest_gate(sha256):
    def gate(blob):
        got = hashlib.sha256(blob).hexdigest()
        if got != sha256:
            raise GateError("regions CSV digest %s, expected %s" % (got, sha256))
    return gate


def tail_gate(ref):
    """`tail` output equals the general classifier's regime and coef."""
    def gate(blob):
        lines = [line for line in _lines(blob) if line.startswith("regime=")]
        if len(lines) != 1:
            raise GateError("no single regime line")
        fields = dict(f.split("=", 1) for f in lines[0].split())
        coef = None if fields["coef"] == "none" else float(fields["coef"])
        if fields["regime"] != ref.regime or not _same_coef(coef, ref.coef):
            raise GateError("tail says %s %s, classifier says %s %r"
                            % (fields["regime"], fields["coef"], ref.regime, ref.coef))
    return gate


def pivot_gate(count):
    """Closed-form test_stat_tail and the general classifier agree."""
    def gate(blob):
        lines = _lines(blob)
        if len(lines) != count:
            raise GateError("%d pivot lines, expected %d" % (len(lines), count))
        for line in lines:
            _, _, reg1, coef1, reg2, coef2 = line.split()
            c1 = None if coef1 == "None" else float(coef1)
            c2 = None if coef2 == "None" else float(coef2)
            if reg1 != reg2 or not _same_coef(c1, c2):
                raise GateError("closed form and classifier disagree: %s" % line)
    return gate


# -------------------------------------------------------------- workloads

POINTS = 26


def _mc_short(seed, ht):
    argv = ("simulate", "--alpha", "1", "--a", "1", "--n", "10", "--k", "1",
            "--replicas", "100000", "--seed", str(seed), "--t-min", "1e3",
            "--t-max", "1e8", "--points", str(POINTS))
    return [Step("simulate", mc_short_gate(seed, POINTS), argv=argv)]


def _mc_long(seed, ht):
    argv = ("simulate", "--alpha", "1.5", "--a", "0.5", "--n", "1000", "--k", "1",
            "--replicas", "4000", "--seed", str(seed), "--t-min", "1e3",
            "--t-max", "1e8", "--points", str(POINTS))
    ref = ht.ar1_upper_tail(0.5, 1000, 1, 1.5)
    return [Step("simulate", mc_long_gate(seed, POINTS, ref), argv=argv)]


def _calibrate_crn(seed, ht):
    argv = ("calibrate", "--alpha", "1.5", "--n", "20", "--a0", "0.5",
            "--replicas", "100000", "--seed", str(seed))
    grid = len(ht.monte_carlo.DEFAULT_A_GRID)
    return [Step("calibrate", calibrate_gate(seed, grid), argv=argv)]


def pivot_pairs(seed):
    """Two n=800 pivot cases drawn from the seed: a > a0 > 0 (PowerHalf
    closed form) and a < a0 < 0 (the general classifier's pair loop).  The
    classifier's cost grows as |a| shrinks, so the draws stay in narrow
    bands that keep the cost of a call the same for every seed."""
    rng = random.Random(seed)
    up0 = round(rng.uniform(0.35, 0.45), 3)
    lo0 = round(rng.uniform(-0.45, -0.35), 3)
    return ((round(up0 + rng.uniform(0.2, 0.25), 3), up0, 800, 1.5),
            (round(lo0 - rng.uniform(0.2, 0.25), 3), lo0, 800, 1.5))


def _analytic(seed, ht):
    tail_argv = ("tail", "--alpha", "1.5", "--a", "-0.8", "--b", "-0.3",
                 "--n", "800", "--k", "2")
    ref = ht.classify(ht.autocov_matrix(ht.ArModel((-0.8, -0.3), 800), 2), 1.5)[1]
    pairs = pivot_pairs(seed)
    return [Step("regions", digest_gate(REGIONS_SHA256), argv=("regions", "--steps", "201")),
            Step("tail", tail_gate(ref), argv=tail_argv),
            Step("pivots", pivot_gate(len(pairs)), pivots=pairs)]


WORKLOADS = {w.name: w for w in (
    Workload("mc_short", "unit-root simulate, n=10 x 100k replicas: per-replica "
             "stream setup dominates", _mc_short),
    Workload("mc_long", "simulate at n=1000 x 4k replicas: the dense O(n^2) "
             "reduction dominates and stream setup is small", _mc_long),
    Workload("calibrate_crn", "calibrate on the 38-point grid: one shared draw "
             "re-read 37 times with common random numbers", _calibrate_crn),
    Workload("analytic", "region scan, tail and pivot classifiers with no RNG: "
             "every Monte Carlo change should read flat here", _analytic),
)}
