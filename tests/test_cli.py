import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import ArModel, autocov_matrix
from heavytail.cli import main
from heavytail.student_dist import make_law
from heavytail.tail_formulas import ar1_upper_tail


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "mystery")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "tail", "--a", "0.5", "--n", "10")
    assert code == 2


def test_domain_error_names_precondition(capsys):
    code, _, err = run(capsys, "tail", "--alpha", "-1", "--a", "0.5",
                       "--n", "10")
    assert code == 1
    assert "need finite alpha > 0" in err


def test_unwritable_out_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "dist", "--alpha", "1", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("tail", "--alpha", "1.5", "--a", "3", "--n", "400"),
    ("dist", "--alpha", "1e6"),
    ("simulate", "--alpha", "1e6", "--a", "0.5", "--n", "10", "--replicas", "100"),
    ("calibrate", "--alpha", "1e6", "--replicas", "100"),
])
def test_overflow_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "inf" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("matrix", "--a", "3", "--n", "400"),
    ("simulate", "--alpha", "1.5", "--a", "3", "--n", "350", "--replicas", "100"),
    ("tail", "--alpha", "1.5", "--a", "3", "--n", "200", "--t", "1e-300"),
])
def test_overflow_is_one_line_error_without_warnings(capsys, argv):
    # every warning is an exception here, so a numpy RuntimeWarning ahead of
    # the error line fails the test instead of going unseen
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "inf" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(a=st.floats(2.5, 4.0), negative=st.booleans(), a0=st.floats(-1.0, 1.0),
       n=st.integers(400, 800))
@settings(max_examples=12, deadline=None)
def test_explosive_pivot_simulate_is_one_line_error(a, negative, a0, n):
    argv = ["simulate", "--alpha", "1.5", "--a=%r" % (-a if negative else a),
            "--a0=%r" % a0, "--n", str(n), "--replicas", "50", "--points", "3"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert "inf" not in out.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_underflowed_coefficient_is_one_line_error(capsys):
    # a^(alpha/2) summed over the path underflows to 0 at a = 1e-200
    code, _, err = run(capsys, "tail", "--alpha", "4", "--a", "1e-200",
                       "--n", "50", "--k", "1")
    assert code == 1
    assert err == "error: coef underflows a double in regime PowerHalf\n"


# Only `dist` needs scipy; importing the package and every other subcommand
# must leave it unloaded, so one-shot CLI processes do not pay for it.
STARTUP_PROBE = """
import sys
from pathlib import Path

import heavytail
import heavytail.cli

out = Path(sys.argv[1])
for name, argv in [
    ("tail", ["tail", "--alpha", "1.5", "--a", "0.5", "--n", "20", "--t", "100"]),
    ("matrix", ["matrix", "--a", "0.5", "--n", "5"]),
    ("regions", ["regions", "--steps", "5"]),
    ("simulate", ["simulate", "--alpha", "1.5", "--a", "0.5", "--n", "10",
                  "--k", "1", "--replicas", "200", "--points", "3"]),
    ("calibrate", ["calibrate", "--alpha", "1", "--n", "6", "--replicas", "200"]),
]:
    assert heavytail.cli.main(argv + ["--out", str(out / name)]) == 0, name
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert heavytail.cli.main(["dist", "--alpha", "2", "--x", "5", "--u", "0.01",
                           "--out", str(out / "dist")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:1])
"""


def test_only_dist_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['scipy']"]
    for name in ("tail", "matrix", "regions", "simulate", "calibrate", "dist"):
        assert (tmp_path / name).read_text().startswith("# config cmd=%s " % name)


def test_tail_command_output(capsys):
    code, out, _ = run(capsys, "tail", "--alpha", "1", "--a", "0.5",
                       "--n", "10", "--k", "1", "--t", "1e4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config cmd=tail ")
    assert "alpha=1" in lines[0] and "seed" not in lines[0]
    want = ar1_upper_tail(0.5, 10, 1, 1.0)
    assert lines[1] == "regime=PowerHalf coef=" + format(want.coef, ".17g")
    fields = dict(part.split("=") for part in lines[2].split())
    assert float(fields["t"]) == 1e4
    assert float(fields["raw"]) == pytest.approx(want.coef / 100.0, rel=1e-15)


def test_tail_command_ar2(capsys):
    code, out, _ = run(capsys, "tail", "--alpha", "1", "--a", "-0.5",
                       "--b", "-0.3", "--n", "10")
    assert code == 0
    assert "regime=PowerLog" in out


def test_tail_evaluate_precondition_is_domain_error(capsys):
    # PowerLog approximations need t > e; the message names the precondition
    code, _, err = run(capsys, "tail", "--alpha", "1", "--a", "-0.5",
                       "--n", "10", "--k", "1", "--t", "2")
    assert code == 1
    assert "need t > e" in err


def test_matrix_command_round_trips(capsys):
    code, out, _ = run(capsys, "matrix", "--a", "0.5", "--n", "5", "--k", "1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    got = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    want = autocov_matrix(ArModel((0.5,), 5), 1).entries
    assert np.array_equal(got, want)


def test_matrix_command_rejects_a0_with_b(capsys):
    code, _, err = run(capsys, "matrix", "--a", "0.5", "--b", "0.1",
                       "--a0", "0.4", "--n", "5")
    assert code == 1
    assert "order-1" in err


def test_dist_command_values(capsys):
    code, out, _ = run(capsys, "dist", "--alpha", "2", "--x", "1.5",
                       "--u", "0.01")
    assert code == 0
    fields = dict(ln.split("=", 1) for ln in out.splitlines()
                  if ln and not ln.startswith("#"))
    law = make_law(2.0)
    assert float(fields["k_s"]) == law.k_s
    assert float(fields["tail_constant"]) == pytest.approx(0.5, rel=1e-13)
    assert 0.0 < float(fields["density"]) < 1.0
    assert 0.5 < float(fields["cdf"]) < 1.0
    assert float(fields["upper_quantile"]) > 1.0
    assert float(fields["normal_quantile"]) < 0.0


def test_regions_command_to_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "regions", "--a-min", "-1", "--a-max", "1",
                       "--b-min", "-1", "--b-max", "0", "--steps", "3",
                       "--kmax", "30", "--out", str(out_path))
    assert code == 0
    assert out == ""  # everything went to the file
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config cmd=regions ")
    assert lines[1] == "a,b,stable,first_covering_k,in_theorem_region,regime"
    assert len(lines) == 2 + 9


# sha256 of `regions --steps 201`: the scan uses no RNG, so any change to
# these bytes is a change in the scan or the CSV format
REGIONS_201_SHA256 = "f55b0dc3cf12bbb072c8ea648a69586f4999028317ee04264adb8648b8162a1f"


def test_regions_default_plane_bytes_are_pinned(tmp_path):
    out_path = tmp_path / "regions.csv"
    assert main(["regions", "--steps", "201", "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == REGIONS_201_SHA256


def test_simulate_command_and_determinism(tmp_path, capsys):
    args = ("simulate", "--alpha", "1", "--a", "1", "--n", "8", "--k", "1",
            "--replicas", "2000", "--seed", "42", "--t-min", "100",
            "--t-max", "1e5", "--points", "4")
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    code, _, _ = run(capsys, *args, "--out", str(first))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0].startswith("# config cmd=simulate ")
    assert "seed=42" in lines[0] and "replicas=2000" in lines[0]
    assert lines[2].startswith("t,log10_t,p_emp,")
    assert len(lines) == 3 + 4


def test_simulate_rejects_k_with_a0(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "1", "--a", "1",
                       "--n", "8", "--k", "1", "--a0", "0.5",
                       "--replicas", "100")
    assert code == 1
    assert "exactly one" in err


def test_calibrate_command_default_grid(tmp_path, capsys):
    out_path = tmp_path / "risk.csv"
    code, _, _ = run(capsys, "calibrate", "--alpha", "1", "--n", "6",
                     "--replicas", "400", "--seed", "2",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config cmd=calibrate ")
    assert "grid-size=38" in lines[0]
    # a0 = 0.5 skips the first grid value a = 0.5
    assert any(ln.startswith("# skipped") for ln in lines)
    header_at = next(i for i, ln in enumerate(lines)
                     if not ln.startswith("#"))
    assert lines[header_at] == "a,t_eta,risk_hat,se"
    assert len(lines) == header_at + 1 + 38


def test_calibrate_partial_custom_grid_is_domain_error(capsys):
    code, _, err = run(capsys, "calibrate", "--alpha", "1", "--a-min", "0.6",
                       "--replicas", "100")
    assert code == 1
    assert "custom grid" in err


def test_calibrate_custom_grid(capsys):
    code, out, _ = run(capsys, "calibrate", "--alpha", "1", "--n", "6",
                       "--replicas", "400", "--a-min", "0.6",
                       "--a-max", "1.0", "--steps", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "a,t_eta,risk_hat,se"
    grid = [float(ln.split(",")[0]) for ln in rows[1:]]
    assert grid == pytest.approx([0.6, 0.8, 1.0])


def test_calibrate_grid_below_a0_writes_skipped_rows(capsys):
    code, out, _ = run(capsys, "calibrate", "--alpha", "1.5", "--n", "6",
                       "--a0", "0.5", "--replicas", "400", "--a-min", "0.1",
                       "--a-max", "0.4", "--steps", "2")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "a,t_eta,risk_hat,se"
    assert len(rows) == 3
    for row in rows[1:]:
        assert row.split(",")[1:] == ["nan", "nan", "nan"]


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
    code, _, _ = run(capsys, "simulate", "--help")
    assert code == 0
