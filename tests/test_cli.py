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

import heavytail.cli
import heavytail.monte_carlo
from heavytail._text import fmt
from heavytail.ar_quadform import ArModel, Statistic, autocov_matrix
from heavytail.cli import main
from heavytail.monte_carlo import McConfig, run_tail_experiment
from heavytail.student_dist import make_law, quantile_tail
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
    ("dist", "--alpha", "1e6", "--x", "1"),
    ("simulate", "--alpha", "1e6", "--a", "0.5", "--n", "10", "--replicas", "100"),
])
def test_failed_run_keeps_the_earlier_out_file(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    assert run(capsys, "dist", "--alpha", "2", "--x", "5", "--out", str(target))[0] == 0
    before = target.read_bytes()
    code, _, err = run(capsys, *argv, "--out", str(target))
    assert code == 1 and err.startswith("error: ")
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_out_file_replaces_the_earlier_one_with_umask_mode(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_text("stale\n")
    assert run(capsys, "dist", "--alpha", "2", "--out", str(target))[0] == 0
    assert target.read_text().startswith("# config cmd=dist ")
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
    fresh = tmp_path / "fresh.txt"
    assert run(capsys, "dist", "--alpha", "2", "--out", str(fresh))[0] == 0
    with open(tmp_path / "plain", "w"):
        pass
    assert (fresh.stat().st_mode & 0o777) == ((tmp_path / "plain").stat().st_mode & 0o777)


@pytest.mark.parametrize("argv", [
    ("tail", "--alpha", "1.5", "--a", "3", "--n", "400"),
    ("dist", "--alpha", "1e6"),
    ("simulate", "--alpha", "1e6", "--a", "0.5", "--n", "10", "--replicas", "100"),
    ("calibrate", "--alpha", "1e6", "--replicas", "100"),
])
def test_overflow_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("matrix", "--a", "3", "--n", "400"),
    ("simulate", "--alpha", "1.5", "--a", "3", "--n", "350", "--replicas", "100"),
    ("tail", "--alpha", "1.5", "--a", "3", "--n", "200", "--t", "1e-300"),
    # innovations that overflow a double at tiny alpha
    ("simulate", "--alpha", "0.02", "--a", "0.5", "--n", "10", "--k", "1",
     "--replicas", "100000"),
    ("calibrate", "--alpha", "0.02", "--replicas", "20000"),
    # finite dense forms whose replica statistics overflow at a = 1.5
    ("calibrate", "--alpha", "1.5", "--n", "870", "--replicas", "2000",
     "--a-min", "1.3", "--a-max", "1.5", "--steps", "3"),
])
def test_overflow_is_one_line_error_without_warnings(capsys, argv):
    # every warning is an exception here, so a numpy RuntimeWarning ahead of
    # the error line fails the test instead of going unseen
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cmd", ["tail", "simulate"])
def test_explosive_model_past_the_path_is_zero(capsys, cmd):
    # the lag-9 statistic of a length-5 path is zero however large psi grows
    code, out, err = run(capsys, cmd, "--alpha", "1.5", "--a", "1e200", "--b", "0",
                         "--n", "5", "--k", "9")
    assert (code, err) == (0, "")
    assert "regime=Zero coef=none" in out


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("dist", "--alpha", "1e6", "--x", "1"),
    ("simulate", "--alpha", "1e6", "--a", "0.5", "--n", "10", "--replicas", "100"),
    ("calibrate", "--alpha", "1e6", "--replicas", "100"),
])
def test_huge_alpha_names_the_tail_constant(capsys, argv):
    # alpha^((alpha-1)/2) overflows a double past alpha of about 256.8
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == "error: tail constant overflows a double at alpha=1000000.0\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, regime", [
    # power sums up to 1000 raised to alpha/2 = 125: the closed AR(1) form
    # and the general classifier's diagonal sum
    (("tail", "--alpha", "250", "--a", "1", "--n", "1000", "--k", "0"), "PowerHalf"),
    (("tail", "--alpha", "250", "--a", "1", "--b", "0", "--n", "1000", "--k", "0"),
     "PowerHalf"),
    # the lead |a|^(k alpha/2) = 1000^250
    (("tail", "--alpha", "250", "--a", "1000", "--n", "3", "--k", "2"), "PowerHalf"),
    # the scale alpha^alpha = 200^200, and couplings near 1e16 raised to 100
    (("tail", "--alpha", "200", "--a", "0", "--n", "5", "--k", "1"), "PowerLog"),
    (("tail", "--alpha", "100", "--a=-1e4", "--n", "5", "--k", "1"), "PowerLog"),
    # the pivot below its reference: couplings near 1.9^300 raised to 5
    (("simulate", "--alpha", "5", "--a=-1.9", "--a0", "0.5", "--n", "300",
      "--replicas", "100"), "PowerLog"),
    # couplings of the odd-lag form that sum past a double
    (("tail", "--alpha", "2", "--a=-1.9", "--n", "288", "--k", "1"), "PowerLog"),
    # odd-lag row sums, each finite (the largest 4.3e307), that sum past a double
    (("tail", "--alpha", "14", "--a=-1.01", "--n", "3000", "--k", "3"), "PowerLog"),
])
def test_overflowed_coefficient_is_one_line_error(capsys, argv, regime):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == "error: coef overflows a double in regime %s\n" % regime


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cmd, extra", [("tail", ()), ("simulate", ("--replicas", "100"))])
def test_lag_1_below_zero_overflow_names_the_lag_1_form(capsys, cmd, extra):
    # lag 1 with a < 0 reads the pivot's law at a0 = 0, but its error names
    # the statistic asked for; the pivot keeps its own name (calibrate)
    code, _, err = run(capsys, cmd, "--alpha", "1.5", "--a=-1.5", "--n", "2000",
                       "--k", "1", *extra)
    assert code == 1
    assert err == "error: lag-1 form overflows a double at a=-1.5, n=2000\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_alpha_is_innovation_overflow(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "1e-320", "--a", "0.5",
                       "--n", "10", "--replicas", "1000", "--points", "3")
    assert code == 1
    assert err == "error: innovations overflow a double at alpha=1e-320\n"


def test_parser_is_built_once_and_reused(capsys):
    assert run(capsys, "tail", "--alpha", "1.5", "--a", "0.5", "--n", "5",
               "--t", "100")[0] == 0
    parser = heavytail.cli._parser
    # a reused parser starts every parse from the defaults
    code, out, _ = run(capsys, "tail", "--alpha", "1.5", "--a", "0.5", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == ("# config cmd=tail alpha=1.5 a=0.5 b=none n=5 "
                                   "k=1 t=none")
    assert run(capsys, "tail", "--alpha")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert heavytail.cli._parser is parser


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


# The config echo of each subcommand, pinned: every option in parser order
# (defaults, `none` slots, 17-digit reals), then the resolved values.
CONFIG_ECHO = [
    ("tail --alpha 1.5 --a 0.5 --n 20",
     "# config cmd=tail alpha=1.5 a=0.5 b=none n=20 k=1 t=none"),
    ("tail --alpha 0.7 --a -0.3 --b 0.1 --n 12 --k 2 --t 1e6",
     "# config cmd=tail alpha=0.69999999999999996 a=-0.29999999999999999 "
     "b=0.10000000000000001 n=12 k=2 t=1000000"),
    ("matrix --a 0.5 --n 4",
     "# config cmd=matrix a=0.5 b=none a0=none n=4 k=1"),
    ("matrix --a 0.9 --b -0.2 --n 4 --k 0",
     "# config cmd=matrix a=0.90000000000000002 b=-0.20000000000000001 "
     "a0=none n=4 k=0"),
    # k resolves as in simulate: none with --a0
    ("matrix --a 0.5 --a0 0.5 --n 3",
     "# config cmd=matrix a=0.5 b=none a0=0.5 n=3 k=none"),
    ("regions --steps 3",
     "# config cmd=regions a-min=-2 a-max=2 b-min=-2 b-max=1 steps=3 kmax=200"),
    ("regions --a-min -0.1 --a-max 0.7 --b-min -0.9 --b-max 0.3 --steps 2 --kmax 5",
     "# config cmd=regions a-min=-0.10000000000000001 a-max=0.69999999999999996 "
     "b-min=-0.90000000000000002 b-max=0.29999999999999999 steps=2 kmax=5"),
    # k resolves to 1 without --a0 and stays none with it
    ("simulate --alpha 1.5 --a 0.5 --n 10 --replicas 200 --points 3",
     "# config cmd=simulate alpha=1.5 a=0.5 b=none a0=none n=10 k=1 replicas=200 "
     "seed=0 t-min=10 t-max=100000000 points=3"),
    ("simulate --alpha 0.7 --a 0.9 --a0 0.1 --n 10 --replicas 200 --seed 7 "
     "--t-min 30 --t-max 3e5 --points 3",
     "# config cmd=simulate alpha=0.69999999999999996 a=0.90000000000000002 b=none "
     "a0=0.10000000000000001 n=10 k=none replicas=200 seed=7 t-min=30 t-max=300000 "
     "points=3"),
    ("simulate --alpha 1.5 --a 0.5 --b -0.3 --n 10 --k 0 --replicas 200 --points 3",
     "# config cmd=simulate alpha=1.5 a=0.5 b=-0.29999999999999999 a0=none n=10 k=0 "
     "replicas=200 seed=0 t-min=10 t-max=100000000 points=3"),
    # grid-size is resolved: the default grid, then a custom one
    ("calibrate --alpha 1.5 --n 6 --replicas 200",
     "# config cmd=calibrate alpha=1.5 a0=0.5 n=6 eta=0.050000000000000003 "
     "replicas=200 seed=0 a-min=none a-max=none steps=none grid-size=38"),
    ("calibrate --alpha 0.7 --a0 0.1 --n 6 --eta 0.1 --replicas 200 --seed 3 "
     "--a-min 0.3 --a-max 0.9 --steps 4",
     "# config cmd=calibrate alpha=0.69999999999999996 a0=0.10000000000000001 n=6 "
     "eta=0.10000000000000001 replicas=200 seed=3 a-min=0.29999999999999999 "
     "a-max=0.90000000000000002 steps=4 grid-size=4"),
    ("dist --alpha 1.5",
     "# config cmd=dist alpha=1.5 x=none u=none"),
    ("dist --alpha 0.7 --x 3.3 --u 0.1",
     "# config cmd=dist alpha=0.69999999999999996 x=3.2999999999999998 "
     "u=0.10000000000000001"),
]


@pytest.mark.parametrize("argv, line", CONFIG_ECHO)
def test_config_echo_is_pinned(capsys, argv, line):
    _, out, _ = run(capsys, *argv.split())
    assert out.splitlines()[0] == line


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_order_quantile_overflow_is_named(capsys):
    # tail_constant / u is about 5, its power 1 / alpha = 1000 overflows
    code, out, err = run(capsys, "dist", "--alpha", "0.001", "--u", "0.1")
    assert (code, err) == (1, "error: first-order quantile overflows a double at u=0.1\n")
    assert "quantile" not in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dist_past_the_square_of_a_double_warns_nothing(capsys):
    # x * x overflows a double here; survival keeps its first-order value
    code, out, err = run(capsys, "dist", "--alpha", "1.5", "--x", "1e155")
    assert (code, err) == (0, "")
    fields = dict(ln.split("=", 1) for ln in out.splitlines() if not ln.startswith("#"))
    assert float(fields["survival"]) == pytest.approx(0.37708524320162495 * 1e155 ** -1.5,
                                                      rel=1e-10, abs=0.0)


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


# sha256 of a lattice whose a*a, b*4 and scan steps overflow a double:
# its rows were right with the warnings, and must not move without them
HUGE_REGIONS_SHA256 = "844acb1bf77cb245b14b81e3cb63d6c06b2647d11348b0154bba71142072656d"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_regions_lattice_warns_nothing_and_keeps_its_bytes(tmp_path, capsys):
    out_path = tmp_path / "huge.csv"
    code, out, err = run(capsys, "regions", "--a-min=-1e200", "--a-max=1e3",
                         "--b-min=-1e300", "--b-max=1e3", "--steps", "5",
                         "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == HUGE_REGIONS_SHA256


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


def test_matrix_rejects_k_with_a0(tmp_path, capsys):
    # --k is not dropped next to --a0: one error line and no output file
    out_path = tmp_path / "matrix.txt"
    code, out, err = run(capsys, "matrix", "--a", "0.5", "--a0", "0.5", "--n", "3",
                         "--k", "3", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: need exactly one of lag k and reference a0\n"
    assert not out_path.exists()


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


@pytest.mark.parametrize("argv, message", [
    (("--n", "0", "--replicas", "100"), "need n >= 2"),
    (("--n", "-3"), "need n >= 2"),
    (("--eta", "7"), "need 0 < eta < 1"),
])
def test_calibrate_checks_n_and_eta_with_no_grid_value_to_test(capsys, argv, message):
    # a0 = 2 skips every default grid value, and the inputs are still checked
    code, out, err = run(capsys, "calibrate", "--alpha", "1.5", "--a0", "2", *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_simulate_header_coef_is_the_tail_text(capsys):
    # one route per statistic: an AR(1) lag gets the law tail prints
    model = ("--alpha", "1.5", "--a", "0.5", "--n", "1000", "--k", "1")
    code, tail_out, _ = run(capsys, "tail", *model)
    assert code == 0
    code, out, _ = run(capsys, "simulate", *model, "--replicas", "4000", "--seed", "5",
                       "--t-min", "1e3", "--t-max", "1e8", "--points", "26")
    assert code == 0
    law = tail_out.splitlines()[1]
    assert law == "regime=PowerHalf coef=555.71849205966021"
    assert out.splitlines()[1] == "# replicas=4000 seed=5 " + law


def test_calibrate_names_an_overflowing_pivot_form(capsys, monkeypatch):
    # at n = 1000 the pivot diagonal (a - a0) S_1 overflows from a = 1.45 on
    # the default grid; critical_value names it before any dense form is
    # built or any block drawn
    drawn = []
    monkeypatch.setattr(heavytail.monte_carlo, "block_innovations",
                        lambda *args: drawn.append(args))
    code, out, err = run(capsys, "calibrate", "--alpha", "1.5", "--n", "1000",
                         "--replicas", "100")
    assert code == 1
    assert out == ""
    assert err == "error: pivot form overflows a double at a=1.45, n=1000\n"
    assert drawn == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, at", [
    ("--alpha 1.5 --n 20 --eta 1e-300", "a=0.552, eta=1e-300"),
    ("--alpha 1e-3 --n 20", "a=0.552, eta=0.05"),
    # coef / eta is already inf here, so the power itself raises nothing
    ("--alpha 1.5 --n 700 --eta 1e-200 --a-min 1.4 --a-max 1.45 --steps 2 "
     "--replicas 100", "a=1.4, eta=1e-200"),
])
def test_calibrate_names_an_overflowing_critical_value(tmp_path, capsys, monkeypatch,
                                                        argv, at):
    # critical values come before any block is drawn, so the run stops there
    drawn = []
    monkeypatch.setattr(heavytail.monte_carlo, "block_innovations",
                        lambda *args: drawn.append(args))
    target = tmp_path / "risk.csv"
    code, out, err = run(capsys, "calibrate", "--a0", "0.5", *argv.split(),
                         "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == "error: critical value overflows a double at %s\n" % at
    assert drawn == []
    assert not target.exists()
    assert os.listdir(tmp_path) == []


SPAN_A = "need finite a_min, a_max and a_max - a_min"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    ("regions --a-max inf --steps 3", SPAN_A),
    ("regions --a-min=-1e308 --a-max=1e308 --steps 3", SPAN_A),  # the span overflows
    ("regions --b-min=-inf --steps 3", "need finite b_min, b_max and b_max - b_min"),
    ("regions --a-min nan --steps 3", "need a_min < a_max and b_min < b_max"),
    ("simulate --alpha 1.5 --a 0.5 --n 10 --replicas 100 --points 3 --t-max inf",
     "need finite t_min, t_max and t_max - t_min"),
    ("calibrate --alpha 1.5 --a-min 0.6 --a-max inf --steps 3 --replicas 100", SPAN_A),
    ("calibrate --alpha 1.5 --a0 nan --replicas 100", "need a finite reference a0"),
    ("simulate --alpha 1.5 --a 0.5 --n 10 --replicas 100 --a0 nan",
     "need a finite reference a0"),
    ("simulate --alpha 1.5 --a 0.5 --n 10 --replicas 100 --a0 inf",
     "need a finite reference a0"),
    ("matrix --a 0.5 --a0 nan --n 3", "need a finite reference a0"),
])
def test_non_finite_range_or_reference_is_one_line_error(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert err == "error: %s\n" % message
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, u, answer", [
    (100.0, 1e-250, True),
    (1.5, 1e-320, True),  # survival is its leading term there
    (3.0, 1e-310, True),  # survival sums the incomplete beta series there
    (1.0, 1e-310, False),  # the quantile cot(pi u) ~ 3.2e309 leaves the doubles
])
def test_dist_with_tiny_u_ends(capsys, alpha, u, answer):
    code, out, err = run(capsys, "dist", "--alpha", repr(alpha), "--u", repr(u))
    assert "inf" not in out
    if answer:
        # an infinite first-order quantile made upper_quantile halve inf forever
        assert math.isfinite(quantile_tail(make_law(alpha), u))
        assert (code, err) == (0, "")
        q = float(out.split("upper_quantile=")[1].split()[0])
        # the first-order quantile is off by O(u^(2/alpha)) relative
        assert q == pytest.approx(quantile_tail(make_law(alpha), u), rel=1e-5)
    else:
        assert code == 1
        assert err == "error: first-order quantile overflows a double at u=%r\n" % u


@pytest.mark.parametrize("argv, message", [
    ("calibrate --alpha 1.5 --a-min 0.8 --a-max 0.6 --steps 3 --replicas 100",
     "need a_min < a_max"),
    ("calibrate --alpha 1.5 --a-min 0.6 --a-max 0.8 --steps 1 --replicas 100",
     "need steps >= 2"),
    ("regions --steps 1", "need steps >= 2"),
    # a bad threshold or probability is found before the echo is written
    ("tail --alpha 1.5 --a 0.5 --n 20 --k 1 --t -1", "need t > 0"),
    ("dist --alpha 2 --u 2", "need 0 < u < 1"),
])
def test_bad_grid_is_one_line_error(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert err == "error: %s\n" % message
    assert out == ""


def test_fmt_prints_a_bool_as_its_int():
    assert (fmt(True), fmt(False), fmt(None), fmt(3), fmt(0.1)) == (
        "1", "0", "none", "3", "0.10000000000000001")


def test_mc_config_grid_defaults_are_the_simulate_thresholds(capsys):
    cfg = McConfig(statistic=Statistic(ArModel((0.5,), 10), k=1), law=make_law(1.5),
                   replicas=100, seed=3)
    code, out, _ = run(capsys, "simulate", "--alpha", "1.5", "--a", "0.5", "--n", "10",
                       "--replicas", "100", "--seed", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert [float(row.split(",")[0]) for row in rows] == run_tail_experiment(cfg).t.tolist()
