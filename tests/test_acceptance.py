"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Each criterion prints its verdict with capture suspended, so the line is
visible in any pytest run, then asserts it.
"""

import math

import numpy as np
import pytest

from heavytail.ar_quadform import (ArModel, Statistic, ar1_offdiag_closed,
                                   autocov_matrix, empirical_autocov,
                                   simulate_path)
from heavytail.ar2_regions import (closed_form_diag, diag_seq,
                                   region_membership, region_polynomials)
from heavytail.cli import main
from heavytail.monte_carlo import McConfig, calibrate_risk, run_tail_experiment
from heavytail.student_dist import (make_law, phi_inv_compose_s,
                                    s_inv_compose_phi_log, survival,
                                    tail_constant)
from heavytail.tail_formulas import classify, ar1_upper_tail


def report(capsys, num, ok, detail):
    line = "ACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_quadform_identity(capsys):
    # 200 random models, p <= 3, n <= 50, k <= 3: eps' C eps = n gamma_n(k)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(2, 51))
        k = int(rng.integers(0, 4))
        model = ArModel(tuple(rng.uniform(-1.0, 1.0, p)), n)
        eps = rng.standard_normal(n)
        x = simulate_path(model, eps)
        lhs = eps @ autocov_matrix(model, k).entries @ eps
        rhs = n * empirical_autocov(x, k)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(capsys, 1, worst <= 1e-10,
           "quadratic form reproduces n*gamma_n(k) on 200 random models "
           "(worst rel err %.2e, tol 1e-10)" % worst)


def test_criterion_2_ar1_closed_entries(capsys):
    worst = 0.0
    for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for n in range(1, 31):
            for k in range(0, 6):
                dense = autocov_matrix(ArModel((a,), n), k).entries
                closed = np.array(
                    [[ar1_offdiag_closed(a, n, k, i, j)
                      for j in range(1, n + 1)] for i in range(1, n + 1)])
                worst = max(worst, float(np.max(np.abs(dense - closed))))
    report(capsys, 2, worst <= 1e-12,
           "AR(1) closed-form entries match the dense product on "
           "a in {-1,-1/2,0,1/2,1}, n <= 30, k <= 5 "
           "(worst abs err %.2e, tol 1e-12)" % worst)


def test_criterion_3_specialization_consistency(capsys):
    worst = 0.0
    mismatches = 0
    for a in (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0):
        for n in (5, 10, 20):
            for k in (0, 1, 2):
                alpha = 1.0
                closed = ar1_upper_tail(a, n, k, alpha)
                _, general = classify(autocov_matrix(ArModel((a,), n), k),
                                      alpha)
                if closed.regime != general.regime:
                    mismatches += 1
                elif closed.coef is not None:
                    worst = max(worst, abs(closed.coef - general.coef)
                                / general.coef)
    report(capsys, 3, mismatches == 0 and worst <= 1e-10,
           "AR(1) specialized tails match the general classifier on the "
           "sign/lag grid (%d regime mismatches, worst coef rel err %.2e, "
           "tol 1e-10)" % (mismatches, worst))


def test_criterion_4_tail_constant(capsys):
    worst = 0.0
    for alpha in (1.0, 2.0, 5.0):
        law = make_law(alpha)
        x = 1e4
        ratio = x ** alpha * survival(law, x) / tail_constant(law)
        worst = max(worst, abs(ratio - 1.0))
    # the Cauchy survival also has an exact arctangent form
    law = make_law(1.0)
    cauchy_err = 0.0
    for x in (1.0, 10.0, 1e4):
        want = 0.5 - math.atan(x) / math.pi
        cauchy_err = max(cauchy_err,
                         abs(survival(law, x) / want - 1.0))
    report(capsys, 4, worst <= 0.01 and cauchy_err <= 1e-6,
           "x^alpha tail ratio at x=1e4 within 1%% for alpha in {1,2,5} "
           "(worst %.2e) and Cauchy survival matches the arctangent form "
           "(worst rel err %.2e, tol 1e-6)" % (worst, cauchy_err))


def test_criterion_5_expansion_gaps(capsys):
    exact, expansion, ok = phi_inv_compose_s(make_law(1.0), 1e6)
    gap_a = abs(exact - expansion)
    log_exact, log_expansion = s_inv_compose_phi_log(make_law(5.0), 8.0)
    gap_b = abs(log_exact - log_expansion)
    report(capsys, 5, ok and gap_a <= 5e-3 and gap_b <= 2e-2,
           "normal/Student quantile compositions track their expansions "
           "(gap %.2e at x=1e6 alpha=1, tol 5e-3; gap %.2e at x=8 alpha=5, "
           "tol 2e-2)" % (gap_a, gap_b))


def test_criterion_6_ar2_diagnostics(capsys):
    rng = np.random.default_rng(6)
    worst_poly = 0.0
    for _ in range(500):
        a, b = rng.uniform(-2.0, 2.0, 2)
        d = diag_seq(a, b, 3)
        p = region_polynomials(a, b)
        for i in range(3):
            worst_poly = max(worst_poly,
                             abs(d[i] - p[i]) / max(1.0, abs(p[i])))
    worst_closed = 0.0
    for r in (0.5, 0.9, 1.1, 2.0):
        for phi in (math.pi / 6, math.pi / 4, math.pi / 3):
            d = diag_seq(-2.0 * r * math.cos(phi), -r * r, 12)
            for k in range(2, 13):
                got = closed_form_diag(r, phi, k)
                worst_closed = max(worst_closed,
                                   abs(got - d[k - 2]) / max(1.0, abs(d[k - 2])))
    violations = 0
    for _ in range(200):
        a = -rng.uniform(0.0, 3.0)
        b = -1.0 + rng.uniform(0.0, 4.0)
        if region_membership(a, b, kmax=50) is not None:
            violations += 1
    report(capsys, 6, worst_poly <= 1e-10 and worst_closed <= 1e-9 and violations == 0,
           "AR(2) diagnostics: d2/d3 polynomials on 500 points (worst rel "
           "%.2e, tol 1e-10), trigonometric diagonal on the r/phi grid "
           "(worst rel %.2e, tol 1e-9), no coverage on 200 excluded points "
           "(%d violations)" % (worst_poly, worst_closed, violations))


@pytest.fixture(scope="module")
def est_unit_root():
    cfg = McConfig(statistic=Statistic(ArModel((1.0,), 10), k=1), law=make_law(1.0),
                   replicas=100_000, seed=2024, t_min=1e3, t_max=1e8,
                   points=26)
    return run_tail_experiment(cfg)


@pytest.fixture(scope="module")
def est_iid_lag():
    cfg = McConfig(statistic=Statistic(ArModel((0.0,), 10), k=1), law=make_law(1.0),
                   replicas=100_000, seed=2024, t_min=10.0, t_max=1e4,
                   points=25)
    return run_tail_experiment(cfg)


def test_criterion_7_monte_carlo_agreement(capsys, est_unit_root, est_iid_lag):
    def max_log_gap(est, lo, hi):
        band = (est.p_emp >= lo) & (est.p_emp <= hi)
        gaps = np.abs(np.log10(est.p_emp[band] / est.p_theory[band]))
        return int(np.sum(band)), float(np.max(gaps))

    n_a, gap_a = max_log_gap(est_unit_root, 10 ** -2.5, 0.1)
    n_b, gap_b = max_log_gap(est_iid_lag, 1e-2, 0.1)
    report(capsys, 7, n_a >= 3 and gap_a <= 0.15 and n_b >= 3 and gap_b <= 0.5,
           "100k-replica curves track the formulas: unit root max "
           "|log10 ratio| %.3f over %d points (tol 0.15), degenerate lag "
           "%.3f over %d points (tol 0.5)" % (gap_a, n_a, gap_b, n_b))


def test_criterion_8_risk_calibration(capsys):
    rows = calibrate_risk((1.0,), 0.5, 20, 1.0, 0.05,
                          replicas=100_000, seed=2024)
    risk = rows[0].risk_hat
    report(capsys, 8, 0.02 <= risk <= 0.125,
           "calibrated test at the unit root: estimated risk %.4f for "
           "nominal 0.05 (accepted band [0.02, 0.125])" % risk)


def test_criterion_9_deterministic_output(capsys, tmp_path, monkeypatch):
    sim_args = ["simulate", "--alpha", "1", "--a", "1", "--n", "10",
                "--k", "1", "--replicas", "20000", "--seed", "9",
                "--t-min", "100", "--t-max", "1e6", "--points", "7"]
    cal_args = ["calibrate", "--alpha", "1", "--n", "10",
                "--replicas", "20000", "--seed", "9",
                "--a-min", "0.6", "--a-max", "1.2", "--steps", "3"]
    blobs = {}
    for tag, workers in (("one", "1"), ("many", "6")):
        monkeypatch.setenv("HEAVYTAIL_THREADS", workers)
        sim_path = tmp_path / ("sim_%s.csv" % tag)
        cal_path = tmp_path / ("cal_%s.csv" % tag)
        assert main(sim_args + ["--out", str(sim_path)]) == 0
        assert main(cal_args + ["--out", str(cal_path)]) == 0
        blobs[tag] = (sim_path.read_bytes(), cal_path.read_bytes())
    monkeypatch.setenv("HEAVYTAIL_THREADS", "1")
    sim_path = tmp_path / "sim_again.csv"
    assert main(sim_args + ["--out", str(sim_path)]) == 0
    rerun_same = sim_path.read_bytes() == blobs["one"][0]
    across_workers = blobs["one"] == blobs["many"]
    report(capsys, 9, rerun_same and across_workers,
           "CSV output is byte-identical across repeated runs (%s) and "
           "across 1 vs 6 worker threads (%s)"
           % (rerun_same, across_workers))
