import io
import math

import numpy as np
import pytest

from heavytail import monte_carlo
from heavytail.ar_quadform import ArModel, autocov_matrix
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.monte_carlo import (BLOCK_DRAWS, DEFAULT_A_GRID, McConfig,
                                   block_innovations, calibrate_risk,
                                   collect_stats, path_stats, replica_blocks,
                                   run_tail_experiment, worker_count,
                                   write_risk_csv, write_tail_csv)
from heavytail.student_dist import make_law, sample
from heavytail.tail_formulas import evaluate


def small_config(**kw):
    base = dict(model=ArModel((1.0,), 10), law=make_law(1.0), k=1,
                replicas=4000, seed=7, t_min=1e2, t_max=1e6, points=9)
    base.update(kw)
    return McConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(k=None)  # neither k nor a0
    with pytest.raises(ValueError):
        small_config(a0=0.5)  # both k and a0
    with pytest.raises(ValueError):
        small_config(k=-1)
    with pytest.raises(ValueError):
        small_config(replicas=0)
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(ValueError):
        small_config(t_min=100.0, t_max=10.0)
    with pytest.raises(ValueError):
        small_config(points=1)
    with pytest.raises(ValueError):
        McConfig(model=ArModel((0.5, 0.1), 10), law=make_law(1.0), a0=0.5,
                 k=None)  # test statistic needs an order-1 model


def test_replica_stats_reproducible_and_scheduler_free():
    cfg = small_config()
    one = collect_stats(cfg, workers=1)
    many = collect_stats(cfg, workers=5)
    assert np.array_equal(one, many)
    again = collect_stats(cfg, workers=3)
    assert np.array_equal(one, again)


def test_replica_stats_match_direct_recomputation():
    cfg = small_config(replicas=14_000)
    n = cfg.model.n
    entries = autocov_matrix(cfg.model, cfg.k).entries
    rows = max(1, BLOCK_DRAWS // n)
    assert cfg.replicas > 2 * rows  # three blocks, the last one partial
    got = collect_stats(cfg, workers=2)
    assert got.shape == (cfg.replicas,)
    for r in (0, rows - 1, rows, 2 * rows + 5, cfg.replicas - 1):
        b = r // rows
        lo, hi = b * rows, min((b + 1) * rows, cfg.replicas)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, b]))
        eps = sample(cfg.law, rng, size=(hi - lo, n))
        assert np.array_equal(got[lo:hi], path_stats(eps, cfg.model.theta, k=cfg.k))
        direct = np.array([e @ entries @ e for e in eps])
        assert np.all(np.abs(got[lo:hi] - direct) <= 1e-12 * np.abs(direct))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collect_stats_rejects_overflowing_statistics():
    cfg = small_config(model=ArModel((-3.0,), 400), k=None, a0=0.5, replicas=50)
    with pytest.raises(OverflowError):
        collect_stats(cfg, workers=2)


@pytest.mark.parametrize("replicas,n", [(1, 1), (5, 10), (14_000, 10),
                                        (4000, 1000), (3, BLOCK_DRAWS + 1)])
def test_replica_blocks_cover_each_replica_once(replicas, n):
    blocks = replica_blocks(replicas, n)
    assert [b for b, _, _ in blocks] == list(range(len(blocks)))
    covered = [r for _, lo, hi in blocks for r in range(lo, hi)]
    assert covered == list(range(replicas))
    rows = max(1, BLOCK_DRAWS // n)
    assert all(hi - lo == rows for _, lo, hi in blocks[:-1])
    assert 1 <= blocks[-1][2] - blocks[-1][1] <= rows


def test_block_order_does_not_change_stats():
    cfg = small_config(replicas=14_000)
    n = cfg.model.n
    forward = collect_stats(cfg, workers=1)
    blocks = replica_blocks(cfg.replicas, n)
    assert len(blocks) >= 2
    backward = [path_stats(block_innovations(cfg.law, n, cfg.seed, block),
                           cfg.model.theta, k=cfg.k)
                for block in reversed(blocks)]
    assert np.concatenate(backward[::-1]).tobytes() == forward.tobytes()


def test_run_tail_experiment_survival_curve():
    cfg = small_config()
    est = run_tail_experiment(cfg, workers=2)
    assert est.t.shape == (9,)
    assert est.replicas == 4000 and est.seed == 7
    # p_emp is a nonincreasing survival curve in [0, 1]
    assert np.all(np.diff(est.p_emp) <= 0.0)
    assert np.all((0.0 <= est.p_emp) & (est.p_emp <= 1.0))
    # exact exceedance counts: p_emp * replicas is integral
    counts = est.p_emp * cfg.replicas
    assert np.allclose(counts, np.round(counts))
    # the theory curve is the evaluated coefficient, clamped
    assert est.tail.regime == "PowerHalf"
    for i, t in enumerate(est.t):
        raw = evaluate(est.tail, t)
        assert est.raw_theory[i] == raw
        assert est.p_theory[i] == min(1.0, raw)
    assert np.all(est.se >= 0.0)


def test_run_tail_experiment_tracks_theory():
    # Cauchy innovations, unit root, lag 1: the approximation is sharp
    cfg = small_config(replicas=20_000, t_min=1e3, t_max=1e5, points=3)
    est = run_tail_experiment(cfg)
    for i in range(3):
        ratio = est.p_emp[i] / est.p_theory[i]
        assert abs(math.log10(ratio)) < 0.12


def test_run_tail_experiment_degenerate_regime():
    cfg = small_config(model=ArModel((0.0,), 10), law=make_law(1.0),
                       replicas=20_000, t_min=1e2, t_max=1e4, points=3)
    est = run_tail_experiment(cfg)
    assert est.tail.regime == "PowerLog"
    for i in range(3):
        ratio = est.p_emp[i] / est.p_theory[i]
        assert abs(math.log10(ratio)) < 0.5


def test_run_tail_experiment_rejects_low_grid_in_log_regime():
    cfg = small_config(model=ArModel((0.0,), 10), t_min=1.0)
    with pytest.raises(ValueError):
        run_tail_experiment(cfg)


def test_pivot_below_reference_tracks_power_log():
    # a < a0 with a0 > 0: the last diagonal entry of the pivot form is zero
    # and couples to the row before it, so P{stat >= t} ~ coef log(t) / t.
    # 10M replicas x 3 seeds read p_emp / (coef log(t) / t) 1.10 to 1.20
    # over t in [1e2, 1e4] (a second-order excess that fades with t) and
    # a rise of p t by about coef ln 10 per decade, where an exact order
    # t^(-alpha) would leave p t flat
    cfg = small_config(model=ArModel((0.2,), 8), k=None, a0=0.5,
                       replicas=2_000_000, seed=11, t_min=1e2, t_max=1e4,
                       points=3)
    est = run_tail_experiment(cfg)
    assert est.tail.regime == "PowerLog"
    coef = est.tail.coef
    assert coef == pytest.approx(0.12665, rel=1e-4)
    ratio = est.p_emp / est.raw_theory
    assert np.all((0.95 <= ratio) & (ratio <= 1.35)), ratio
    pt = est.p_emp * est.t
    assert pt[-1] - pt[0] >= 0.5 * coef * math.log(100.0), pt


def test_run_tail_experiment_zero_statistic():
    cfg = small_config(model=ArModel((0.9,), 3), k=5, replicas=200)
    est = run_tail_experiment(cfg)
    assert est.tail.regime == "Zero"
    assert np.all(est.p_emp == 0.0)
    assert np.all(est.p_theory == 0.0)


def test_test_statistic_experiment_matches_formula():
    cfg = small_config(model=ArModel((1.0,), 10), k=None, a0=0.5,
                       replicas=20_000, t_min=1e3, t_max=1e5, points=3)
    est = run_tail_experiment(cfg)
    assert est.tail.regime == "PowerHalf"
    for i in range(3):
        ratio = est.p_emp[i] / est.p_theory[i]
        assert abs(math.log10(ratio)) < 0.15


def test_calibrate_risk_rows():
    rows = calibrate_risk((0.4, 0.5, 0.8, 1.0), 0.5, 10, 1.0, 0.05,
                          replicas=20_000, seed=3)
    assert [r.a for r in rows] == [0.4, 0.5, 0.8, 1.0]
    assert rows[0].skipped and rows[1].skipped
    assert math.isnan(rows[0].t_eta) and math.isnan(rows[1].risk_hat)
    for row in rows[2:]:
        assert not row.skipped
        assert row.t_eta > 0.0
        # the first-order size eta = 0.05 is roughly achieved
        assert 0.02 < row.risk_hat < 0.10
        assert 0.0 < row.se < 0.01


def test_calibrate_risk_grid_entirely_at_or_below_a0():
    rows = calibrate_risk((0.1, 0.3, 0.5), 0.5, 10, 1.5, 0.05,
                          replicas=1000, seed=1)
    assert [r.a for r in rows] == [0.1, 0.3, 0.5]
    for row in rows:
        assert row.skipped
        assert math.isnan(row.t_eta) and math.isnan(row.risk_hat)
        assert math.isnan(row.se)


def test_calibrate_risk_independent_of_block_order(monkeypatch):
    args = ((0.6, 1.0), 0.5, 40, 1.5, 0.05)
    forward = calibrate_risk(*args, replicas=5000, seed=1)
    assert len(replica_blocks(5000, 40)) >= 3
    monkeypatch.setattr(monte_carlo, "replica_blocks",
                        lambda replicas, n: replica_blocks(replicas, n)[::-1])
    backward = calibrate_risk(*args, replicas=5000, seed=1)
    assert backward == forward


def test_calibrate_risk_reuses_the_simulation_blocks():
    # common random numbers: every grid value reads the blocks collect_stats draws
    law = make_law(1.0)
    rows = calibrate_risk((0.6, 1.0), 0.5, 8, 1.0, 0.05, replicas=20_000, seed=5)
    for row in rows:
        cfg = McConfig(model=ArModel((row.a,), 8), law=law, a0=0.5,
                       replicas=20_000, seed=5)
        stats = collect_stats(cfg, workers=1)
        assert row.risk_hat == np.count_nonzero(stats >= row.t_eta) / 20_000


def test_default_grid_shape():
    assert len(DEFAULT_A_GRID) == 38
    assert DEFAULT_A_GRID[0] == 0.5
    assert DEFAULT_A_GRID[-1] == 1.5
    assert 1.0 in DEFAULT_A_GRID
    assert list(DEFAULT_A_GRID) == sorted(DEFAULT_A_GRID)


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("HEAVYTAIL_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("HEAVYTAIL_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("HEAVYTAIL_THREADS")
    assert worker_count() >= 1


def test_write_tail_csv_shape():
    cfg = small_config(replicas=500, points=4)
    est = run_tail_experiment(cfg)
    buf = io.StringIO()
    write_tail_csv(est, buf, header_lines=["config cmd=simulate"])
    lines = buf.getvalue().split("\n")
    assert lines[0] == "# config cmd=simulate"
    assert lines[1].startswith("# replicas=500 seed=7 regime=PowerHalf coef=")
    assert lines[2] == ("t,log10_t,p_emp,log10_p_emp,p_theory,"
                        "log10_p_theory,se,raw_p_theory")
    body = [ln for ln in lines[3:] if ln]
    assert len(body) == 4
    for ln in body:
        cells = ln.split(",")
        assert len(cells) == 8
        vals = [float(c) for c in cells]  # parses strictly, -inf included
        assert vals[0] > 0.0
    assert buf.getvalue().endswith("\n")
    assert "\r" not in buf.getvalue()


def test_write_risk_csv_shape():
    rows = calibrate_risk((0.4, 0.8), 0.5, 8, 1.0, 0.05, replicas=2000, seed=0)
    buf = io.StringIO()
    write_risk_csv(rows, buf, header_lines=["config cmd=calibrate"])
    lines = [ln for ln in buf.getvalue().split("\n") if ln]
    assert lines[0] == "# config cmd=calibrate"
    assert lines[1].startswith("# skipped (need a > a0): 0.4")
    assert lines[2] == "a,t_eta,risk_hat,se"
    assert len(lines) == 5
    nan_cells = lines[3].split(",")
    assert math.isnan(float(nan_cells[1]))
    good_cells = lines[4].split(",")
    assert float(good_cells[1]) > 0.0


def test_seventeen_digit_round_trip():
    cfg = small_config(replicas=100, points=3)
    est = run_tail_experiment(cfg)
    buf = io.StringIO()
    write_tail_csv(est, buf)
    body = [ln for ln in buf.getvalue().split("\n")
            if ln and not ln.startswith("#")][1:]
    for i, ln in enumerate(body):
        cells = ln.split(",")
        assert float(cells[0]) == est.t[i]
        assert float(cells[2]) == est.p_emp[i]
        assert float(cells[6]) == est.se[i]
