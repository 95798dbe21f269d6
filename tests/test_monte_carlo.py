import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavytail import monte_carlo
from heavytail.ar2_regions import (a_col, closed_form_diag, diag_seq, first_covering_k,
                                   region_grid, region_membership)
from heavytail.ar_quadform import (ArModel, QuadForm, Statistic, ar1_offdiag_closed,
                                   autocov_matrix, empirical_autocov)
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.monte_carlo import (BLOCK_DRAWS, DEFAULT_A_GRID, McConfig,
                                   block_innovations, calibrate_risk,
                                   collect_stats, replica_blocks,
                                   run_tail_experiment, worker_count,
                                   write_risk_csv, write_tail_csv)
from heavytail.student_dist import make_law, sample
from heavytail.tail_formulas import ar1_upper_tail, check_pivot_n, critical_value, evaluate


def small_config(model=ArModel((1.0,), 10), k=1, a0=None, **kw):
    base = dict(law=make_law(1.0), replicas=4000, seed=7, t_min=1e2, t_max=1e6, points=9)
    base.update(kw)
    return McConfig(statistic=Statistic(model, k=k, a0=a0), **base)


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
    with pytest.raises(ValueError, match="need finite t_min, t_max and t_max - t_min"):
        small_config(t_max=math.inf)
    for a0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="need a finite reference a0"):
            small_config(k=None, a0=a0)
    with pytest.raises(ValueError, match="need a finite reference a0"):
        calibrate_risk((0.6,), math.nan, 8, 1.0, 0.05, replicas=100)
    with pytest.raises(ValueError):
        small_config(model=ArModel((0.5, 0.1), 10), k=None,
                     a0=0.5)  # test statistic needs an order-1 model


def test_config_keeps_normalised_fields():
    cfg = small_config(k=np.int64(2), replicas=4000.0, seed=np.uint64(7),
                       t_min=100, t_max=10 ** 6, points=9.0)
    stat = cfg.statistic
    assert (stat.k, stat.a0, cfg.replicas, cfg.seed) == (2, None, 4000, 7)
    assert (cfg.t_min, cfg.t_max, cfg.points) == (100.0, 1e6, 9)
    assert [type(v) for v in (stat.k, cfg.replicas, cfg.seed, cfg.points)] == [int] * 4
    assert type(cfg.t_min) is float and type(cfg.t_max) is float
    pivot = small_config(k=None, a0=1).statistic
    assert pivot.k is None and type(pivot.a0) is float


@pytest.mark.parametrize("call, name", [
    (lambda: small_config(replicas=100.7), "replicas"),
    (lambda: small_config(seed=3.9), "seed"),
    (lambda: small_config(points=9.5), "points"),
    (lambda: small_config(replicas=math.inf), "replicas"),
    (lambda: small_config(seed="3"), "seed"),
    (lambda: small_config(k=1.5), "k"),
    (lambda: small_config(k=math.nan), "k"),
    (lambda: ArModel((0.5,), 10.5), "n"),
    (lambda: ArModel((0.5,), math.nan), "n"),
    (lambda: check_pivot_n(8.9), "n"),
    (lambda: autocov_matrix(ArModel((0.5,), 10), 1.9), "k"),
    (lambda: calibrate_risk((0.6,), 0.5, 8.9, 1.0, 0.05, replicas=100), "n"),
    (lambda: calibrate_risk((0.6,), 0.5, 8, 1.0, 0.05, replicas=100.5), "replicas"),
    (lambda: region_grid(-2, 2, -2, 1, 5.7), "steps"),
    (lambda: region_grid(-2, 2, -2, 1, 5, kmax=math.nan), "kmax"),
    (lambda: closed_form_diag(0.5, 1.0, 3.7), "k"),
    (lambda: diag_seq(0.5, 0.1, 6.9), "kmax"),
    (lambda: first_covering_k([-0.5], [-0.1], 20.5), "kmax"),
    (lambda: region_membership(-0.5, -0.1, 20.5), "kmax"),
    (lambda: a_col(0.5, 0.1, 6.5), "jmax"),
    (lambda: ar1_offdiag_closed(0.5, 4, 1.5, 2, 1), "k"),
    (lambda: ar1_offdiag_closed(0.5, 4.5, 1, 2, 1), "n"),
    (lambda: ar1_offdiag_closed(0.5, 4, 1, 2.5, 1), "i"),
    (lambda: ar1_offdiag_closed(0.5, 4, 1, 2, math.inf), "j"),
    (lambda: empirical_autocov(np.ones(5), 1.5), "k"),
])
def test_integer_fields_reject_what_is_not_an_integer(call, name):
    # one integer rule: ints, numpy ints and integral floats pass (see
    # test_config_keeps_normalised_fields); nothing is truncated
    with pytest.raises(ValueError, match="^need an integer %s$" % name):
        call()


def stats_with_workers(monkeypatch, cfg, workers):
    monkeypatch.setenv("HEAVYTAIL_THREADS", str(workers))
    return collect_stats(cfg)


def test_replica_stats_reproducible_and_scheduler_free(monkeypatch):
    cfg = small_config()
    one = stats_with_workers(monkeypatch, cfg, 1)
    many = stats_with_workers(monkeypatch, cfg, 5)
    assert np.array_equal(one, many)
    again = stats_with_workers(monkeypatch, cfg, 3)
    assert np.array_equal(one, again)


def test_collect_stats_reads_the_worker_setting(monkeypatch):
    # HEAVYTAIL_THREADS is the one worker setting: it sizes the pool
    sizes = []

    class Pool(monte_carlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(monte_carlo, "ThreadPoolExecutor", Pool)
    cfg = small_config(replicas=14_000)
    assert len(replica_blocks(cfg.replicas, cfg.statistic.model.n)) == 3
    one = stats_with_workers(monkeypatch, cfg, 1)
    assert sizes == []
    assert np.array_equal(stats_with_workers(monkeypatch, cfg, 2), one)
    assert np.array_equal(stats_with_workers(monkeypatch, cfg, 5), one)
    assert sizes == [2, 3]


def test_replica_stats_match_direct_recomputation(monkeypatch):
    cfg = small_config(replicas=14_000)
    stat = cfg.statistic
    n = stat.model.n
    entries = autocov_matrix(stat.model, stat.k).entries
    rows = max(1, BLOCK_DRAWS // n)
    assert cfg.replicas > 2 * rows  # three blocks, the last one partial
    got = stats_with_workers(monkeypatch, cfg, 2)
    assert got.shape == (cfg.replicas,)
    for r in (0, rows - 1, rows, 2 * rows + 5, cfg.replicas - 1):
        b = r // rows
        lo, hi = b * rows, min((b + 1) * rows, cfg.replicas)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, b]))
        eps = sample(cfg.law, rng, size=(hi - lo, n))
        assert np.array_equal(got[lo:hi], stat.reduce(eps))
        direct = np.array([e @ entries @ e for e in eps])
        assert np.all(np.abs(got[lo:hi] - direct) <= 1e-12 * np.abs(direct))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collect_stats_rejects_overflowing_statistics(monkeypatch):
    cfg = small_config(model=ArModel((-3.0,), 400), k=None, a0=0.5, replicas=50)
    with pytest.raises(OverflowError, match="^replica statistics overflow; the "
                                            "model is too explosive for n=400$"):
        stats_with_workers(monkeypatch, cfg, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_risk_rejects_overflowing_statistics():
    # at a = 1.5, n = 870 the dense pivot form is finite but about 4% of the
    # replica statistics overflow; calibrate names them like collect_stats
    with pytest.raises(OverflowError, match="^replica statistics overflow; the "
                                            "model is too explosive for n=870$"):
        calibrate_risk((1.5,), 0.5, 870, 1.5, 0.05, replicas=2000, seed=0)


@st.composite
def count_cases(draw):
    """(cfg, threads, ties, extra): a lag or pivot experiment on an AR(1)
    path, one or more blocks (the last one mostly partial; one-row blocks
    past BLOCK_DRAWS), a worker setting, and thresholds as fractions into
    the sorted replica statistics (ties) next to free ones."""
    n = draw(st.sampled_from([2, 3, 10, 37, BLOCK_DRAWS + 1]))
    rows = max(1, BLOCK_DRAWS // n)
    statistic = (dict(k=draw(st.integers(0, 3))) if draw(st.booleans())
                 else dict(a0=draw(st.floats(-1.0, 1.5))))
    cfg = McConfig(statistic=Statistic(ArModel((draw(st.floats(-1.05, 1.05)),), n),
                                       **statistic),
                   law=make_law(draw(st.sampled_from([0.7, 1.0, 1.5]))),
                   replicas=draw(st.integers(1, 2 * rows + 1)),
                   seed=draw(st.integers(0, 2 ** 64 - 1)))
    ties = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    extra = draw(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=6))
    return cfg, draw(st.sampled_from([1, 3])), ties, extra


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(case=count_cases())
@example(case=(small_config(replicas=14_000), 3, [0.0, 0.5, 0.5, 1.0], [1e3]))
@example(case=(small_config(model=ArModel((1.0,), BLOCK_DRAWS + 1), replicas=3),
               3, [0.5], [0.0]))
@example(case=(small_config(model=ArModel((0.6,), 10), k=None, a0=0.5, replicas=13_107),
               1, [0.25, 1.0], [-1.0]))
# explosive: every statistic of the four blocks overflows
@example(case=(small_config(model=ArModel((-3.0,), 400), k=None, a0=0.5, replicas=500),
               3, [], [1.0, 1e6]))
@settings(max_examples=25, deadline=None)
def test_threshold_counts_match_the_replica_vector(case):
    # collect_stats(cfg, t) counts #{statistic >= t_j} block by block; the
    # sums equal the counts read from the sorted replica vector, and an
    # overflow ends in the vector route's one-line error
    cfg, threads, ties, extra = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HEAVYTAIL_THREADS", str(threads))
        try:
            stats = np.sort(collect_stats(cfg))
        except OverflowError as err:
            with pytest.raises(OverflowError, match="^%s$" % re.escape(str(err))):
                collect_stats(cfg, np.array(extra))
            return
        t = np.array([stats[round(f * (cfg.replicas - 1))] for f in ties] + extra)
        counts = collect_stats(cfg, t)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, cfg.replicas - np.searchsorted(stats, t, side="left"))


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


def test_block_order_does_not_change_stats(monkeypatch):
    cfg = small_config(replicas=14_000)
    n = cfg.statistic.model.n
    forward = stats_with_workers(monkeypatch, cfg, 1)
    blocks = replica_blocks(cfg.replicas, n)
    assert len(blocks) >= 2
    backward = [cfg.statistic.reduce(block_innovations(cfg.law, n, cfg.seed, block))
                for block in reversed(blocks)]
    assert np.concatenate(backward[::-1]).tobytes() == forward.tobytes()


def test_run_tail_experiment_survival_curve(monkeypatch):
    monkeypatch.setenv("HEAVYTAIL_THREADS", "2")
    cfg = small_config()
    est = run_tail_experiment(cfg)
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


@pytest.mark.parametrize("a, n, k, alpha", [(0.5, 1000, 1, 1.5), (1.05, 600, 1, 1.5),
                                            (-0.5, 50, 2, 1.5), (0.0, 30, 2, 1.0)])
def test_run_tail_experiment_takes_the_ar1_closed_law(a, n, k, alpha):
    # an AR(1) lag has one law, the one the tail command prints: the closed
    # power-sum form, to the bit
    cfg = McConfig(statistic=Statistic(ArModel((a,), n), k=k), law=make_law(alpha),
                   replicas=200, seed=1)
    assert run_tail_experiment(cfg).tail == ar1_upper_tail(a, n, k, alpha)


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


def test_calibrate_risk_grid_entirely_at_or_below_a0(monkeypatch):
    # with nothing to test, no block is drawn
    drawn = []
    monkeypatch.setattr(monte_carlo, "block_innovations",
                        lambda *args: drawn.append(args))
    rows = calibrate_risk((0.1, 0.3, 0.5), 0.5, 10, 1.5, 0.05,
                          replicas=1000, seed=1)
    assert drawn == []
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


@pytest.mark.parametrize("grid, n", [
    pytest.param((0.6, 1.0), 8, id="dense"),  # n >= F: one matmul per form
    pytest.param(DEFAULT_A_GRID, 10, id="pairs"),  # n < F = 37: one pair GEMM
])
def test_calibrate_risk_reuses_the_simulation_blocks(monkeypatch, grid, n):
    # common random numbers: every grid value reads the blocks collect_stats
    # draws, and each count is that of the AR path reduction
    law = make_law(1.0)
    rows = calibrate_risk(grid, 0.5, n, 1.0, 0.05, replicas=20_000, seed=5)
    for row in rows:
        if row.skipped:
            continue
        cfg = McConfig(statistic=Statistic(ArModel((row.a,), n), a0=0.5), law=law,
                       replicas=20_000, seed=5)
        stats = stats_with_workers(monkeypatch, cfg, 1)
        assert row.risk_hat == np.count_nonzero(stats >= row.t_eta) / 20_000


# with n = 6 path steps, F = 7 tested values take the pair-product route
PAIR_GRID = (0.6, 0.7, 0.8, 0.9, 1.0, 1.02, 1.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_risk_pair_weights_past_the_doubles(monkeypatch):
    # forms scaled by 2^1022 keep finite entries (|C| < 4), but C_ij + C_ji
    # leaves the doubles from a = 1 on (|C_ij + C_ji| >= 5); innovations
    # scaled by 2^-100 keep the statistics finite.  Powers of two scale
    # every route exactly, so the pair route counts what the unscaled run
    # and one form at a time (F = 1) count.
    grid, n = PAIR_GRID, 6
    args = (0.5, n, 1.5, 0.05)
    plain = calibrate_risk(grid, *args, replicas=5000, seed=2)
    monkeypatch.setattr(monte_carlo, "test_matrix", lambda a, a0, n: QuadForm(
        n, np.ldexp(statistic_matrix(a, a0, n).entries, 1022)))
    monkeypatch.setattr(monte_carlo, "critical_value",
                        lambda *args: math.ldexp(critical_value(*args), 1022 - 200))
    monkeypatch.setattr(monte_carlo, "block_innovations",
                        lambda *args: np.ldexp(block_innovations(*args), -100))
    forms = [monte_carlo.test_matrix(a, 0.5, n).entries for a in grid]
    with np.errstate(over="ignore"):
        assert any(np.isinf(c + c.T).any() for c in forms)
    scaled = calibrate_risk(grid, *args, replicas=5000, seed=2)
    one_by_one = [calibrate_risk((a,), *args, replicas=5000, seed=2)[0] for a in grid]
    assert scaled == one_by_one
    assert [r.risk_hat for r in scaled] == [r.risk_hat for r in plain]
    assert 0.0 < min(r.risk_hat for r in plain)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_risk_pair_product_past_the_doubles(monkeypatch):
    # eps_{n-1}^2 = 1e400 leaves the doubles, but the pivot form's last
    # diagonal entry is zero and the statistic stays finite: the per-form
    # matmuls count such a chunk
    def huge_last(*args):
        eps = block_innovations(*args)
        eps[::100, -1] = 1e200
        return eps

    monkeypatch.setattr(monte_carlo, "block_innovations", huge_last)
    grid, args = PAIR_GRID, (0.5, 6, 1.5, 0.05)
    rows = calibrate_risk(grid, *args, replicas=5000, seed=2)
    assert rows == [calibrate_risk((a,), *args, replicas=5000, seed=2)[0] for a in grid]
    assert min(r.risk_hat for r in rows) >= 0.01


def _pair_stats_calls(monkeypatch):
    """(rows, table size) of every _pair_stats call from here on."""
    calls = []

    def recorded(eps, halves, table, out):
        calls.append((len(eps), len(table)))
        return pair_stats(eps, halves, table, out)

    pair_stats = monte_carlo._pair_stats
    monkeypatch.setattr(monte_carlo, "_pair_stats", recorded)
    return calls


def test_calibrate_risk_takes_one_pair_gemm_per_block(monkeypatch):
    # n = 20 < F = 37: three full 3276-row blocks and one of 172 rows, each
    # reduced by one GEMM, counting what one form at a time counts
    args = (0.5, 20, 1.5, 0.05)
    calls = _pair_stats_calls(monkeypatch)
    rows = calibrate_risk(DEFAULT_A_GRID, *args, replicas=10_000, seed=4)
    blocks = replica_blocks(10_000, 20)
    assert [part for part, _ in calls] == [hi - lo for _, lo, hi in blocks]
    assert [hi - lo for _, lo, hi in blocks] == [3276] * 3 + [172]
    # one value at a time takes the per-form route, with no pair GEMM
    one_by_one = [calibrate_risk((a,), *args, replicas=10_000, seed=4)[0]
                  for a in DEFAULT_A_GRID]
    assert len(calls) == 4
    assert rows == one_by_one


def test_calibrate_risk_caps_the_pair_table(monkeypatch):
    # n = 40 has P = 820 pairs, so a 1638-row block would need a table of
    # 1.3M doubles; the cap of 16 BLOCK_DRAWS doubles splits it 1278 + 360
    grid = np.linspace(0.51, 1.4, 60).tolist()
    args = (0.5, 40, 1.5, 0.05)
    calls = _pair_stats_calls(monkeypatch)
    rows = calibrate_risk(grid, *args, replicas=5000, seed=4)
    assert [part for part, _ in calls] == [1278, 360] * 3 + [86]
    for part, table in calls:
        assert part * 820 <= table <= 16 * BLOCK_DRAWS
    one_by_one = [calibrate_risk((a,), *args, replicas=5000, seed=4)[0] for a in grid]
    assert len(calls) == 7
    assert rows == one_by_one


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
    write_tail_csv(est, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0].startswith("# replicas=500 seed=7 regime=PowerHalf coef=")
    assert lines[1] == ("t,log10_t,p_emp,log10_p_emp,p_theory,"
                        "log10_p_theory,se,raw_p_theory")
    body = [ln for ln in lines[2:] if ln]
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
    write_risk_csv(rows, buf)
    lines = [ln for ln in buf.getvalue().split("\n") if ln]
    assert lines[0].startswith("# skipped (need a > a0): 0.4")
    assert lines[1] == "a,t_eta,risk_hat,se"
    assert len(lines) == 4
    nan_cells = lines[2].split(",")
    assert math.isnan(float(nan_cells[1]))
    good_cells = lines[3].split(",")
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
