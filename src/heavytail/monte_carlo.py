"""Reproducible Monte Carlo oracle for the tail approximations.

RNG scheme block-v2: replicas are split into fixed blocks of
max(1, BLOCK_DRAWS // n) rows, and block b draws its (rows, n) innovations
in one call from the substream keyed SeedSequence([seed, b]); alpha = 1
takes the tangent transform of uniforms and every other alpha Bailey's
polar method (R. W. Bailey, Math. Comp. 62 (1994) 779-781).  The layout
depends only on (replicas, n), so every statistic is a pure function of
(seed, replicas, n) and results are bit-identical for any worker count and
any block schedule.  The tail experiment spreads its blocks over a
thread pool and reduces each along its AR paths, as lagged products of
X = A eps; the risk calibration runs its blocks serially (its dense
products already use the BLAS threads) and tests every block against the
dense form of each grid alternative (common random numbers).  The
empirical survival function comes from one sort of the replica
statistics; theory curves are the first-order coefficients evaluated on
the same threshold grid.  The CSV writers take their number format and
header lines from the shared text module _text.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._text import fmt, write_header
from .ar_quadform import ArModel, ar_paths, autocov_form, test_matrix
from .student_dist import StudentLaw, make_law, sample
from .tail_formulas import (POWER_LOG, critical_value, evaluate, tail_law,
                            test_stat_tail)

# innovations per replica block: 512 KiB of doubles, whatever n is
BLOCK_DRAWS = 1 << 16

# risk-calibration grid: dense around the unit root, coarser in the wings
DEFAULT_A_GRID = (
    0.500, 0.552, 0.605, 0.657, 0.710, 0.762, 0.815, 0.868, 0.920,
    0.930, 0.939, 0.948, 0.957, 0.966, 0.975, 0.984, 0.993,
    1.000, 1.002, 1.011, 1.019, 1.028, 1.037, 1.046, 1.055, 1.064,
    1.073, 1.082, 1.091, 1.100,
    1.150, 1.200, 1.250, 1.300, 1.350, 1.400, 1.450, 1.500,
)

TAIL_CSV_COLUMNS = ("t", "log10_t", "p_emp", "log10_p_emp",
                    "p_theory", "log10_p_theory", "se", "raw_p_theory")
RISK_CSV_COLUMNS = ("a", "t_eta", "risk_hat", "se")


@dataclass(frozen=True)
class McConfig:
    """One tail experiment: which statistic, how many replicas, which grid.

    Exactly one of lag k (autocovariance statistic n gamma_n(k)) and
    reference a0 (test statistic n (gamma_n(1) - a0 hat_gamma_n(0)), order-1
    models only) must be set.
    """

    model: ArModel
    law: StudentLaw
    k: int = None
    a0: float = None
    replicas: int = 100_000
    seed: int = 0
    t_min: float = 1e2
    t_max: float = 1e8
    points: int = 61

    def __post_init__(self):
        if (self.k is None) == (self.a0 is None):
            raise ValueError("need exactly one of lag k and reference a0")
        if self.k is not None and int(self.k) < 0:
            raise ValueError("need k >= 0")
        if self.a0 is not None and self.model.p != 1:
            raise ValueError("need an order-1 model with a reference a0")
        if int(self.replicas) < 1:
            raise ValueError("need replicas >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("need a 64-bit unsigned seed")
        if not 0.0 < float(self.t_min) < float(self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if int(self.points) < 2:
            raise ValueError("need points >= 2")


@dataclass(frozen=True)
class McEstimate:
    """Threshold grid with empirical and first-order survival curves.

    p_theory is clamped to [0, 1]; raw_theory keeps the unclamped value.
    Every McConfig statistic has both: its form's last row has a zero
    diagonal and the coupling psi_0 = 1 (PowerHalf, PowerLog or Zero).
    tail comes from the structured form (ArForm), read from the impulse
    response in O(n k) memory, never from an n x n matrix."""

    t: np.ndarray
    p_emp: np.ndarray
    p_theory: np.ndarray
    raw_theory: np.ndarray
    se: np.ndarray
    replicas: int
    seed: int
    tail: object


@dataclass(frozen=True)
class RiskRow:
    """One calibration row: alternative a, threshold t_eta, estimated risk.

    Rows with a <= a0 cannot be calibrated and come back skipped, with NaN
    in the numeric slots.
    """

    a: float
    t_eta: float
    risk_hat: float
    se: float
    skipped: bool = False


def worker_count():
    """Worker cap: HEAVYTAIL_THREADS when set, else the machine's CPU count."""
    env = os.environ.get("HEAVYTAIL_THREADS")
    if env is not None and env.strip():
        workers = int(env)
        if workers < 1:
            raise ValueError("need HEAVYTAIL_THREADS >= 1")
        return workers
    return os.cpu_count() or 1


def replica_blocks(replicas, n):
    """Block layout (b, lo, hi): block b holds replica rows [lo, hi).

    Every block but the last has max(1, BLOCK_DRAWS // n) rows, so the
    layout depends only on (replicas, n) and never on the worker count.
    """
    replicas = int(replicas)
    rows = max(1, BLOCK_DRAWS // int(n))
    return [(b, lo, min(lo + rows, replicas))
            for b, lo in enumerate(range(0, replicas, rows))]


def block_innovations(law, n, seed, block):
    """Innovation rows of one block, drawn in one call from the substream
    keyed (seed, b); row i is replica lo + i."""
    b, lo, hi = block
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(b)]))
    return sample(law, rng, size=(hi - lo, int(n)))


def row_stats(eps, entries):
    """Row statistics eps_r^T C eps_r of an innovation block, one matmul."""
    return np.einsum("ri,ri->r", eps @ entries, eps)


def path_stats(eps, theta, k=None, a0=None):
    """Statistics of an innovation block eps, shape (rows, n), reduced along
    the time-major AR paths X = A eps: n gamma_n(k), the lagged product sum
    of x[t] x[t-k], for lag k, or the pivot
    n (gamma_n(1) - a0 hat_gamma_n(0)) = sum of (x[t] - a0 x[t-1]) x[t-1]
    for reference a0.  Exactly one of k and a0 is set.
    """
    rows, n = eps.shape
    if k is not None and k >= n:
        return np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        x = ar_paths(theta, eps.T)
        if a0 is None:
            return np.einsum("ir,ir->r", x[k:], x[:n - k])
        return np.einsum("ir,ir->r", x[1:] - a0 * x[:-1], x[:-1])


def _map_blocks(fn, blocks, workers):
    """fn over every block, results in block order; blocks are keyed
    substreams, so the outcome does not depend on the schedule."""
    if workers <= 1 or len(blocks) <= 1:
        return [fn(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        return list(pool.map(fn, blocks))


def collect_stats(cfg, workers=None):
    """Vector of all replica statistics of a tail experiment, in
    replica-index order, reduced block by block along the AR paths.

    Raises OverflowError when a statistic is not finite (explosive models).
    """
    workers = worker_count() if workers is None else int(workers)
    n = cfg.model.n
    k = None if cfg.k is None else int(cfg.k)
    a0 = None if cfg.a0 is None else float(cfg.a0)

    def block_stats(block):
        eps = block_innovations(cfg.law, n, cfg.seed, block)
        return path_stats(eps, cfg.model.theta, k=k, a0=a0)

    stats = np.concatenate(_map_blocks(block_stats, replica_blocks(cfg.replicas, n),
                                       workers))
    if not np.all(np.isfinite(stats)):
        raise OverflowError("replica statistics overflow; the model is too "
                            "explosive for n=%d" % n)
    return stats


def run_tail_experiment(cfg, workers=None):
    """Monte Carlo tail experiment for one configuration.

    Classifies the configured statistic (the structured lag-k form through
    the general classifier, the test statistic through test_stat_tail;
    neither builds an n x n matrix), draws all
    replica statistics, and returns the empirical survival curve on a
    log-spaced threshold grid next to the first-order theory curve.  The
    PowerLog approximation needs every threshold above e.
    """
    if cfg.k is not None:
        tail = tail_law(autocov_form(cfg.model, int(cfg.k)), cfg.law.alpha)
    else:
        tail = test_stat_tail(cfg.model.theta[0], float(cfg.a0),
                              cfg.model.n, cfg.law.alpha)
    t = np.logspace(math.log10(float(cfg.t_min)), math.log10(float(cfg.t_max)),
                    int(cfg.points))
    if tail.regime == POWER_LOG and not float(cfg.t_min) > math.e:
        raise ValueError("need t_min > e in the PowerLog regime")

    stats = np.sort(collect_stats(cfg, workers=workers))
    replicas = int(cfg.replicas)
    exceed = replicas - np.searchsorted(stats, t, side="left")
    p_emp = exceed / replicas
    se = np.sqrt(p_emp * (1.0 - p_emp) / replicas)

    raw = np.array([evaluate(tail, ti) for ti in t])
    return McEstimate(t=t, p_emp=p_emp, p_theory=np.clip(raw, 0.0, 1.0),
                      raw_theory=raw, se=se, replicas=replicas,
                      seed=int(cfg.seed), tail=tail)


def calibrate_risk(a_grid, a0, n, alpha, eta, replicas=100_000, seed=0):
    """Estimated rejection risk along a grid of alternatives a.

    Common random numbers: each innovation block is drawn once and every
    grid value a > a0 is tested on it, counting the replicas whose statistic
    eps^T C_a eps reaches the threshold t_eta from critical_value; risk_hat
    is the total count over replicas.  Blocks run serially: the dense
    products use the BLAS threads, and a pool on top only oversubscribes
    the cores.  Grid values with a <= a0 come back skipped.
    """
    a0 = float(a0)
    n = int(n)
    replicas = int(replicas)
    if replicas < 1:
        raise ValueError("need replicas >= 1")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("need a 64-bit unsigned seed")
    law = make_law(alpha)
    grid = [float(a) for a in a_grid]
    alternatives = [a for a in grid if a > a0]
    # critical values first: one whose pivot form overflows a double is
    # named before any dense form is built
    t_etas = [critical_value(a, a0, n, law.alpha, eta) for a in alternatives]
    tests = [(t_eta, test_matrix(a, a0, n).entries)
             for a, t_eta in zip(alternatives, t_etas)]

    counts = np.zeros(len(tests), dtype=np.int64)
    for block in replica_blocks(replicas, n):
        eps = block_innovations(law, n, seed, block)
        counts += np.array([np.count_nonzero(row_stats(eps, entries) >= t_eta)
                            for t_eta, entries in tests], dtype=np.int64)
    tested = iter(zip(tests, counts))
    rows = []
    for a in grid:
        if not a > a0:
            rows.append(RiskRow(a=a, t_eta=math.nan, risk_hat=math.nan,
                                se=math.nan, skipped=True))
            continue
        (t_eta, _), count = next(tested)
        risk = int(count) / replicas
        rows.append(RiskRow(a=a, t_eta=t_eta, risk_hat=risk,
                            se=math.sqrt(risk * (1.0 - risk) / replicas)))
    return rows


def _log10_or_ninf(p):
    return -math.inf if p <= 0.0 else math.log10(p)


def write_tail_csv(est, fh, header_lines=()):
    """CSV dump of a tail experiment.

    Columns: t, log10_t, p_emp, log10_p_emp, p_theory, log10_p_theory, se,
    raw_p_theory.  p_theory is clamped to [0, 1] while raw_p_theory keeps
    the unclamped approximation.  '#'-prefixed header lines come
    first, reals carry 17 significant digits, line endings are LF.
    """
    write_header(fh, header_lines)
    coef = fmt(est.tail.coef)
    fh.write("# replicas=%d seed=%d regime=%s coef=%s\n"
             % (est.replicas, est.seed, est.tail.regime, coef))
    fh.write(",".join(TAIL_CSV_COLUMNS) + "\n")
    for i, t in enumerate(est.t):
        p_emp = float(est.p_emp[i])
        p_th = float(est.p_theory[i])
        fh.write(",".join(fmt(v) for v in (
            t, math.log10(t), p_emp, _log10_or_ninf(p_emp),
            p_th, _log10_or_ninf(p_th), float(est.se[i]),
            float(est.raw_theory[i]))) + "\n")


def write_risk_csv(rows, fh, header_lines=()):
    """CSV dump of a calibration run: columns a, t_eta, risk_hat, se, with
    NaN slots on skipped rows; '#' header lines first, 17 significant
    digits, LF line endings."""
    skipped = [row.a for row in rows if row.skipped]
    write_header(fh, header_lines)
    if skipped:
        fh.write("# skipped (need a > a0): %s\n" % " ".join(fmt(a) for a in skipped))
    fh.write(",".join(RISK_CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(fmt(v) for v in (row.a, row.t_eta, row.risk_hat, row.se))
                 + "\n")
