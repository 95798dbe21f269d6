"""Reproducible Monte Carlo oracle for the tail approximations.

RNG scheme block-v3: replicas are split into fixed blocks of
max(1, BLOCK_DRAWS // n) rows, and block b draws its (rows, n) innovations
in one call from the substream keyed SeedSequence([seed, b]); alpha = 1
takes the tangent transform of uniforms and every other alpha Bailey's
polar method without rejection (R. W. Bailey, Math. Comp. 62 (1994)
779-781), two uniforms per draw.  The layout depends only on (replicas,
n), so on one numpy build at one CPU dispatch level every statistic is a
pure function of (seed, replicas, n) and results are bit-identical for
any worker count and any block schedule.  The tail experiment spreads its
blocks over a pool of worker_count() threads (HEAVYTAIL_THREADS, the one
worker setting) and reduces each along its AR paths, as lagged products of
X = A eps; the risk calibration runs its blocks serially (a pool on top
measured slower) and tests every block against every grid alternative
(common random numbers): with fewer path steps than alternatives, one GEMM
of the stacked pair weights by the products eps_i eps_j gives every
statistic of a block (of a chunk of it where the pair table would pass 16
BLOCK_DRAWS doubles; on the default grid, n = 3 to 31 take one GEMM per
block), otherwise one matmul per alternative's form.
Both end in the same OverflowError on a non-finite replica statistic.  The
empirical survival function comes from exceedance counts: each pool task
counts its own block's statistics past every threshold of the grid and
the counts are summed, so no replica vector is kept and the memory of
simulate does not grow with the replica count.  The theory curve is
statistic_tail's law, the one the tail command prints, on the same
threshold grid.  The CSV writers take their number format and rows from
_text.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._text import fmt, write_rows
from .ar_quadform import Statistic, check_a0, check_int, test_matrix
from .student_dist import StudentLaw, make_law, sample
from .tail_formulas import (POWER_LOG, check_eta, check_pivot_n, check_span,
                            critical_value, evaluate, statistic_tail)

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

    Every field is kept normalised: replicas, seed and points as ints, t_min
    and t_max as floats.  The defaults are those of the simulate and
    calibrate commands.
    """

    statistic: Statistic
    law: StudentLaw
    replicas: int = 100_000
    seed: int = 0
    t_min: float = 10.0
    t_max: float = 1e8
    points: int = 61

    def __post_init__(self):
        replicas, seed = _check_draws(self.replicas, self.seed)
        t_min, t_max = float(self.t_min), float(self.t_max)
        points = check_int(self.points, "points")
        if not 0.0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        check_span("t", t_min, t_max)
        if points < 2:
            raise ValueError("need points >= 2")
        for name, value in (("replicas", replicas), ("seed", seed), ("t_min", t_min),
                            ("t_max", t_max), ("points", points)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class McEstimate:
    """Threshold grid with empirical and first-order survival curves.

    p_theory is clamped to [0, 1]; raw_theory keeps the unclamped value.
    Every McConfig statistic has both: its form's last row has a zero
    diagonal and the coupling psi_0 = 1 (PowerHalf, PowerLog or Zero).
    tail is statistic_tail's law of the statistic, the one the tail
    command prints; no route to it builds an n x n matrix."""

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


def _check_draws(replicas, seed):
    """(replicas, seed) as checked ints: replicas >= 1, a 64-bit unsigned seed."""
    replicas, seed = check_int(replicas, "replicas"), check_int(seed, "seed")
    if replicas < 1:
        raise ValueError("need replicas >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("need a 64-bit unsigned seed")
    return replicas, seed


def _finite_stats(stats, n):
    """stats as they are, or OverflowError if one is not finite (explosive model)."""
    if not np.isfinite(stats).all():
        raise OverflowError("replica statistics overflow; the model is too "
                            "explosive for n=%d" % n)
    return stats


def _block_rows(n):
    """Rows of every full replica block of n path steps."""
    return max(1, BLOCK_DRAWS // int(n))


def replica_blocks(replicas, n):
    """Block layout (b, lo, hi): block b holds replica rows [lo, hi).

    Every block but the last has max(1, BLOCK_DRAWS // n) rows, so the
    layout depends only on (replicas, n) and never on the worker count.
    """
    replicas = int(replicas)
    rows = _block_rows(n)
    return [(b, lo, min(lo + rows, replicas))
            for b, lo in enumerate(range(0, replicas, rows))]


def block_innovations(law, n, seed, block):
    """Innovation rows of one block, drawn in one call from the substream
    keyed (seed, b); row i is replica lo + i."""
    b, lo, hi = block
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(b)]))
    return sample(law, rng, size=(hi - lo, int(n)))


def collect_stats(cfg, t=None):
    """Vector of all replica statistics of a tail experiment, in
    replica-index order, reduced along the AR paths block by block on
    worker_count() threads (keyed substreams: the schedule does not matter).

    With a threshold grid t, each block is reduced on its own thread to its
    counts of statistics >= t_j, and the summed int64 counts, one per
    threshold, come back instead: no replica vector is kept.

    Raises OverflowError when a statistic is not finite (explosive models).
    """
    n = cfg.statistic.model.n

    def block_stats(block):
        eps = block_innovations(cfg.law, n, cfg.seed, block)
        stats = cfg.statistic.reduce(eps)
        if t is None:
            return stats
        stats = _finite_stats(stats, n)
        stats.sort()
        return len(stats) - np.searchsorted(stats, t, side="left")

    blocks = replica_blocks(cfg.replicas, n)
    workers = min(worker_count(), len(blocks))
    if workers <= 1:
        stats = [block_stats(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(block_stats, blocks))
    if t is not None:
        return np.sum(stats, axis=0)
    return _finite_stats(np.concatenate(stats), n)


def run_tail_experiment(cfg):
    """Monte Carlo tail experiment for one configuration.

    Takes the configured statistic's law from statistic_tail, the route
    the tail command takes too (no n x n matrix), counts the replica
    statistics past each threshold of a log-spaced grid block by block,
    and returns the empirical survival curve on that grid next to the
    first-order theory curve.  The PowerLog approximation needs every
    threshold above e.
    """
    tail = statistic_tail(cfg.statistic, cfg.law.alpha)
    t = np.logspace(math.log10(cfg.t_min), math.log10(cfg.t_max), cfg.points)
    if tail.regime == POWER_LOG and not cfg.t_min > math.e:
        raise ValueError("need t_min > e in the PowerLog regime")

    replicas = cfg.replicas
    p_emp = collect_stats(cfg, t) / replicas
    se = np.sqrt(p_emp * (1.0 - p_emp) / replicas)

    raw = np.array([evaluate(tail, ti) for ti in t])
    return McEstimate(t=t, p_emp=p_emp, p_theory=np.clip(raw, 0.0, 1.0),
                      raw_theory=raw, se=se, replicas=replicas, seed=cfg.seed,
                      tail=tail)


def _form_hits(eps, forms, t_etas, n):
    """Replicas of a (rows, n) chunk whose statistic eps_r^T C eps_r reaches
    t_eta, counted for each form by one matmul into one reused product
    buffer (a fresh block-sized product per form page-faults anew)."""
    product = np.empty_like(eps)
    return np.array([np.count_nonzero(_finite_stats(np.einsum(
                         "ri,ri->r", np.matmul(eps, entries, out=product), eps), n) >= t_eta)
                     for t_eta, entries in zip(t_etas, forms)], dtype=np.int64)


def _pair_weights(forms, n):
    """(F, n (n + 1) / 2) weights of eps^T C eps = sum over i <= j of
    w_ij eps_i eps_j (w_ii = C_ii, w_ij = C_ij + C_ji), pairs in
    np.triu_indices order, halved so that no C_ij + C_ji leaves the
    doubles; the halving is exact, and _pair_stats doubles the sums back."""
    upper = np.triu_indices(n)
    halves = np.stack([(0.5 * entries + 0.5 * entries.T)[upper] for entries in forms])
    halves[:, upper[0] == upper[1]] *= 0.5
    return halves


def _pair_stats(eps, halves, table, out):
    """(F, rows) statistics of a (rows, n) chunk from one GEMM, written into
    the reused buffer out: the halved weights times the time-major products
    eps_i eps_j, i <= j, written row by row into the reused buffer table."""
    rows, n = eps.shape
    e = np.ascontiguousarray(eps.T)
    pairs = table[:halves.shape[1] * rows].reshape(-1, rows)
    start = 0
    for i in range(n):
        np.multiply(e[i], e[i:], out=pairs[start:start + n - i])
        start += n - i
    stats = np.matmul(halves, pairs, out=out[:len(halves) * rows].reshape(-1, rows))
    stats *= 2.0
    return stats


def calibrate_risk(a_grid, a0, n, alpha, eta, replicas=McConfig.replicas,
                   seed=McConfig.seed):
    """Estimated rejection risk along a grid of alternatives a.

    Common random numbers: each innovation block is drawn once and every
    grid value a > a0 is tested on it, counting the replicas whose statistic
    eps^T C_a eps reaches the threshold t_eta from critical_value; risk_hat
    is the total count over replicas.  With fewer path steps n than tested
    values F, all F statistics of a block come from one GEMM of pair
    weights and pair products (_pair_weights), in chunks of replicas only
    where the pair table or the statistics buffer would pass 16 BLOCK_DRAWS
    doubles; otherwise each form C_a reduces the block by one matmul.  The
    two routes round differently, so a count can differ only by a replica
    within rounding of t_eta.
    Grid values with a <= a0 come back skipped, and with no other value no
    block is drawn.  A statistic that is not finite raises the
    OverflowError of collect_stats.
    """
    a0 = check_a0(a0)
    n = check_pivot_n(n)
    eta = check_eta(eta)
    replicas, seed = _check_draws(replicas, seed)
    law = make_law(alpha)
    grid = [float(a) for a in a_grid]
    alternatives = [a for a in grid if a > a0]
    # critical values first: one whose pivot form overflows a double is
    # named before any form is built
    t_etas = [critical_value(a, a0, n, law.alpha, eta) for a in alternatives]
    forms = [test_matrix(a, a0, n).entries for a in alternatives]

    pairs = n < len(forms)
    chunk = BLOCK_DRAWS
    if pairs:
        halves = _pair_weights(forms, n)
        # one GEMM per block while the pair table and the statistics buffer,
        # reused by every chunk, hold at most 16 BLOCK_DRAWS doubles (8 MiB)
        # each, or one replica's worth; on the default grid n = 3 to 31
        chunk = min(_block_rows(n), max(1, 16 * BLOCK_DRAWS // max(halves.shape)))
        table = np.empty(chunk * halves.shape[1])
        out = np.empty(chunk * len(forms))
        thresholds = np.array(t_etas)[:, None]
    counts = np.zeros(len(forms), dtype=np.int64)
    for block in replica_blocks(replicas, n) if forms else ():
        eps = block_innovations(law, n, seed, block)
        for lo in range(0, len(eps), chunk):
            part = eps[lo:lo + chunk]
            # overflows reach _finite_stats unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                stats = _pair_stats(part, halves, table, out) if pairs else None
                if stats is not None and np.isfinite(stats).all():
                    counts += np.count_nonzero(stats >= thresholds, axis=1)
                else:
                    # one matmul per form, also where a pair product leaves
                    # the doubles but the form's own statistic does not
                    counts += _form_hits(part, forms, t_etas, n)
    tested = iter(zip(t_etas, counts))
    rows = []
    for a in grid:
        if not a > a0:
            rows.append(RiskRow(a=a, t_eta=math.nan, risk_hat=math.nan,
                                se=math.nan, skipped=True))
            continue
        t_eta, count = next(tested)
        risk = int(count) / replicas
        rows.append(RiskRow(a=a, t_eta=t_eta, risk_hat=risk,
                            se=math.sqrt(risk * (1.0 - risk) / replicas)))
    return rows


def _log10_or_ninf(p):
    return -math.inf if p <= 0.0 else math.log10(p)


def write_tail_csv(est, fh):
    """CSV dump of a tail experiment: a '# replicas seed regime coef' line,
    then columns t, log10_t, p_emp, log10_p_emp, p_theory, log10_p_theory,
    se, raw_p_theory.  p_theory is clamped to [0, 1] while raw_p_theory
    keeps the unclamped approximation.  Reals carry 17 significant digits,
    line endings are LF."""
    fh.write("# replicas=%d seed=%d regime=%s coef=%s\n"
             % (est.replicas, est.seed, est.tail.regime, fmt(est.tail.coef)))
    fh.write(",".join(TAIL_CSV_COLUMNS) + "\n")
    columns = (est.t, est.p_emp, est.p_theory, est.se, est.raw_theory)
    write_rows(fh, ((t, math.log10(t), p, _log10_or_ninf(p), q, _log10_or_ninf(q), se, raw)
                    for t, p, q, se, raw in zip(*(c.tolist() for c in columns))))


def write_risk_csv(rows, fh):
    """CSV dump of a calibration run: a '# skipped' line when a row is,
    then columns a, t_eta, risk_hat, se, with NaN slots on skipped rows;
    17 significant digits, LF line endings."""
    skipped = [row.a for row in rows if row.skipped]
    if skipped:
        fh.write("# skipped (need a > a0): %s\n" % " ".join(fmt(a) for a in skipped))
    fh.write(",".join(RISK_CSV_COLUMNS) + "\n")
    write_rows(fh, ((row.a, row.t_eta, row.risk_hat, row.se) for row in rows))
