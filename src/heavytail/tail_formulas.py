"""Tail regimes and first-order coefficients for heavy-tailed quadratic forms.

For eps with independent Student-like coordinates of tail index alpha and a
real n x n matrix C, the upper tail P{eps^T C eps >= t} falls, to first
order as t -> oo, into one of five regimes:

    PowerHalf : coef * t^(-alpha/2)         some diagonal entry is positive
    PowerLog  : coef * t^(-alpha) * log t   max diagonal entry is zero, with a
                                            nonzero symmetrized coupling on a
                                            zero-diagonal row
    OrderOnly : Theta(t^(-alpha))           all diagonals negative but some
                                            coordinate pair is indefinite
    SubPower  : o(t^(-alpha))               no coordinate pair carries
                                            positive energy
    Zero      : the form is identically 0

with coefficients

    PowerHalf coef = k_s alpha^((alpha-1)/2) * 2 * sum_{j: C_jj > 0} C_jj^(alpha/2)
    PowerLog  coef = k_s^2 alpha^alpha * sum_{i: C_ii = 0} sum_{j != i}
                                              |2 S_ij|^alpha

for S = (C + C^T) / 2.  The classifier reads a form only through its
diagonal, the rows of S on its zero-diagonal rows (on every row, when all
diagonal entries are negative) and whether it is zero (see ar_quadform),
one row at a time, so no form is classified through an n x n temporary.

The AR(1) specializations (upper and lower tails of n gamma_n(k), the
studentized lag-1 test statistic, approximate critical values) are written
out in closed power-sum form, exact at a = +-1 too; the test statistic's
law is closed for every (a, a0), its PowerLog sum taken in O(n) from the
closed couplings.  statistic_tail is the one route from an AR path
statistic to its law: a closed form or the classifier.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ar_quadform import (ArForm, ArModel, QuadForm, Statistic, check_a0, check_int,
                          pivot_diagonal, power_sums)
from .student_dist import make_law, tail_constant

POWER_HALF = "PowerHalf"
POWER_LOG = "PowerLog"
ORDER_ONLY = "OrderOnly"
SUB_POWER = "SubPower"
ZERO = "Zero"

REGIMES = (POWER_HALF, POWER_LOG, ORDER_ONLY, SUB_POWER, ZERO)

# regimes whose first-order approximation carries an explicit coefficient
COEF_REGIMES = (POWER_HALF, POWER_LOG)


@dataclass(frozen=True)
class TailLaw:
    """One classified tail: regime, tail index, and coefficient if it exists."""

    regime: str
    alpha: float
    coef: float = None
    note: str = ""

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError("need a regime among %s" % (REGIMES,))
        if not self.alpha > 0.0:
            raise ValueError("need alpha > 0")
        if self.coef is not None:  # a numpy scalar would print as np.float64(...)
            object.__setattr__(self, "coef", float(self.coef))
        if self.regime in COEF_REGIMES:
            if self.coef is None or not self.coef >= 0.0:
                raise ValueError("need coef > 0 in regime %s" % self.regime)
            if self.coef == 0.0:
                raise ValueError("coef underflows a double in regime %s"
                                 % self.regime)
            if not math.isfinite(self.coef):
                raise OverflowError("coef overflows a double in regime %s"
                                    % self.regime)
        elif self.coef is not None:
            raise ValueError("regime %s carries no coefficient" % self.regime)


@dataclass(frozen=True)
class DegeneracyClass:
    """Smallest coordinate-subset size that carries positive energy.

    n_of_c is 1, 2, or the marker "gt2"; j_sets holds the witnesses found:
    singletons with positive diagonal when n_of_c = 1, coordinate pairs when
    n_of_c = 2, empty otherwise.
    """

    n_of_c: object
    j_sets: tuple

    def __post_init__(self):
        if self.n_of_c not in (1, 2, "gt2"):
            raise ValueError('need n_of_c in (1, 2, "gt2")')
        object.__setattr__(self, "j_sets", tuple(tuple(s) for s in self.j_sets))


def _form(c):
    """The classifier's view of c: a QuadForm or ArForm as it is, any other
    square array-like as a QuadForm (a checked copy)."""
    if isinstance(c, (QuadForm, ArForm)):
        return c
    m = np.asarray(c, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    return QuadForm(m.shape[0], m)


def _diag_signs(diag):
    """(positive mask, zero mask, tol) of a form's diagonal: entries within
    the absolute tolerance tol = 1e-12 max(1, max |C_ii|) count as zero."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(diag))) if diag.size else 0.0)
    return diag > tol, np.abs(diag) <= tol, tol


def _coupling_sum(form, zero, alpha, witnesses):
    """sum_{i: C_ii = 0} sum_{j != i} |2 S_ij|^alpha and the distinct pairs
    (i, j), i < j, with a nonzero coupling on a zero-diagonal row (none
    without witnesses), read row by row from form.couplings.  The row sums
    are added exactly rounded (math.fsum), so their order does not matter."""
    n = form.n
    sums, keys = [], [np.empty(0, dtype=np.int64)]
    for i, row in form.couplings(np.flatnonzero(zero)):
        if witnesses:
            j = np.flatnonzero(row)
            j = j[(j > i) | ~zero[j]]  # a pair of zero rows from the lower one
            keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        # in place, the row being ours; doubling is exact above the
        # subnormals and **= keeps the bits of ** (its fast paths included)
        np.abs(row, out=row)
        with np.errstate(over="ignore"):  # an infinite sum reaches TailLaw's check
            if alpha < 1.0:  # from 2^1023 on 2 |S_ij| overflows, 2^alpha |S_ij|^alpha need not
                over = row >= 2.0 ** 1023
                big = row[over] ** alpha * 2.0 ** alpha
            row *= 2.0
            row **= alpha
            if alpha < 1.0:
                row[over] = big
            sums.append(float(np.sum(row)))
    try:
        total = math.fsum(sums)
    except OverflowError:  # finite row sums past a double's range together
        total = math.inf
    keys = np.sort(np.concatenate(keys))
    return total, tuple(zip((keys // n).tolist(), (keys % n).tolist()))


def classify(c, alpha):
    """DegeneracyClass and TailLaw of P{eps^T C eps >= t}, for c a QuadForm,
    an ArForm or a square array.

    Decision order: a positive diagonal entry gives PowerHalf; with the max
    diagonal entry zero (within an absolute tolerance of 1e-12 times the
    diagonal scale), a nonzero symmetrized coupling on a zero-diagonal row
    gives PowerLog, an all-zero matrix gives Zero, and no coupling gives
    SubPower; with all diagonals negative, a coordinate pair (i, j) whose
    symmetrized 2 x 2 block is indefinite (S_ij^2 > S_ii S_jj) gives
    OrderOnly, else SubPower.  A diagonal entry the tolerance counts as
    zero counts as zero in the PowerLog sum too: its row's term j = i is
    left out.
    """
    return _classify(_form(c), alpha, witnesses=True)


def tail_law(c, alpha):
    """The TailLaw of classify(c, alpha) without its witnesses, so that an
    ArForm is classified in the memory of its own reads."""
    return _classify(_form(c), alpha, witnesses=False)[1]


def _classify(form, alpha, witnesses):
    """classify on a form; without witnesses the DegeneracyClass carries no
    witness tuple."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError("need alpha > 0")
    diag = form.diagonal()
    pos, zero, tol = _diag_signs(diag)
    if pos.any():
        witness = (tuple((int(j),) for j in np.flatnonzero(pos))
                   if witnesses else ())
        with np.errstate(over="ignore"):  # an infinite sum reaches TailLaw's check
            body = float(np.sum(diag[pos] ** (alpha / 2.0)))
        return (DegeneracyClass(1, witness),
                TailLaw(POWER_HALF, alpha,
                        coef=2.0 * tail_constant(make_law(alpha)) * body))

    if form.is_zero(tol):
        return (DegeneracyClass("gt2", ()),
                TailLaw(ZERO, alpha, note="the form is identically zero"))

    if zero.any():
        coupled, pairs = _coupling_sum(form, zero, alpha, witnesses)
        if coupled > 0.0:
            return (DegeneracyClass(2, pairs),
                    TailLaw(POWER_LOG, alpha,
                            coef=_power_log_scale(make_law(alpha)) * coupled))
        return (DegeneracyClass("gt2", ()),
                TailLaw(SUB_POWER, alpha,
                        note="zero max diagonal with no symmetrized coupling "
                             "on the zero-diagonal rows"))

    # all diagonal entries strictly negative: an indefinite coordinate pair
    keys = _indefinite_pairs(form, diag)
    n = form.n
    if keys.size:
        return (DegeneracyClass(2, tuple(zip((keys // n).tolist(), (keys % n).tolist()))),
                TailLaw(ORDER_ONLY, alpha,
                        note="negative diagonals with an indefinite coordinate "
                             "pair; exact order t^(-alpha), no closed coefficient"))
    return (DegeneracyClass("gt2", ()),
            TailLaw(SUB_POWER, alpha, note="no coordinate pair carries positive energy"))


# a power of two that brings S_ij^2 and C_ii C_jj of any finite S_ij, C_ii and
# C_jj into range, and a side that overflowed back to 1/8 or more
_PAIR_SHRINK = 2.0 ** -513


def _indefinite_pairs(form, diag):
    """Sorted keys i n + j of the pairs i < j of an all-negative diagonal with
    S_ij^2 > C_ii C_jj, S_ij squared by libm pow as the scalar S_ij ** 2.  A
    side that overflows alone decides its pair as inf against a finite
    side; a pair where both do is decided again on S_ij, C_ii and C_jj times
    _PAIR_SHRINK, exactly: a factor the shrink pushes below the normal
    doubles sits on a side less than 2^-500 times the other."""
    n = form.n
    keys = [np.empty(0, dtype=np.int64)]
    with np.errstate(over="ignore"):
        wide = math.isinf(diag.min() * diag.min())  # can any C_ii C_jj overflow?
        for i, row in form.couplings(range(n - 1)):
            half = row[i + 1:]
            square = np.float_power(half, 2.0)
            energy = diag[i] * diag[i + 1:]
            hit = square > energy
            if wide and math.isinf(square.max(initial=0.0)):
                over = np.isinf(square) & np.isinf(energy)
                hit[over] = (np.float_power(half[over] * _PAIR_SHRINK, 2.0)
                             > (diag[i] * _PAIR_SHRINK) * (diag[i + 1:][over] * _PAIR_SHRINK))
            keys.append(i * n + i + 1 + np.flatnonzero(hit))
    return np.sort(np.concatenate(keys))


@contextmanager
def _coef_overflow(regime):
    """Name a float power that overflows while a coefficient of the regime is
    built; a product that reaches inf instead meets TailLaw's own check."""
    try:
        yield
    except OverflowError:
        raise OverflowError("coef overflows a double in regime %s" % regime) from None


def _power_log_scale(law):
    with _coef_overflow(POWER_LOG):
        return law.k_s ** 2 * law.alpha ** law.alpha


def _power_half_sum(law, base, power, sums, factor):
    """PowerHalf TailLaw, coefficient 2 tail_constant base^power sum_p p^(alpha/2)
    over the power sums, in order, whose closed diagonal entry factor * p the
    zero rule counts positive; None where it counts none.  An entry past a
    double leaves the rule's tolerance infinite, so there every positive
    entry counts.  The caller picks the split, as (|a|^k)^(alpha/2) and
    |a|^(k alpha/2) differ in the last bits."""
    with np.errstate(over="ignore"):
        diag = np.multiply(factor, sums)
    pos = diag > 0.0 if np.isposinf(diag).any() else _diag_signs(diag)[0]
    if not pos.any():
        return None
    scale = tail_constant(law)
    with _coef_overflow(POWER_HALF):
        lead = base ** power
        body = sum(p ** (law.alpha / 2.0) for p, keep in zip(sums, pos.tolist()) if keep)
    return TailLaw(POWER_HALF, law.alpha, coef=scale * 2.0 * lead * body)


def ar1_upper_tail(a, n, k, alpha):
    """TailLaw of P{n gamma_n(k) >= t} for an AR(1) model with coefficient a.

    The diagonal entries a^k S(m), m = 1 .. n - k, that the zero rule
    counts positive give PowerHalf; a = 0 with k >= 1 is PowerLog with
    2 (n - k) unit couplings.  A lag k < n with no positive entry reads its
    couplings: at k = 1 by the pivot's closed O(n) law at a0 = 0
    (test_stat_tail), as A^T B A is that form, at k >= 2 from the
    structured form; k >= n makes the form identically zero.
    """
    a = float(a)
    alpha = float(alpha)
    model = ArModel((a,), n)
    n, k = model.n, Statistic(model, k=k).k
    law = make_law(alpha)
    if k >= n:
        return TailLaw(ZERO, alpha, note="lag at or beyond the path length")
    if a == 0.0 and k > 0:
        # the form is the lag-k shift: every diagonal entry vanishes and
        # C + C^T holds 2 (n - k) unit couplings
        return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * 2.0 * (n - k))
    sums = power_sums(a * a, n - k)
    half = _power_half_sum(law, abs(a), k * alpha / 2.0, sums, np.float_power(a, k))
    if half is not None:
        return half
    if k == 1:  # A^T B A is the pivot form at a0 = 0; its overflow names lag 1
        if not math.isfinite(a * sums[-1]):
            raise OverflowError("lag-1 form overflows a double at a=%r, n=%d" % (a, n))
        return test_stat_tail(a, 0.0, n, alpha)
    # no closed sum over the |i - j| < k band of a zero diagonal
    return tail_law(ArForm(model, k), alpha)


def ar1_lower_tail(a, n, alpha):
    """TailLaw of the lower tail P{n gamma_n(1) <= -t} for a < 0, PowerHalf
    over the entries |a| S_i of -C's diagonal the zero rule counts positive,

        coef = k_s alpha^((alpha-1)/2) * 2 |a|^(alpha/2)
               * sum_{i: |a| S_i > 0} S_i^(alpha/2),  S_i = sum_{j<n-i} a^(2j);

    with none, -C has the zero rows and |couplings| of test_stat_tail(a, 0)."""
    a = float(a)
    alpha = float(alpha)
    if not a < 0.0:
        raise ValueError("need a < 0")
    n = ArModel((a,), n).n
    law = make_law(alpha)
    if n == 1:
        return TailLaw(ZERO, alpha, note="lag 1 at path length 1; the form is zero")
    sums = power_sums(a * a, n - 1)[::-1]
    half = _power_half_sum(law, abs(a), alpha / 2.0, sums, abs(a))
    return test_stat_tail(a, 0.0, n, alpha) if half is None else half


def test_stat_tail(a, a0, n, alpha):
    """TailLaw of P{n (gamma_n(1) - a0 hat_gamma_n(0)) >= t} for AR(1)
    coefficient a and reference value a0.

    The regime comes from the classifier's zero rule (_diag_signs) on the
    closed diagonal C_ii = (a - a0) S(n-1-i), 0-based, S(m) = sum_{t<m} a^(2t).
    A positive entry (a > a0) gives PowerHalf,

        2 k_s alpha^((alpha-1)/2) (a-a0)^(alpha/2) sum_{i: C_ii > 0} S(n-1-i)^(alpha/2);

    else the rows Z counted as zero (the last one always) give PowerLog, by
    the closed couplings (C + C^T)_ij = a^(|i-j|-1) (1 + 2a(a-a0) S(n-1-max(i, j))).
    With r = |a|^alpha and h_i = |1 + 2a(a-a0) S(n-1-i)|^alpha, in O(n),

        coef = k_s^2 alpha^alpha sum_{i in Z} (h_i P_i + T_i),
        P_i = sum_{m<i} r^m,  T_i = sum_{j>i} r^(j-i-1) h_j = h_{i+1} + r T_{i+1},

    with 0^0 = 1 and a product with an exact-zero factor counted as 0.
    """
    a = float(a)
    a0 = check_a0(a0)
    alpha = float(alpha)
    n = check_pivot_n(n)
    law = make_law(alpha)
    sums, diag = pivot_diagonal(a, a0, n)
    half = _power_half_sum(law, a - a0, alpha / 2.0, sums, a - a0)
    if half is not None:
        return half
    zero = _diag_signs(diag)[1]  # with C_nn = 0, the rows the PowerLog sum reads
    with _coef_overflow(POWER_LOG):
        ratio = abs(a) ** alpha
        with np.errstate(over="ignore"):  # an infinite sum reaches TailLaw's check
            heights = np.abs(1.0 + np.multiply(2.0 * a * (a - a0), sums)) ** alpha
        heights = heights.tolist() + [1.0]  # S(0) = 0 on the last row
        heads = [0.0] + power_sums(ratio, n - 1)
        body = tail = 0.0
        for h, p, z in zip(heights[::-1], heads[::-1], zero[::-1].tolist()):
            if z:
                body += tail + (h * p if h and p else 0.0)
            tail = h + ratio * tail
    return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * body)


def statistic_tail(stat, alpha):
    """TailLaw of the Statistic stat, a lag or a pivot: test_stat_tail for a
    pivot, ar1_upper_tail for an AR(1) lag, else the ArForm classifier."""
    model = stat.model
    if stat.a0 is not None:
        return test_stat_tail(model.theta[0], stat.a0, model.n, alpha)
    if model.p == 1:
        return ar1_upper_tail(model.theta[0], model.n, stat.k, alpha)
    return tail_law(ArForm(model, stat.k), alpha)


def check_pivot_n(n):
    """n as an int, checked as the length of a pivot path: n >= 2."""
    n = check_int(n, "n")
    if n < 2:
        raise ValueError("need n >= 2")
    return n


def check_eta(eta):
    """eta as a float, checked as the size of a test: 0 < eta < 1."""
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError("need 0 < eta < 1")
    return eta


def check_span(name, lo, hi):
    """(lo, hi) as floats, checked as the ends of a range: finite, with a
    span hi - lo that does not overflow a double."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(hi - lo):
        raise ValueError("need finite %s_min, %s_max and %s_max - %s_min" % ((name,) * 4))
    return lo, hi


def critical_value(a, a0, n, alpha, eta):
    """Threshold t with first-order size eta for the one-sided test of a0
    against the alternative a, valid for 0 <= a0 < a:

        t_eta = (coef(a) / eta)^(2/alpha)

    with coef(a) the PowerHalf coefficient of test_stat_tail: another regime
    raises ValueError, a threshold too large for a double OverflowError.
    """
    a = float(a)
    a0 = float(a0)
    if not 0.0 <= a0 < a:
        raise ValueError("need 0 <= a0 < a")
    eta = check_eta(eta)
    law = test_stat_tail(a, a0, n, alpha)
    if law.regime != POWER_HALF:
        raise ValueError("need a PowerHalf law to invert at a=%r, not %s" % (a, law.regime))
    try:
        t = (law.coef / eta) ** (2.0 / float(alpha))
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise OverflowError("critical value overflows a double at a=%r, eta=%r"
                            % (a, eta)) from None
    return t


def evaluate(tail, t):
    """Raw first-order tail approximation at threshold t (not clamped to [0, 1]).

    PowerHalf needs t > 0, PowerLog needs t > e (so log t > 1), Zero returns
    0.0 for any t > 0; OrderOnly and SubPower carry no coefficient and raise.
    A value too large for a double raises OverflowError.
    """
    t = float(t)
    if tail.regime == POWER_HALF:
        if not t > 0.0:
            raise ValueError("need t > 0")
        value = tail.coef * t ** (-tail.alpha / 2.0)
    elif tail.regime == POWER_LOG:
        if not t > math.e:
            raise ValueError("need t > e in the PowerLog regime")
        value = tail.coef * math.log(t) * t ** (-tail.alpha)
    elif tail.regime == ZERO:
        if not t > 0.0:
            raise ValueError("need t > 0")
        return 0.0
    else:
        raise ValueError("regime %s carries no coefficient" % tail.regime)
    if not math.isfinite(value):
        raise OverflowError("tail approximation overflows at t=%r" % t)
    return value
