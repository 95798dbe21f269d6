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
                                              |C_ij + C_ji|^alpha.

The classifier reads a form only through its diagonal, the couplings of
its zero-diagonal rows and whether it is zero (see ar_quadform), so the
structured AR forms are classified without an n x n array.

The AR(1) specializations (upper and lower tails of n gamma_n(k), the
studentized lag-1 test statistic, approximate critical values) are written
out in closed power-sum form so they are exact at a = +-1 too.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ar_quadform import (ArForm, ArModel, QuadForm, autocov_form, pivot_form,
                          power_sums)
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
        if self.regime in COEF_REGIMES:
            if self.coef is None or not self.coef >= 0.0:
                raise ValueError("need coef > 0 in regime %s" % self.regime)
            if self.coef == 0.0:
                raise ValueError("coef underflows a double in regime %s"
                                 % self.regime)
            if not math.isfinite(self.coef):
                raise ValueError("coef overflows a double in regime %s"
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


def _power_half_coef(pos, alpha):
    """2 k_s alpha^((alpha-1)/2) sum_j pos_j^(alpha/2) over positive entries."""
    with np.errstate(over="ignore"):  # an infinite sum reaches TailLaw's check
        body = float(np.sum(pos ** (alpha / 2.0)))
    return 2.0 * tail_constant(make_law(alpha)) * body


def _coupling_sum(form, zero, alpha, witnesses):
    """sum_{i: C_ii = 0} sum_{j != i} |C_ij + C_ji|^alpha and, with
    witnesses, the distinct pairs (i, j), i < j, with a nonzero coupling on
    a zero-diagonal row, read chunk by chunk from form.couplings."""
    n = form.n
    total = 0.0
    keys = []
    for at, chunk in form.couplings(np.flatnonzero(zero)):
        if witnesses:
            row, col = np.nonzero(chunk)
            i = at[row]
            keys.append(np.minimum(i, col) * n + np.maximum(i, col))
        # in place, the chunk being ours; **= keeps the bits of ** (its fast
        # paths included)
        np.abs(chunk, out=chunk)
        with np.errstate(over="ignore"):  # an infinite sum reaches TailLaw's check
            chunk **= alpha
        total += float(np.sum(chunk))
    if not witnesses:
        return total, None
    keys = np.unique(np.concatenate(keys))
    return total, tuple(zip((keys // n).tolist(), (keys % n).tolist()))


def coef_positive_case(c, alpha):
    """PowerHalf coefficient 2 k_s alpha^((alpha-1)/2) sum_{j: C_jj>0} C_jj^(alpha/2)."""
    diag = _form(c).diagonal()
    pos = diag[_diag_signs(diag)[0]]
    if pos.size == 0:
        raise ValueError("need a positive diagonal entry")
    return _power_half_coef(pos, float(alpha))


def coef_degenerate_case(c, alpha):
    """PowerLog coefficient
    k_s^2 alpha^alpha sum_{i: C_ii=0} sum_{j!=i} |C_ij+C_ji|^alpha."""
    form = _form(c)
    pos, zero, _ = _diag_signs(form.diagonal())
    if pos.any():
        raise ValueError("need no positive diagonal entry")
    if not zero.any():
        raise ValueError("need a vanishing diagonal entry")
    total = _coupling_sum(form, zero, float(alpha), witnesses=False)[0]
    return _power_log_scale(make_law(alpha)) * total


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
        return (DegeneracyClass(1, witness),
                TailLaw(POWER_HALF, alpha, coef=_power_half_coef(diag[pos], alpha)))

    if form.is_zero(tol):
        return (DegeneracyClass("gt2", ()),
                TailLaw(ZERO, alpha, note="the form is identically zero"))

    if zero.any():
        coupled, pairs = _coupling_sum(form, zero, alpha, witnesses)
        if coupled > 0.0:
            return (DegeneracyClass(2, pairs or ()),
                    TailLaw(POWER_LOG, alpha,
                            coef=_power_log_scale(make_law(alpha)) * coupled))
        return (DegeneracyClass("gt2", ()),
                TailLaw(SUB_POWER, alpha,
                        note="zero max diagonal with no symmetrized coupling "
                             "on the zero-diagonal rows"))

    # all diagonal entries strictly negative: a dense form, since every
    # ArForm has a zero last diagonal entry
    m = form.entries
    sym = (m + m.T) / 2.0
    half = np.diag(sym)
    # pairs i < j, row-major; float_power is libm pow, the square the scalar
    # test sym[i, j] ** 2 takes
    rows, cols = np.nonzero(np.triu(np.float_power(sym, 2.0)
                                    > np.multiply.outer(half, half), 1))
    if rows.size:
        return (DegeneracyClass(2, tuple(zip(rows.tolist(), cols.tolist()))),
                TailLaw(ORDER_ONLY, alpha,
                        note="negative diagonals with an indefinite coordinate "
                             "pair; exact order t^(-alpha), no closed coefficient"))
    return (DegeneracyClass("gt2", ()),
            TailLaw(SUB_POWER, alpha, note="no coordinate pair carries positive energy"))


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


def _power_half_sum(law, base, power, sums):
    """PowerHalf TailLaw with coefficient 2 tail_constant lead sum_p p^(alpha/2)
    over the power sums in the order given, with lead = base ** power; the
    caller picks the split, as (|a|^k)^(alpha/2) and |a|^(k alpha/2) differ
    in the last bits."""
    scale = tail_constant(law)
    with _coef_overflow(POWER_HALF):
        lead = base ** power
        body = sum(p ** (law.alpha / 2.0) for p in sums)
    return TailLaw(POWER_HALF, law.alpha, coef=scale * 2.0 * lead * body)


def ar1_upper_tail(a, n, k, alpha):
    """TailLaw of P{n gamma_n(k) >= t} for an AR(1) model with coefficient a.

    Even lag or a > 0 is PowerHalf with the power-sum diagonal entries;
    a = 0 with k >= 1 is PowerLog with 2 (n - k) unit couplings; odd lag
    with a < 0 is PowerLog, its coefficient read from the structured form
    (the couplings of the last k rows, and of any row whose diagonal the
    zero rule counts as zero when |a| > 1); k >= n makes the form
    identically zero.
    """
    a = float(a)
    alpha = float(alpha)
    n = int(n)
    k = int(k)
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        raise ValueError("need k >= 0")
    law = make_law(alpha)
    if k >= n:
        return TailLaw(ZERO, alpha, note="lag at or beyond the path length")
    if a == 0.0 and k > 0:
        # the form is the lag-k shift: every diagonal entry vanishes and
        # C + C^T holds 2 (n - k) unit couplings
        return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * 2.0 * (n - k))
    if k % 2 == 0 or a > 0.0:
        # at a = 0, k = 0 every power sum is 1 and the lead 0^0 = 1
        return _power_half_sum(law, abs(a), k * alpha / 2.0,
                               power_sums(a * a, n - k))
    # odd lag, a < 0: diagonal entries vanish on the last k rows
    return tail_law(autocov_form(ArModel((a,), n), k), alpha)


def ar1_lower_tail(a, n, alpha):
    """TailLaw of the lower tail P{n gamma_n(1) <= -t} for a < 0:

        coef = k_s alpha^((alpha-1)/2) * 2 |a|^(alpha/2)
               * sum_{i=1}^{n-1} (sum_{j=0}^{n-i-1} a^(2j))^(alpha/2).
    """
    a = float(a)
    alpha = float(alpha)
    n = int(n)
    if not a < 0.0:
        raise ValueError("need a < 0")
    if n < 1:
        raise ValueError("need n >= 1")
    law = make_law(alpha)
    if n == 1:
        return TailLaw(ZERO, alpha, note="lag 1 at path length 1; the form is zero")
    return _power_half_sum(law, abs(a), alpha / 2.0,
                           reversed(power_sums(a * a, n - 1)))


def test_stat_tail(a, a0, n, alpha):
    """TailLaw of P{n (gamma_n(1) - a0 hat_gamma_n(0)) >= t} for AR(1)
    coefficient a and reference value a0.

    The regime comes from the classifier's zero rule (_diag_signs) on the
    closed pivot diagonal C_ii = (a - a0) S_i, S_i = sum_{j<n-i} a^(2j) for
    i < n, and C_nn = 0.  A positive entry (a > a0) gives PowerHalf,

        2 k_s alpha^((alpha-1)/2) (a-a0)^(alpha/2) sum_{i: C_ii > 0} S_i^(alpha/2);

    an all-zero diagonal (a = a0, or a - a0 inside the tolerance) gives
    PowerLog with the couplings |C_ij + C_ji| = |a|^(|i-j|-1) of a = a0,

        k_s^2 alpha^alpha 2 sum_{m=1}^{n-1} (n-m) |a|^((m-1) alpha),  0^0 = 1;

    a < a0 goes to the classifier on the structured pivot form, which finds
    PowerLog: C_nn = 0 couples to row n - 1 - m through psi_m = a^m, and for
    |a| > 1 the rows whose small diagonal counts as zero add theirs.
    """
    a = float(a)
    a0 = float(a0)
    alpha = float(alpha)
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    law = make_law(alpha)
    sums = power_sums(a * a, n - 1)[::-1]  # S_1 >= ... >= S_{n-1} = 1
    if not math.isfinite((a - a0) * sums[0]):
        raise OverflowError("pivot form overflows a double at a=%r, n=%d" % (a, n))
    diag = np.append(np.multiply(a - a0, sums), 0.0)
    pos, zero, _ = _diag_signs(diag)
    if pos.any():
        return _power_half_sum(law, a - a0, alpha / 2.0,
                               [s for s, keep in zip(sums, pos) if keep])
    if zero.all():
        with _coef_overflow(POWER_LOG):
            body = sum((n - m) * abs(a) ** ((m - 1) * alpha) for m in range(1, n))
        return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * 2.0 * body)
    return tail_law(pivot_form(a, a0, n), alpha)


def critical_value(a, a0, n, alpha, eta):
    """Threshold t with first-order size eta for the one-sided test of a0
    against the alternative a, valid for 0 <= a0 < a:

        t_eta = (coef(a) / eta)^(2/alpha)

    with coef(a) the PowerHalf coefficient of test_stat_tail.
    """
    a = float(a)
    a0 = float(a0)
    if not 0.0 <= a0 < a:
        raise ValueError("need 0 <= a0 < a")
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError("need 0 < eta < 1")
    coef = test_stat_tail(a, a0, n, alpha).coef
    return (coef / eta) ** (2.0 / float(alpha))


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
