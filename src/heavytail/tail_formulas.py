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
    PowerLog  coef = k_s^2 alpha^alpha * sum_{i: C_ii = 0} sum_j |C_ij + C_ji|^alpha.

The AR(1) specializations (upper and lower tails of n gamma_n(k), the
studentized lag-1 test statistic, approximate critical values) are written
out in closed power-sum form so they are exact at a = +-1 too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ar_quadform import (QuadForm, ar1_offdiag_closed, power_sums,
                          test_matrix)
from .student_dist import make_law

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


def _entries(c):
    """Accept a QuadForm or any square array-like; return the dense matrix."""
    if isinstance(c, QuadForm):
        return c.entries
    m = np.asarray(c, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    return m


def _diag_zero_tol(diag):
    """Absolute tolerance deciding which diagonal entries count as zero."""
    top = float(np.max(np.abs(diag))) if diag.size else 0.0
    return 1e-12 * max(1.0, top)


def coef_positive_case(c, alpha):
    """PowerHalf coefficient 2 k_s alpha^((alpha-1)/2) sum_{j: C_jj>0} C_jj^(alpha/2)."""
    m = _entries(c)
    alpha = float(alpha)
    diag = np.diag(m)
    pos = diag[diag > _diag_zero_tol(diag)]
    if pos.size == 0:
        raise ValueError("need a positive diagonal entry")
    law = make_law(alpha)
    scale = law.k_s * alpha ** ((alpha - 1.0) / 2.0)
    return 2.0 * scale * float(np.sum(pos ** (alpha / 2.0)))


def coef_degenerate_case(c, alpha):
    """PowerLog coefficient k_s^2 alpha^alpha sum_{i: C_ii=0} sum_j |C_ij+C_ji|^alpha."""
    m = _entries(c)
    alpha = float(alpha)
    diag = np.diag(m)
    tol = _diag_zero_tol(diag)
    if np.any(diag > tol):
        raise ValueError("need no positive diagonal entry")
    zero_rows = np.flatnonzero(np.abs(diag) <= tol)
    if zero_rows.size == 0:
        raise ValueError("need a vanishing diagonal entry")
    sym = m + m.T
    total = float(np.sum(np.abs(sym[zero_rows, :]) ** alpha))
    law = make_law(alpha)
    return law.k_s ** 2 * alpha ** alpha * total


def _upper_pairs(mask):
    """Index pairs (i, j), i < j, where the square mask holds, row-major."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return tuple(zip(rows.tolist(), cols.tolist()))


def classify(c, alpha):
    """DegeneracyClass and TailLaw of P{eps^T C eps >= t}.

    Decision order: a positive diagonal entry gives PowerHalf; with the max
    diagonal entry zero (within an absolute tolerance of 1e-12 times the
    diagonal scale), a nonzero symmetrized coupling on a zero-diagonal row
    gives PowerLog, an all-zero matrix gives Zero, and no coupling gives
    SubPower; with all diagonals negative, a coordinate pair (i, j) whose
    symmetrized 2 x 2 block is indefinite (S_ij^2 > S_ii S_jj) gives
    OrderOnly, else SubPower.
    """
    m = _entries(c)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError("need alpha > 0")
    diag = np.diag(m)
    tol = _diag_zero_tol(diag)

    pos = np.flatnonzero(diag > tol)
    if pos.size:
        witnesses = tuple((int(j),) for j in pos)
        return (DegeneracyClass(1, witnesses),
                TailLaw(POWER_HALF, alpha, coef=coef_positive_case(m, alpha)))

    if float(np.max(np.abs(m))) <= tol:
        return (DegeneracyClass("gt2", ()),
                TailLaw(ZERO, alpha, note="the form is identically zero"))

    zero = np.abs(diag) <= tol
    zero_rows = np.flatnonzero(zero)
    if zero_rows.size:
        sym = m + m.T
        coupled = float(np.sum(np.abs(sym[zero_rows, :]) ** alpha))
        if coupled > 0.0:
            # sym is symmetric, so the upper triangle lists each pair once
            pairs = _upper_pairs((zero[:, None] | zero[None, :]) & (sym != 0.0))
            return (DegeneracyClass(2, pairs),
                    TailLaw(POWER_LOG, alpha, coef=coef_degenerate_case(m, alpha)))
        return (DegeneracyClass("gt2", ()),
                TailLaw(SUB_POWER, alpha,
                        note="zero max diagonal with no symmetrized coupling "
                             "on the zero-diagonal rows"))

    # all diagonal entries strictly negative
    sym = (m + m.T) / 2.0
    half = np.diag(sym)
    # float_power is libm pow, the square the scalar test sym[i, j] ** 2 takes
    pairs = _upper_pairs(np.float_power(sym, 2.0) > np.multiply.outer(half, half))
    if pairs:
        return (DegeneracyClass(2, pairs),
                TailLaw(ORDER_ONLY, alpha,
                        note="negative diagonals with an indefinite coordinate "
                             "pair; exact order t^(-alpha), no closed coefficient"))
    return (DegeneracyClass("gt2", ()),
            TailLaw(SUB_POWER, alpha, note="no coordinate pair carries positive energy"))


def _power_half_scale(law):
    return law.k_s * law.alpha ** ((law.alpha - 1.0) / 2.0)


def _power_log_scale(law):
    return law.k_s ** 2 * law.alpha ** law.alpha


def ar1_upper_tail(a, n, k, alpha):
    """TailLaw of P{n gamma_n(k) >= t} for an AR(1) model with coefficient a.

    Closed forms throughout: even lag or a > 0 is PowerHalf with the
    power-sum diagonal entries; a = 0 with k >= 1 is PowerLog with 2 (n - k)
    unit couplings, and odd lag with a < 0 is PowerLog with the closed-form
    entries fed into the degenerate-case sum;
    k >= n makes the form identically zero.
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
    if a == 0.0 and k == 0:
        return TailLaw(POWER_HALF, alpha, coef=_power_half_scale(law) * 2.0 * n)
    if a == 0.0:
        # the form is the lag-k shift: every diagonal entry vanishes and
        # C + C^T holds 2 (n - k) unit couplings
        return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * 2.0 * (n - k))
    if k % 2 == 0 or a > 0.0:
        body = sum(p ** (alpha / 2.0) for p in power_sums(a * a, n - k))
        coef = _power_half_scale(law) * 2.0 * abs(a) ** (k * alpha / 2.0) * body
        return TailLaw(POWER_HALF, alpha, coef=coef)
    # odd lag, a < 0: diagonal entries vanish on the last k rows
    total = 0.0
    for i in range(n - k + 1, n + 1):
        for j in range(1, n + 1):
            coupling = (ar1_offdiag_closed(a, n, k, i, j)
                        + ar1_offdiag_closed(a, n, k, j, i))
            total += abs(coupling) ** alpha
    return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * total)


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
    body = sum(p ** (alpha / 2.0) for p in reversed(power_sums(a * a, n - 1)))
    coef = _power_half_scale(law) * 2.0 * abs(a) ** (alpha / 2.0) * body
    return TailLaw(POWER_HALF, alpha, coef=coef)


def test_stat_tail(a, a0, n, alpha):
    """TailLaw of P{n (gamma_n(1) - a0 hat_gamma_n(0)) >= t} for AR(1)
    coefficient a and reference value a0.

    a > a0 is PowerHalf with coefficient

        2 k_s alpha^((alpha-1)/2) (a-a0)^(alpha/2)
            * sum_{i=1}^{n-1} (sum_{j=0}^{n-i-1} a^(2j))^(alpha/2);

    a = a0 is PowerLog: the symmetrized couplings collapse to powers of a
    (|C_ij + C_ji| = |a|^(|i-j|-1), every i < j), giving

        2 k_s^2 alpha^alpha * sum_{m=1}^{n-1} (n-m) |a|^((m-1) alpha)

    with 0^0 = 1; a < a0 with a0 > 0 has exact order t^(-alpha) and no closed
    coefficient (OrderOnly); the remaining corner a < a0 <= 0 is handed to
    the general classifier.
    """
    a = float(a)
    a0 = float(a0)
    alpha = float(alpha)
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    law = make_law(alpha)
    if a > a0:
        body = sum(p ** (alpha / 2.0) for p in reversed(power_sums(a * a, n - 1)))
        coef = _power_half_scale(law) * 2.0 * (a - a0) ** (alpha / 2.0) * body
        return TailLaw(POWER_HALF, alpha, coef=coef)
    if a == a0:
        body = sum((n - m) * abs(a) ** ((m - 1) * alpha) for m in range(1, n))
        return TailLaw(POWER_LOG, alpha, coef=_power_log_scale(law) * 2.0 * body)
    if a0 > 0.0:
        return TailLaw(ORDER_ONLY, alpha,
                       note="a < a0 with a0 > 0: exact order t^(-alpha), "
                            "no closed coefficient")
    return classify(test_matrix(a, a0, n), alpha)[1]


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
