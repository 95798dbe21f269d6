import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import (ArForm, ArModel, QuadForm, Statistic, autocov_matrix,
                                   power_sum)
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.student_dist import make_law
from heavytail.tail_formulas import (ORDER_ONLY, POWER_HALF, POWER_LOG,
                                     SUB_POWER, ZERO, DegeneracyClass,
                                     TailLaw, ar1_lower_tail, ar1_upper_tail,
                                     classify, critical_value,
                                     _diag_signs, _power_log_scale, evaluate, statistic_tail,
                                     tail_law)
from heavytail.tail_formulas import test_stat_tail as stat_tail


def test_classify_identity_matrix():
    dc, law = classify(np.eye(4), 1.0)
    assert dc.n_of_c == 1
    assert dc.j_sets == ((0,), (1,), (2,), (3,))
    assert law.regime == POWER_HALF
    # 2 * k_s * alpha^0 * sum of four unit diagonals
    assert law.coef == pytest.approx(8.0 / math.pi, rel=1e-13)


def test_classify_shift_matrix():
    dc, law = classify(np.eye(10, k=-1), 1.0)
    assert dc.n_of_c == 2
    assert law.regime == POWER_LOG
    # 2 (n - k) couplings of unit size
    assert law.coef == pytest.approx(18.0 / math.pi ** 2, rel=1e-13)


def test_classify_negative_identity():
    dc, law = classify(-np.eye(3), 1.5)
    assert dc.n_of_c == "gt2"
    assert law.regime == SUB_POWER
    assert law.coef is None


def test_classify_zero_matrix():
    _, law = classify(np.zeros((4, 4)), 2.0)
    assert law.regime == ZERO
    assert evaluate(law, 100.0) == 0.0


def test_classify_indefinite_negative_pair():
    # diag all negative; off-diagonal energy wins iff S_ij^2 > S_ii S_jj
    strong = np.array([[-1.0, 2.0], [2.0, -1.0]])
    dc, law = classify(strong, 1.0)
    assert dc.n_of_c == 2
    assert dc.j_sets == ((0, 1),)
    assert law.regime == ORDER_ONLY
    weak = np.array([[-1.0, 0.5], [0.5, -1.0]])
    dc, law = classify(weak, 1.0)
    assert dc.n_of_c == "gt2"
    assert law.regime == SUB_POWER


def test_classify_mixed_zero_negative_pair():
    # q = -u^2 + u v: one vanishing diagonal coupled to a negative one
    c = np.array([[-1.0, 1.0], [0.0, 0.0]])
    dc, law = classify(c, 1.0)
    assert law.regime == POWER_LOG
    assert law.coef == pytest.approx(1.0 / math.pi ** 2, rel=1e-13)


def test_degenerate_constant_against_quadrature_oracle():
    # frozen oracle: P{-U^2 + U V >= t} for independent standard Cauchy U, V,
    # from adaptive quadrature of the exact two-dimensional integral
    oracle = {1e4: 9.332942e-05, 1e6: 1.399806e-06}
    _, law = classify(np.array([[-1.0, 1.0], [0.0, 0.0]]), 1.0)
    for t, want in oracle.items():
        assert evaluate(law, t) == pytest.approx(want, rel=1e-2)


def test_coef_positive_case_ignores_nonpositive_diagonals():
    c = np.diag([2.0, -3.0, 0.0, 1.0])
    got = classify(c, 2.0)[1].coef
    law = make_law(2.0)
    want = 2.0 * law.k_s * 2.0 ** 0.5 * (2.0 + 1.0)
    assert got == pytest.approx(want, rel=1e-13)


@given(alpha=st.floats(0.5, 5.0), seed=st.integers(0, 5_000),
       scale=st.floats(0.1, 10.0))
@settings(max_examples=150, deadline=None)
def test_classify_scale_covariance(alpha, seed, scale):
    # eps^T (s C) eps >= t is eps^T C eps >= t/s, so coefficients scale by
    # s^(alpha/2) in PowerHalf and s^alpha in PowerLog
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((4, 4))
    c[2, 2] = 0.0  # keep a vanishing diagonal around with fair odds
    _, base = classify(c, alpha)
    _, scaled = classify(scale * c, alpha)
    assert scaled.regime == base.regime
    if base.regime == POWER_HALF:
        assert scaled.coef == pytest.approx(base.coef * scale ** (alpha / 2.0),
                                            rel=1e-9)
    elif base.regime == POWER_LOG:
        assert scaled.coef == pytest.approx(base.coef * scale ** alpha, rel=1e-9)


@given(alpha=st.floats(0.5, 5.0), seed=st.integers(0, 5_000))
@settings(max_examples=150, deadline=None)
def test_classify_symmetrization_invariance(alpha, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((5, 5))
    _, plain = classify(c, alpha)
    _, sym = classify((c + c.T) / 2.0, alpha)
    assert plain.regime == sym.regime
    if plain.coef is not None:
        assert sym.coef == pytest.approx(plain.coef, rel=1e-10)


def test_ar1_upper_tail_iid_cases():
    # a = 0, k = 0: 2 n k_s alpha^((alpha-1)/2) t^(-alpha/2)
    law = ar1_upper_tail(0.0, 10, 0, 1.0)
    assert law.regime == POWER_HALF
    assert law.coef == pytest.approx(20.0 / math.pi, rel=1e-13)
    # a = 0, k >= 1: 2 (n - k) k_s^2 alpha^alpha t^(-alpha) log t
    law = ar1_upper_tail(0.0, 10, 1, 1.0)
    assert law.regime == POWER_LOG
    assert law.coef == pytest.approx(18.0 / math.pi ** 2, rel=1e-13)
    law = ar1_upper_tail(0.0, 10, 3, 2.0)
    k_s = make_law(2.0).k_s
    assert law.coef == pytest.approx(2.0 * 7 * k_s ** 2 * 4.0, rel=1e-13)


def test_ar1_upper_tail_matches_general_classifier():
    for a in (-1.0, -0.7, -0.3, 0.0, 0.4, 1.0, 1.2):
        for n in (2, 5, 12):
            for k in (0, 1, 2, 3):
                for alpha in (1.0, 1.7, 3.0):
                    closed = ar1_upper_tail(a, n, k, alpha)
                    _, general = classify(autocov_matrix(ArModel((a,), n), k),
                                          alpha)
                    assert closed.regime == general.regime
                    if closed.coef is not None:
                        assert closed.coef == pytest.approx(general.coef,
                                                            rel=1e-10)


def test_ar1_upper_tail_white_noise_lag_matches_dense_route():
    # a = 0, k >= 1: the closed coefficient equals the degenerate-case sum
    # over the dense lag-k shift, bit for bit
    for n, k, alpha in ((10, 1, 1.5), (50, 3, 0.7), (2, 1, 1.0), (200, 199, 4.0),
                        (33, 7, 0.3), (1000, 1, 2.0)):
        law = ar1_upper_tail(0.0, n, k, alpha)
        assert law.regime == POWER_LOG
        assert law.coef == tail_law(np.eye(n, k=-k), alpha).coef


@given(mag=st.floats(1e-300, 1e-5), negative=st.booleans(), n=st.integers(1, 60),
       k=st.integers(0, 4), alpha=st.floats(0.5, 4.0))
@example(mag=1e-7, negative=False, n=20, k=2, alpha=1.5)   # once PowerHalf, coef 4.29e-10
@example(mag=1e-200, negative=False, n=50, k=1, alpha=4.0)
# entries on both sides of the rule's tolerance: once every one was counted
@example(mag=1e-6, negative=False, n=4, k=2, alpha=1.0)     # once 2x the classifier
@example(mag=1.01, negative=False, n=2000, k=2, alpha=1.5)  # once 1e-9 relative off
@settings(max_examples=150, deadline=None)
def test_ar1_upper_tail_tiny_a_takes_the_zero_rule(mag, negative, n, k, alpha):
    # the closed PowerHalf sum counts the diagonal entries the classifier's
    # zero rule counts positive; with none, both read the couplings
    a = -mag if negative else mag
    closed = ar1_upper_tail(a, n, k, alpha)
    general = tail_law(ArForm(ArModel((a,), n), k), alpha)
    assert closed.regime == general.regime
    if general.coef is not None:
        assert closed.coef == pytest.approx(general.coef, rel=1e-9, abs=0.0)


def test_ar1_upper_tail_zero_beyond_path_length():
    law = ar1_upper_tail(0.7, 5, 5, 1.0)
    assert law.regime == ZERO
    assert evaluate(law, 10.0) == 0.0


def test_ar1_lower_tail_matches_classifier_of_negated_form():
    cases = [(a, n, 1.0, POWER_HALF) for a in (-1.0, -0.6, -0.2) for n in (2, 5, 12)]
    cases += [(-1e-13, 5, 1.0, POWER_LOG),     # every entry within the zero rule
              (-1.01, 2000, 1.5, POWER_HALF)]  # the short sums within the zero rule
    for a, n, alpha, regime in cases:
        closed = ar1_lower_tail(a, n, alpha)
        _, general = classify(-autocov_matrix(ArModel((a,), n), 1).entries, alpha)
        assert closed.regime == general.regime == regime
        assert closed.coef == pytest.approx(general.coef, rel=1e-12)
    with pytest.raises(ValueError):
        ar1_lower_tail(0.3, 5, 1.0)


def test_ar1_lower_tail_of_one_step_is_zero():
    law = ar1_lower_tail(-0.5, 1, 1.5)
    assert law.regime == ZERO
    assert evaluate(law, 10.0) == 0.0
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="^need t > 0$"):
            evaluate(law, t)


def test_zero_rows_without_coupling_are_sub_power():
    dc, law = classify([[0.0, 0.0], [0.0, -1.0]], 1.5)
    assert dc == DegeneracyClass("gt2", ())
    assert law.regime == SUB_POWER and law.coef is None


def test_stat_tail_power_half_matches_matrix():
    for a, a0 in ((1.0, 0.5), (0.8, 0.0), (1.2, 1.0)):
        for n in (5, 20):
            closed = stat_tail(a, a0, n, 1.0)
            assert closed.regime == POWER_HALF
            want = tail_law(statistic_matrix(a, a0, n), 1.0).coef
            assert closed.coef == pytest.approx(want, rel=1e-10)


def test_stat_tail_degenerate_matches_matrix():
    # a = a0 leaves couplings |a|^(m-1) on every pair at distance m
    for a in (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.3):
        for n in (2, 5, 10):
            for alpha in (1.0, 2.5):
                closed = stat_tail(a, a, n, alpha)
                assert closed.regime == POWER_LOG
                want = tail_law(statistic_matrix(a, a, n), alpha).coef
                assert closed.coef == pytest.approx(want, rel=1e-10)


def test_stat_tail_below_reference_is_power_log():
    # a < a0: every diagonal entry but the last is negative, and row n
    # couples to row n - 1 - m with |a|^m, so for |a| <= 1
    # coef = k_s^2 alpha^alpha sum_{m=0}^{n-2} |a|^(m alpha), whatever a0 is
    for a, a0, n, alpha in ((0.2, 0.5, 8, 1.0), (0.2, 0.5, 10, 1.0),
                            (-0.5, -0.2, 8, 1.0), (0.0, 0.4, 5, 3.0),
                            (0.9, 0.95, 30, 2.5), (-0.9, 0.3, 12, 0.7),
                            (1.0, 1.5, 10, 1.0), (-1.0, 0.5, 40, 1.5)):
        law = stat_tail(a, a0, n, alpha)
        assert law.regime == POWER_LOG
        k_s = make_law(alpha).k_s
        closed = k_s ** 2 * alpha ** alpha * sum(abs(a) ** (m * alpha)
                                                 for m in range(n - 1))
        assert law.coef == pytest.approx(closed, rel=1e-13)
    assert stat_tail(0.2, 0.5, 8, 1.0).coef == pytest.approx(0.12665, rel=1e-4)


@given(delta=st.floats(-1e-10, 1e-10), a0=st.floats(-0.9, 0.9),
       n=st.integers(2, 200), alpha=st.floats(0.5, 4.0))
@example(delta=5e-13, a0=0.5, n=50, alpha=1.5)  # PowerHalf before the one rule
@example(delta=1.1e-187, a0=-1.1e-187, n=2, alpha=4.0)
@example(delta=-5e-13, a0=0.5, n=50, alpha=1.5)
@settings(max_examples=200, deadline=None)
def test_stat_tail_zero_rule_matches_classifier(delta, a0, n, alpha):
    a = a0 + delta
    # the largest closed diagonal entry |a - a0| S_1; within 1e-3 of the
    # 1e-12 tolerance the classifier's diagonal, which it gets by
    # cancellation, is off by ~1e-16 and may fall on the other side
    top = abs(a - a0) * power_sum(a * a, n - 1)
    assume(abs(top - 1e-12) > 1e-3 * 1e-12)
    closed = stat_tail(a, a0, n, alpha)
    general = classify(statistic_matrix(a, a0, n), alpha)[1]
    assert closed.regime == general.regime
    if closed.regime == POWER_LOG:
        assert closed.coef == pytest.approx(general.coef, rel=1e-9)


def test_critical_value_levels():
    t1 = critical_value(1.0, 0.5, 20, 1.0, 0.05)
    t2 = critical_value(1.0, 0.5, 20, 1.0, 0.10)
    assert 0.0 < t2 < t1
    # eta = coefficient / sqrt(t_eta) by construction
    coef = stat_tail(1.0, 0.5, 20, 1.0).coef
    assert coef / math.sqrt(t1) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError):
        critical_value(0.5, 0.5, 20, 1.0, 0.05)
    with pytest.raises(ValueError):
        critical_value(1.0, -0.1, 20, 1.0, 0.05)
    with pytest.raises(ValueError):
        critical_value(1.0, 0.5, 20, 1.0, 1.5)
    # a within the zero rule of a0 has a PowerLog law, which has no inverse
    with pytest.raises(ValueError, match=r"^need a PowerHalf law to invert "
                       r"at a=0.5000000000001, not PowerLog$"):
        critical_value(0.5 + 1e-13, 0.5, 20, 1.5, 0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, n, alpha, eta", [
    (0.552, 20, 1.5, 1e-300),  # the power overflows a finite coef / eta
    (0.552, 20, 1e-3, 0.05),  # a huge exponent 2 / alpha
    (1.4, 700, 1.5, 1e-200),  # coef / eta is already inf
])
def test_critical_value_names_its_overflow(a, n, alpha, eta):
    assert math.isfinite(stat_tail(a, 0.5, n, alpha).coef)
    with pytest.raises(OverflowError, match=r"^critical value overflows a double "
                       r"at a=%r, eta=%r$" % (a, eta)):
        critical_value(a, 0.5, n, alpha, eta)


def test_evaluate_preconditions():
    half = TailLaw(POWER_HALF, 1.0, coef=2.0)
    assert evaluate(half, 400.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        evaluate(half, 0.0)
    log_law = TailLaw(POWER_LOG, 1.0, coef=1.0)
    assert evaluate(log_law, 100.0) == pytest.approx(math.log(100.0) / 100.0)
    with pytest.raises(ValueError):
        evaluate(log_law, 2.0)  # needs t > e
    with pytest.raises(ValueError):
        evaluate(TailLaw(ORDER_ONLY, 1.0), 100.0)
    with pytest.raises(ValueError):
        evaluate(TailLaw(SUB_POWER, 1.0), 100.0)


def test_tail_law_validation():
    with pytest.raises(ValueError):
        TailLaw("Elsewhere", 1.0)
    with pytest.raises(ValueError):
        TailLaw(POWER_HALF, 1.0)  # missing coefficient
    with pytest.raises(ValueError):
        TailLaw(POWER_HALF, 1.0, coef=0.0)
    with pytest.raises(ValueError):
        TailLaw(SUB_POWER, 1.0, coef=1.0)  # no coefficient allowed
    with pytest.raises(ValueError):
        TailLaw(POWER_HALF, -1.0, coef=1.0)
    with pytest.raises(ValueError):
        DegeneracyClass(3, ())


# The closed forms once called power_sum(a * a, m) for every m; they now
# read one prefix sequence of the same recurrence, summed in the same order,
# so the coefficients must keep every bit.

def old_upper_coef(a, n, k, alpha, keep=lambda s: True):
    law = make_law(alpha)
    body = sum(power_sum(a * a, i) ** (alpha / 2.0) for i in range(1, n - k + 1)
               if keep(power_sum(a * a, i)))
    return (law.k_s * alpha ** ((alpha - 1.0) / 2.0) * 2.0
            * abs(a) ** (k * alpha / 2.0) * body)


def old_descending_coef(a, lead, n, alpha, keep=lambda s: True):
    law = make_law(alpha)
    body = sum(power_sum(a * a, n - i) ** (alpha / 2.0) for i in range(1, n)
               if keep(power_sum(a * a, n - i)))
    return (law.k_s * alpha ** ((alpha - 1.0) / 2.0) * 2.0
            * lead ** (alpha / 2.0) * body)


@given(a=st.floats(-1.5, 1.5), a0=st.floats(-1.0, 1.0), n=st.integers(2, 300),
       k=st.sampled_from([0, 1, 2, 4]), alpha=st.floats(0.2, 6.0))
@example(a=1.5, a0=0.0, n=35, k=0, alpha=1.0)  # S(1) = 1 within the rule of S(35)
@settings(max_examples=150, deadline=None)
def test_closed_form_power_sums_keep_every_bit(a, a0, n, k, alpha):
    # each closed diagonal drops the power sums that the zero rule puts
    # within 1e-12 of its largest entry (|a| > 1, long paths); leads below
    # 1e-6 can underflow the coefficient to 0, which TailLaw rejects
    lead = float(np.float_power(a, k))
    if k < n and abs(a) > 1e-6 and (k % 2 == 0 or a > 0.0):
        top = lead * power_sum(a * a, n - k)
        tol = 1e-12 * max(1.0, top)
        if top > tol:  # else no entry counts, and the law reads couplings
            assert ar1_upper_tail(a, n, k, alpha).coef == old_upper_coef(
                a, n, k, alpha, keep=lambda s: lead * s > tol)
    if a < -1e-6:
        tol = 1e-12 * max(1.0, abs(a) * power_sum(a * a, n - 1))
        assert ar1_lower_tail(a, n, alpha).coef == old_descending_coef(
            a, abs(a), n, alpha, keep=lambda s: abs(a) * s > tol)
    if a - a0 > 1e-6:
        tol = 1e-12 * max(1.0, (a - a0) * power_sum(a * a, n - 1))
        assert stat_tail(a, a0, n, alpha).coef == old_descending_coef(
            a, a - a0, n, alpha, keep=lambda s: (a - a0) * s > tol)


def test_closed_form_power_sums_keep_every_bit_at_n_1000():
    for a in (-0.9, 0.5, 1.0):
        assert ar1_upper_tail(a, 1000, 2, 1.5).coef == old_upper_coef(a, 1000, 2, 1.5)
        assert stat_tail(a, -0.95, 1000, 1.5).coef == old_descending_coef(
            a, a + 0.95, 1000, 1.5)
    assert ar1_lower_tail(-0.9, 1000, 1.5).coef == old_descending_coef(-0.9, 0.9, 1000, 1.5)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_closed_form_power_sums_past_a_double_count_every_entry(alpha):
    # 10 S(155) overflows while every S(m) stays finite: the rule's tolerance
    # is then infinite, and every positive entry must still count
    assert ar1_upper_tail(10.0, 156, 1, alpha).coef == old_upper_coef(10.0, 156, 1, alpha)
    assert ar1_lower_tail(-10.0, 156, alpha).coef == old_descending_coef(
        -10.0, 10.0, 156, alpha)


# classify once enumerated its witness pairs with Python comprehensions; the
# numpy masks must give the same tuples in the same order.

def old_power_log_pairs(m):
    diag = np.diag(m)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(diag))))
    zero_rows = np.flatnonzero(np.abs(diag) <= tol)
    sym = m + m.T
    return tuple(sorted({tuple(sorted((int(i), int(j))))
                         for i in zero_rows for j in range(m.shape[0])
                         if j != i and sym[i, j] != 0.0}))


def old_order_only_pairs(m):
    n = m.shape[0]
    sym = (m + m.T) / 2.0
    return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                 if sym[i, j] ** 2 > sym[i, i] * sym[j, j])


@pytest.mark.parametrize("seed", range(6))
def test_classify_pairs_match_the_comprehensions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    # negative diagonal, sparse couplings of either strength
    m = rng.normal(scale=rng.uniform(0.2, 2.0), size=(n, n))
    m[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(m, -rng.uniform(0.5, 2.0, n))
    dc, law = classify(m, 1.5)
    want = old_order_only_pairs(m)
    assert dc.j_sets == want
    assert law.regime == (ORDER_ONLY if want else SUB_POWER)
    # now zero some diagonal entries, with couplings on only some of them
    zero = rng.choice(n, size=max(1, n // 4), replace=False)
    m[zero, zero] = 0.0
    dc, law = classify(m, 1.5)
    want = old_power_log_pairs(m)
    if law.regime == POWER_LOG:
        assert dc.j_sets == want
    else:
        assert law.regime == SUB_POWER and want == ()


def test_classify_pairs_match_the_comprehensions_at_n_800():
    rng = np.random.default_rng(800)
    m = rng.normal(scale=0.8, size=(800, 800))
    np.fill_diagonal(m, -2.0)
    dc, law = classify(m, 1.5)
    assert law.regime == ORDER_ONLY
    assert dc.j_sets == old_order_only_pairs(m)
    c = statistic_matrix(-0.62, -0.4, 800).entries
    dc, law = classify(c, 1.5)
    assert law.regime == POWER_LOG
    assert dc.j_sets == old_power_log_pairs(c)
    # an explosive odd lag: most rows count as zero, many of them adjacent,
    # and a pair of two zero rows is read from both
    c = autocov_matrix(ArModel((-1.1,), 400), 3).entries
    zero = _diag_signs(np.diag(c))[1]
    assert zero.sum() > 250 and (zero[1:] & zero[:-1]).sum() > 250
    dc, law = classify(c, 1.5)
    assert law.regime == POWER_LOG
    assert dc.j_sets == old_power_log_pairs(c)


# classify once tested every pair of a negative diagonal at once, on n x n
# arrays; the coupling rows must give the same pairs in the same order

def old_dense_order_only_pairs(m):
    sym = (m + m.T) / 2.0
    half = np.diag(sym)
    rows, cols = np.nonzero(np.triu(np.float_power(sym, 2.0)
                                    > np.multiply.outer(half, half), 1))
    return tuple(zip(rows.tolist(), cols.tolist()))


# couplings of any size against the diagonal, squares below the normal
# doubles (1e-155) included; none overflows a double
COUPLINGS = st.one_of(st.just(0.0),
                      st.builds(float.__mul__, st.floats(-10.0, 10.0),
                                st.sampled_from([1e-155, 1e-150, 1.0, 1e150])))


@st.composite
def negative_diagonal_forms(draw):
    n = draw(st.integers(1, 9))
    # past the zero rule's absolute tolerance 1e-12, so no row counts as zero
    scale = draw(st.sampled_from([1e-6, 1.0, 1e150]))
    m = np.diag([-scale * draw(st.floats(0.5, 4.0)) for _ in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = draw(COUPLINGS)
            # an antisymmetric pair couples to an exact zero
            kind = draw(st.sampled_from(["antisymmetric", "one-sided", "free"]))
            m[j, i] = (-m[i, j] if kind == "antisymmetric" else
                       0.0 if kind == "one-sided" else draw(COUPLINGS))
    return m


@given(m=negative_diagonal_forms())
@example(m=np.array([[-1.0, 4.0], [0.0, -4.0]]))      # S_01^2 = C_00 C_11: semidefinite
@example(m=np.array([[-1.0, 3.0], [-3.0, -1.0]]))     # antisymmetric: S_01 = 0
@settings(max_examples=300, deadline=None)
def test_order_only_pairs_match_the_dense_expression(m):
    want = old_dense_order_only_pairs(m)
    dc, law = classify(m, 1.5)
    assert law.regime == (ORDER_ONLY if want else SUB_POWER)
    assert dc.j_sets == want
    assert tail_law(m, 1.5) == law


def exact_order_only_pairs(n, diag, rows):
    """The pairs i < j with S_ij^2 > C_ii C_jj in exact rationals, from the
    diagonal and the coupling rows {i: row i of S}."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                 if Fraction(float(rows[i][j])) ** 2
                 > Fraction(float(diag[i])) * Fraction(float(diag[j])))


class NegativeDiagonalArForm(ArForm):
    """An ArForm read with its diagonal replaced by an all-negative one, so
    the pair test runs on structured coupling rows (the diagonal of an
    ArForm itself ends in a zero)."""

    def __init__(self, model, k, diag):
        super().__init__(model, k)
        self._negative = np.asarray(diag, dtype=float)

    def diagonal(self):
        return self._negative.copy()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_order_only_pairs_past_a_doubles_range():
    # S_01^2 = 1e400 > C_00 C_11 = 1e320, both sides past a double's range;
    # (0, 3) overflows both sides too, but 8.1e309 < 1e310; (0, 2) overflows
    # one side, (2, 3) none, and (1, 2) squares below the subnormals
    m = np.array([[-1e160, 2e200, 3.0, 1.8e155],
                  [0.0, -1e160, 1e-300, 0.0],
                  [0.0, 0.0, -1e150, 4e150],
                  [0.0, 0.0, 0.0, -1e150]])
    want = exact_order_only_pairs(4, np.diag(m), (m + m.T) / 2.0)
    assert want == ((0, 1), (2, 3))
    for form in (m, QuadForm(4, m)):
        dc, law = classify(form, 1.5)
        assert law.regime == ORDER_ONLY and dc.j_sets == want
    dc, law = classify(np.array([[-1e200, 1.9e200], [0.0, -1e200]]), 1.5)
    assert law.regime == SUB_POWER and dc.j_sets == ()
    # structured couplings up to ~2e280 against diagonals 1e150 to 1e160:
    # pairs past the range on one side, on both and on neither
    model = ArModel((1e10,), 16)
    diag = -np.logspace(150.0, 160.0, 16)
    rows = dict(ArForm(model, 1).couplings(range(16)))
    want = exact_order_only_pairs(16, diag, rows)
    assert 0 < len(want) < 120
    dc, law = classify(NegativeDiagonalArForm(model, 1, diag), 1.5)
    assert law.regime == ORDER_ONLY and dc.j_sets == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m, regime", [
    # C_01 + C_10 = 3e308 leaves the doubles, S_01 = 1.5e308 does not:
    # S_01^2 = 2.25e616 > C_00 C_11 = 1e616
    ([[-1e308, 1.5e308], [1.5e308, -1e308]], ORDER_ONLY),
    # S_01^2 = 1e616 < C_00 C_11 = 1.7e616
    ([[-1e308, 1e308], [1e308, -1.7e308]], SUB_POWER),
])
def test_order_only_pair_whose_coupling_sum_overflows(m, regime):
    m = np.array(m)
    c = [[Fraction(float(v)) for v in row] for row in m]
    indefinite = ((c[0][1] + c[1][0]) / 2) ** 2 > c[0][0] * c[1][1]
    want = ((0, 1),) if indefinite else ()
    assert indefinite == (regime == ORDER_ONLY)
    for form in (m, QuadForm(2, m)):
        dc, law = classify(form, 1.5)
        assert law.regime == regime and dc.j_sets == want
        assert tail_law(form, 1.5) == law


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_log_at_alpha_below_1_past_a_doubles_range():
    # 2 |S_01| = 3e308 leaves the doubles, 2^alpha |S_01|^alpha does not at
    # alpha < 1; the one-sided form has 2 |S_01| = 1.5e308 itself
    scale = _power_log_scale(make_law(0.5))
    law = tail_law([[0.0, 1.5e308], [1.5e308, -1.0]], 0.5)
    assert law.regime == POWER_LOG
    assert law.coef == scale * (1.5e308 ** 0.5 * 2.0 ** 0.5)
    assert law.coef == pytest.approx(8.9e152, rel=1e-2)
    one_sided = tail_law([[0.0, 1.5e308], [0.0, -1.0]], 0.5)
    assert one_sided.coef == scale * 1.5e308 ** 0.5
    assert one_sided.coef == pytest.approx(6.298e152, rel=1e-3)
    # at alpha >= 1 the coefficient itself is past a double's range
    with pytest.raises(OverflowError, match="^coef overflows a double in regime PowerLog$"):
        tail_law([[0.0, 1.5e308], [1.5e308, -1.0]], 1.0)


def test_tail_law_names_an_underflowed_coefficient():
    # (a - a0)^(alpha/2) = (1e-11)^50 underflows to 0: no precondition of
    # the caller is broken, so the message must not name one
    with pytest.raises(ValueError, match="coef underflows a double in regime PowerHalf"):
        stat_tail(1e-11, 0.0, 2, 100.0)
    with pytest.raises(ValueError, match="underflows"):
        TailLaw(POWER_HALF, 1.5, coef=0.0)
    for bad in (None, -1.0, math.nan):
        with pytest.raises(ValueError, match="need coef > 0"):
            TailLaw(POWER_HALF, 1.5, coef=bad)


@pytest.mark.parametrize("tail, args, regime", [
    (ar1_lower_tail, (-1e4, 3, 250.0), POWER_HALF),   # lead 1e4^125
    (stat_tail, (1e4, 0.0, 3, 250.0), POWER_HALF),    # lead (a - a0)^125
    (stat_tail, (1e4, 1e4, 5, 100.0), POWER_LOG),     # |a|^((m-1) alpha)
])
def test_float_power_overflow_names_the_regime(tail, args, regime):
    with pytest.raises(OverflowError, match="^coef overflows a double in regime %s$"
                       % regime):
        tail(*args)


def test_tail_law_rejects_an_overflowing_coefficient():
    # an overflow is an OverflowError wherever it is caught, in a float
    # power or in TailLaw's own check
    with pytest.raises(OverflowError, match="^coef overflows a double in regime PowerHalf$"):
        TailLaw(POWER_HALF, 1.5, coef=math.inf)
    with pytest.raises(OverflowError, match="^coef overflows a double in regime PowerHalf$"):
        ar1_upper_tail(3.0, 400, 1, 1.5)


# The classifier reads an ArForm through the same three reads
# as a dense QuadForm, without the n x n array; it must come to the same law.

def same_law(got, want):
    if isinstance(want, (ValueError, OverflowError)):
        assert str(got) == str(want)
        return
    assert got.regime == want.regime
    if want.coef is None:
        assert got.coef is None
    else:
        assert got.coef == pytest.approx(want.coef, rel=1e-12, abs=0.0)


def law_or_error(build, alpha):
    try:
        return tail_law(build(), alpha)
    except (ValueError, OverflowError) as exc:
        return exc


@given(theta=st.lists(st.one_of(st.floats(-3.0, 3.0), st.just(0.0)),
                      min_size=1, max_size=3),
       n=st.integers(1, 400), alpha=st.floats(0.3, 4.0), data=st.data())
@example(theta=[0.0], n=30, alpha=1.5, data=None)              # white noise
@example(theta=[-1.5], n=120, alpha=1.5, data=None)            # explosive
@example(theta=[0.9, -1.6], n=100, alpha=0.7, data=None)       # complex, explosive
@example(theta=[-0.5, -1.25], n=60, alpha=1.5, data=None)      # d_2 = 0
@example(theta=[-0.8, -1.64], n=40, alpha=2.5, data=None)      # d_2 = 0
@settings(max_examples=150, deadline=None)
def test_structured_form_classifies_like_dense(theta, n, alpha, data):
    model = ArModel(theta, n)
    ks = range(n + 2) if data is None else [data.draw(st.integers(0, n + 1), label="k")]
    for k in ks:
        dense = law_or_error(lambda: autocov_matrix(model, k), alpha)
        structured = law_or_error(lambda: ArForm(model, k), alpha)
        if isinstance(dense, (ValueError, OverflowError)):
            assert type(structured) is type(dense) and str(structured) == str(dense)
        elif isinstance(structured, (ValueError, OverflowError)):
            # the structured form's overflow bound fires only next to the limit
            assert str(structured) == "need finite entries"
            assert float(np.max(np.abs(autocov_matrix(model, k).entries))) > 1e290
        else:
            same_law(structured, dense)


@pytest.mark.parametrize("a", [-0.3, -0.5, -0.8])
def test_d_k_crossing_zero_reads_an_interior_zero_row(a):
    # b = -1 - a^2 puts d_2 = a (a^2 + b + 1) at zero by cancellation: the
    # interior row n - 3 counts as zero and its couplings are read too
    model = ArModel((a, -1.0 - a * a), 40)
    form = ArForm(model, 1)
    diag = form.diagonal()
    assert abs(diag[-3]) <= 1e-12 * max(1.0, float(np.max(np.abs(diag))))
    dense_dc, dense = classify(autocov_matrix(model, 1), 1.5)
    dc, law = classify(form, 1.5)
    same_law(law, dense)
    assert dc == dense_dc
    assert law.regime == POWER_LOG


# Exact pivot references: a and a0 are dyadic rationals, so the form and
# its closed diagonal are exact in integers.

def exact_pivot_form(a, a0, n):
    """C = A^T (B - a0 B^T B) A of an AR(1) path, exact, as integer rows
    E[r] over row scales D[r], C[r] = E[r] / D[r]: Y = (B - a0 B^T B) A has
    rows psi_{r-1-s} - a0 psi_{r-s} and the last row psi_{n-2-s}
    (psi_m = a^m, 0 for m < 0), and C[r] = Y[r] + a C[r+1] bottom up.  For
    a = u / d and a0 = g / h (d, h powers of 2), D[r] = h d^(2n-2-r) clears
    every denominator of row r and the step reads E[r] = D[r] Y[r] + u E[r+1],
    so a tiny a, whose Fractions would take seconds, stays cheap.  Python's
    int / int rounds E[r][s] / D[r] to a double once."""
    u, d = a.as_integer_ratio()
    g, h = a0.as_integer_ratio()
    up = [u ** m for m in range(n)]
    down = [d ** m for m in range(2 * n)]

    def psi(m, r):  # D[r] psi_m / h
        return up[m] * down[2 * n - 2 - r - m] if m >= 0 else 0

    rows = [[h * psi(n - 2 - s, n - 1) for s in range(n)]]
    for r in range(n - 2, -1, -1):
        rows.insert(0, [h * psi(r - 1 - s, r) - g * psi(r - s, r) + u * v
                        for s, v in enumerate(rows[0])])
    return rows, [h * down[2 * n - 2 - r] for r in range(n)]


def exact_pivot_diagonal(a, a0, n):
    """The closed pivot diagonal (a - a0) S_i, S_i = sum_{j<n-i} a^(2j),
    with C_nn = 0, each entry exact and then rounded once to a double.  For
    a = u / d and a - a0 = g / h (d, h powers of 2), S_m = N_m / d^(2(m-1))
    with the integers N_1 = 1, N_m = u^2 N_{m-1} + d^(2(m-1)); long paths
    stay cheap, where Fractions of a tiny a would take seconds."""
    u, d = a.as_integer_ratio()
    g, h = (Fraction(a) - Fraction(a0)).as_integer_ratio()
    sums, big, power = [], 1, 1
    for _ in range(n - 1):
        sums.append(g * big / (h * power))
        power *= d * d
        big = u * u * big + power
    return np.array(sums[::-1] + [0.0])


@pytest.mark.parametrize("a, a0, n", [(0.7, 0.3, 9), (-1.3, 0.25, 30), (0.5, 0.5, 4),
                                      (3.0, 2.9999999999999996, 6), (1e-300, 0.5, 12),
                                      (-2.5, 1.0, 40), (0.0, -0.75, 5), (0.3, 0.1, 1)])
def test_exact_pivot_diagonal_is_the_exact_forms(a, a0, n):
    rows, scales = exact_pivot_form(a, a0, n)
    assert exact_pivot_diagonal(a, a0, n).tolist() == [rows[i][i] / scales[i]
                                                        for i in range(n)]


def exact_pivot_law(a, a0, n, alpha):
    """The classifier's law of exact_pivot_form, read from a float form
    whose diagonal is the exact one and whose couplings C_ij + C_ji are
    each summed exactly and rounded once (held above the diagonal, with
    zeros below)."""
    rows, scales = exact_pivot_form(a, a0, n)
    d = a.as_integer_ratio()[1]
    upper = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):  # D[i] = D[j] d^(j-i)
            upper[i, j] = (rows[i][j] + rows[j][i] * d ** (j - i)) / scales[i]
    np.fill_diagonal(upper, exact_pivot_diagonal(a, a0, n))
    return law_or_error(lambda: upper, alpha)


@given(a=st.floats(-3.0, 3.0), a0=st.floats(-3.0, 3.0), n=st.integers(2, 45),
       alpha=st.floats(0.3, 4.0))
@example(a=-1.5, a0=0.0, n=300, alpha=1.5)  # rows the zero rule counts as zero
@example(a=0.2, a0=0.5, n=8, alpha=1.0)
@example(a=3.0, a0=2.9999999999999996, n=6, alpha=1.0)
@example(a=2.1177997503200245, a0=2.117743308555161, n=10, alpha=2.0)
# the couplings of the row recursion cancel terms of size |a|^(2n) here
@example(a=3.0, a0=3.0000000000000004, n=35, alpha=1.0)
@example(a=2.7949500515103107, a0=2.7949500515113708, n=45, alpha=0.91)
@example(a=-2.823234131540321, a0=-2.8232341279348994, n=45, alpha=3.24)
@settings(max_examples=150, deadline=None)
def test_pivot_law_matches_the_exact_form(a, a0, n, alpha):
    # the closed diagonal is within a few ulps of the exact one, so a draw
    # with an exact entry that close to the zero rule's threshold is left out
    exact = exact_pivot_diagonal(a, a0, n)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assume(np.all(np.abs(np.abs(exact) - 1e-12 * scale) > 1e-14 * scale))
    same_law(stat_tail(a, a0, n, alpha), exact_pivot_law(a, a0, n, alpha))


def test_explosive_pivot_law_is_linear_in_n():
    # about 18600 of the 20000 diagonal entries count as zero here; read
    # through the form's couplings, one O(n^2) pass per chunk of them took
    # minutes
    start = time.perf_counter()
    law = stat_tail(-1.01, 0.0, 20000, 1.5)
    assert time.perf_counter() - start < 1.0
    assert law.regime == POWER_LOG


@pytest.mark.parametrize("a", [-0.5, -0.9, -1.0, -1.01, -1.3, -1e-13, -2.5])
def test_ar1_lag_1_below_zero_is_the_exact_pivot_law_at_zero(a):
    # test_matrix(a, 0, n) is A^T B A, so the lag-1 law is the pivot's
    for n in (2, 3, 10, 45):
        for alpha in (0.5, 1.5, 3.0):
            law = ar1_upper_tail(a, n, 1, alpha)
            exact = exact_pivot_law(a, 0.0, n, alpha)
            assert law.regime == exact.regime == POWER_LOG
            assert law.coef == pytest.approx(exact.coef, rel=1e-12)


def test_ar1_lag_1_below_zero_is_linear_in_n():
    # read through the structured form's coupling pass, one O(n^2) pass per
    # chunk of zero-counted rows, this took seconds at n = 6000
    start = time.perf_counter()
    law = ar1_upper_tail(-1.01, 20000, 1, 1.5)
    assert time.perf_counter() - start < 1.0
    assert law == stat_tail(-1.01, 0.0, 20000, 1.5)
    assert law.regime == POWER_LOG


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    (-3.0, 0.5, 200, 4.0),
    # row n - 2 counts as zero and its coupling factor 1 + 2a(a - a0) is 0,
    # while its power sum 2^(4 m) over m < n - 2 is inf: 0 inf is no number
    (2.0, 2.25, 260, 4.0),
])
def test_explosive_pivot_coef_overflow_is_named(args):
    with pytest.raises(OverflowError, match="^coef overflows a double in regime PowerLog$"):
        stat_tail(*args)


def test_odd_lag_negative_ar1_reads_the_structured_form():
    # the double loop over ar1_offdiag_closed took seconds here and summed
    # the last k rows only, while the zero rule counts every diagonal entry
    # a^399 S_i ~ 1e-120 as zero
    start = time.perf_counter()
    law = ar1_upper_tail(-0.5, 2000, 399, 1.5)
    assert time.perf_counter() - start < 0.5
    dense = tail_law(autocov_matrix(ArModel((-0.5,), 2000), 399), 1.5)
    assert law.regime == dense.regime == POWER_LOG
    assert law.coef == pytest.approx(dense.coef, rel=1e-10)


def test_zero_counted_diagonal_term_is_left_out():
    # C = [[6.7e-13, 0], [1, 0]]: both diagonal entries count as zero, so only
    # the coupling |C_21 + C_12| = 1 enters; |2 C_11|^alpha would add ~6e-7
    # relative at alpha = 0.5
    k_s = make_law(0.5).k_s
    want = k_s ** 2 * 0.5 ** 0.5 * 2.0
    closed = stat_tail(6.7e-13, 0.0, 2, 0.5)
    general = classify(statistic_matrix(6.7e-13, 0.0, 2), 0.5)[1]
    for law in (closed, general):
        assert law.regime == POWER_LOG
        assert law.coef == pytest.approx(0.1028491156, rel=1e-9)
        assert law.coef == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda n: tail_law(ArForm(ArModel((0.5, -0.3), n), 2), 1.5),
    lambda n: ar1_upper_tail(-0.6, n, 3, 1.5),
    lambda n: stat_tail(0.2, 0.5, n, 1.0),
    lambda n: stat_tail(-1.01, 0.0, n, 1.5),
    lambda n: statistic_tail(Statistic(ArModel((-0.5, 0.3), n), k=1), 1.5),
])
def test_ar_statistics_allocate_no_dense_form(call):
    n = 3000
    call(n)  # warm caches
    tracemalloc.start()
    try:
        call(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4  # a quarter of one n x n array


def test_order_only_pairs_allocate_no_dense_temporary():
    # an all-negative diagonal: the pairs come one coupling row at a time
    n = 1500
    m = -np.eye(n)
    m[0, 1] = 3.0  # one indefinite pair
    form = QuadForm(n, m)
    classify(form, 1.5)  # warm caches
    tracemalloc.start()
    try:
        dc, law = classify(form, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law.regime == ORDER_ONLY and dc.j_sets == ((0, 1),)
    assert peak < 8 * n * n / 4  # a quarter of one n x n array


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c, alpha, message", [
    (np.ones((2, 3)), 1.5, "need a square matrix"),
    (np.ones(4), 1.5, "need a square matrix"),
    (np.eye(2), 0.0, "need alpha > 0"),
    (np.eye(2), math.nan, "need alpha > 0"),
    (np.zeros((0, 0)), 1.5, "need n >= 1"),
])
def test_classify_checks_its_arguments(c, alpha, message):
    for call in (classify, tail_law):
        with pytest.raises(ValueError, match="^%s$" % message):
            call(c, alpha)


@pytest.mark.parametrize("model, k, a0", [
    (ArModel((0.7,), 30), None, 0.4),      # pivot, PowerHalf
    (ArModel((0.2,), 8), None, 0.5),       # pivot, PowerLog below a0
    (ArModel((0.7,), 30), None, 0.7),      # pivot, PowerLog at a0
    (ArModel((0.5,), 40), 1, None),        # AR(1) lag, PowerHalf
    (ArModel((0.0,), 40), 3, None),        # AR(1) lag, white noise
    (ArModel((-0.6,), 40), 1, None),       # AR(1) lag 1 below 0, the pivot law
    (ArModel((0.5, -0.3), 40), 1, None),   # AR(2) lag, the classifier
    (ArModel((-0.6,), 40), 3, None),       # AR(1) odd lag k >= 3, the classifier
])
def test_statistic_tail_coef_is_a_python_float(model, k, a0):
    # a numpy scalar prints as np.float64(...) under %r
    law = statistic_tail(Statistic(model, k, a0), 1.5)
    assert type(law.coef) is float
    assert type(TailLaw(law.regime, 1.5, coef=np.float64(law.coef)).coef) is float


def test_statistic_tail_takes_each_route_to_its_direct_call():
    alpha = 1.5
    # a pivot goes to test_stat_tail: PowerHalf, PowerLog at a = a0, and a < a0
    for a, a0, n in ((0.7, 0.4, 30), (0.7, 0.7, 30), (0.2, 0.5, 8)):
        assert statistic_tail(Statistic(ArModel((a,), n), a0=a0), alpha) == stat_tail(
            a, a0, n, alpha)
    # an AR(1) lag goes to the closed ar1_upper_tail, odd lags with a < 0 included
    for a, n, k in ((0.5, 40, 1), (-0.6, 40, 1), (-0.6, 40, 2), (0.0, 40, 3), (0.5, 5, 7)):
        assert statistic_tail(Statistic(ArModel((a,), n), k=k), alpha) == ar1_upper_tail(
            a, n, k, alpha)
    # an AR(2) lag goes to the classifier on the structured form, b = 0 included
    for theta, k in (((0.5, -0.3), 1), ((-0.8, -0.3), 2), ((0.5, 0.0), 1), ((-0.5, 0.0), 1)):
        model = ArModel(theta, 40)
        assert statistic_tail(Statistic(model, k=k), alpha) == tail_law(ArForm(model, k), alpha)
