import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heavytail.ar2_regions import stable_tail_class
from heavytail.ar_quadform import (ArModel, autocov_form, autocov_matrix,
                                   pivot_form, power_sum, shift_pow)
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.student_dist import make_law
from heavytail.tail_formulas import (ORDER_ONLY, POWER_HALF, POWER_LOG,
                                     SUB_POWER, ZERO, DegeneracyClass,
                                     TailLaw, ar1_lower_tail, ar1_upper_tail,
                                     classify, coef_degenerate_case,
                                     coef_positive_case, critical_value,
                                     _diag_signs, evaluate, tail_law)
from heavytail.tail_formulas import test_stat_tail as stat_tail


def test_classify_identity_matrix():
    dc, law = classify(np.eye(4), 1.0)
    assert dc.n_of_c == 1
    assert dc.j_sets == ((0,), (1,), (2,), (3,))
    assert law.regime == POWER_HALF
    # 2 * k_s * alpha^0 * sum of four unit diagonals
    assert law.coef == pytest.approx(8.0 / math.pi, rel=1e-13)


def test_classify_shift_matrix():
    dc, law = classify(shift_pow(10, 1), 1.0)
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
    got = coef_positive_case(c, 2.0)
    law = make_law(2.0)
    want = 2.0 * law.k_s * 2.0 ** 0.5 * (2.0 + 1.0)
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        coef_positive_case(-np.eye(3), 2.0)


def test_coef_degenerate_case_requires_zero_max_diagonal():
    with pytest.raises(ValueError):
        coef_degenerate_case(np.eye(3), 1.0)
    with pytest.raises(ValueError):
        coef_degenerate_case(-np.eye(3), 1.0)  # no vanishing diagonal


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
        assert law.coef == coef_degenerate_case(shift_pow(n, k), alpha)


def test_ar1_upper_tail_zero_beyond_path_length():
    law = ar1_upper_tail(0.7, 5, 5, 1.0)
    assert law.regime == ZERO
    assert evaluate(law, 10.0) == 0.0


def test_ar1_lower_tail_matches_classifier_of_negated_form():
    for a in (-1.0, -0.6, -0.2):
        for n in (2, 5, 12):
            closed = ar1_lower_tail(a, n, 1.0)
            _, general = classify(-autocov_matrix(ArModel((a,), n), 1).entries,
                                  1.0)
            assert closed.regime == general.regime == POWER_HALF
            assert closed.coef == pytest.approx(general.coef, rel=1e-12)
    with pytest.raises(ValueError):
        ar1_lower_tail(0.3, 5, 1.0)


def test_stat_tail_power_half_matches_matrix():
    for a, a0 in ((1.0, 0.5), (0.8, 0.0), (1.2, 1.0)):
        for n in (5, 20):
            closed = stat_tail(a, a0, n, 1.0)
            assert closed.regime == POWER_HALF
            want = coef_positive_case(statistic_matrix(a, a0, n), 1.0)
            assert closed.coef == pytest.approx(want, rel=1e-10)


def test_stat_tail_degenerate_matches_matrix():
    # a = a0 leaves couplings |a|^(m-1) on every pair at distance m
    for a in (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.3):
        for n in (2, 5, 10):
            for alpha in (1.0, 2.5):
                closed = stat_tail(a, a, n, alpha)
                assert closed.regime == POWER_LOG
                want = coef_degenerate_case(statistic_matrix(a, a, n), alpha)
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

def old_upper_coef(a, n, k, alpha):
    law = make_law(alpha)
    body = sum(power_sum(a * a, i) ** (alpha / 2.0) for i in range(1, n - k + 1))
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
@settings(max_examples=150, deadline=None)
def test_closed_form_power_sums_keep_every_bit(a, a0, n, k, alpha):
    # leads below 1e-6 can underflow the coefficient to 0, which TailLaw rejects
    if k < n and abs(a) > 1e-6 and (k % 2 == 0 or a > 0.0):
        assert ar1_upper_tail(a, n, k, alpha).coef == old_upper_coef(a, n, k, alpha)
    if a < -1e-6:
        assert ar1_lower_tail(a, n, alpha).coef == old_descending_coef(a, abs(a), n, alpha)
    if a - a0 > 1e-6:
        # the pivot diagonal (a - a0) S_i drops the S_i that the zero rule
        # puts within 1e-12 of the largest entry (|a| > 1, long paths)
        tol = 1e-12 * max(1.0, (a - a0) * power_sum(a * a, n - 1))
        assert stat_tail(a, a0, n, alpha).coef == old_descending_coef(
            a, a - a0, n, alpha, keep=lambda s: (a - a0) * s > tol)


def test_closed_form_power_sums_keep_every_bit_at_n_1000():
    for a in (-0.9, 0.5, 1.0):
        assert ar1_upper_tail(a, 1000, 2, 1.5).coef == old_upper_coef(a, 1000, 2, 1.5)
        assert stat_tail(a, -0.95, 1000, 1.5).coef == old_descending_coef(
            a, a + 0.95, 1000, 1.5)
    assert ar1_lower_tail(-0.9, 1000, 1.5).coef == old_descending_coef(-0.9, 0.9, 1000, 1.5)


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
    with pytest.raises(ValueError, match="overflows"):
        TailLaw(POWER_HALF, 1.5, coef=math.inf)
    with pytest.raises(ValueError, match="overflows"):
        ar1_upper_tail(3.0, 400, 1, 1.5)


# The classifier reads an ArForm (autocov_form, pivot_form) through the same
# three reads as a dense QuadForm, without the n x n array; it must come to
# the same law.

def same_law(got, want):
    if isinstance(want, ValueError):
        assert str(got) == str(want)
        return
    assert got.regime == want.regime
    if want.coef is None:
        assert got.coef is None
    else:
        assert got.coef == pytest.approx(want.coef, rel=1e-12)


def law_or_error(build, alpha):
    try:
        return tail_law(build(), alpha)
    except ValueError as exc:
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
        structured = law_or_error(lambda: autocov_form(model, k), alpha)
        if isinstance(dense, ValueError):
            assert str(structured) == str(dense)
        elif isinstance(structured, ValueError):
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
    form = autocov_form(model, 1)
    diag = form.diagonal()
    assert abs(diag[-3]) <= 1e-12 * max(1.0, float(np.max(np.abs(diag))))
    dense_dc, dense = classify(autocov_matrix(model, 1), 1.5)
    dc, law = classify(form, 1.5)
    same_law(law, dense)
    assert dc == dense_dc
    assert law.regime == POWER_LOG


@given(a=st.floats(-3.0, 3.0), a0=st.floats(-3.0, 3.0), n=st.integers(1, 400),
       alpha=st.floats(0.3, 4.0))
@example(a=-1.5, a0=0.0, n=300, alpha=1.5)  # rows the zero rule counts as zero
@example(a=0.2, a0=0.5, n=8, alpha=1.0)
@settings(max_examples=150, deadline=None)
def test_pivot_form_classifies_like_dense(a, a0, n, alpha):
    try:
        dense = statistic_matrix(a, a0, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            pivot_form(a, a0, n)
        return
    try:
        form = pivot_form(a, a0, n)
    except ValueError as exc:
        assert str(exc) == "need finite entries"
        assert float(np.max(np.abs(dense.entries))) > 1e290
        return
    # the pivot form's diagonal is the closed (a - a0) S_i; the dense one
    # comes by cancellation, which near a = a0 can flip an entry's sign
    signs = [m.tolist() for m in _diag_signs(form.diagonal())[:2]]
    assume(signs == [m.tolist() for m in _diag_signs(np.diag(dense.entries))[:2]])
    same_law(law_or_error(lambda: form, alpha), law_or_error(lambda: dense, alpha))


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
    for law in (closed, general, tail_law(pivot_form(6.7e-13, 0.0, 2), 0.5)):
        assert law.regime == POWER_LOG
        assert law.coef == pytest.approx(0.1028491156, rel=1e-9)
        assert law.coef == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda n: tail_law(autocov_form(ArModel((0.5, -0.3), n), 2), 1.5),
    lambda n: ar1_upper_tail(-0.6, n, 3, 1.5),
    lambda n: stat_tail(0.2, 0.5, n, 1.0),
    lambda n: stat_tail(-1.01, 0.0, n, 1.5),
    lambda n: stable_tail_class(-0.5, 0.3, n, 1.5),
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
