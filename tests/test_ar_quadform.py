from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heavytail import ar_quadform
from heavytail.ar_quadform import (ArModel, QuadForm, Statistic, ar1_offdiag_closed,
                                   autocov_matrix,
                                   build_a, empirical_autocov,
                                   power_sum, simulate_path)
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.monte_carlo import McConfig
from heavytail.student_dist import make_law
from heavytail.tail_formulas import _coupling_sum, _diag_signs, ar1_upper_tail, statistic_tail


def test_build_a_is_unit_lower_triangular():
    a = build_a(ArModel((0.5, -0.2, 0.1), 8))
    assert np.array_equal(np.diag(a), np.ones(8))
    assert np.array_equal(np.triu(a, 1), np.zeros((8, 8)))


def test_build_a_ar1_powers():
    a = build_a(ArModel((0.5,), 6))
    for i in range(6):
        for j in range(i + 1):
            assert a[i, j] == pytest.approx(0.5 ** (i - j), rel=1e-15)


@given(p=st.integers(1, 3), n=st.integers(2, 50), k=st.integers(0, 3),
       seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_quadform_matches_path_statistic(p, n, k, seed):
    rng = np.random.default_rng(seed)
    theta = tuple(rng.uniform(-1.0, 1.0, p))
    model = ArModel(theta, n)
    eps = rng.standard_normal(n)
    x = simulate_path(model, eps)
    form = autocov_matrix(model, k)
    lhs = eps @ form.entries @ eps
    rhs = n * empirical_autocov(x, k)
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_simulate_path_equals_matrix_action():
    rng = np.random.default_rng(3)
    model = ArModel((0.7, -0.3), 40)
    eps = rng.standard_normal(40)
    x = simulate_path(model, eps)
    y = build_a(model) @ eps
    assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_closed_entries_match_dense_exactly_on_unit_grid():
    # dyadic coefficients make both evaluation orders exact
    for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for n in (1, 2, 7, 19, 30):
            for k in range(0, 6):
                dense = autocov_matrix(ArModel((a,), n), k).entries
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert ar1_offdiag_closed(a, n, k, i, j) == dense[i - 1, j - 1]


@given(a=st.floats(-1.5, 1.5), n=st.integers(1, 25), k=st.integers(0, 4),
       i=st.integers(1, 25), j=st.integers(1, 25))
@settings(max_examples=200, deadline=None)
def test_closed_entries_match_dense_generic(a, n, k, i, j):
    if i > n or j > n:
        return
    dense = autocov_matrix(ArModel((a,), n), k).entries
    got = ar1_offdiag_closed(a, n, k, i, j)
    scale = max(1.0, np.max(np.abs(dense)))
    assert abs(got - dense[i - 1, j - 1]) <= 1e-12 * scale


def test_last_diag_entries_vanish_exactly():
    # rows past n - k carry no diagonal mass, in exact arithmetic and here
    for a in (-0.9, 0.4, 1.0):
        for k in (1, 2, 3):
            dense = autocov_matrix(ArModel((a,), 10), k).entries
            for i in range(10 - k, 10):
                assert dense[i, i] == 0.0


def test_power_sum_exact_at_unit_arguments():
    assert power_sum(1.0, 7) == 7.0
    assert power_sum(0.0, 7) == 1.0
    assert power_sum(0.25, 3) == 1.3125
    assert power_sum(2.0, 0) == 0.0
    assert power_sum(2.0, -3) == 0.0


def test_test_matrix_structure():
    # diagonal (a - a0) sum_{j<n-i} a^(2j) with zero last entry; last row a^(n-i-1)
    a, a0, n = 0.8, 0.5, 9
    c = statistic_matrix(a, a0, n).entries
    for i in range(1, n):
        want = (a - a0) * power_sum(a * a, n - i)
        assert c[i - 1, i - 1] == pytest.approx(want, rel=1e-12)
    assert c[n - 1, n - 1] == 0.0
    for i in range(1, n):
        assert c[n - 1, i - 1] == pytest.approx(a ** (n - i - 1), rel=1e-12)
        assert c[i - 1, n - 1] == 0.0


def test_test_matrix_is_plain_autocov_at_a0_zero():
    a, n = 0.6, 8
    lhs = statistic_matrix(a, 0.0, n).entries
    rhs = autocov_matrix(ArModel((a,), n), 1).entries
    assert np.array_equal(lhs, rhs)


def test_empirical_autocov_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_autocov(x, 0) == pytest.approx(30.0 / 4)
    assert empirical_autocov(x, 1) == pytest.approx((2 + 6 + 12) / 4)
    assert empirical_autocov(x, 4) == 0.0
    with pytest.raises(ValueError):
        empirical_autocov(x, -1)


def test_model_and_quadform_validation():
    with pytest.raises(ValueError):
        ArModel((), 5)
    with pytest.raises(ValueError):
        ArModel((0.5,), 0)
    with pytest.raises(ValueError):
        ArModel((np.inf,), 5)
    with pytest.raises(ValueError):
        QuadForm(3, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        QuadForm(2, np.full((2, 2), np.nan))
    form = autocov_matrix(ArModel((0.5,), 4), 1)
    with pytest.raises(ValueError):
        form.entries[0, 0] = 99.0  # entries are read-only


@pytest.mark.parametrize("call, message", [
    (lambda: ar1_offdiag_closed(0.5, 4, 1, 0, 2), "need 1 <= i, j <= n"),
    (lambda: ar1_offdiag_closed(0.5, 4, 1, 2, 5), "need 1 <= i, j <= n"),
    (lambda: ar1_offdiag_closed(0.5, 4, -1, 2, 2), "need k >= 0"),
    (lambda: simulate_path(ArModel((0.5,), 4), np.ones(3)), "need eps of length n"),
    (lambda: empirical_autocov([], 0), "need a nonempty path"),
    (lambda: empirical_autocov(np.ones((2, 2)), 0), "need a nonempty path"),
])
def test_path_and_entry_helpers_check_their_arguments(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_statistic_normalises_one_of_k_and_a0():
    ar1, ar2 = ArModel((0.5,), 4), ArModel((0.5, 0.1), 4)
    stat = Statistic(ar2, k=np.int64(3))
    assert (stat.k, stat.a0) == (3, None) and type(stat.k) is int
    stat = Statistic(ar2, k=2.0)
    assert (stat.k, stat.a0) == (2, None) and type(stat.k) is int
    stat = Statistic(ar1, a0=1)
    assert (stat.k, stat.a0) == (None, 1.0) and type(stat.a0) is float
    one = "need exactly one of lag k and reference a0"
    for model, k, a0, message in [(ar1, None, None, one), (ar1, 1, 0.5, one),
                                  (ar1, -1, None, "need k >= 0"),
                                  (ar2, None, 0.5, "need an order-1 model"),
                                  (ar1, None, np.inf, "need a finite reference a0")]:
        with pytest.raises(ValueError, match=message):
            Statistic(model, k, a0)
        if a0 is None:  # an ArForm is a lag form
            with pytest.raises(ValueError, match=message):
                ar_quadform.ArForm(model, k)


@pytest.mark.parametrize("k, a0, message", [
    (-1, None, "need k >= 0"),
    (1.5, None, "need an integer k"),
    (np.nan, None, "need an integer k"),
    (None, None, "need exactly one of lag k and reference a0"),
    (1, 0.5, "need exactly one of lag k and reference a0"),
])
def test_every_statistic_entry_rejects_with_the_record_message(k, a0, message):
    # one validation rule: the record's, whichever entry a bad statistic reaches
    model = ArModel((0.5,), 10)
    calls = [lambda: statistic_tail(Statistic(model, k, a0), 1.5),
             lambda: McConfig(statistic=Statistic(model, k, a0), law=make_law(1.5))]
    if a0 is None:  # the entries that take a lag alone
        calls += [lambda: autocov_matrix(model, k), lambda: ar_quadform.ArForm(model, k),
                  lambda: ar1_upper_tail(0.5, 10, k, 1.5)]
    for call in calls:
        with pytest.raises(ValueError, match="^%s$" % message):
            call()


# The row-by-row builders the Toeplitz copies of the impulse response
# replaced; the forms must keep their bits, inf and nan included.

def build_a_oracle(model):
    n = model.n
    a = np.zeros((n, n))
    for r in range(n):
        for i, t in enumerate(model.theta[:r], start=1):
            if t != 0.0:
                a[r] += t * a[r - i]
        a[r, r] = 1.0
    return a


def solve_form_oracle(theta, y):
    """C = A^T Y without a matrix product, overwriting y.  With L = A^{-1}
    the banded AR filter, L^T C = Y reads bottom-up

        C[r] = Y[r] + theta_1 C[r+1] + ... + theta_p C[r+p],

    which costs O(n^2 p) instead of the O(n^3) product."""
    n = y.shape[0]
    step = np.empty(y.shape[1:])
    for r in range(n - 2, -1, -1):
        for i, t in enumerate(theta[:n - 1 - r], start=1):
            if t != 0.0:
                y[r] += np.multiply(t, y[r + i], out=step)
    return y


def autocov_oracle(model, k):
    n = model.n
    if k >= n:
        return np.zeros((n, n))
    y = np.zeros((n, n))
    y[k:] = build_a_oracle(model)[:n - k]
    return solve_form_oracle(model.theta, y)


def statistic_matrix_oracle(a, a0, n):
    model = ArModel((a,), n)
    amat = build_a_oracle(model)
    y = np.zeros((n, n))
    y[1:] = amat[:-1]
    y[:-1] -= a0 * amat[:-1]
    return solve_form_oracle(model.theta, y)


class RawForm:
    """QuadForm without its finiteness check, to compare overflowed forms."""

    def __init__(self, n, entries):
        self.n, self.entries = n, entries


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# coefficients up to 3 in modulus overflow long paths to inf and nan; exact
# zeros of either sign are skipped by the recursion
coefficient = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@given(theta=st.lists(coefficient, min_size=1, max_size=3),
       n=st.integers(1, 1000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_forms_match_row_loop_builders(theta, n, data):
    model = ArModel(theta, n)
    k = data.draw(st.integers(0, n + 2), label="k")
    with np.errstate(all="ignore"), mock.patch.object(ar_quadform, "QuadForm", RawForm):
        assert_same_bits(build_a(model), build_a_oracle(model))
        assert_same_bits(autocov_matrix(model, k).entries, autocov_oracle(model, k))


@given(a=coefficient, n=st.integers(1, 1000),
       a0=st.one_of(st.floats(-3.0, -1e-300), st.sampled_from([0.0, -0.0]),
                    st.floats(1e-300, 3.0)))
@settings(max_examples=40, deadline=None)
def test_test_matrix_matches_row_loop_builder(a, n, a0):
    with np.errstate(all="ignore"), mock.patch.object(ar_quadform, "QuadForm", RawForm):
        assert_same_bits(statistic_matrix(a, a0, n).entries, statistic_matrix_oracle(a, a0, n))


def test_overflowing_forms_keep_inf_and_nan_positions():
    model = ArModel((3.0,), 700)  # 3^699 overflows A itself
    with np.errstate(all="ignore"), mock.patch.object(ar_quadform, "QuadForm", RawForm):
        a = build_a(model)
        c = autocov_matrix(model, 1).entries
        t = statistic_matrix(3.0, 0.5, 700).entries
        assert np.isinf(a).any() and np.isinf(c).any() and np.isnan(t).any()
        assert_same_bits(a, build_a_oracle(model))
        assert_same_bits(c, autocov_oracle(model, 1))
        assert_same_bits(t, statistic_matrix_oracle(3.0, 0.5, 700))


def test_quadform_copies_a_caller_array_and_leaves_it_writable():
    mine = np.arange(9.0).reshape(3, 3)
    form = QuadForm(3, mine)
    assert not np.shares_memory(form.entries, mine)
    assert not form.entries.flags.writeable
    mine[0, 0] = 99.0  # the caller's array is neither frozen nor shared
    assert form.entries[0, 0] == 0.0


@pytest.mark.parametrize("build", [
    lambda: autocov_matrix(ArModel((0.5, -0.2), 50), 2),
    lambda: statistic_matrix(0.7, 0.3, 50),
])
def test_builders_hand_their_array_to_quadform(build):
    made = []
    solve = ar_quadform._solve_form

    def spy(theta, y):
        made.append(solve(theta, y))
        return made[-1]

    with mock.patch.object(ar_quadform, "_solve_form", spy):
        form = build()
    assert np.shares_memory(form.entries, made[0])  # taken over, not copied
    assert type(form.entries) is np.ndarray
    assert not form.entries.flags.writeable


@given(theta=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       n=st.integers(1, 120), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ar_form_reads_match_the_dense_form(theta, n, data):
    # the structured couplings are the dense ones up to rounding, normwise
    # (psi's subnormal entries, flushed to zero, included), one row per
    # index, bottom up.  The diagonal, a prefix sum, and the couplings are
    # held to the exact ones below
    model = ArModel(theta, n)
    k = data.draw(st.integers(0, n + 1), label="k")
    try:
        dense = autocov_matrix(model, k)
    except ValueError:
        with pytest.raises(ValueError, match="need finite entries"):
            ar_quadform.ArForm(model, k)
        return
    try:
        form = ar_quadform.ArForm(model, k)
    except ValueError:
        # the Cauchy-Schwarz bound overflows only next to a double's limit
        assert float(np.max(np.abs(dense.entries))) > 1e290
        return
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                    label="rows"))
    assume(rows.size)
    got = list(form.couplings(rows))
    assert [i for i, _ in got] == rows[::-1].tolist()
    want = coupling_rows(dense, rows)
    assert np.max(np.abs(np.array([row for _, row in got[::-1]]) - want)) \
        <= 1e-9 * float(np.max(np.abs(dense.entries)))
    assert form.is_zero(1e-12) == (k >= n)


def coupling_rows(form, rows):
    """The rows form.couplings yields for the indices rows, stacked in the
    order of rows."""
    got = dict(form.couplings(rows))
    return np.array([got[i] for i in rows.tolist()])


def fed_rows(form, rows):
    """The couplings of form on rows, and the sizes of the rows the one
    _recursion pass was fed, with _solve_form asserted never called."""
    fed = []
    recursion = ar_quadform._recursion

    def counted(given):
        for r, row in given:
            fed.append(row.size)
            yield r, row

    def spy(theta, given):
        return recursion(theta, counted(given))

    with mock.patch.object(ar_quadform, "_recursion", spy), \
            mock.patch.object(ar_quadform, "_solve_form") as solve:
        got = coupling_rows(form, rows)
    solve.assert_not_called()
    return got, fed


def test_ar_form_couplings_take_one_row_pass():
    # an explosive odd lag counts most rows as zero; their rows of S
    # come from one bottom-up pass of at most n rows, and no column is solved
    n, k = 600, 3
    model = ArModel((-1.1,), n)
    form = ar_quadform.ArForm(model, k)
    rows = np.flatnonzero(_diag_signs(form.diagonal())[1])
    assert rows.size > 250
    got, fed = fed_rows(form, rows)
    assert sum(fed) <= n * n
    dense = autocov_matrix(model, k)
    want = coupling_rows(dense, rows)
    assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(dense.entries)))
    # a stable AR(2) lag 1 counts only its last row as zero; the pass feeds
    # the rows from n - 1 down to it, here one, not all n.  That row of
    # S is psi_{n-2-j} / 2 on j < n - 1 (half row n - 1 of B A, as column
    # n - 1 of B A is zero), subnormals flushed
    n = 3000
    model = ArModel((-0.5, -0.3), n)
    form = ar_quadform.ArForm(model, 1)
    rows = np.flatnonzero(_diag_signs(form.diagonal())[1])
    assert rows.tolist() == [n - 1]
    got, fed = fed_rows(form, rows)
    assert fed == [n] * (n - rows[0])
    psi = ar_quadform._impulse_response(model)
    psi[np.abs(psi) < np.finfo(float).tiny] = 0.0
    assert np.array_equal(got[0], np.append(psi[n - 2::-1], 0.0) * 0.5)


# The exact reference: every double is a dyadic rational, so the AR
# recursion and every sum of a form are exact in Fractions.  Short paths and
# coefficients of modulus at least 2^-30 (or zero) keep them a few thousand
# bits long.

def exact_psi(theta, n):
    """psi_0, ..., psi_{n-1} of the AR recursion, exactly."""
    theta = [Fraction(t) for t in theta]
    psi = [Fraction(1)]
    for r in range(1, n):
        psi.append(sum((t * psi[r - i] for i, t in enumerate(theta[:r], start=1)),
                       Fraction(0)))
    return psi


def exact_lag_diagonal(theta, n, k):
    """C_ii = sum_r A[r, i] (B^k A)[r, i] = sum_{r >= i + k} psi_{r-i}
    psi_{r-i-k} of A^T B^k A, each entry summed on its own, exactly."""
    psi = exact_psi(theta, n)
    return [sum((psi[r - i] * psi[r - i - k] for r in range(i + k, n)), Fraction(0))
            for i in range(n)]


exact_coefficient = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                              st.floats(2.0 ** -30, 3.0), st.floats(-3.0, -2.0 ** -30))


@given(theta=st.lists(exact_coefficient, min_size=1, max_size=3),
       n=st.integers(1, 40), data=st.data())
@example(theta=[-0.5, -1.25], n=12, data=None)  # d_2 = 0 exactly
@example(theta=[0.9, -1.6], n=40, data=None)    # complex, explosive
@settings(max_examples=100, deadline=None)
def test_ar_form_diagonal_matches_the_exact_one(theta, n, data):
    # the prefix sum stays within 1e-13 of the diagonal scale, and the zero
    # rule reads off it the masks it reads off the exact diagonal, save for
    # entries within that distance of the rule's threshold
    ks = range(n + 2) if data is None else [data.draw(st.integers(0, n + 1), label="k")]
    for k in ks:
        got = ar_quadform.ArForm(ArModel(theta, n), k).diagonal()
        exact = exact_lag_diagonal(theta, n, k)
        scale = max(1, max(abs(e) for e in exact))
        assert max(abs(Fraction(g) - e) for g, e in zip(got.tolist(), exact)) <= 1e-13 * scale
        tol = Fraction(1e-12) * scale
        clear = np.array([abs(abs(e) - tol) > 2e-13 * scale for e in exact])
        pos, zero, _ = _diag_signs(got)
        assert np.array_equal(pos[clear], np.array([e > tol for e in exact])[clear])
        assert np.array_equal(zero[clear], np.array([abs(e) <= tol for e in exact])[clear])


def exact_couplings(theta, n, k):
    """S = (C + C^T) / 2 of C = A^T B^k A with a zero diagonal, exactly: C
    by the bottom-up recursion of solve_form_oracle on the rows of
    Y = B^k A."""
    psi = exact_psi(theta, n)
    c = [[psi[r - k - s] if r - k - s >= 0 else Fraction(0) for s in range(n)]
         for r in range(n)]
    for r in range(n - 2, -1, -1):
        for i, t in enumerate(theta[:n - 1 - r], start=1):
            if t != 0.0:
                c[r] = [x + Fraction(t) * y for x, y in zip(c[r], c[r + i])]
    return [[(c[i][j] + c[j][i]) / 2 if i != j else Fraction(0) for j in range(n)]
            for i in range(n)]


# A rounding bound for the structured couplings, entry by entry.  Take
# u = 2^-53, gamma_m = m u / (1 - m u), psi the exact impulse response of
# theta and p its order.
# 1. _impulse_response computes psi~_m = sum_i theta_i psi~_{m-i} + eta_m,
#    an inner product of at most p terms: |eta_m| <= gamma_p sum_i
#    |theta_i psi~_{m-i}|, plus tiny for what gradual underflow loses.  The
#    errors psi~ - psi solve the same recursion driven by eta, so they are
#    the convolution psi * eta; ArForm's flush of |psi~_m| < tiny adds
#    |psi~_m|.
# 2. Row s of W A is w_s = fl(psi^_{s-k-j} + psi^_{s+k-j}) over j (the second
#    term while s + k < n): off the exact row by u |w_s| and the two psi
#    errors.
# 3. The pass computes R^_s = fl(w_s + sum_q theta_q R^_{s+q}) = w_s +
#    sum_q theta_q R^_{s+q} + delta_s, an inner product of p + 1 terms:
#    |delta_s| <= gamma_{p+1} (|w_s| + sum_q |theta_q R^_{s+q}|), plus tiny.
#    R^ and the exact rows R solve one recursion L^T x = y, so R^_r - R_r =
#    sum_{s >= r} psi_{s-r} (w_s - exact w_s + delta_s), and |R^_{s+q}| is at
#    most |R_{s+q}| plus its own bound, known bottom up.
# The bound is evaluated in doubles on nonnegative terms, a few hundred
# roundings per entry; the factor 1 + 1e-9 covers them.  The recursion
# amplifies rounding by psi: on explosive paths this bound, not the dense
# form's miss or n roundings, is what the structured couplings meet.
# 4. The couplings are fl(R^ / 2), rows of S = R / 2: halving is exact
#    above the subnormals, and below them it loses at most 2^-1075, far less
#    than the 1e-9 tiny / 2 that the factor 1 + 1e-9 adds to the halved bound.

UNIT_ROUNDOFF, TINY = 2.0 ** -53, np.finfo(float).tiny


def gamma(m):
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def coupling_rounding_bound(theta, n, k, exact):
    """Entrywise bound on |ArForm(ArModel(theta, n), k) couplings - exact|,
    as derived above, for exact = exact_couplings(theta, n, k) = R / 2."""
    p = len(theta)

    def at(v, m):  # v[m] where 0 <= m < n, else 0
        return np.where((m >= 0) & (m < n), v[np.clip(m, 0, n - 1)], 0.0)

    t = np.abs(np.array(theta))
    psi = np.abs(np.array([float(v) for v in exact_psi(theta, n)]))
    psi_hat = ar_quadform._impulse_response(ArModel(theta, n))
    computed = np.abs(psi_hat)
    eta = gamma(p) * sum(ti * np.concatenate((np.zeros(i), computed))[:n]
                         for i, ti in enumerate(t, start=1)) + TINY
    eta[0] = 0.0  # psi_0 = 1, exactly
    flushed = computed < TINY
    err = np.convolve(psi, eta)[:n] + np.where(flushed, computed, 0.0)
    psi_hat[flushed] = 0.0
    s, j = np.indices((n, n))
    below = s + k < n
    w = np.abs(at(psi_hat, s - k - j) + np.where(below, at(psi_hat, s + k - j), 0.0))
    drive = UNIT_ROUNDOFF * w + at(err, s - k - j) + np.where(below, at(err, s + k - j), 0.0)
    rows = 2.0 * np.abs(np.array([[float(e) for e in row] for row in exact]))
    rows[np.diag_indices(n)] = [2.0 * abs(float(d)) for d in exact_lag_diagonal(theta, n, k)]
    bound = np.zeros((n, n))
    for r in range(n - 1, -1, -1):
        reach = sum(ti * (rows[r + q] + bound[r + q])
                    for q, ti in enumerate(t, start=1) if r + q < n)
        drive[r] += gamma(p + 1) * (w[r] + reach) + TINY
        bound[r] = psi[:n - r] @ drive[r:]
    bound[np.diag_indices(n)] = 0.0
    return bound * (1.0 + 1e-9) * 0.5


@given(theta=st.lists(exact_coefficient, min_size=1, max_size=3),
       n=st.integers(2, 45), k=st.integers(0, 44))
# lag 1 near b = -1, where the dense builder's small entries cancel
@example(theta=[-1e-6, -0.9999999999999999], n=3, k=1)
@example(theta=[1e-5, -0.9999999999999999], n=45, k=1)
@example(theta=[-1e-5, -0.9999999999999999], n=45, k=1)
# explosive AR(3) at k = 0, where W = 2 I and the structured rows are twice
# the dense builder's C^, rounding included: the recursion carries 4 eps
# max|exact| of rounding up column 0, which row 1 doubles, while the dense
# entry C^_10 + C^_01 adds the better-rounded C^_01 instead
@example(theta=[-2.284809868225526, -1.0, 1.0], n=7, k=0)
@settings(max_examples=30, deadline=None)
def test_ar_form_couplings_meet_the_recursion_rounding_bound(theta, n, k):
    # entry by entry the structured couplings meet the bound derived above,
    # and so does their PowerLog sum at alpha = 2 over every row of R = 2 S,
    # |R^^2 - R^2| <= B (2 |R| + B) per entry for B twice the bound on S,
    # whose squares, row sums and fsum add gamma_{n+1} of the computed sum
    assume(k < n)
    exact = exact_couplings(theta, n, k)
    form = ar_quadform.ArForm(ArModel(theta, n), k)
    bound = coupling_rounding_bound(theta, n, k, exact)
    got = coupling_rows(form, np.arange(n))
    for got_row, row, bound_row in zip(got.tolist(), exact, bound.tolist()):
        for g, e, b in zip(got_row, row, bound_row):
            assert abs(Fraction(g) - e) <= Fraction(b)
    magnitude = 2.0 * np.abs(np.array([[float(e) for e in row] for row in exact]))
    bound *= 2.0
    slack = (float(np.sum(bound * (2.0 * magnitude + bound)))
             + gamma(n + 1) * float(np.sum((magnitude + bound) ** 2))
             + n * n * TINY) * (1.0 + 1e-9)
    total = sum((2 * e) ** 2 for row in exact for e in row)
    got_sum = _coupling_sum(form, np.ones(n, bool), 2.0, False)[0]
    assert abs(Fraction(got_sum) - total) <= Fraction(slack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [(1e200,), (1e200, 0.0), (-3.0, 1e300), (1e308, 1e308)])
def test_ar_form_past_the_path_is_zero_however_large_psi(theta):
    # at lag k >= n the statistic is identically zero, as autocov_matrix says,
    # even where psi overflows a double
    n = 5
    model = ArModel(theta, n)
    form = ar_quadform.ArForm(model, n + 4)
    assert form.is_zero(1e-12)
    assert np.array_equal(form.diagonal(), np.zeros(n))
    assert np.array_equal(autocov_matrix(model, n + 4).entries, np.zeros((n, n)))
    with pytest.raises(ValueError, match="need finite entries"):
        ar_quadform.ArForm(model, n - 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ar_form_overflow_bound_is_the_dense_error():
    # psi = (1, 1e150, 1e300) is finite but C_00 = |A e_0|^2 is not: the
    # Cauchy-Schwarz bound raises where the dense builder does
    model = ArModel((1e150,), 3)
    for build in (autocov_matrix, ar_quadform.ArForm):
        with pytest.raises(ValueError, match="^need finite entries$"):
            build(model, 0)
