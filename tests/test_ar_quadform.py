from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavytail import ar_quadform
from heavytail.ar_quadform import (ArModel, QuadForm, ar1_diag_closed,
                                   ar1_offdiag_closed, autocov_matrix,
                                   build_a, empirical_autocov, power_sum,
                                   shift_pow, simulate_path)
from heavytail.ar_quadform import test_matrix as statistic_matrix


def test_build_a_is_unit_lower_triangular():
    a = build_a(ArModel((0.5, -0.2, 0.1), 8))
    assert np.array_equal(np.diag(a), np.ones(8))
    assert np.array_equal(np.triu(a, 1), np.zeros((8, 8)))


def test_build_a_ar1_powers():
    a = build_a(ArModel((0.5,), 6))
    for i in range(6):
        for j in range(i + 1):
            assert a[i, j] == pytest.approx(0.5 ** (i - j), rel=1e-15)


def test_shift_pow_positions():
    b = shift_pow(5, 2)
    want = np.zeros((5, 5))
    for i in range(2, 5):
        want[i, i - 2] = 1.0
    assert np.array_equal(b, want)
    assert np.array_equal(shift_pow(5, 0), np.eye(5))
    assert np.array_equal(shift_pow(5, 7), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        shift_pow(5, -1)


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
                    assert ar1_diag_closed(a, n, k, i) == dense[i - 1, i - 1]
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


def test_diag_specializes_offdiag():
    for a in (-0.8, 0.3, 1.0):
        for i in range(1, 11):
            assert ar1_diag_closed(a, 10, 2, i) == ar1_offdiag_closed(a, 10, 2, i, i)


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


def autocov_oracle(model, k):
    n = model.n
    if k >= n:
        return np.zeros((n, n))
    y = np.zeros((n, n))
    y[k:] = build_a_oracle(model)[:n - k]
    return ar_quadform._solve_form(model.theta, y)


def statistic_matrix_oracle(a, a0, n):
    model = ArModel((a,), n)
    amat = build_a_oracle(model)
    y = np.zeros((n, n))
    y[1:] = amat[:-1]
    y[:-1] -= a0 * amat[:-1]
    return ar_quadform._solve_form(model.theta, y)


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


def subnormal_free(model):
    psi = ar_quadform._impulse_response(model)
    return not np.any((psi != 0.0) & (np.abs(psi) < np.finfo(float).tiny))


@given(theta=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       n=st.integers(1, 120), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ar_form_reads_have_the_dense_bits(theta, n, data):
    # where psi stays normal the structured reads are the dense ones bit for
    # bit, in chunks of a few rows (a tiny COUPLING_ENTRIES) as in one
    model = ArModel(theta, n)
    k = data.draw(st.integers(0, n + 1), label="k")
    try:
        dense = autocov_matrix(model, k)
    except ValueError:
        with pytest.raises(ValueError, match="need finite entries"):
            ar_quadform.autocov_form(model, k)
        return
    assume(subnormal_free(model))
    try:
        form = ar_quadform.autocov_form(model, k)
    except ValueError:
        # the Cauchy-Schwarz bound overflows only next to a double's limit
        assert float(np.max(np.abs(dense.entries))) > 1e290
        return
    assert_same_bits(form.diagonal(), np.diag(dense.entries))
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                    label="rows"))
    assume(rows.size)
    (at, want), = dense.couplings(rows)
    step = data.draw(st.sampled_from([1, 3, 10 ** 6]), label="rows per chunk")
    with mock.patch.object(ar_quadform, "COUPLING_ENTRIES", step * n):
        chunks = list(form.couplings(rows))
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), at)
    got = np.concatenate([c[1] for c in chunks])
    assert np.array_equal(got, want)
    assert form.is_zero(1e-12) == (k >= n)


@given(a=st.floats(-3.0, 3.0), a0=st.floats(-3.0, 3.0), n=st.integers(1, 120))
@settings(max_examples=100, deadline=None)
def test_pivot_form_couplings_have_the_dense_bits(a, a0, n):
    model = ArModel((a,), n)
    try:
        dense = statistic_matrix(a, a0, n)
    except ValueError:
        with pytest.raises(ValueError, match="need finite entries"):
            ar_quadform.pivot_form(a, a0, n)
        return
    assume(subnormal_free(model))
    try:
        form = ar_quadform.pivot_form(a, a0, n)
    except ValueError:
        assert float(np.max(np.abs(dense.entries))) > 1e290
        return
    rows = np.arange(n)
    (_, want), = dense.couplings(rows)
    (_, got), = form.couplings(rows)
    assert np.array_equal(got, want)
    assert form.is_zero(1e-12) == (n == 1)
