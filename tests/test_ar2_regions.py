import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import ArModel, autocov_matrix
from heavytail.ar2_regions import (_RESCALE_AT, a_col, closed_form_diag,
                                   diag_seq, first_covering_k, region_grid,
                                   region_membership, region_polynomials,
                                   stability_check, stable_mask,
                                   stable_tail_class, theorem_region_mask,
                                   theorem_region_test, write_region_csv)
from heavytail.student_dist import make_law
from heavytail.tail_formulas import (POWER_HALF, POWER_LOG,
                                     coef_degenerate_case)


def test_a_col_recursion_start():
    col = a_col(0.5, -0.3, 5)
    assert col[0] == 1.0
    assert col[1] == 0.5
    assert col[2] == pytest.approx(0.5 * 0.5 - 0.3)
    assert col[3] == pytest.approx(0.5 * col[2] - 0.3 * col[1])


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_a_col_root_closed_form(a, b):
    disc = a * a + 4.0 * b
    col = a_col(a, b, 12)
    if abs(disc) > 1e-6:
        u = (a + cmath.sqrt(complex(disc))) / 2.0
        v = (a - cmath.sqrt(complex(disc))) / 2.0
        for j in range(1, 13):
            want = ((u ** j - v ** j) / (u - v)).real
            assert col[j - 1] == pytest.approx(want, rel=1e-8, abs=1e-8)


@given(a=st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_a_col_double_root_closed_form(a):
    b = -a * a / 4.0
    col = a_col(a, b, 10)
    for j in range(1, 11):
        want = j * (a / 2.0) ** (j - 1)
        assert col[j - 1] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_diag_seq_low_order_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.uniform(-2.0, 2.0, 2)
        d = diag_seq(a, b, 3)
        p = region_polynomials(a, b)
        for k in range(3):
            assert abs(d[k] - p[k]) <= 1e-10 * max(1.0, abs(p[k]))


def test_diag_seq_matches_dense_matrix_everywhere():
    # d_k = C_{n-k,n-k} of A^T B A, independent of n for k <= n - 2
    for a, b in ((0.5, 0.2), (-0.7, -0.4), (1.1, -0.6)):
        d = diag_seq(a, b, 6)
        for n in (8, 12, 20):
            dense = autocov_matrix(ArModel((a, b), n), 1).entries
            for k in range(1, 7):
                assert dense[n - k - 1, n - k - 1] == pytest.approx(
                    d[k - 1], rel=1e-10, abs=1e-12)


def test_region_membership_first_region_is_positive_a():
    assert region_membership(0.5, -0.3) == 2
    assert region_membership(2.0, 1.0) == 2
    assert region_membership(0.0, 0.5) is None or region_membership(0.0, 0.5) > 2
    assert region_membership(-0.5, 2.0) != 2


def test_region_membership_matches_diag_seq_sign():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(-2.5, 2.5, 2)
        first = region_membership(a, b, kmax=40)
        d = diag_seq(a, b, 39)
        positive = np.flatnonzero(d > 0.0)
        if first is None:
            assert positive.size == 0
        else:
            assert first == positive[0] + 2


def test_region_membership_handles_explosive_points():
    # entries grow like 9^k here; the rescaled scan must not overflow
    assert region_membership(-3.0, -50.0, kmax=200) == 3
    assert region_membership(-6.0, -90.0, kmax=500) in (None, 3, 4)
    assert region_membership(-0.1, -900.0, kmax=2000) is not None


def test_fourth_region_boundary():
    # for a < 0 the fourth region is b strictly between the roots of
    # 2 b^2 + b (3 a^2 + 1) + a^4 + a^2 + 1, which are real only once
    # a^4 - 2 a^2 - 7 > 0, i.e. a < -sqrt(1 + 2 sqrt(2)) ~ -1.9566
    a = -2.0
    disc = a ** 4 - 2.0 * a ** 2 - 7.0
    assert disc > 0.0
    b_lo = (-(1.0 + 3.0 * a * a) - math.sqrt(disc)) / 4.0
    b_hi = (-(1.0 + 3.0 * a * a) + math.sqrt(disc)) / 4.0
    inside = 0.5 * (b_lo + b_hi)
    assert region_membership(a, inside, kmax=10) == 4
    eps = 1e-3
    assert region_membership(a, b_hi + eps, kmax=4) is None
    assert region_membership(a, b_lo - eps, kmax=4) is None


def test_closed_form_diag_matches_recursion():
    for r in (0.5, 0.9, 1.1, 2.0):
        for phi in (math.pi / 6, math.pi / 4, math.pi / 3):
            a = -2.0 * r * math.cos(phi)
            b = -r * r
            d = diag_seq(a, b, 12)
            for k in range(2, 13):
                got = closed_form_diag(r, phi, k)
                assert abs(got - d[k - 2]) <= 1e-9 * max(1.0, abs(d[k - 2]))
            assert abs(closed_form_diag(r, phi, 1)) < 1e-12


def test_closed_form_diag_preconditions():
    with pytest.raises(ValueError):
        closed_form_diag(1.0, math.pi / 4, 3)
    with pytest.raises(ValueError):
        closed_form_diag(-0.5, math.pi / 4, 3)
    with pytest.raises(ValueError):
        closed_form_diag(0.5, 0.0, 3)
    with pytest.raises(ValueError):
        closed_form_diag(0.5, math.pi, 3)
    with pytest.raises(ValueError):
        closed_form_diag(0.5, math.pi / 4, 0)


@given(a=st.floats(-3.0, 0.0), pad=st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_no_coverage_above_quarter_parabola(a, pad):
    # a <= 0 with b >= -a^2/4 is never covered by any region
    assert region_membership(a, -a * a / 4.0 + pad, kmax=50) is None


@given(a=st.floats(-3.0, 0.0), pad=st.floats(0.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_no_coverage_above_minus_one(a, pad):
    # a <= 0 with b >= -1 is never covered by any region
    assert region_membership(a, -1.0 + pad, kmax=50) is None


@given(a=st.floats(-4.0, 4.0), b=st.floats(-20.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_theorem_region_implies_coverage(a, b):
    # the line a = 0 is the one boundary case: every d_k vanishes there, so
    # the point sits in each region's closure but in no strict region
    if a != 0.0 and theorem_region_test(a, b):
        assert region_membership(a, b, kmax=400) is not None


def test_theorem_region_spot_values():
    assert theorem_region_test(0.1, 5.0)        # any a > 0
    assert theorem_region_test(-1.0, -2.5)      # b < -a^2 - 1
    assert theorem_region_test(-2.0, -3.5)      # b < min(-a^2/4, a - 1)
    assert not theorem_region_test(-1.0, -0.5)  # inside the uncovered wedge
    assert not theorem_region_test(0.0, 0.5)
    assert not theorem_region_test(-0.5, -1.1)  # below -1 is not enough here


def test_stability_triangle():
    assert stability_check(0.5, 0.3)
    assert stability_check(1.9, -0.95)
    assert stability_check(-1.9, -0.95)
    assert not stability_check(0.5, 0.6)   # real root at 1 crossed
    assert not stability_check(0.0, -1.0)  # unit modulus pair
    assert not stability_check(2.0, -1.0)  # double root at 1
    assert not stability_check(1.0, 0.0)   # root exactly at 1


def test_stable_tail_class_dichotomy():
    alpha = 1.0
    law = stable_tail_class(0.5, 0.3, 10, alpha)
    assert law.regime == POWER_HALF
    law = stable_tail_class(-0.5, -0.3, 10, alpha)
    assert law.regime == POWER_LOG
    with pytest.raises(ValueError):
        stable_tail_class(1.0, 0.5, 10, alpha)  # unstable


def test_stable_negative_a_coefficient_closed_form():
    # with every earlier diagonal entry negative, only the last row couples:
    # coef = k_s^2 alpha^alpha sum_{j=1}^{n-1} |A_{j,1}|^alpha
    alpha = 1.5
    k_s = make_law(alpha).k_s
    for a, b in ((-0.5, -0.3), (-1.2, -0.5), (-0.3, -0.8)):
        n = 12
        law = stable_tail_class(a, b, n, alpha)
        col = a_col(a, b, n - 1)
        want = k_s ** 2 * alpha ** alpha * float(np.sum(np.abs(col) ** alpha))
        assert law.regime == POWER_LOG
        assert law.coef == pytest.approx(want, rel=1e-12)
        dense = coef_degenerate_case(autocov_matrix(ArModel((a, b), n), 1), alpha)
        assert law.coef == pytest.approx(dense, rel=1e-12)


def test_region_grid_rows_and_csv(tmp_path):
    rows = region_grid(-1.0, 1.0, -1.0, 0.5, 3, kmax=30)
    assert len(rows) == 9
    assert rows[0][0] == -1.0 and rows[0][1] == -1.0
    assert rows[-1][0] == 1.0 and rows[-1][1] == 0.5
    for a, b, stable, first, covered, regime in rows:
        assert regime == (POWER_HALF if first is not None else POWER_LOG)
        if covered:
            assert first is not None
    out = tmp_path / "grid.csv"
    with open(out, "w", newline="\n") as fh:
        write_region_csv(rows, fh, header_lines=["config cmd=regions"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# config cmd=regions"
    assert lines[1] == "a,b,stable,first_covering_k,in_theorem_region,regime"
    assert len(lines) == 2 + 9
    # uncovered rows leave the k field empty; every row parses strictly
    for line in lines[2:]:
        a_s, b_s, stable_s, first_s, covered_s, regime_s = line.split(",")
        float(a_s), float(b_s)
        assert stable_s in ("0", "1") and covered_s in ("0", "1")
        assert first_s == "" or int(first_s) >= 2
        assert regime_s in (POWER_HALF, POWER_LOG)


# Scalar reference implementations the array kernels replaced; the kernels
# keep their operation order, so they must agree bit for bit.

def membership_oracle(a, b, kmax):
    prev, cur = 1.0, a
    d = 0.0
    for k in range(2, kmax + 1):
        d += cur * prev
        if d > 0.0:
            return k
        prev, cur = cur, a * cur + b * prev
        m = max(abs(prev), abs(cur))
        if m > _RESCALE_AT:
            s = 1.0 / m
            prev *= s
            cur *= s
            d *= s * s
    return None


def stability_oracle(a, b):
    root = cmath.sqrt(complex(a * a + 4.0 * b))
    return max(abs((a + root) / 2.0), abs((a - root) / 2.0)) < 1.0


def theorem_oracle(a, b):
    if a > 0.0:
        return True
    return b < -a * a - 1.0 or b < min(-a * a / 4.0, a - 1.0)


def assert_kernels_match_oracles(a, b, kmax):
    first = first_covering_k(a, b, kmax)
    stable = stable_mask(a, b)
    covered = theorem_region_mask(a, b)
    for i, (av, bv) in enumerate(zip(a.tolist(), b.tolist())):
        want = membership_oracle(av, bv, kmax)
        assert (int(first[i]) or None) == want, (av, bv, kmax)
        assert bool(stable[i]) == stability_oracle(av, bv), (av, bv)
        assert bool(covered[i]) == theorem_oracle(av, bv), (av, bv)


@given(a_lo=st.floats(-10.0, 9.99), a_span=st.floats(1e-3, 10.0),
       b_lo=st.floats(-1000.0, 5.0), b_span=st.floats(1e-3, 1000.0),
       steps=st.integers(2, 7), kmax=st.integers(2, 2000))
@settings(max_examples=60, deadline=None)
def test_kernels_match_scalar_oracles_on_lattices(a_lo, a_span, b_lo, b_span,
                                                  steps, kmax):
    # |a| <= 10 and b >= -1000 reach the explosive points that need rescaling
    a_hi = min(10.0, a_lo + a_span)
    a = np.repeat(np.linspace(a_lo, a_hi, steps), steps)
    b = np.tile(np.linspace(b_lo, b_lo + b_span, steps), steps)
    assert_kernels_match_oracles(a, b, kmax)
    rows = region_grid(a_lo, a_hi, b_lo, b_lo + b_span, steps, kmax=kmax)
    assert [row[:5] for row in rows] == [
        (av, bv, stability_oracle(av, bv), membership_oracle(av, bv, kmax),
         theorem_oracle(av, bv)) for av, bv in zip(a.tolist(), b.tolist())]


@given(a=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       kmax=st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_kernels_match_scalar_oracles_on_triangle_edges(a, kmax):
    # the stability-triangle edges b = -1, a + b = 1, b - a = 1 and the
    # double-root parabola a^2 + 4 b = 0, where every strict test is tight
    a = np.array(a)
    edges = (np.full_like(a, -1.0), 1.0 - a, 1.0 + a, -a * a / 4.0)
    assert_kernels_match_oracles(np.tile(a, len(edges)), np.concatenate(edges), kmax)


def test_first_covering_k_marks_uncovered_points_zero():
    a = np.array([0.5, -0.5, -3.0, 0.0])
    b = np.array([-0.3, 0.2, -50.0, 0.5])
    assert first_covering_k(a, b, 200).tolist() == [2, 0, 3, 0]
    with pytest.raises(ValueError):
        first_covering_k(a, b[:2], 200)
    with pytest.raises(ValueError):
        first_covering_k(a.reshape(2, 2), b.reshape(2, 2), 200)
    with pytest.raises(ValueError):
        first_covering_k(a, b, 1)


def test_write_region_csv_keeps_signed_zeros_apart_and_nans(tmp_path):
    rows = [(0.0, -0.0, True, 2, True, POWER_HALF),
            (-0.0, 0.0, False, None, False, POWER_LOG),
            (0.0, 0.0, False, None, False, POWER_LOG),
            (-0.0, -0.0, True, 3, False, POWER_HALF),
            (math.nan, 2.5, False, None, False, POWER_LOG),
            (math.nan, 2.5, False, None, False, POWER_LOG)]
    out = tmp_path / "zeros.csv"
    with open(out, "w", newline="\n") as fh:
        write_region_csv(rows, fh)
    assert out.read_text().splitlines()[1:] == [
        "0,-0,1,2,1,PowerHalf",
        "-0,0,0,,0,PowerLog",
        "0,0,0,,0,PowerLog",
        "-0,-0,1,3,0,PowerHalf",
        "nan,2.5,0,,0,PowerLog",
        "nan,2.5,0,,0,PowerLog"]
