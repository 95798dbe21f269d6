import cmath
import io
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import ArForm, ArModel, Statistic, autocov_matrix
from heavytail._text import fmt
from heavytail.ar2_regions import (_RESCALE_AT, RegionScan, a_col, closed_form_diag,
                                   diag_seq, first_covering_k, region_grid,
                                   region_membership, region_polynomials,
                                   stable_mask, theorem_region_mask,
                                   write_region_csv)
from heavytail.student_dist import make_law
from heavytail.tail_formulas import POWER_HALF, POWER_LOG, classify, statistic_tail


def test_a_col_recursion_start():
    col = a_col(0.5, -0.3, 5)
    assert col[0] == 1.0
    assert col[1] == 0.5
    assert col[2] == pytest.approx(0.5 * 0.5 - 0.3)
    assert col[3] == pytest.approx(0.5 * col[2] - 0.3 * col[1])


@pytest.mark.parametrize("call, message", [
    (lambda: a_col(0.5, -0.3, 0), "need jmax >= 1"),
    (lambda: diag_seq(0.5, -0.3, 0), "need kmax >= 1"),
])
def test_column_and_diagonal_need_one_entry(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diag_seq_counts_a_product_with_a_zero_factor_as_zero():
    # at a = 0 every other psi_m is 0 and psi overflows to inf next to them:
    # inf * 0 is no number, but each d_k is exactly 0
    assert np.isinf(a_col(0.0, 1e200, 7)).any()
    assert np.array_equal(diag_seq(0.0, 1e200, 6), np.zeros(6))
    assert np.array_equal(diag_seq(0.0, -1e300, 9), np.zeros(9))
    # finite products keep their bits; overflowing ones are inf, unannounced
    d = diag_seq(1e100, 0.0, 4)
    assert d[0] == 1e100 and d[1] == 1e100 + 1e300 and np.all(np.isinf(d[2:]))


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


def exact_first_covering_k(a, b, kmax):
    """region_membership in exact arithmetic.  With a = A / 2^e and
    b = B / 2^e, P_j = 2^(e j) psi_j and D_j = 2^(e (2j - 1)) d_j are
    integers: P_j = A P_(j-1) + 2^e B P_(j-2), D_j = 2^(2e) D_(j-1) + P_j P_(j-1)."""
    a, b = Fraction(a), Fraction(b)
    e = max(a.denominator, b.denominator).bit_length() - 1
    big_a, big_b = int(a * 2 ** e), int(b * 2 ** e) << e
    prev, cur, d = 1, big_a, 0
    for k in range(2, kmax + 1):
        d = (d << 2 * e) + cur * prev
        if d > 0:
            return k
        prev, cur = cur, big_a * cur + big_b * prev
    return None


@given(a=st.floats(-4.0, 4.0), b=st.floats(-20.0, 4.0))
@example(a=-2.0, b=-4.0)
@example(a=-3.653949958317595, b=-13.3515625)
@settings(max_examples=200, deadline=None)
def test_theorem_region_implies_coverage(a, b):
    # the line a = 0 is the one boundary case: every d_k vanishes there, so
    # the point sits in each region's closure but in no strict region.
    # a > 0 is covered at k = 2 (d_1 = a) and b < -a^2 - 1 at k <= 3
    # (d_2 = a (a^2 + b + 1)).  The rest, -a^2 - 1 <= b < min(-a^2/4, a - 1),
    # holds curves of rational angle that no k covers, b = -a^2 (phi = 2 pi/3,
    # the first example) and b = -a^2/2 (3 pi/4) among them, and next to them
    # and to b = a - 1 the first covering k has no bound (the second example
    # is first covered at k = 14760); there the scan must give the first
    # covering k of exact arithmetic.
    if a != 0.0 and theorem_region_mask(a, b):
        k = region_membership(a, b, kmax=400)
        if a > 0.0 or b < -a * a - 1.0:
            assert k is not None
        else:
            assert k == exact_first_covering_k(a, b, 400)


def test_theorem_region_spot_values():
    assert theorem_region_mask(0.1, 5.0)        # any a > 0
    assert theorem_region_mask(-1.0, -2.5)      # b < -a^2 - 1
    assert theorem_region_mask(-2.0, -3.5)      # b < min(-a^2/4, a - 1)
    assert not theorem_region_mask(-1.0, -0.5)  # inside the uncovered wedge
    assert not theorem_region_mask(0.0, 0.5)
    assert not theorem_region_mask(-0.5, -1.1)  # below -1 is not enough here


def test_stability_triangle():
    assert stable_mask(0.5, 0.3)
    assert stable_mask(1.9, -0.95)
    assert stable_mask(-1.9, -0.95)
    assert not stable_mask(0.5, 0.6)   # real root at 1 crossed
    assert not stable_mask(0.0, -1.0)  # unit modulus pair
    assert not stable_mask(2.0, -1.0)  # double root at 1
    assert not stable_mask(1.0, 0.0)   # root exactly at 1


def stable_tail_class(a, b, n, alpha):
    # the lag-1 law of a stable AR(2) model, from the one route to it
    assert stable_mask(a, b)
    return statistic_tail(Statistic(ArModel((a, b), n), k=1), alpha)


def test_stable_tail_class_dichotomy():
    alpha = 1.0
    law = stable_tail_class(0.5, 0.3, 10, alpha)
    assert law.regime == POWER_HALF
    law = stable_tail_class(-0.5, -0.3, 10, alpha)
    assert law.regime == POWER_LOG


def stable_tail_class_oracle(a, b, n, alpha):
    # the sign-of-a dispatch the lag-1 law on the stable region had before
    # it became the general classifier, with both coefficients and the zero
    # tolerance written out as they were; a zero row's diagonal entry, zero
    # within the tolerance, counts as zero in its couplings, as in classify.  The
    # diagonal is the lag-1 prefix sums and the couplings the structured
    # form's rows of C + C^T, both held to the exact ones in
    # test_ar_quadform: near b = -1 their small entries cancel, and the
    # dense builder keeps fewer of their digits.  The row sums are added
    # with math.fsum, as the classifier adds them
    diag = np.append(diag_seq(a, b, n - 1)[::-1], 0.0)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(diag))))
    law = make_law(alpha)
    if a > 0.0:
        scale = law.k_s * alpha ** ((alpha - 1.0) / 2.0)
        return POWER_HALF, 2.0 * scale * float(np.sum(diag[diag > tol] ** (alpha / 2.0)))
    assert not np.any(diag > tol)
    zero_rows = np.flatnonzero(np.abs(diag) <= tol)
    total = math.fsum(float(np.sum(np.abs(row) ** alpha))
                      for _, row in ArForm(ArModel((a, b), n), 1).couplings(zero_rows))
    return POWER_LOG, law.k_s ** 2 * alpha ** alpha * total


@given(mag=st.floats(1e-6, 2.0), negative=st.booleans(), b=st.floats(-1.0, 1.0),
       n=st.integers(3, 60), alpha=st.floats(0.3, 6.0))
@settings(max_examples=80, deadline=None)
# C_11 = a (1 + a^2 + b) is about -1e-18 here: zero within the tolerance
@example(mag=1e-6, negative=True, b=-0.9999999999999999, n=3, alpha=0.5)
# the small diagonal entries cancel to relative errors near 1e-6 here
@example(mag=1e-5, negative=False, b=-0.9999999999999999, n=60, alpha=0.3)
def test_stable_tail_class_matches_sign_of_a_oracle(mag, negative, b, n, alpha):
    a = -mag if negative else mag
    assume(stable_mask(a, b))
    law = stable_tail_class(a, b, n, alpha)
    regime, coef = stable_tail_class_oracle(a, b, n, alpha)
    assert (law.regime, law.coef) == (regime, coef)


def test_stable_tail_class_inside_zero_tolerance_is_the_classifier():
    # 0 < a within the 1e-12 zero tolerance: every diagonal entry counts as
    # zero, so the form is PowerLog like any other zero-diagonal form
    law = stable_tail_class(1e-13, 0.3, 10, 1.5)
    assert law.regime == POWER_LOG
    assert law == classify(ArForm(ArModel((1e-13, 0.3), 10), 1), 1.5)[1]


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
        dense = classify(autocov_matrix(ArModel((a, b), n), 1), alpha)[1].coef
        assert law.coef == pytest.approx(dense, rel=1e-12)


def test_region_grid_rows_and_csv(tmp_path):
    scan = region_grid(-1.0, 1.0, -1.0, 0.5, 3, kmax=30)
    assert len(scan) == 9
    assert scan.a.tolist() == [-1.0, 0.0, 1.0] and scan.b.tolist() == [-1.0, -0.25, 0.5]
    assert scan.stable.shape == scan.covered.shape == scan.first.shape == (9,)
    # the theorem region is covered
    assert np.all(scan.first[scan.covered] >= 2)
    out = tmp_path / "grid.csv"
    with open(out, "w", newline="\n") as fh:
        write_region_csv(scan, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,stable,first_covering_k,in_theorem_region,regime"
    assert len(lines) == 1 + 9
    # uncovered rows leave the k field empty; every row parses strictly
    for line in lines[1:]:
        a_s, b_s, stable_s, first_s, covered_s, regime_s = line.split(",")
        float(a_s), float(b_s)
        assert stable_s in ("0", "1") and covered_s in ("0", "1")
        assert first_s == "" or int(first_s) >= 2
        assert regime_s == (POWER_HALF if first_s else POWER_LOG)


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
    scan = region_grid(a_lo, a_hi, b_lo, b_lo + b_span, steps, kmax=kmax)
    points = list(zip(a.tolist(), b.tolist()))
    assert np.repeat(scan.a, steps).tolist() == a.tolist()
    assert np.tile(scan.b, steps).tolist() == b.tolist()
    assert scan.stable.tolist() == [stability_oracle(av, bv) for av, bv in points]
    assert [k or None for k in scan.first.tolist()] == [
        membership_oracle(av, bv, kmax) for av, bv in points]
    assert scan.covered.tolist() == [theorem_oracle(av, bv) for av, bv in points]


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


# The array kernel before its state moved into reused buffers, verbatim:
# the bit-identity oracle of first_covering_k, nan included (the scalar
# membership_oracle takes Python's max, which treats nan otherwise).

def first_covering_k_oracle(a, b, kmax=200):
    kmax = int(kmax)
    if kmax < 2:
        raise ValueError("need kmax >= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need 1-D a and b of equal length")
    first = np.zeros(a.size, dtype=np.int64)
    idx = np.arange(a.size)
    prev = np.ones_like(a)  # A_{1,1}, A_{2,1}, possibly rescaled
    cur = a.copy()
    d = np.zeros_like(a)
    for k in range(2, kmax + 1):
        d += cur * prev  # now a positive multiple of d_{k-1}
        covered = d > 0.0
        if covered.any():
            first[idx[covered]] = k
            keep = ~covered
            if not keep.any():
                break
            idx, a, b, prev, cur, d = (v[keep] for v in (idx, a, b, prev, cur, d))
        prev, cur = cur, a * cur + b * prev
        m = np.maximum(np.abs(prev), np.abs(cur))
        big = m > _RESCALE_AT
        if big.any():
            s = 1.0 / m[big]
            prev[big] *= s
            cur[big] *= s
            d[big] *= s * s
    return first


def lattice_ends(limit):
    """Two ends of a lattice axis: floats within limit, and the signed zeros
    and subnormals that hug a = 0 and b = 0."""
    end = st.one_of(st.floats(-limit, limit), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
    return st.tuples(end, end)


# the stability triangle's scale, moderate ones and magnitudes up to 1e300
LATTICE_AXIS = st.sampled_from([3.0, 1e3, 1e6, 1e300]).flatmap(lattice_ends)


@given(a_ends=LATTICE_AXIS, b_ends=LATTICE_AXIS, quadrant=st.booleans(),
       steps=st.integers(2, 12), kmax=st.integers(2, 2000))
# around the covered strip a < 0, b < -a^2 - 1, next to the decided quadrant
@example(a_ends=(-3.0, 3.0), b_ends=(-3.0, 3.0), quadrant=False, steps=12, kmax=100)
# the default box: the bound first sends the scan to its rescale test at
# k = 167, and the first rescale comes at k = 339 (k = 333 on 201 steps)
@example(a_ends=(-2.0, 2.0), b_ends=(-2.0, 1.0), quadrant=False, steps=21, kmax=2000)
# max|a| + max|b| < 1: the bound's growth factor is 1 plus its margin
@example(a_ends=(-0.5, 0.25), b_ends=(-0.375, 0.25), quadrant=False, steps=12, kmax=2000)
@settings(max_examples=80, deadline=None)
def test_first_covering_k_matches_array_oracle_on_lattices(a_ends, b_ends, quadrant, steps,
                                                           kmax):
    # |a| up to 1e3 grows the state past _RESCALE_AT within ~35 steps.  A
    # quadrant lattice lies wholly in a < 0 <= b (b = -0.0 included), which
    # the kernel decides before its recursion
    if quadrant:
        a_ends = tuple(-abs(v) or -5e-324 for v in a_ends)
        b_ends = tuple(v if v >= 0.0 else -v for v in b_ends)
    a = np.repeat(np.linspace(*a_ends, steps), steps)
    b = np.tile(np.linspace(*b_ends, steps), steps)
    first = first_covering_k(a, b, kmax)
    with np.errstate(all="ignore"):  # the oracle overflows without a guard
        assert np.array_equal(first, first_covering_k_oracle(a, b, kmax))
    if quadrant:
        assert not first.any()


def test_first_covering_k_matches_array_oracle_on_special_values():
    special = [0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, math.inf, -math.inf, math.nan]
    a = np.repeat(special, len(special))
    b = np.tile(special, len(special))
    # b = -a^2 to the bit leaves cur = 0 beside a prev past _RESCALE_AT at
    # the first check, the one check that must also read prev
    a = np.append(a, [-1e150, -1e120, -2e101])
    b = np.append(b, -a[-3:] * a[-3:])
    moderate = [-0.5, -5e-324, 0.5]
    cases = [
        (a, b),
        # moderate a beside every b: only max|b| makes the bound infinite
        (np.repeat(moderate, len(special)), np.tile(special, len(moderate))),
        # two fast points among slow ones: |a| = 1e3 sets the bound's growth
        # factor, so the bound is loose for every slow point, and stays so
        # once the second fast point is covered at k = 3
        (np.append(np.repeat(np.linspace(-1.0, -0.1, 6), 6), [-1e3, -1e3]),
         np.append(np.tile(np.linspace(-0.9, -0.05, 6), 6), [-1e3, -2e6])),
    ]
    with np.errstate(all="ignore"):
        for (a, b), kmax in itertools.product(cases, (2, 3, 50, 400)):
            assert np.array_equal(first_covering_k(a, b, kmax),
                                  first_covering_k_oracle(a, b, kmax))
        a, b = cases[0]
        assert first_covering_k(a[-3:], b[-3:], 50).tolist() == [6, 0, 0]


def test_write_region_csv_keeps_signed_zeros_apart_and_nans(tmp_path):
    scan = RegionScan(np.array([0.0, -0.0, math.nan]), np.array([-0.0, 0.0]),
                      stable=np.array([True, False, True, False, False, False]),
                      first=np.array([2, 0, 3, 0, 0, 0]),
                      covered=np.array([True, False, False, False, False, False]))
    out = tmp_path / "zeros.csv"
    with open(out, "w", newline="\n") as fh:
        write_region_csv(scan, fh)
    assert out.read_text().splitlines()[1:] == [
        "0,-0,1,2,1,PowerHalf",
        "0,0,0,,0,PowerLog",
        "-0,-0,1,3,0,PowerHalf",
        "-0,0,0,,0,PowerLog",
        "nan,-0,0,,0,PowerLog",
        "nan,0,0,,0,PowerLog"]


# The tuple-and-% writer write_region_csv replaced, fed the row tuples the
# old region_grid built from the same kernels.

def region_rows_oracle(a_min, a_max, b_min, b_max, steps, kmax):
    a = np.repeat(np.linspace(a_min, a_max, steps), steps)
    b = np.tile(np.linspace(b_min, b_max, steps), steps)
    first = first_covering_k(a, b, kmax=kmax)
    return [(a_v, b_v, stable, k or None, covered, POWER_HALF if k else POWER_LOG)
            for a_v, b_v, stable, k, covered
            in zip(a.tolist(), b.tolist(), stable_mask(a, b).tolist(),
                   first.tolist(), theorem_region_mask(a, b).tolist())]


def region_csv_oracle(rows):
    return "a,b,stable,first_covering_k,in_theorem_region,regime\n" + "".join(
        "%s,%s,%d,%s,%d,%s\n" % (fmt(a), fmt(b), stable,
                                 "" if first is None else "%d" % first, covered, regime)
        for a, b, stable, first, covered, regime in rows)


# endpoints of either zero sign: linspace ends on its stop value, so a stop
# of -0.0 puts -0.0 on the lattice, and [-x, x] lattices of odd size hold 0.0
edge = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0]))


@given(a_ends=st.tuples(edge, edge), b_ends=st.tuples(edge, edge),
       steps=st.integers(2, 12), kmax=st.integers(2, 300))
@example(a_ends=(-1.0, -0.0), b_ends=(-1.0, -0.0), steps=3, kmax=50)
@example(a_ends=(-1.0, 1.0), b_ends=(-2.0, 2.0), steps=5, kmax=50)
# a first covering k of 264, past one byte of the cell code
@example(a_ends=(-2.0, -0.5), b_ends=(-3.0, -1.0), steps=12, kmax=300)
@settings(max_examples=80, deadline=None)
def test_region_csv_matches_tuple_writer(a_ends, b_ends, steps, kmax):
    (a_min, a_max), (b_min, b_max) = sorted(a_ends), sorted(b_ends)
    assume(a_min < a_max and b_min < b_max)
    scan = region_grid(a_min, a_max, b_min, b_max, steps, kmax=kmax)
    rows = region_rows_oracle(a_min, a_max, b_min, b_max, steps, kmax)
    a, b, stable, first, covered, _ = zip(*rows)
    assert np.repeat(scan.a, steps).tolist() == list(a)
    assert np.tile(scan.b, steps).tolist() == list(b)
    assert scan.stable.tolist() == list(stable)
    assert [k or None for k in scan.first.tolist()] == list(first)
    assert scan.covered.tolist() == list(covered)
    fh = io.StringIO()
    write_region_csv(scan, fh)
    assert fh.getvalue() == region_csv_oracle(rows)


def test_write_region_csv_allocates_nothing_sized_by_first_covering_k():
    # first near 10**9, as a kmax of that size allows: a table indexed by
    # first would take gigabytes (traced even where the OS maps it lazily),
    # and a loop over k would take minutes
    a, b = np.array([-1.5, 0.25]), np.array([-3.0, 0.0])
    first = np.array([10**9, 0, 10**9 - 1, 2])
    scan = RegionScan(a, b, stable=np.array([False, True, True, False]), first=first,
                      covered=np.array([True, False, True, True]))
    rows = [(a_v, b_v, stable, k or None, covered, POWER_HALF if k else POWER_LOG)
            for a_v, b_v, stable, k, covered
            in zip(np.repeat(a, 2).tolist(), np.tile(b, 2).tolist(), scan.stable.tolist(),
                   first.tolist(), scan.covered.tolist())]
    fh = io.StringIO()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        write_region_csv(scan, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 1 << 20
    assert fh.getvalue() == region_csv_oracle(rows)
