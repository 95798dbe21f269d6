"""One AR filter and what is built on it.  Its step kernel runs bottom up
in the O(n^2 p) form builders, checked against the dense products
A^T B^k A, and top down in the path kernel X = A eps, checked against the
matrix action A eps and, bit for bit, against a plain step loop.  Long
AR(1) paths take a doubling scan instead, pinned bit for bit to a plain
doubling loop.  The Monte Carlo path reductions are checked against
eps^T C eps.

Bounds are relative to the scale each computation rounds at (absolute
values throughout), times the growth G of the companion powers M^s: a
rounding error made at one step reaches later ones through M^s, forwards
in the paths and backwards in the form builders.  G = 1 for every stable
AR(1) model, so there the bound is a plain 1e-12; near repeated roots of
an AR(3) model G reaches a few hundred.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import ArModel, Statistic, ar_paths, autocov_matrix, build_a
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.student_dist import make_law, sample

RTOL = 1e-12


@st.composite
def stable_models(draw, max_p=3, max_n=1000):
    """AR(p) models with every characteristic root in |z| <= 0.95: real
    roots, with a complex pair in front when p >= 2 and the draw asks."""
    p = draw(st.integers(1, max_p))
    roots = [draw(st.floats(-0.95, 0.95)) for _ in range(p)]
    if p >= 2 and draw(st.booleans()):
        pair = draw(st.floats(0.0, 0.95)) * np.exp(1j * draw(st.floats(0.0, np.pi)))
        roots[:2] = [pair, np.conj(pair)]
    theta = tuple(float(v) for v in -np.real(np.poly(roots))[1:])
    return ArModel(theta, draw(st.integers(1, max_n)))


def companion_growth(theta, n):
    """G = max(1, max_{s<n} ||M^s||_inf) for the companion matrix M."""
    p = len(theta)
    m = np.zeros((p, p))
    m[0] = theta
    m[1:, :-1] = np.eye(p - 1)
    growth, power = 1.0, np.eye(p)
    for _ in range(n - 1):
        power = power @ m
        growth = max(growth, float(np.abs(power).sum(axis=1).max()))
    return growth


def lagged(x, k):
    """Column sums of x[t] x[t-k] over t, zero once k >= n."""
    n = x.shape[0]
    return np.einsum("ir,ir->r", x[k:], x[:n - k]) if k < n else np.zeros(x.shape[1])


@given(model=stable_models(), cols=st.integers(1, 4), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ar_paths_match_matrix_action(model, cols, seed):
    eps = np.random.default_rng(seed).standard_normal((model.n, cols))
    a = build_a(model)
    x = ar_paths(model.theta, eps)
    assert x.shape == eps.shape
    bound = RTOL * companion_growth(model.theta, model.n) ** 2
    assert np.all(np.abs(x - a @ eps) <= bound * (np.abs(a) @ np.abs(eps)))


def longdouble_paths(theta, eps):
    """The AR recursion step by step in long double, as a reference."""
    theta = np.array(theta, dtype=np.longdouble)
    eps = eps.astype(np.longdouble)
    x = np.zeros_like(eps)
    for t in range(eps.shape[0]):
        x[t] = eps[t]
        for i in range(1, min(len(theta), t) + 1):
            x[t] += theta[i - 1] * x[t - i]
    return x


def test_ar_paths_stay_accurate_at_a_triple_root():
    # (z + 0.95)^3: the companion powers grow like s^2 0.95^s, and a doubling
    # scan would lose ~5e-10 of |A| |eps| here; (z + 0.95)^2, where the
    # AR(2) doubling scan once lost ~3e-14.  Both run step by step, so the
    # plain 1e-12 of the AR(1) case holds
    for roots in ([-0.95] * 3, [-0.95] * 2):
        model = ArModel(tuple(float(v) for v in -np.poly(roots)[1:]), 653)
        eps = np.random.default_rng(7).standard_normal((model.n, 20))
        x = ar_paths(model.theta, eps)
        scale = np.abs(build_a(model)) @ np.abs(eps)
        assert np.all(np.abs(x - longdouble_paths(model.theta, eps)) <= RTOL * scale)


@pytest.mark.parametrize("n", [30, 70])  # step by step; AR(1) scans at 70
def test_ar_paths_leave_the_input_and_read_any_layout(n):
    eps = np.random.default_rng(5).standard_normal((6, n))
    before = eps.copy()
    for theta in ((0.6, -0.2), (0.7,)):
        x = ar_paths(theta, eps.T)
        assert np.array_equal(eps, before)
        assert x.flags.c_contiguous and x.shape == (n, 6)
        assert np.array_equal(x, ar_paths(theta, np.ascontiguousarray(eps.T)))
    assert np.array_equal(ar_paths((0.0,), eps.T), eps.T)


def plain_step_paths(theta, eps):
    """X = A eps by a plain step loop over whole time slices: X[t] = eps[t] +
    theta_1 X[t-1] + ... + theta_p X[t-p], left to right, zero coefficients
    skipped and unit ones adding their slice as it is."""
    eps = np.asarray(eps, dtype=float)
    x = np.empty(eps.shape)
    step = np.empty((1,) + eps.shape[1:])
    for t in range(eps.shape[0]):
        row, acc = x[t:t + 1], eps[t:t + 1]
        for i, c in enumerate(theta[:t], start=1):
            if c != 0.0:
                prev = x[t - i:t - i + 1]
                if c != 1.0:
                    prev = np.multiply(prev, c, out=step)
                np.add(acc, prev, out=row)
                acc = row
        if acc is not row:
            np.copyto(row, acc)
    return x


def plain_doubling_paths(a, eps):
    """X = A eps for AR(1) by a plain Hillis-Steele doubling loop: the pass
    with stride s adds c x[t-s] to x[t], c = a^s by repeated squaring, all
    read from a copy taken before the pass, until s reaches n or c is 0."""
    x = np.array(eps, dtype=float)
    c, s = float(a), 1
    while s < x.shape[0] and c != 0.0:
        before = x.copy()
        x[s:] = x[s:] + before[:-s] * c
        c, s = c * c, 2 * s
    return x


def layouts(rng, n):
    """Heavy-tailed (n, 5) innovation blocks over many scales with a -0 and a
    1e300 entry, alone and with inf, -inf and nan entries, as 2-D, 1-D and
    F-ordered eps."""
    block = rng.standard_t(1.5, size=(n, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 5))
    block[0, 1], block[-1, 2] = -0.0, 1e300
    special = block.copy()
    special.ravel()[rng.permutation(special.size)[:3]] = [np.inf, -np.inf, np.nan]
    return block, special, block[:, 0], special[:, 3], np.asfortranarray(special)


def assert_same_bits(got, want):
    # equal values, signs of zero and inf/nan positions.  A nan's own sign is
    # left out: numpy's in-place add of a single element returns its second
    # operand's nan
    nan = np.isnan(want)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


@pytest.mark.parametrize("theta", [
    (0.0,), (1.0,), (-1.0,), (0.7,), (1.0, 0.0), (0.0, -1.0), (0.6, -0.2), (-1.0, 1.0),
    (1.0, 0.0, -0.3), (0.2, 1.0, -1.0), (0.0, 0.0, 0.7, 1.0), (-0.4, 0.3, 0.0, -1.0),
])
def test_ar_paths_have_the_plain_step_loops_bits(theta):
    # the step branch (n <= 32, and p >= 2 at any n) must keep the operation
    # order of a plain step loop
    rng = np.random.default_rng(len(theta))
    for n in [1, 2, 5, 17, 32] + {2: [45, 200], 3: [45]}.get(len(theta), []):
        for eps in layouts(rng, n):
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(ar_paths(theta, eps), plain_step_paths(theta, eps))


@pytest.mark.parametrize("a", [0.0, -0.0, 1.0, -1.0, 0.5, -1.01, 3.0, 1e-200])
def test_ar1_scan_has_the_plain_doubling_loops_bits(a):
    # AR(1) paths past SEQUENTIAL_MAX_N scan; their bits are simulate's bytes
    rng = np.random.default_rng(7)
    for n in (33, 64, 1000):
        for eps in layouts(rng, n):
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(ar_paths((a,), eps), plain_doubling_paths(a, eps))


def _assert_form_close(got, want, scale, growth):
    # normwise: single entries far from the diagonal sit many orders below the
    # entries whose rounding reaches them
    assert np.max(np.abs(got - want)) <= RTOL * growth * np.max(scale, initial=0.0)


@given(model=stable_models(max_n=300), k=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_autocov_matrix_matches_dense_product(model, k):
    a = build_a(model)
    shift = np.eye(model.n, k=-k)
    _assert_form_close(autocov_matrix(model, k).entries, a.T @ shift @ a,
                       np.abs(a).T @ shift @ np.abs(a),
                       companion_growth(model.theta, model.n))


@given(a=st.floats(-0.95, 0.95), a0=st.floats(-1.0, 1.0), n=st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_test_matrix_matches_dense_product(a, a0, n):
    amat = build_a(ArModel((a,), n))
    b = np.eye(n, k=-1)
    mid = b - a0 * (b.T @ b)
    _assert_form_close(statistic_matrix(a, a0, n).entries, amat.T @ mid @ amat,
                       np.abs(amat).T @ np.abs(mid) @ np.abs(amat), 1.0)


@given(model=stable_models(), k=st.integers(0, 1003), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lagged_reduction_matches_quadratic_form(model, k, seed):
    n = model.n
    eps = sample(make_law(1.5), np.random.default_rng(seed), size=(3, n))
    entries = autocov_matrix(model, k).entries
    got = Statistic(model, k=k).reduce(eps)
    direct = np.array([e @ entries @ e for e in eps])
    # the path route rounds at sum |x[t]| |x[t-k]| with |x| <= |A| |eps|
    scale = lagged(np.abs(build_a(model)) @ np.abs(eps.T), k)
    bound = RTOL * companion_growth(model.theta, n) ** 2
    assert np.all(np.abs(got - direct) <= bound * scale)
    if k >= n:
        assert np.all(got == 0.0)


@given(a=st.floats(-0.95, 0.95), a0=st.floats(-1.0, 1.0), n=st.integers(1, 1000),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_pivot_reduction_matches_quadratic_form(a, a0, n, seed):
    eps = sample(make_law(1.5), np.random.default_rng(seed), size=(3, n))
    entries = statistic_matrix(a, a0, n).entries
    got = Statistic(ArModel((a,), n), a0=a0).reduce(eps)
    direct = np.array([e @ entries @ e for e in eps])
    xa = np.abs(build_a(ArModel((a,), n))) @ np.abs(eps.T)
    scale = lagged(xa, 1) + abs(a0) * lagged(xa[:-1], 0)
    assert np.all(np.abs(got - direct) <= RTOL * scale)
