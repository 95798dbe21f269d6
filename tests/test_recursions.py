"""The AR recursion three ways: the path kernel (step by step for short
paths and for order p >= 3, a doubling scan for long AR(1)/AR(2) paths)
against the matrix action A eps, the O(n^2 p) form builders against the
dense products A^T B^k A, and the Monte Carlo path reductions against
eps^T C eps.

Bounds are relative to the scale each computation rounds at (absolute
values throughout), times the growth G of the companion powers M^s: the
scan multiplies partial states by M^s, and the form builders run the
recursion backwards through the same powers.  G = 1 for every stable AR(1)
model, so there the bound is a plain 1e-12; near repeated roots of an
AR(3) model G reaches a few hundred.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.ar_quadform import (ArModel, ar_paths, autocov_matrix, build_a,
                                   shift_pow)
from heavytail.ar_quadform import test_matrix as statistic_matrix
from heavytail.monte_carlo import path_stats
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
    # scan would lose ~5e-10 of |A| |eps| here; order-3 paths run step by
    # step, so the plain 1e-12 of the AR(1) case holds
    model = ArModel(tuple(float(v) for v in -np.poly([-0.95] * 3)[1:]), 653)
    eps = np.random.default_rng(7).standard_normal((model.n, 20))
    x = ar_paths(model.theta, eps)
    scale = np.abs(build_a(model)) @ np.abs(eps)
    assert np.all(np.abs(x - longdouble_paths(model.theta, eps)) <= RTOL * scale)


@pytest.mark.parametrize("n", [30, 70])  # step by step, doubling scan
def test_ar_paths_leave_the_input_and_read_any_layout(n):
    eps = np.random.default_rng(5).standard_normal((6, n))
    before = eps.copy()
    x = ar_paths((0.6, -0.2), eps.T)
    assert np.array_equal(eps, before)
    assert x.flags.c_contiguous and x.shape == (n, 6)
    assert np.array_equal(x, ar_paths((0.6, -0.2), np.ascontiguousarray(eps.T)))
    assert np.array_equal(ar_paths((0.0,), eps.T), eps.T)


def _assert_form_close(got, want, scale, growth):
    # normwise: single entries far from the diagonal sit many orders below the
    # entries whose rounding reaches them
    assert np.max(np.abs(got - want)) <= RTOL * growth * np.max(scale, initial=0.0)


@given(model=stable_models(max_n=300), k=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_autocov_matrix_matches_dense_product(model, k):
    a = build_a(model)
    shift = shift_pow(model.n, k)
    _assert_form_close(autocov_matrix(model, k).entries, a.T @ shift @ a,
                       np.abs(a).T @ shift @ np.abs(a),
                       companion_growth(model.theta, model.n))


@given(a=st.floats(-0.95, 0.95), a0=st.floats(-1.0, 1.0), n=st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_test_matrix_matches_dense_product(a, a0, n):
    amat = build_a(ArModel((a,), n))
    b = shift_pow(n, 1)
    mid = b - a0 * (b.T @ b)
    _assert_form_close(statistic_matrix(a, a0, n).entries, amat.T @ mid @ amat,
                       np.abs(amat).T @ np.abs(mid) @ np.abs(amat), 1.0)


@given(model=stable_models(), k=st.integers(0, 1003), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lagged_reduction_matches_quadratic_form(model, k, seed):
    n = model.n
    eps = sample(make_law(1.5), np.random.default_rng(seed), size=(3, n))
    entries = autocov_matrix(model, k).entries
    got = path_stats(eps, model.theta, k=k)
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
    got = path_stats(eps, (a,), a0=a0)
    direct = np.array([e @ entries @ e for e in eps])
    xa = np.abs(build_a(ArModel((a,), n))) @ np.abs(eps.T)
    scale = lagged(xa, 1) + abs(a0) * lagged(xa[:-1], 0)
    assert np.all(np.abs(got - direct) <= RTOL * scale)
