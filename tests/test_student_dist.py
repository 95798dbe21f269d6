import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import student_dist
from heavytail.student_dist import (PHI_COMPOSE_CUTOFF, cdf, density, make_law,
                                    normal_quantile,
                                    normal_quantile_sq_expansion,
                                    phi_inv_compose_s, quantile_tail, sample,
                                    s_inv_compose_phi_log, survival,
                                    tail_constant, upper_quantile)

# frozen 40-digit evaluations of Gamma((alpha+1)/2)/(sqrt(pi alpha) Gamma(alpha/2))
K_S_ORACLE = {
    1.0: 0.31830988618379067154,
    1.5: 0.34073498128869363995,
    2.0: 0.35355339059327376220,
    5.0: 0.37960668982249443119,
    10.0: 0.38910838396603105062,
}

# frozen 40-digit limits of x^alpha (1 - S_alpha(x))
TAIL_CONST_ORACLE = {
    1.0: 0.31830988618379067154,
    2.0: 0.5,
    5.0: 9.4901672455623607797,
}


def test_k_s_against_frozen_oracle():
    for alpha, want in K_S_ORACLE.items():
        got = make_law(alpha).k_s
        assert got == pytest.approx(want, rel=1e-14)


def test_tail_constant_against_frozen_oracle():
    for alpha, want in TAIL_CONST_ORACLE.items():
        got = tail_constant(make_law(alpha))
        assert got == pytest.approx(want, rel=1e-14)


def test_density_and_cdf_frozen_points():
    law = make_law(5.0)
    # 40-digit evaluations at alpha = 5
    assert density(law, 2.0) == pytest.approx(0.065090310326216466253, rel=1e-13)
    assert cdf(law, 3.0) == pytest.approx(0.98495037605126871308, rel=1e-13)


def test_cauchy_closed_forms():
    # alpha = 1 is the standard Cauchy law
    law = make_law(1.0)
    for x in (-3.0, -0.5, 0.0, 1.0, 7.5):
        assert density(law, x) == pytest.approx(1.0 / (math.pi * (1.0 + x * x)),
                                                rel=1e-13)
        assert cdf(law, x) == pytest.approx(0.5 + math.atan(x) / math.pi,
                                            rel=1e-13)


def test_make_law_rejects_bad_alpha():
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            make_law(alpha)


@given(alpha=st.floats(0.1, 20.0), x=st.floats(-50.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_cdf_symmetry_and_range(alpha, x):
    law = make_law(alpha)
    left = cdf(law, -x)
    right = cdf(law, x)
    assert abs(left + right - 1.0) < 1e-12
    assert 0.0 <= left <= 1.0
    assert survival(law, x) == pytest.approx(1.0 - right, abs=1e-12)


@given(alpha=st.floats(0.1, 20.0),
       x=st.floats(-30.0, 30.0), y=st.floats(-30.0, 30.0))
@settings(max_examples=200, deadline=None)
def test_cdf_monotone(alpha, x, y):
    law = make_law(alpha)
    lo, hi = min(x, y), max(x, y)
    assert cdf(law, lo) <= cdf(law, hi) + 1e-15


def test_survival_no_cancellation_far_out():
    # naive 1 - S(x) would round to 0 long before x = 1e200
    law = make_law(1.0)
    s = survival(law, 1e200)
    assert s == pytest.approx(1.0 / (math.pi * 1e200), rel=1e-10, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, x, want, rel", [
    (3.0, 1e103, 1.1026577908435840927e-309, 2e-13),
    (3.0, 3e103, 4.0839177438651262692e-311, 5e-13),  # its ulp is 1.2e-13 of it
    (30.0, 1e11, 1.0364534652562066912e-309, 2e-13),
    (300.0, 183.0, 4.1285600738871693351e-310, 2e-13),
    # a |log y| ~ 710 here: log y comes from x, as the rounding of y alone
    # would move I_y by ~a eps; at a = 5e5 scipy's betaln(a, 1/2) is off
    # by ~2e-10 absolute, which the bound of 1e-9 leaves room for
    (1e6, 37.6, 1.7719135754473523261e-309, 1e-9),
    (1e9, 37.6, 1.075349204126609306e-309, 1e-10),
])
def test_survival_below_the_normal_doubles(alpha, x, want, rel):
    # betainc flushes all of these to 0; want is 50-digit mpmath betainc
    assert survival(make_law(alpha), x) == pytest.approx(want, rel=rel, abs=0.0)


def test_survival_decreases_across_the_normal_doubles_edge():
    # betainc's normal results above 2.2e-308, the series below
    s = survival(make_law(3.0), np.geomspace(3e102, 3e103, 101))
    assert s[0] > np.finfo(float).tiny > s[-1] > 0.0
    assert np.all(np.diff(s) < 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_and_survival_past_the_square_of_a_double():
    # y = alpha / (alpha + x^2) is subnormal past |x| ~ 1e154 and 0 once x * x
    # overflows; both stay positive, decreasing and on their first-order laws
    # until the value itself leaves the normal doubles
    x = np.geomspace(1e150, 1e300, 151)
    for alpha in (0.5, 1.5):
        law = make_law(alpha)
        s = survival(law, x)
        want = tail_constant(law) * x ** -alpha
        normal = want >= np.finfo(float).tiny
        assert normal[0] and np.all(np.diff(s[normal]) < 0.0)
        assert s[normal] == pytest.approx(want[normal], rel=1e-12, abs=0.0)
    law = make_law(0.5)
    d = density(law, x)
    want = law.k_s * 0.5 ** 0.75 * x ** -1.5
    normal = want >= np.finfo(float).tiny
    assert normal[0] and np.all(np.diff(d[normal]) < 0.0)
    assert d[normal] == pytest.approx(want[normal], rel=1e-12, abs=0.0)
    assert survival(law, 1e300) == pytest.approx(3.2070097541422282e-151, rel=1e-12, abs=0.0)
    assert density(law, -1e155) == density(law, 1e155)
    assert survival(law, math.inf) == 0.0 and density(law, math.inf) == 0.0


def test_quantile_tail_first_order():
    # alpha = 2: exact upper quantile at u = 1e-6, frozen from a 40-digit solve
    law = make_law(2.0)
    exact = upper_quantile(law, 1e-6)
    assert exact == pytest.approx(707.10572052593380253, rel=1e-12)
    approx = quantile_tail(law, 1e-6)
    assert approx == pytest.approx(exact, rel=1e-5)
    # the first-order error shrinks as u -> 0
    err = [abs(quantile_tail(law, u) / upper_quantile(law, u) - 1.0)
           for u in (1e-3, 1e-5, 1e-7)]
    assert err[0] > err[1] > err[2]


@given(alpha=st.floats(0.5, 10.0), log_u=st.floats(-12.0, -1.0))
@settings(max_examples=100, deadline=None)
def test_upper_quantile_inverts_survival(alpha, log_u):
    law = make_law(alpha)
    u = 10.0 ** log_u
    q = upper_quantile(law, u)
    assert survival(law, q) == pytest.approx(u, rel=1e-9)


def test_normal_quantile_frozen_point():
    # 40-digit two-sided 97.5% point of the standard normal law
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400542355,
                                                   rel=1e-14)
    assert normal_quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_normal_quantile_sq_expansion_converges():
    gaps = []
    for u in (1e-4, 1e-8, 1e-16, 1e-32):
        exact_sq = normal_quantile(u) ** 2  # Phi_inv(u)^2 = Phi_inv(1-u)^2
        gaps.append(abs(exact_sq - normal_quantile_sq_expansion(u)))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    # the o(1) rest decays like (log log(1/u))^2 / log(1/u), so slowly
    assert gaps[3] < 5e-2


@pytest.mark.parametrize("call, message", [
    (lambda: quantile_tail(make_law(1.5), 0.0), "need 0 < u < 1"),
    (lambda: quantile_tail(make_law(1.5), 1.0), "need 0 < u < 1"),
    (lambda: upper_quantile(make_law(1.5), 0.0), "need 0 < u < 1/2"),
    (lambda: upper_quantile(make_law(1.5), 0.5), "need 0 < u < 1/2"),
    (lambda: normal_quantile_sq_expansion(0.0), "need 0 < u < 1"),
    (lambda: normal_quantile_sq_expansion(math.nan), "need 0 < u < 1"),
])
def test_quantiles_check_u(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_phi_inv_compose_s_expansion():
    law = make_law(1.0)
    exact, expansion, ok = phi_inv_compose_s(law, 1e6)
    assert ok
    assert abs(exact - expansion) <= 5e-3
    # gap decreases along the grid
    gaps = [abs(e - a) for e, a, _ in
            (phi_inv_compose_s(law, x) for x in (1e3, 1e6, 1e9, 1e12))]
    assert gaps == sorted(gaps, reverse=True)


def test_phi_inv_compose_s_exact_roundtrip():
    from scipy.special import ndtr

    law = make_law(2.5)
    for x in (0.5, 3.0, 40.0, 1e4):
        exact, _, _ = phi_inv_compose_s(law, x)
        assert ndtr(exact) == pytest.approx(cdf(law, x), rel=1e-10)


def test_phi_inv_compose_s_below_cutoff():
    law = make_law(1.0)
    exact, expansion, ok = phi_inv_compose_s(law, 1.5)
    assert not ok
    assert math.isnan(expansion)
    assert math.isfinite(exact)
    assert 1.5 < PHI_COMPOSE_CUTOFF < 3.0


def test_s_inv_compose_phi_log_expansion():
    law = make_law(5.0)
    exact, expansion = s_inv_compose_phi_log(law, 8.0)
    assert abs(exact - expansion) <= 2e-2
    gaps = [abs(e - a) for e, a in
            (s_inv_compose_phi_log(law, x) for x in (8.0, 16.0, 30.0))]
    assert gaps == sorted(gaps, reverse=True)
    with pytest.raises(ValueError):
        s_inv_compose_phi_log(law, 0.0)
    with pytest.raises(ValueError):
        s_inv_compose_phi_log(law, 100.0)  # Phi(x) rounds to 1


def test_sample_deterministic_and_distributed():
    law = make_law(1.0)
    a = sample(law, np.random.default_rng(123), size=1000)
    b = sample(law, np.random.default_rng(123), size=1000)
    assert np.array_equal(a, b)
    # Cauchy draws: median near 0, quartiles near +-1
    big = sample(law, np.random.default_rng(7), size=200_000)
    q1, q2, q3 = np.quantile(big, [0.25, 0.5, 0.75])
    assert abs(q2) < 0.02
    assert abs(q1 + 1.0) < 0.02
    assert abs(q3 - 1.0) < 0.02


def test_sample_general_alpha_matches_cdf():
    # Kolmogorov-Smirnov style check of the alpha = 5 sampler against cdf
    law = make_law(5.0)
    draws = np.sort(sample(law, np.random.default_rng(42), size=100_000))
    grid = np.linspace(0.001, 0.999, 999)
    emp = np.quantile(draws, grid)
    gap = np.max(np.abs(cdf(law, emp) - grid))
    assert gap < 0.01


def test_sample_scalar_mode():
    law = make_law(2.0)
    one = sample(law, np.random.default_rng(0))
    assert isinstance(one, float)


def test_sample_polar_matches_cdf_across_alpha():
    # same quantile/CDF gap check on the polar branch, heavy to near-normal
    grid = np.linspace(0.001, 0.999, 999)
    for alpha, seed in ((0.5, 1), (1.5, 2), (3.0, 3), (40.0, 4)):
        law = make_law(alpha)
        draws = sample(law, np.random.default_rng(seed), size=100_000)
        emp = np.quantile(draws, grid)
        gap = np.max(np.abs(cdf(law, emp) - grid))
        assert gap < 0.01, (alpha, gap)


def test_sample_tail_ratio_near_tail_constant():
    # x^alpha P(|T| > x) / (2 tail_constant) -> 1; at these x the exact
    # ratio is within 0.3% of 1, the sampling error about 1%
    for alpha, x, seed in ((0.5, 100.0, 5), (1.5, 20.0, 6)):
        law = make_law(alpha)
        draws = sample(law, np.random.default_rng(seed), size=1_000_000)
        p_emp = np.count_nonzero(np.abs(draws) > x) / draws.size
        ratio = x ** alpha * p_emp / (2.0 * tail_constant(law))
        assert abs(ratio - 1.0) < 0.06, (alpha, ratio)
        p_exact = 2.0 * survival(law, x)
        assert abs(p_emp - p_exact) < 5.0 * math.sqrt(p_exact / draws.size)


def test_sample_large_alpha_is_finite_and_near_normal():
    from scipy.special import ndtr

    law = make_law(1e4)
    draws = sample(law, np.random.default_rng(8), size=100_000)
    assert np.all(np.isfinite(draws))
    assert abs(np.mean(draws)) < 0.02
    assert abs(np.std(draws) - 1.0) < 0.02
    grid = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(ndtr(np.quantile(draws, grid)) - grid)) < 0.01


def test_sample_same_state_same_bytes():
    for alpha in (0.7, 1.0, 2.5):
        law = make_law(alpha)
        g1 = np.random.default_rng(np.random.SeedSequence([9, 3]))
        g2 = np.random.default_rng(np.random.SeedSequence([9, 3]))
        for size in ((300, 7), 1, (5,)):
            assert sample(law, g1, size).tobytes() == sample(law, g2, size).tobytes()
        # both generators are left in the same state
        assert g1.random() == g2.random()


def test_sample_keeps_size_shapes():
    for alpha in (1.0, 1.5):
        law = make_law(alpha)
        assert isinstance(sample(law, np.random.default_rng(0)), float)
        assert sample(law, np.random.default_rng(0), size=17).shape == (17,)
        assert sample(law, np.random.default_rng(0), size=(0,)).shape == (0,)
        block = sample(law, np.random.default_rng(0), size=(40, 9))
        assert block.shape == (40, 9)
        # a block is the flat draw in row-major order
        flat = sample(law, np.random.default_rng(0), size=360)
        assert np.array_equal(block.ravel(), flat)


def test_sample_cauchy_is_tangent_of_the_stream_uniforms():
    law = make_law(1.0)
    u = np.random.default_rng(21).random((50, 6))
    got = sample(law, np.random.default_rng(21), size=(50, 6))
    assert np.array_equal(got, np.tan(np.pi * (u - 0.5)))


def _polar_formula(alpha, uniforms):
    """Bailey's polar transform without rejection, out of place, in the
    sampler's order of operations: T = cos(pi U1) sqrt(alpha (W^(-2/alpha)
    - 1)) with W = 1 - U2 and cos(pi U1) = 2 / (1 + tan(pi U1 / 2)^2) - 1."""
    u1, u2 = uniforms
    radius = np.sqrt(np.expm1(np.log(1.0 - u2) * (-2.0 / alpha)) * alpha)
    return radius * (2.0 / (1.0 + np.tan(u1 * (np.pi / 2.0)) ** 2) - 1.0)


def test_sample_polar_is_bailey_without_rejection_of_the_stream_uniforms():
    for alpha in (0.3, 1.5, 40.0):
        law = make_law(alpha)
        u = np.random.default_rng(21).random((2, 300))
        stream = np.random.default_rng(21)
        got = sample(law, stream, size=(50, 6))
        assert np.array_equal(got.ravel(), _polar_formula(alpha, u))
        # exactly two uniforms per draw: the stream goes on where one that
        # drew 600 uniforms goes on
        later = np.random.default_rng(21)
        later.random(600)
        assert stream.random() == later.random()


class _SmallestW:
    """Stream whose random((2, m)) has U1 = 0 and U2 = 1 - 2^-53 in every
    column: cos(pi U1) = 1 and W = 2^-53, the smallest W a Generator gives."""

    def random(self, size):
        out = np.zeros(size)
        out[1] = 1.0 - 2.0 ** -53
        return out


@pytest.mark.filterwarnings("error")
def test_sample_overflow_boundary_at_the_smallest_w():
    # W^(-2/alpha) = 2^(106/alpha) passes the largest double below
    # alpha = 106 log(2) / 709.78 = 0.1035
    got = sample(make_law(0.11), _SmallestW(), size=3)
    want = math.sqrt(0.11 * math.expm1(106.0 * math.log(2.0) / 0.11))
    assert got == pytest.approx(np.full(3, want), rel=1e-12)
    with pytest.raises(OverflowError, match=r"^innovations overflow a double at alpha=0\.1$"):
        sample(make_law(0.1), _SmallestW(), size=3)


@pytest.mark.parametrize("alpha, seed", [(0.7, 11), (1.5, 12), (3.0, 13)])
def test_sample_far_tail_matches_survival(alpha, seed):
    # P(|T| > x) at 2 survival(x) = p = 1e-4 over 10^6 draws: about 100
    # exceedances, whose ratio to n p has se 0.1; the bound is 4 se
    law = make_law(alpha)
    p, n = 1e-4, 1_000_000
    x = upper_quantile(law, p / 2.0)
    draws = sample(law, np.random.default_rng(seed), size=n)
    ratio = np.count_nonzero(np.abs(draws) > x) / (n * p)
    assert abs(ratio - 1.0) < 4.0 * math.sqrt((1.0 - p) / (n * p)), ratio


@pytest.mark.filterwarnings("error")
def test_sample_overflow_at_small_alpha_raises_without_warnings():
    # at alpha = 0.02 about one draw in a thousand overflows a double
    with pytest.raises(OverflowError, match="innovations overflow a double at alpha=0.02"):
        sample(make_law(0.02), np.random.default_rng(0), size=20_000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_overflow_at_subnormal_alpha_raises():
    # -2/alpha is already -inf below alpha of about 1.1e-308; the transform
    # then gives inf draws without raising a floating-point flag of its own
    with pytest.raises(OverflowError, match="innovations overflow a double at alpha=1e-320"):
        sample(make_law(1e-320), np.random.default_rng(0), size=100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantiles_where_tail_constant_over_u_overflows():
    # 3.98e98 / 1e-250 overflows a double; the first-order root does not
    law = make_law(100.0)
    approx = quantile_tail(law, 1e-250)
    assert math.isfinite(approx)  # inf here left upper_quantile halving inf forever
    want = math.exp((math.log(tail_constant(law)) + 250.0 * math.log(10.0)) / 100.0)
    assert approx == pytest.approx(want, rel=1e-13)
    q = upper_quantile(law, 1e-250)
    assert survival(law, q) == pytest.approx(1e-250, rel=1e-10, abs=0.0)
    assert q == pytest.approx(approx, rel=1e-4)
    # a finite ratio whose root overflows is named as the log route names it
    with pytest.raises(OverflowError, match=r"^first-order quantile overflows a double at u=0\.1$"):
        quantile_tail(make_law(0.001), 0.1)


@pytest.mark.parametrize("start", [0.0, math.inf])
def test_upper_quantile_bracket_at_zero_or_inf_is_overflow(monkeypatch, start):
    calls = []

    def counted(law, x):
        calls.append(x)
        assert len(calls) < 5000, "the bracket search does not end"
        return survival(law, x)

    monkeypatch.setattr(student_dist, "survival", counted)
    monkeypatch.setattr(student_dist, "quantile_tail", lambda law, u: start)
    with pytest.raises(OverflowError, match="quantile bracket leaves the doubles"):
        upper_quantile(make_law(1.5), 0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_upper_quantile_root_just_below_the_largest_double():
    # survival at the first-order quantile 1.354e308 is still above u; the
    # bracket once doubled it straight to inf, though the root is a double
    law = make_law(0.09508972767494876)
    u = 2.1043780483204162e-30
    assert survival(law, quantile_tail(law, u)) > u > survival(law, sys.float_info.max)
    q = upper_quantile(law, u)
    assert quantile_tail(law, u) < q < sys.float_info.max
    assert survival(law, q) == pytest.approx(u, rel=1e-9)


def test_upper_quantile_bracket_past_the_largest_double_is_overflow(monkeypatch):
    # survival at the largest double is still about 0.24 > u: no double brackets the root
    law = make_law(0.001)
    monkeypatch.setattr(student_dist, "quantile_tail", lambda law, u: 1e300)
    assert survival(law, sys.float_info.max) > 0.01
    with pytest.raises(OverflowError, match="quantile bracket leaves the doubles"):
        upper_quantile(law, 0.01)
