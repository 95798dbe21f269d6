"""Student-like innovation law with tail index alpha.

The density is

    s_alpha(x) = k_s * (1 + x^2/alpha)^(-(alpha+1)/2),
    k_s        = Gamma((alpha+1)/2) / (sqrt(pi*alpha) * Gamma(alpha/2)),

a symmetric law whose upper tail satisfies

    x^alpha * (1 - S_alpha(x)) -> k_s * alpha^((alpha-1)/2)    (x -> oo).

Besides density / CDF / quantile / sampling, the module carries the large-x
expansions of the compositions Phi_inv(S_alpha(x)) and log S_alpha_inv(Phi(x))
(Phi is the standard normal CDF) that the tail formulas rely on.

Sampling, part of the Monte Carlo RNG scheme block-v3: alpha = 1 is the
tangent transform of a uniform, every other alpha Bailey's polar method
(R. W. Bailey, "Polar generation of random variates with the
t-distribution", Math. Comp. 62 (1994) 779-781) in a form without
rejection, which takes exactly two uniforms per draw.

scipy is imported inside the functions that need it (survival, and through
it cdf; upper_quantile, normal_quantile and the two compositions), never at
module level: importing the package, and every subcommand but `dist`, loads
numpy only.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

# below this x the large-x expansion of Phi_inv(S_alpha(x)) is not usable
# (it takes log log x, which needs x > e to be positive)
PHI_COMPOSE_CUTOFF = math.e


@dataclass(frozen=True)
class StudentLaw:
    """Tail index alpha > 0 and the normalizing constant k_s of the density."""

    alpha: float
    k_s: float


def make_law(alpha):
    """Build the law with tail index alpha.

    k_s is evaluated through log-Gamma, so large alpha does not overflow.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError("need finite alpha > 0")
    log_ks = (math.lgamma((alpha + 1.0) / 2.0) - math.lgamma(alpha / 2.0)
              - 0.5 * math.log(math.pi * alpha))
    return StudentLaw(alpha=alpha, k_s=math.exp(log_ks))


def _ratio(law, x):
    """(y, far, t), y = alpha / (alpha + x^2): far marks the x whose y is
    subnormal or 0 (|x| past about 1e154); t = sqrt(alpha) / |x| there, with
    y = t^2 (1 + O(y)), and 0 elsewhere."""
    with np.errstate(over="ignore"):
        y = law.alpha / (law.alpha + x * x)
    far = y < np.finfo(float).tiny
    return y, far, math.sqrt(law.alpha) / np.where(far, np.abs(x), np.inf)


def density(law, x):
    """Density s_alpha(x) = k_s y^((alpha+1)/2), y = alpha / (alpha + x^2);
    symmetric, unimodal, maximal at 0.  Where y is subnormal or 0, the power
    is taken as t^(alpha+1) (_ratio)."""
    x = np.asarray(x, dtype=float)
    power = (law.alpha + 1.0) / 2.0
    _, far, t = _ratio(law, x)
    with np.errstate(over="ignore"):
        base = 1.0 + x * x / law.alpha
    out = law.k_s * np.where(far, t ** (2.0 * power), base ** -power)
    return out if out.ndim else float(out)


def survival(law, x):
    """Upper tail 1 - S_alpha(x), without cancellation for large x.

    For x >= 0 the tail equals I_y(alpha/2, 1/2) / 2 with y = alpha/(alpha+x^2)
    and I the regularized incomplete beta function; x < 0 goes through symmetry.
    Where y is subnormal or 0, I_y / 2 is its leading term k_s t^alpha /
    sqrt(alpha) (_ratio), good to a relative O(y) below 1e-300.  Below the
    normal doubles, where betainc flushes to 0, I_y / 2 is a series sum.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    y, far, t = _ratio(law, x)
    half = np.asarray(0.5 * special.betainc(law.alpha / 2.0, 0.5, y))
    low = ~far & (half < np.finfo(float).tiny)
    if np.any(low):
        half[low] = _half_beta_series(law.alpha / 2.0, y[low],
                                      -np.log1p(x[low] ** 2 / law.alpha))
    half_tail = np.where(far, law.k_s / math.sqrt(law.alpha) * t ** law.alpha, half)
    out = np.where(x >= 0.0, half_tail, 1.0 - half_tail)
    return out if out.ndim else float(out)


def _half_beta_series(a, y, log_y):
    """I_y(a, 1/2) / 2 for 0 < y < 1 by its Pfaff-transformed series
    (DLMF 8.17.8, 15.8.1), y^a (1 - y)^(-1/2) / (2 a B(a, 1/2)) times
    sum_j (1/2)_j / (a + 1)_j z^j for z = y / (y - 1), the prefactor in log
    space.  log_y is log y taken from x, not from the rounded y, whose
    rounding a y^a would amplify a-fold.  Where I_y underflows, a |log y|
    > ~690 bounds each term ratio by (j + 1/2) / 690: the alternating sum
    ends in a few terms at any a, within its first term left out (the
    series in y needs ~37 / (1 - y))."""
    from scipy import special

    z, total, term, j = y / (y - 1.0), 0.0, np.ones(y.shape), 0
    while np.any(total + term != total):
        total = total + term
        term = term * z * ((0.5 + j) / (a + 1.0 + j))
        j += 1
    log_prefactor = (a * log_y - 0.5 * np.log1p(-y) - math.log(2.0 * a)
                     - special.betaln(a, 0.5))
    return np.exp(log_prefactor + np.log(total))


def cdf(law, x):
    """CDF S_alpha(x); equals survival(law, -x) by symmetry."""
    return survival(law, -np.asarray(x, dtype=float))


def tail_constant(law):
    """Limit of x^alpha * (1 - S_alpha(x)), namely k_s * alpha^((alpha-1)/2).
    Past alpha of about 256.8 it overflows a double, which raises OverflowError."""
    try:
        return law.k_s * law.alpha ** ((law.alpha - 1.0) / 2.0)
    except OverflowError:
        raise OverflowError("tail constant overflows a double at alpha=%r"
                            % law.alpha) from None


def quantile_tail(law, u):
    """First-order upper quantile: (1 - S_alpha)^{-1}(u) ~ (tail_constant/u)^(1/alpha).

    Intended for small u; the relative error vanishes as u -> 0.  Where
    tail_constant / u overflows a double, the root is taken in log space.
    A root past a double's range raises OverflowError, by either route.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("need 0 < u < 1")
    scale = tail_constant(law)
    try:
        if scale / u < math.inf:
            return (scale / u) ** (1.0 / law.alpha)
        return math.exp((math.log(scale) - math.log(u)) / law.alpha)
    except OverflowError:
        raise OverflowError("first-order quantile overflows a double at u=%r" % u) from None


def upper_quantile(law, u):
    """Exact solution q of 1 - S_alpha(q) = u for 0 < u < 1/2.

    Bracket around the first-order quantile, then Brent refinement on the
    cancellation-free survival function.  The upper end doubles up to the
    largest double.  OverflowError when the bracket reaches 0, when survival
    at the largest double is still above u, or when survival underflows
    before it reaches u.
    """
    from scipy.optimize import brentq

    u = float(u)
    if not 0.0 < u < 0.5:
        raise ValueError("need 0 < u < 1/2")
    top = sys.float_info.max
    lo = hi = quantile_tail(law, u)
    while 0.0 < hi < math.inf and survival(law, hi) > u:
        hi = min(2.0 * hi, top) if hi < top else math.inf
    while 0.0 < survival(law, lo) < u:
        lo /= 2.0
    if not 0.0 < lo <= hi < math.inf:
        raise OverflowError("quantile bracket leaves the doubles at u=%r" % u)
    q = lo if lo == hi else brentq(lambda x: survival(law, x) - u, lo, hi, rtol=8.9e-16)
    if not u / 2.0 <= survival(law, q) <= 2.0 * u:
        raise OverflowError("survival underflows a double before it reaches u=%r" % u)
    return q


def normal_quantile(u):
    """Standard normal quantile Phi_inv(u), exact."""
    from scipy import special

    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("need 0 < u < 1")
    return float(special.ndtri(u))


def normal_quantile_sq_expansion(u):
    """Small-u expansion of the squared upper normal quantile:

        Phi_inv(1-u)^2 = 2 log(1/u) - log log(1/u) - 2 log(2 sqrt(pi)) + o(1).
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("need 0 < u < 1")
    big_l = math.log(1.0 / u)
    return 2.0 * big_l - math.log(big_l) - 2.0 * math.log(2.0 * math.sqrt(math.pi))


def phi_inv_compose_s(law, x):
    """Exact Phi_inv(S_alpha(x)) next to its three-term large-x expansion.

    Returns (exact, expansion, expansion_ok).  The expansion is

        sqrt(2 alpha log x) - log log x / (2 sqrt(2 alpha log x))
                            - log(k_s alpha^(alpha/2) 2 sqrt(pi)) / sqrt(2 alpha log x)

    and is only meaningful for x > PHI_COMPOSE_CUTOFF; below the cutoff the
    expansion slot is NaN and expansion_ok is False.  The exact branch goes
    through the upper tail, so it stays accurate far beyond the range where
    1 - S_alpha(x) would round to 0 in double precision.
    """
    from scipy import special

    x = float(x)
    u = survival(law, abs(x))
    exact = -math.copysign(1.0, x) * float(special.ndtri(u)) if x != 0.0 else 0.0
    if x <= PHI_COMPOSE_CUTOFF:
        return exact, math.nan, False
    big_l = math.log(x)
    lead = math.sqrt(2.0 * law.alpha * big_l)
    shift = (math.log(law.k_s) + 0.5 * law.alpha * math.log(law.alpha)
             + math.log(2.0 * math.sqrt(math.pi)))
    expansion = lead - math.log(big_l) / (2.0 * lead) - shift / lead
    return exact, expansion, True


def s_inv_compose_phi_log(law, x):
    """log S_alpha_inv(Phi(x)) for x > 0, next to its large-x expansion

        x^2/(2 alpha) + (1/alpha) log x
                      + (1/alpha) log(k_s alpha^((alpha-1)/2) sqrt(2 pi)) + o(1).

    Returns (exact_log, expansion).  The exact branch inverts the Student
    upper tail at u = 1 - Phi(x), so it needs Phi(x) < 1 in double precision
    (x below about 38).
    """
    from scipy import special

    x = float(x)
    if x <= 0.0:
        raise ValueError("need x > 0")
    u = float(special.ndtr(-x))
    if u == 0.0:
        raise ValueError("need x small enough that 1 - Phi(x) > 0 in double precision")
    exact = math.log(upper_quantile(law, u)) if u < 0.5 else math.log(1.0)
    shift = (math.log(law.k_s) + 0.5 * (law.alpha - 1.0) * math.log(law.alpha)
             + 0.5 * math.log(2.0 * math.pi))
    expansion = x * x / (2.0 * law.alpha) + math.log(x) / law.alpha + shift / law.alpha
    return exact, expansion


def _polar_draws(alpha, stream, m):
    """m draws by Bailey's polar method (R. W. Bailey, Math. Comp. 62 (1994)
    779-781) without its rejection step.  Bailey's T = U sqrt(alpha
    (W^(-2/alpha) - 1) / W), for (U, V) uniform on the unit disc and W =
    U^2 + V^2, depends on (U, V) only through W and cos(Theta) = U / sqrt(W),
    which are independent, W uniform on (0, 1] and Theta uniform (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. IX).  So

        T = cos(pi U1) sqrt(alpha (W^(-2/alpha) - 1)),   W = 1 - U2,

    has the law exactly, for every alpha > 0, from one stream.random((2, m))
    call (rows U1 and U2).  log and expm1 keep W^(-2/alpha) - 1 free of
    cancellation for large alpha.  cos(pi U1) is taken as 2 / (1 + tau^2) - 1
    with tau = tan(pi U1 / 2), since numpy's tan is vectorized where its cos
    is not; near U1 = 1/2, where T is near 0, that costs ~1e-16 absolute.
    The uniforms are multiples of 2^-53, so W >= 2^-53 and T overflows only
    for alpha below 106 log(2) / 709.78 = 0.1035, with probability about
    exp(-354.9 alpha) per draw; that raises OverflowError.
    """
    c, t = stream.random((2, m))
    try:
        with np.errstate(over="raise", invalid="raise"):
            np.subtract(1.0, t, out=t)
            np.log(t, out=t)
            # a numpy division, so that a subnormal alpha, whose -2/alpha
            # is already -inf, raises the overflow too
            t *= np.divide(-2.0, alpha)
            np.expm1(t, out=t)
            t *= alpha
            np.sqrt(t, out=t)
    except FloatingPointError:
        raise OverflowError("innovations overflow a double at alpha=%r"
                            % alpha) from None
    c *= np.pi / 2.0
    np.tan(c, out=c)
    c *= c
    c += 1.0
    np.divide(2.0, c, out=c)
    c -= 1.0
    t *= c
    return t


def sample(law, stream, size=None):
    """Draw from the law using the numpy Generator `stream`.

    alpha = 1 is the tangent transform of one uniform per draw; other alpha
    use Bailey's polar method without rejection, two uniforms per draw (see
    _polar_draws).  Both are exact in distribution, and the draws are a pure
    function of the generator state.  Returns an array of shape `size`, or a
    float when size is None.
    """
    if law.alpha == 1.0:
        u = stream.random(size)
        if size is None:
            return float(np.tan(np.pi * (u - 0.5)))
        # in place: no block-sized temporaries
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        return u
    out = _polar_draws(law.alpha, stream, 1 if size is None else int(np.prod(size)))
    return out.reshape(size) if size is not None else float(out[0])
