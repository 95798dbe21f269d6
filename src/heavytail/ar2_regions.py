"""Parameter-plane analysis for AR(2) models X_r = a X_{r-1} + b X_{r-2} + eps_r.

The first column of the trajectory matrix A follows

    A_{1,1} = 1,   A_{2,1} = a,   A_{j,1} = a A_{j-1,1} + b A_{j-2,1},

and the k-th-from-last diagonal entry of C = A^T B A is independent of the
path length:

    d_k = C_{n-k,n-k} = sum_{j=1}^{k} A_{j+1,1} A_{j,1}    (k <= n - 2).

a_col and diag_seq are ar_quadform's impulse response and its lag-1
prefix sums (lag_sums), the definition ArForm reads its diagonal from.

Some d_k > 0 puts the upper tail of n gamma_n(1) in the t^(-alpha/2) regime;
all d_k <= 0 leaves the degenerate t^(-alpha) log t regime.  This module
provides the membership scan over k, low-order polynomial forms of d_k, a
trigonometric closed form on the negative-discriminant half-plane, the
theorem's coverage condition and the stability triangle.

Membership, stability and the coverage condition are array kernels
(first_covering_k, stable_mask, theorem_region_mask); the scalar
region_membership is the first one's one-point case.  region_grid scans
the whole lattice at once: one recursion step over k for every
still-uncovered point, in the operation order of the one-point recursion,
so the columns (and the CSV bytes) are those of a point-by-point scan.
Only points with a < 0 and b < 0 enter the recursion: k = 2 covers every
a > 0, and no k covers a point on the line a = 0 or in the quadrant
a < 0 <= b (see first_covering_k); on `regions --steps 201` that settles
27,001 of the 40,401 points before the first step.  A point's state is
rescaled once it passes _RESCALE_AT, and the test for that runs only when
a bound on the whole state, grown by max(1, max|a| + max|b|) and a
rounding margin per step, passes it (once on that lattice, at k = 167).
On a 2-vCPU x86_64 machine (CPython 3.11, numpy 2.4) the scan of that
lattice takes about 6 ms; with a > 0 in the recursion and full rescale
and coverage tests at every step it took 8 ms.  region_grid returns the
columns as a RegionScan, which write_region_csv writes straight to text,
deriving each point's regime from its first covering k.
"""

import math

import numpy as np

from ._text import fmt
from .ar_quadform import ArModel, _impulse_response, check_int, lag_sums
from .tail_formulas import POWER_HALF, POWER_LOG, check_span

# entry magnitude that triggers a uniform positive rescale of the scan state
_RESCALE_AT = 1e100
# the scan's bound on its state is floored at the smallest normal double and
# grows by 16 ulps of 1 more than the step can (see first_covering_k)
_BOUND_FLOOR = 2.0 ** -1022
_GROW_MARGIN = 1.0 + 2.0 ** -49


def a_col(a, b, jmax):
    """First trajectory column (A_{1,1}, ..., A_{jmax,1}): the impulse
    response of ArModel((a, b), jmax)."""
    if check_int(jmax, "jmax") < 1:
        raise ValueError("need jmax >= 1")
    return _impulse_response(ArModel((a, b), jmax))


def diag_seq(a, b, kmax):
    """The sequence (d_1, ..., d_kmax) of n-free diagonal entries: the
    lag-1 prefix sums of a_col."""
    kmax = check_int(kmax, "kmax")
    if kmax < 1:
        raise ValueError("need kmax >= 1")
    return lag_sums(a_col(a, b, kmax + 1), 1)


def first_covering_k(a, b, kmax=200):
    """Array kernel of region_membership: for each point of the 1-D arrays
    a, b, the smallest k in [2, kmax] with d_{k-1} > 0, or 0 when no region
    up to kmax covers the point.

    One recursion over k runs on every still-uncovered point at once, with
    the scalar operation order of the recurrence, each step written into
    the same state and scratch arrays.  Each point's state is rescaled on
    its own, by 1/max(|prev|, |cur|) once that maximum passes _RESCALE_AT
    (a positive rescale preserves every sign), so only an a or b near a
    double's limit can overflow a step, which the scan keeps without a
    numpy warning.  From the second check on, |prev| <= _RESCALE_AT, since
    prev is the cur of the step before, which was within bounds or rescaled
    to at most 1 there, and a nan prev makes cur nan; so from k = 3 on the
    test reads |cur| alone.  The first check reads both, as its prev is a
    itself.  One reduction, the fmax of d (which skips nan, as d > 0 does),
    tells whether a step covers any point; only then is the mask built, and
    covered points leave the active set.  The scan stops once none is left,
    and the last k makes no step.

    The rescale test runs only when a bound M (`bound`) on max(|prev|,
    |cur|) over the points passes _RESCALE_AT: below it no point can pass,
    so skipping the test changes no bit.  M starts at max(1, A), is reset
    to the measured maximum after each test, and grows by
    g = max(1, A + B) (1 + 2^-49) per step, A and B being max|a| and max|b|
    over the points that enter the loop (a covered point that leaves only
    lowers them).  The step's new prev is the old cur, which is at most M,
    so g is at least 1 even when A + B < 1.  Its new cur
    fl(fl(a cur) + fl(b prev)) is at most ((A + B) M (1 + u) + 2 eta)(1 + u)
    in size, u = 2^-53, where eta = 2^-1075 bounds the absolute error of a
    subnormal product (a sum of doubles is exact when subnormal).  As M
    never drops below the smallest normal double lambda = 2^-1022 (the
    reset is floored there), 2 eta = 2 u lambda <= 2 u M, so the new
    maximum is below M max(1, A + B) (1 + 5u).  Forming A + B, g and M g
    rounds three times, and (1 - u)^3 (1 + 16u) > 1 + 5u, so the computed
    M still bounds the state.  An infinite a or b, or a nan or inf in the
    state, makes M inf or nan, which fails the gate `bound <= _RESCALE_AT`,
    so such a lattice runs the test at every step, as before the bound.  On
    `regions --steps 201` the test runs once (at k = 167), and with
    kmax = 2000 the first rescale comes at k = 333.

    Only points with a < 0 and b < 0 enter the loop; the rest are decided
    before it, as the steps would decide them at every kmax.  At a > 0 the
    first check reads d_1 = fl(a * 1) = a > 0, so first = 2.  A nan a gives
    d_1 = nan and a nan b makes every later d nan, so a point with a nan is
    covered only at k = 2, where a > 0.  Points with a = +-0 or a < 0 <= b
    get 0.  At a < 0 <= b, while cur and prev
    have opposite signs (or one is zero), fl(a cur) and fl(b prev) share the
    sign opposite to cur, so their sum keeps the alternation without a
    subtraction; rounding and the positive rescale keep every sign, and an
    overflow gives infinities of one sign, which a later rescale can only
    turn into nan: every product cur prev is <= 0 or nan.  At a = +-0, one
    of prev and cur is +-0 after the first step, so every product is +-0
    (or nan).
    """
    kmax = check_int(kmax, "kmax")
    if kmax < 2:
        raise ValueError("need kmax >= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need 1-D a and b of equal length")
    first = np.zeros(a.size, dtype=np.int64)
    first[a > 0.0] = 2  # d_1 = a
    idx = np.flatnonzero((a < 0.0) & (b < 0.0))
    if not idx.size:
        return first
    a, b = a[idx], b[idx]
    prev = np.ones_like(a)  # A_{1,1}, A_{2,1}, possibly rescaled
    cur = a.copy()
    d = np.zeros_like(a)
    m = np.empty_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        top_a, top_b = -float(a.min()), -float(b.min())  # every a, b < 0 here
        bound = max(top_a, 1.0)  # max(|prev|, |cur|) over the points
        grow = max(top_a + top_b, 1.0) * _GROW_MARGIN
        for k in range(2, kmax + 1):
            d += np.multiply(cur, prev, out=m)  # now a positive multiple of d_{k-1}
            if np.fmax.reduce(d) > 0.0:  # some d > 0; fmax skips nan as > does
                covered = d > 0.0
                first[idx[covered]] = k
                keep = ~covered
                if not keep.any():
                    break
                idx, a, b, prev, cur, d = (v[keep] for v in (idx, a, b, prev, cur, d))
                m = m[:idx.size]
            if k == kmax:
                break
            # prev becomes a * cur + b * prev, the next cur
            np.add(np.multiply(a, cur, out=m), np.multiply(b, prev, out=prev), out=prev)
            prev, cur = cur, prev
            bound *= grow
            if bound <= _RESCALE_AT:
                continue
            m = np.abs(cur, out=m)
            if k == 2:
                np.maximum(np.abs(prev), m, out=m)
            big = m > _RESCALE_AT
            if big.any():
                s = 1.0 / m[big]
                prev[big] *= s
                cur[big] *= s
                d[big] *= s * s
            bound = float(np.maximum(np.abs(prev, out=m), np.abs(cur), out=m)
                          .max(initial=_BOUND_FLOOR))
    return first


def region_membership(a, b, kmax=200):
    """Smallest k in [2, kmax] whose region contains (a, b), meaning
    d_{k-1} > 0 strictly; None when no region up to kmax covers the point.
    The one-point case of first_covering_k.
    """
    return int(first_covering_k([float(a)], [float(b)], kmax)[0]) or None


def region_polynomials(a, b):
    """The first three d_k as polynomials in (a, b):

        d_1 = a
        d_2 = a (a^2 + b + 1)
        d_3 = a (2 b^2 + b (3 a^2 + 1) + a^4 + a^2 + 1).
    """
    a = float(a)
    b = float(b)
    d1 = a
    d2 = a * (a * a + b + 1.0)
    d3 = a * (2.0 * b * b + b * (3.0 * a * a + 1.0) + a ** 4 + a * a + 1.0)
    return d1, d2, d3


def closed_form_diag(r, phi, k):
    """d_{k-1} = C_{n-k+1,n-k+1} at a = -2 r cos(phi), b = -r^2 in closed form:

        r * [ -2 (1 - r^(2k)) cos(phi) sin^2(phi)
              + r^(2(k-1)) (1 - r^2) sin(k phi)
                * (sin((k+1) phi) - r^2 sin((k-1) phi)) ]
        / [ (1 - r^2) ((1 - r^2)^2 + 4 r^2 sin^2(phi)) sin^2(phi) ]

    for r >= 0, r != 1 (removable singularity; use the recursion there) and
    0 < phi < pi.  k = 1 returns 0.
    """
    r = float(r)
    phi = float(phi)
    k = check_int(k, "k")
    if k < 1:
        raise ValueError("need k >= 1")
    if r < 0.0:
        raise ValueError("need r >= 0")
    if r == 1.0:
        raise ValueError("need r != 1 (removable singularity of the closed form)")
    if not 0.0 < phi < math.pi:
        raise ValueError("need 0 < phi < pi")
    s = math.sin(phi)
    c = math.cos(phi)
    one = 1.0 - r * r
    num = r * (-2.0 * (1.0 - r ** (2 * k)) * c * s * s
               + r ** (2 * (k - 1)) * one * math.sin(k * phi)
               * (math.sin((k + 1) * phi) - r * r * math.sin((k - 1) * phi)))
    den = one * (one * one + 4.0 * r * r * s * s) * s * s
    return num / den


def theorem_region_mask(a, b):
    """The theorem's condition, elementwise over arrays a, b: a > 0, or
    a <= 0 with b < -a^2 - 1, or a <= 0 with b < min(-a^2/4, a - 1).

    Coverage is proven for a > 0 at k = 2 (d_1 = a) and for a < 0 with
    b < -a^2 - 1 at k = 3 (d_2 = a (a^2 + b + 1)); on a = 0 every d_k
    vanishes.  The strip -a^2 - 1 <= b < min(-a^2/4, a - 1) holds curves
    no k covers (b = -a^2 for a < -(1 + sqrt 5)/2, as at (-2, -4), and
    b = -a^2/2, as at (-3, -4.5)); near them and b = a - 1 the first
    covering k is unbounded."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):  # -a * a = -inf compares as it should
        return ((a > 0.0) | (b < -a * a - 1.0)
                | (b < np.minimum(-a * a / 4.0, a - 1.0)))


def stable_mask(a, b):
    """Both roots (a +- sqrt(a^2 + 4 b)) / 2 of z^2 - a z - b strictly
    inside the unit disk, elementwise over arrays a, b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan roots: unstable
        root = np.sqrt((a * a + 4.0 * b).astype(complex))
        # hypot, as the scalar abs(complex) takes it: np.abs of a complex
        # array can round the other way, which flips points on the unit circle
        plus = (a + root) / 2.0
        minus = (a - root) / 2.0
        top = np.maximum(np.hypot(plus.real, plus.imag),
                         np.hypot(minus.real, minus.imag))
    return top < 1.0


class RegionScan:
    """One scanned lattice as columns: the axes a and b, and per point, in
    row-major order with a outermost, the masks stable and covered (in the
    theorem region) and first, the first covering k (0 when uncovered)."""

    def __init__(self, a, b, stable, first, covered):
        self.a, self.b = a, b
        self.stable, self.first, self.covered = stable, first, covered

    def __len__(self):
        return self.first.size


def region_grid(a_min, a_max, b_min, b_max, steps, kmax=200):
    """RegionScan of an inclusive steps x steps lattice of the (a, b) plane."""
    steps = check_int(steps, "steps")
    if steps < 2:
        raise ValueError("need steps >= 2")
    if not (float(a_min) < float(a_max) and float(b_min) < float(b_max)):
        raise ValueError("need a_min < a_max and b_min < b_max")
    a_axis = np.linspace(*check_span("a", a_min, a_max), steps)
    b_axis = np.linspace(*check_span("b", b_min, b_max), steps)
    a = np.repeat(a_axis, steps)
    b = np.tile(b_axis, steps)
    return RegionScan(a_axis, b_axis, stable_mask(a, b),
                      first_covering_k(a, b, kmax=kmax), theorem_region_mask(a, b))


def write_region_csv(scan, fh):
    """Write a RegionScan as CSV: booleans as 1/0, a missing k as an empty
    field, reals with 17 significant digits, LF line endings.

    Every line is the text of its a and a cell, the rest of the line, one
    per distinct pair of a b value and a (first, stable, covered) code:
    each axis value and each code is formatted once, each cell joins the
    two, the body is one gather from the cells, and each a-row goes out as
    one string, its a joining the cells.  The cells are found by sorting
    the lattice's keys, so no table is sized by first (or kmax)."""
    fh.write("a,b,stable,first_covering_k,in_theorem_region,regime\n")
    nb = scan.b.size
    codes = ((scan.first * 2 + scan.stable) * 2 + scan.covered).reshape(scan.a.size, nb)
    flat = (codes * nb + np.arange(nb)).ravel()
    keys = np.sort(flat)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    cell_codes, cell_cols = (v.tolist() for v in np.divmod(keys, nb))
    b_text = [fmt(v) + "," for v in scan.b.tolist()]
    tails = {c: "%d,%s,%d,%s\n" % ((c >> 1) & 1, "%d" % (c >> 2) if c >> 2 else "", c & 1,
                                   POWER_HALF if c >> 2 else POWER_LOG) for c in set(cell_codes)}
    cells = np.array([b_text[j] + tails[c] for c, j in zip(cell_codes, cell_cols)], dtype=object)
    body = cells[np.searchsorted(keys, flat)].reshape(scan.a.size, nb)
    for a, row in zip(scan.a.tolist(), body.tolist()):
        prefix = fmt(a) + ","
        fh.write(prefix + prefix.join(row))
