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
The line a = 0 and the quadrant a < 0 <= b, where no k covers a point
(see first_covering_k), never enter the recursion.  On `regions --steps
201` they are 6,901 of the 40,401 points, and deciding them up front took
the scan from about 17 to 12.5 ms on a 2-vCPU x86_64 machine (CPython
3.11, numpy 2.4).
It returns them as a RegionScan, which write_region_csv writes straight
to text, deriving each point's regime from its first covering k.
"""

import math

import numpy as np

from ._text import fmt, write_header
from .ar_quadform import ArModel, _impulse_response, lag_sums
from .tail_formulas import POWER_HALF, POWER_LOG, check_span

# entry magnitude that triggers a uniform positive rescale of the scan state
_RESCALE_AT = 1e100


def a_col(a, b, jmax):
    """First trajectory column (A_{1,1}, ..., A_{jmax,1}): the impulse
    response of ArModel((a, b), jmax)."""
    if int(jmax) < 1:
        raise ValueError("need jmax >= 1")
    return _impulse_response(ArModel((a, b), jmax))


def diag_seq(a, b, kmax):
    """The sequence (d_1, ..., d_kmax) of n-free diagonal entries: the
    lag-1 prefix sums of a_col."""
    if int(kmax) < 1:
        raise ValueError("need kmax >= 1")
    return lag_sums(a_col(a, b, int(kmax) + 1), 1)


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
    prev is the cur of the check before (rescaled to at most 1 there if it
    passed), and a nan prev makes cur nan; so from k = 3 on the test reads
    |cur| alone.  The first check reads both, as its prev is a itself.
    Covered points leave the active set, and the scan stops once none is
    left.

    Points with a = +-0 or a < 0 <= b are decided before the loop, with the
    0 the steps would give at every kmax.  At a < 0 <= b, while cur and prev
    have opposite signs (or one is zero), fl(a cur) and fl(b prev) share the
    sign opposite to cur, so their sum keeps the alternation without a
    subtraction; rounding and the positive rescale keep every sign, and an
    overflow gives infinities of one sign, which a later rescale can only
    turn into nan: every product cur prev is <= 0 or nan.  At a = +-0, one
    of prev and cur is +-0 after the first step, so every product is +-0
    (or nan).
    """
    kmax = int(kmax)
    if kmax < 2:
        raise ValueError("need kmax >= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need 1-D a and b of equal length")
    first = np.zeros(a.size, dtype=np.int64)
    idx = np.flatnonzero(~((a == 0.0) | ((a < 0.0) & (b >= 0.0))))
    if not idx.size:
        return first
    a, b = a[idx], b[idx]
    prev = np.ones_like(a)  # A_{1,1}, A_{2,1}, possibly rescaled
    cur = a.copy()
    d = np.zeros_like(a)
    m = np.empty_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, kmax + 1):
            d += np.multiply(cur, prev, out=m)  # now a positive multiple of d_{k-1}
            covered = d > 0.0
            if covered.any():
                first[idx[covered]] = k
                keep = ~covered
                if not keep.any():
                    break
                idx, a, b, prev, cur, d = (v[keep] for v in (idx, a, b, prev, cur, d))
                m = m[:idx.size]
            # prev becomes a * cur + b * prev, the next cur
            np.add(np.multiply(a, cur, out=m), np.multiply(b, prev, out=prev), out=prev)
            prev, cur = cur, prev
            m = np.abs(cur, out=m)
            if k == 2:
                np.maximum(np.abs(prev), m, out=m)
            big = m > _RESCALE_AT
            if big.any():
                s = 1.0 / m[big]
                prev[big] *= s
                cur[big] *= s
                d[big] *= s * s
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
    k = int(k)
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
    steps = int(steps)
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


def write_region_csv(scan, fh, header_lines=()):
    """Write a RegionScan as CSV: booleans as 1/0, a missing k as an empty
    field, reals with 17 significant digits, LF line endings.

    Every line is the text of its a and a cell, the rest of the line, one
    per distinct pair of a b value and a (first, stable, covered) code:
    each axis value and each cell is formatted once, and each a-row goes
    out as one string, its a joining the cells."""
    write_header(fh, header_lines)
    fh.write("a,b,stable,first_covering_k,in_theorem_region,regime\n")
    nb = scan.b.size
    codes = ((scan.first * 2 + scan.stable) * 2 + scan.covered).reshape(scan.a.size, nb)
    keys, inverse = np.unique((codes * nb + np.arange(nb)).ravel(), return_inverse=True)
    b_text = [fmt(v) for v in scan.b.tolist()]
    cells = ["%s,%d,%s,%d,%s\n" % (b_text[j], (c >> 1) & 1, "%d" % (c >> 2) if c >> 2 else "",
                                   c & 1, POWER_HALF if c >> 2 else POWER_LOG)
             for c, j in (divmod(key, nb) for key in keys.tolist())]
    for a, row in zip(scan.a.tolist(), inverse.reshape(scan.a.size, nb).tolist()):
        prefix = fmt(a) + ","
        fh.write(prefix + prefix.join(map(cells.__getitem__, row)))
