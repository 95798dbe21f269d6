"""Trajectory matrices and quadratic forms for AR(p) sample autocovariances.

An AR(p) path driven by innovations eps is X = A eps with A unit lower
triangular, built row by row from

    X_r = theta_1 X_{r-1} + ... + theta_p X_{r-p} + eps_r    (X_r = 0, r <= 0).

With B the lag-1 downward shift, the scaled sample autocovariance is the
quadratic form

    n gamma_n(k) = <X, B^k X> = eps^T C eps,    C = A^T B^k A,

and the studentized lag-1 statistic n (gamma_n(1) - a0 hat_gamma_n(0)), with
hat_gamma_n(0) = n^{-1} sum_{i<=n-1} X_i^2, has C = A^T B A - a0 A^T B^T B A.
AR(1) entries of A^T B^k A also come in closed power-sum form, exact at
a = +-1 because no geometric ratio is ever formed.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArModel:
    """AR(p) coefficients theta = (theta_1, ..., theta_p) and path length n."""

    theta: tuple
    n: int

    def __post_init__(self):
        theta = tuple(float(v) for v in self.theta)
        if len(theta) < 1:
            raise ValueError("need at least one coefficient")
        if not all(math.isfinite(v) for v in theta):
            raise ValueError("need finite coefficients")
        if int(self.n) < 1:
            raise ValueError("need n >= 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self):
        return len(self.theta)


@dataclass(frozen=True)
class QuadForm:
    """Dense matrix of the quadratic form eps -> eps^T C eps."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (self.n, self.n):
            raise ValueError("need square entries of shape (n, n)")
        if not np.all(np.isfinite(entries)):
            raise ValueError("need finite entries")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


# longest path ar_paths runs step by step; past it the doubling scan's
# log2(n) passes over a Monte Carlo block cost less than n single-slice steps
SEQUENTIAL_MAX_N = 32


def build_a(model):
    """Unit lower triangular A with X = A eps for every innovation vector.

    Row r is the running sum of theta_i times row r-i (i <= min(p, r-1))
    plus the unit at the diagonal.
    """
    n = model.n
    a = np.zeros((n, n))
    for r in range(n):
        for i, t in enumerate(model.theta[:r], start=1):
            if t != 0.0:
                a[r] += t * a[r - i]
        a[r, r] = 1.0
    return a


def shift_pow(n, k):
    """k-th power of the lag-1 shift: ones at (i, i-k), zeros elsewhere."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        raise ValueError("need k >= 0")
    b = np.zeros((n, n))
    if k < n:
        rows = np.arange(k, n)
        b[rows, rows - k] = 1.0
    return b


def _solve_form(theta, y):
    """C = A^T Y without a matrix product, overwriting y.  With L = A^{-1}
    the banded AR filter, L^T C = Y reads bottom-up

        C[r] = Y[r] + theta_1 C[r+1] + ... + theta_p C[r+p],

    which costs O(n^2 p) instead of the O(n^3) product."""
    n = y.shape[0]
    for r in range(n - 2, -1, -1):
        for i, t in enumerate(theta[:n - 1 - r], start=1):
            if t != 0.0:
                y[r] += t * y[r + i]
    return y


def autocov_matrix(model, k):
    """QuadForm C = A^T B^k A, so that eps^T C eps = n gamma_n(k).

    Overflowing entries reach QuadForm's finiteness check without a numpy
    warning."""
    if k < 0:
        raise ValueError("need k >= 0")
    n = model.n
    if k >= n:
        return QuadForm(n=n, entries=np.zeros((n, n)))
    with np.errstate(over="ignore", invalid="ignore"):
        a = build_a(model)
        # row r of B^k A is row r-k of A
        y = np.zeros((n, n))
        y[k:] = a[:n - k]
        return QuadForm(n=n, entries=_solve_form(model.theta, y))


def test_matrix(a, a0, n):
    """QuadForm of the studentized statistic n (gamma_n(1) - a0 hat_gamma_n(0))
    for an AR(1) model with coefficient a."""
    model = ArModel((float(a),), n)
    with np.errstate(over="ignore", invalid="ignore"):
        amat = build_a(model)
        # B A - a0 B^T B A: A shifted down one row, minus a0 times A with its
        # last row cleared
        y = np.zeros((n, n))
        y[1:] = amat[:-1]
        y[:-1] -= float(a0) * amat[:-1]
        return QuadForm(n=n, entries=_solve_form(model.theta, y))


def power_sums(x, m):
    """Prefix geometric sums [power_sum(x, 1), ..., power_sum(x, m)] in one
    pass of the same Horner recurrence p_j = p_{j-1} x + 1, so every entry
    has the bits power_sum gives."""
    sums = []
    total = 0.0
    for _ in range(max(0, int(m))):
        total = total * x + 1.0
        sums.append(total)
    return sums


def power_sum(x, m):
    """Finite geometric sum 1 + x + ... + x^(m-1), with the empty sum 0.

    Horner evaluation; exact at x = 1 (gives m), no ratio formed.
    """
    sums = power_sums(x, m)
    return sums[-1] if sums else 0.0


def ar1_diag_closed(a, n, k, i):
    """Diagonal entry C_{i,i} of A^T B^k A for AR(1), 1-based index i:

        C_{i,i} = a^k * sum_{j=0}^{n-i-k} a^(2j),    zero once i > n - k.
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    if k < 0:
        raise ValueError("need k >= 0")
    m = n - i - k + 1
    if m <= 0:
        return 0.0
    return float(a) ** k * power_sum(a * a, m)


def ar1_offdiag_closed(a, n, k, i, j):
    """Entry C_{i,j} of A^T B^k A for AR(1), 1-based indices:

        C_{i,j} = a^|i-j-k| * sum_{m=0}^{n-max(i,j+k)} a^(2m),

    covering the diagonal as the case i = j.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need 1 <= i, j <= n")
    if k < 0:
        raise ValueError("need k >= 0")
    m = n - max(i, j + k) + 1
    if m <= 0:
        return 0.0
    return float(a) ** abs(i - j - k) * power_sum(a * a, m)


def ar_paths(theta, eps):
    """AR paths X = A eps of a time-major innovation block eps, shape (n, ...),
    as a new C-contiguous array.

    Paths of at most SEQUENTIAL_MAX_N steps, and every path of order p >= 3,
    run the recursion step by step, each step one elementwise update of a
    whole time slice.  Longer AR(1)/AR(2) paths use a Hillis-Steele doubling
    scan on the companion state z[t] = (x[t], ..., x[t-p+1]) with companion
    matrix M: z[t] starts at (eps[t], 0, ..., 0), and the pass with stride
    s = 1, 2, 4, ... adds M^s z[t-s], after which z[t] sums the innovations
    eps[t-2s+1..t].
    Elementwise numpy only, O(n log n p^2) per column.  The scan is kept to
    p <= 2: near a repeated root of order >= 3 the companion powers grow
    polynomially and the scan loses digits the step recursion keeps.
    Explosive models may overflow to inf or nan; callers check finiteness.
    """
    theta = [float(t) for t in theta]
    p = len(theta)
    eps = np.asarray(eps, dtype=float)
    n = eps.shape[0]
    if n <= SEQUENTIAL_MAX_N or p > 2:
        x = np.empty(eps.shape)
        step = np.empty((1,) + eps.shape[1:])
        for t in range(n):
            row, acc = x[t:t + 1], eps[t:t + 1]
            for i, c in enumerate(theta[:t], start=1):
                if c != 0.0:
                    prev = x[t - i:t - i + 1]
                    if c != 1.0:  # a unit coefficient adds its slice as is
                        prev = np.multiply(prev, c, out=step)
                    np.add(acc, prev, out=row)
                    acc = row
            if acc is not row:
                np.copyto(row, acc)
        return x
    z = [np.array(eps, order="C")] + [np.zeros(eps.shape) for _ in range(p - 1)]
    updates = [np.empty(eps.shape) for _ in range(p)]
    power = [theta] + [[float(j == i - 1) for j in range(p)] for i in range(1, p)]
    s = 1
    while s < n:
        m = n - s
        # every update reads z before this pass changes it
        live = []
        for row, update in zip(power, updates):
            terms = [(c, zj[:m]) for c, zj in zip(row, z) if c != 0.0]
            if terms:
                (c, src), rest = terms[0], terms[1:]
                np.multiply(src, c, out=update[:m])
                for c, src in rest:
                    update[:m] += c * src
            live.append(bool(terms))
        for zi, update, add in zip(z, updates, live):
            if add:
                np.add(zi[s:], update[:m], out=zi[s:])
        power = [[sum(row[q] * power[q][j] for q in range(p)) for j in range(p)]
                 for row in power]
        s *= 2
    return z[0]


def simulate_path(model, eps):
    """Run the AR recursion on one innovation vector; equals build_a(model) @ eps
    up to rounding."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (model.n,):
        raise ValueError("need eps of length n")
    return ar_paths(model.theta, eps)


def empirical_autocov(x, k):
    """Sample autocovariance gamma_n(k) = n^{-1} sum_{r=k+1}^{n} x_r x_{r-k}."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("need a nonempty path")
    if k < 0:
        raise ValueError("need k >= 0")
    n = x.size
    if k >= n:
        return 0.0
    return float(x[k:] @ x[: n - k]) / n
