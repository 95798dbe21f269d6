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


def autocov_matrix(model, k):
    """QuadForm C = A^T B^k A, so that eps^T C eps = n gamma_n(k)."""
    if k < 0:
        raise ValueError("need k >= 0")
    n = model.n
    if k >= n:
        return QuadForm(n=n, entries=np.zeros((n, n)))
    a = build_a(model)
    # row i of B^k A is row i-k of A, so A^T B^k A pairs rows k.. with rows ..n-k
    return QuadForm(n=n, entries=a[k:].T @ a[:n - k])


def test_matrix(a, a0, n):
    """QuadForm of the studentized statistic n (gamma_n(1) - a0 hat_gamma_n(0))
    for an AR(1) model with coefficient a."""
    model = ArModel((float(a),), n)
    amat = build_a(model)
    # B A is A shifted down one row: A^T B A and (B A)^T (B A) by row slicing
    lag = amat[:-1]
    c = amat[1:].T @ lag - float(a0) * (lag.T @ lag)
    return QuadForm(n=n, entries=c)


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


def simulate_path(model, eps):
    """Run the AR recursion on one innovation vector; equals build_a(model) @ eps
    up to rounding."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (model.n,):
        raise ValueError("need eps of length n")
    x = np.zeros(model.n)
    for r in range(model.n):
        acc = eps[r]
        for i, t in enumerate(model.theta[:r], start=1):
            acc += t * x[r - i]
        x[r] = acc
    return x


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
