"""Trajectory matrices and quadratic forms for AR(p) sample autocovariances.

An AR(p) path driven by innovations eps is X = A eps for

    X_r = theta_1 X_{r-1} + ... + theta_p X_{r-p} + eps_r    (X_r = 0, r <= 0),

with A unit lower triangular and Toeplitz in the impulse response psi of the
recursion: A[r, s] = psi_{r-s}.  The forms below are built as strided copies
of psi, never row by row.

With B the lag-1 downward shift, the scaled sample autocovariance is the
quadratic form

    n gamma_n(k) = <X, B^k X> = eps^T C eps,    C = A^T B^k A,

and the studentized lag-1 statistic n (gamma_n(1) - a0 hat_gamma_n(0)), with
hat_gamma_n(0) = n^{-1} sum_{i<=n-1} X_i^2, has C = A^T B A - a0 A^T B^T B A.
A Statistic record names one of the two and reduces blocks of paths to it.
AR(1) entries of A^T B^k A also come in closed power-sum form, exact at
a = +-1 because no geometric ratio is ever formed.

The tail classifier reads a form in three ways: its diagonal (diagonal),
row i of the symmetrized couplings S = (C + C^T) / 2 with the entry (i, i)
set to zero for each given index i (couplings, one row at a time), and
whether the form is identically zero (is_zero).  QuadForm answers from
its dense matrix.  ArForm answers for a lag from psi, its diagonal in
O(n) and its couplings as half the rows of A^T (B^k + B^k^T) A from one
bottom-up pass of the recursion; it holds O(p) rows, never n x n, and
never has an all-negative diagonal, as its last diagonal entry is zero.
The pivot's law needs no form (see test_stat_tail).  matrix and
calibrate are the only commands that build a dense form.
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
        n = check_int(self.n, "n")
        if n < 1:
            raise ValueError("need n >= 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n", n)

    @property
    def p(self):
        return len(self.theta)


def check_int(value, name):
    """value as an int, checked as an integer: an int, a numpy int or an
    integral float; anything else, nan and inf included, raises."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise ValueError("need an integer %s" % name)


@dataclass(frozen=True)
class Statistic:
    """An AR path statistic of model: n gamma_n(k) for a lag k >= 0, or the
    pivot n (gamma_n(1) - a0 hat_gamma_n(0)) for a reference a0 (order-1
    models only).  Exactly one of k and a0 is set, as an int or a float."""

    model: ArModel
    k: int = None
    a0: float = None

    def __post_init__(self):
        if (self.k is None) == (self.a0 is None):
            raise ValueError("need exactly one of lag k and reference a0")
        if self.a0 is not None and self.model.p != 1:
            raise ValueError("need an order-1 model with a reference a0")
        if self.a0 is None and check_int(self.k, "k") < 0:
            raise ValueError("need k >= 0")
        object.__setattr__(self, "k", None if self.k is None else int(self.k))
        object.__setattr__(self, "a0", None if self.a0 is None else check_a0(self.a0))

    def reduce(self, eps):
        """The statistic of each row of an innovation block eps, shape
        (rows, n), reduced along the time-major AR paths X = A eps: the sum
        of x[t] x[t-k] for a lag, of (x[t] - a0 x[t-1]) x[t-1] for a pivot."""
        rows, n = eps.shape
        k, a0 = self.k, self.a0
        if a0 is None and k >= n:
            return np.zeros(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            x = ar_paths(self.model.theta, eps.T)
            if a0 is None:
                return np.einsum("ir,ir->r", x[k:], x[:n - k])
            return np.einsum("ir,ir->r", x[1:] - a0 * x[:-1], x[:-1])


def check_a0(a0):
    """a0 as a float, checked as the reference value of a pivot: finite."""
    if not math.isfinite(float(a0)):
        raise ValueError("need a finite reference a0")
    return float(a0)


class _Fresh(np.ndarray):
    """Marks an array a builder has just made and hands over to QuadForm,
    which then keeps it as it is instead of copying it."""


@dataclass(frozen=True)
class QuadForm:
    """Dense matrix of the quadratic form eps -> eps^T C eps.

    Entries passed in are copied, so the caller's array stays writable and
    the form cannot change under it; the builders below hand over the
    array they have just made, which is frozen in place."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if type(self.entries) is _Fresh:
            entries = self.entries.view(np.ndarray)
        else:
            entries = np.array(self.entries, dtype=float)
        if self.n < 1:
            raise ValueError("need n >= 1")
        if entries.shape != (self.n, self.n):
            raise ValueError("need square entries of shape (n, n)")
        if not np.all(np.isfinite(entries)):
            raise ValueError("need finite entries")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def diagonal(self):
        return np.diag(self.entries)

    def is_zero(self, tol):
        """True when every entry is within tol of zero (two reductions, no
        n x n temporary)."""
        return max(float(self.entries.max()), -float(self.entries.min())) <= tol

    def couplings(self, rows):
        """(i, row) for each index i in rows: row i of S = (C + C^T) / 2 with
        the entry (i, i) set to zero, a new array the caller owns, taken as
        0.5 C_ij + 0.5 C_ji: exact above the subnormals and finite for
        finite entries; S itself is never formed."""
        m = self.entries
        for i in rows:
            row = m[i] * 0.5 + m[:, i] * 0.5
            row[i] = 0.0
            yield i, row


# longest AR(1) path ar_paths runs step by step.  Per Monte Carlo block the
# steps stay cheaper than the doubling scan up to n of about 200, but the
# two round differently, so moving this moves simulate's bytes
SEQUENTIAL_MAX_N = 32


def _impulse_response(model):
    """Impulse response psi_0, ..., psi_{n-1}: psi_0 = 1 and

        psi_r = theta_1 psi_{r-1} + ... + theta_p psi_{r-p},

    summed left to right from 0.0 with zero coefficients skipped.  That
    order fixes the bits of every form built from psi (inf and nan
    included): they are those of A accumulated row by row, which ar_paths,
    with its AR(1) doubling scan, does not reproduce."""
    theta = model.theta
    psi = [1.0]
    for r in range(1, model.n):
        acc = 0.0
        for i, t in enumerate(theta[:r], start=1):
            if t != 0.0:
                acc += t * psi[r - i]
        psi.append(acc)
    return np.array(psi)


def lag_sums(psi, k):
    """G(k), ..., G(n-1) for G(M) = sum_{m=k}^{M} psi_m psi_{m-k}, psi of
    length n: the lag-k diagonal C_ii = G(n-1-i) of A^T B^k A, bottom up.
    A product with an exact-zero factor counts as 0, also where the other
    factor is inf or nan; every finite product keeps its bits.  Past a
    double's range the sums are inf or nan, without a numpy warning."""
    left, right = psi[k:], psi[:max(psi.size - k, 0)]
    with np.errstate(over="ignore", invalid="ignore"):
        products = left * right
        products[np.isnan(products) & ((left == 0.0) | (right == 0.0))] = 0.0
        return np.cumsum(products)


def _toeplitz(v, n):
    """Read-only n x n Toeplitz view Y[r, s] = v[n - 1 + r - s] of a vector
    v of length 2n - 1."""
    return np.lib.stride_tricks.sliding_window_view(v, n)[:, ::-1]


def _y_view(psi, k):
    """Y = B^k A as a Toeplitz view of v, v[n - 1 + m] = psi_{m-k} (psi of a
    negative index is 0)."""
    n = psi.size
    v = np.zeros(2 * n - 1)
    v[n - 1 + k:] = psi[:max(n - k, 0)]
    return _toeplitz(v, n)


def build_a(model):
    """Unit lower triangular A with X = A eps for every innovation vector:
    the Toeplitz matrix A[r, s] = psi_{r-s} (zero above the diagonal)."""
    return _y_view(_impulse_response(model), 0).copy()


def _recursion(theta, rows):
    """The one AR filter step: each row fed gets theta_1 prev_1 + ... +
    theta_p prev_p over the last p rows given added in place, left to right,
    zero coefficients skipped.  Fed (r, Y[r]) bottom up it yields (r, C[r])
    of C = A^T Y, as L^T C = Y for the banded filter L = A^{-1}; fed eps
    top down it is X = A eps, since A^T = J A J for J the row reversal."""
    recent = []
    for r, row in rows:
        if not recent:
            step = np.empty(row.shape)
        for t, prev in zip(theta, recent):
            if t == 1.0:  # a unit coefficient adds its row as is
                row += prev
            elif t != 0.0:
                row += np.multiply(t, prev, out=step)
        recent = [row] + recent[:len(theta) - 1]
        yield r, row


def _solve_form(theta, y):
    """The dense builders' C = A^T Y by _recursion over the rows of y bottom
    up, overwritten (O(n^2 p)); on reversed innovation rows it is X = A eps."""
    for _ in _recursion(theta, zip(range(y.shape[0] - 1, -1, -1), y[::-1])):
        pass
    return y


def autocov_matrix(model, k):
    """QuadForm C = A^T B^k A, so that eps^T C eps = n gamma_n(k).

    Y = B^k A is A shifted down k rows, the Toeplitz matrix of psi delayed
    by k.  Overflowing entries reach QuadForm's finiteness check without a
    numpy warning."""
    k = Statistic(model, k=k).k
    with np.errstate(over="ignore", invalid="ignore"):
        y = _y_view(_impulse_response(model), k).copy()
        return QuadForm(n=model.n, entries=_solve_form(model.theta, y).view(_Fresh))


def test_matrix(a, a0, n):
    """QuadForm of the studentized statistic n (gamma_n(1) - a0 hat_gamma_n(0))
    for an AR(1) model with coefficient a.

    Y = B A - a0 B^T B A has Y[r, s] = psi_{r-1-s} - a0 psi_{r-s} (psi of a
    negative index is 0) on every row but the last, which is psi_{n-2-s}."""
    model = ArModel((float(a),), n)
    with np.errstate(over="ignore", invalid="ignore"):
        # psi_m at index m + n
        padded = np.concatenate((np.zeros(n), _impulse_response(model)))
        y = _toeplitz(padded[:-1] - float(a0) * padded[1:], n).copy()
        y[-1] = padded[n - 1:-1][::-1]
        return QuadForm(n=n, entries=_solve_form(model.theta, y).view(_Fresh))


class ArForm:
    """Structured form C = A^T B^k A of the lag-k autocovariance, read from
    the impulse response psi without an n x n array: the classifier's reads
    of autocov_matrix.

    The diagonal is O(n), lag_sums, and can differ from the dense one in
    the last digits.  The couplings, one _recursion pass over rows of W A
    times 0.5 (see couplings), match the dense form's S_ij up to rounding
    and keep more digits where C_ij and C_ji cancel; psi's subnormal
    entries are flushed to zero.
    Construction checks the Cauchy-Schwarz bound
    |C_ij| <= |A e_i| |B^k A e_j|, grown by what the recursion's partial
    sums of C + C^T can reach, and raises the dense form's "need finite
    entries" where it overflows a double: on every form the dense builder
    rejects, and on some whose largest entry is within that factor of the
    limit.  The bound also caps every |psi_m psi_{m-k}| and prefix sum of
    them, so the diagonal does not overflow.
    """

    def __init__(self, model, k):
        self.k = Statistic(model, k=k).k
        n = self.n = model.n
        self.model = model
        self._bottom = max(n - self.k, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _impulse_response(model)
        if self._bottom:  # a zero form has no entry to overflow, whatever psi is
            if not np.all(np.isfinite(psi)):
                raise ValueError("need finite entries")
            # a decaying psi can end in subnormals, which the AR recursion
            # keeps alive and which slow every operation on a row ~40x; as
            # zeros they move no coefficient by a representable amount
            psi[np.abs(psi) < np.finfo(float).tiny] = 0.0
            # root(m) = sqrt(psi_0^2 + ... + psi_m^2), the norm of a column of A
            top = float(np.max(np.abs(psi)))
            energy = np.cumsum((psi / top) ** 2)

            def root(m):
                return top * math.sqrt(float(energy[m]))

            bound = root(n - 1) * root(n - 1 - self.k)
            # the recursion's partial sums of C + C^T reach 2 (1 + sum
            # |theta_q|) times the bound; the margin covers their rounding
            reach = 1.0 + sum(abs(t) for t in model.theta)
            if not math.isfinite(2.0 * bound * reach * (1.0 + 1e-6)):
                raise ValueError("need finite entries")
        self._psi = psi
        self._a, self._y = _y_view(psi, 0), _y_view(psi, self.k)

    def diagonal(self):
        diag = np.zeros(self.n)
        diag[:self._bottom] = lag_sums(self._psi, self.k)[::-1]
        return diag

    def is_zero(self, tol):
        """True when the form is identically zero (lag k >= n), for tol below
        max(1, max |C_ii|): every other form has C_{n-1, n-1-k} = psi_0^2 = 1."""
        return self._bottom == 0

    def couplings(self, rows):
        """(i, row) for each index i in rows, bottom up: row i of
        S = (C + C^T) / 2 with the entry (i, i) set to zero (construction
        keeps C + C^T finite).  C + C^T = A^T W A for W = B^k + B^k^T, so
        one bottom-up _recursion pass over the rows of W A, from row n - 1
        down to the lowest index asked for, yields them: row r of W A is row
        r - k of A plus, while r + k < n, row r + k (twice row r at k = 0).
        The pass reads a row for p more steps, so its half is a new array."""
        rows = set(np.asarray(rows).tolist())
        n, k = self.n, self.k
        wa = ((r, self._y[r] + self._a[r + k] if r + k < n else self._y[r].copy())
              for r in range(n - 1, min(rows, default=n) - 1, -1))
        for r, row in _recursion(self.model.theta, wa):
            if r in rows:
                out = row * 0.5
                out[r] = 0.0
                yield r, out


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


def pivot_diagonal(a, a0, n):
    """S_1 >= ... >= S_{n-1} = 1, S_i = sum_{j<n-i} a^(2j), and the closed
    diagonal (a - a0) S_i, C_nn = 0, of test_matrix(a, a0, n); OverflowError
    where its largest entry (a - a0) S_1 overflows a double."""
    sums = power_sums(a * a, n - 1)[::-1]
    if sums and not math.isfinite((a - a0) * sums[0]):
        raise OverflowError("pivot form overflows a double at a=%r, n=%d" % (a, n))
    return sums, np.append(np.multiply(a - a0, sums), 0.0)


def power_sum(x, m):
    """Finite geometric sum 1 + x + ... + x^(m-1), with the empty sum 0.

    Horner evaluation; exact at x = 1 (gives m), no ratio formed.
    """
    return (power_sums(x, m) or [0.0])[-1]


def ar1_offdiag_closed(a, n, k, i, j):
    """Entry C_{i,j} of A^T B^k A for AR(1), 1-based indices:

        C_{i,j} = a^|i-j-k| * sum_{m=0}^{n-max(i,j+k)} a^(2m),

    covering the diagonal as the case i = j.
    """
    n, k, i, j = map(check_int, (n, k, i, j), "nkij")
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

    The form recursion _solve_form runs top down, X[t] = eps[t] + theta_1
    X[t-1] + ... + theta_p X[t-p], one elementwise update of a whole time
    slice per step.  An AR(1) path longer than SEQUENTIAL_MAX_N takes a
    Hillis-Steele doubling scan instead, O(n log n) per column: the pass with
    stride s = 1, 2, 4, ... adds a^s x[t-s] to x[t], until a^s is 0.
    Explosive models may overflow to inf or nan; callers check finiteness.
    """
    theta = [float(t) for t in theta]
    x = np.array(eps, dtype=float, order="C")
    n = x.shape[0]
    if len(theta) > 1 or n <= SEQUENTIAL_MAX_N:
        # rows as 2-D views, so that a 1-D eps is written in place too
        _solve_form(theta, x.reshape(n, math.prod(x.shape[1:]))[::-1])
        return x
    update = np.empty(x.shape)
    c, s = theta[0], 1
    while s < n and c != 0.0:
        # the update reads x[:n - s] before this pass changes it
        np.add(x[s:], np.multiply(x[:n - s], c, out=update[:n - s]), out=x[s:])
        c, s = c * c, 2 * s
    return x


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
    k = check_int(k, "k")
    if k < 0:
        raise ValueError("need k >= 0")
    n = x.size
    if k >= n:
        return 0.0
    return float(x[k:] @ x[: n - k]) / n
