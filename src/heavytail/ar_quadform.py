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
AR(1) entries of A^T B^k A also come in closed power-sum form, exact at
a = +-1 because no geometric ratio is ever formed.

The tail classifier reads a form in three ways: its diagonal (diagonal),
the rows of C + C^T on given indices with their diagonal entry counted as
zero (couplings, in chunks of rows), and whether the form is identically
zero (is_zero).  QuadForm answers from its dense matrix, which the
classifier also reads when every diagonal entry is negative.  ArForm
(autocov_form, pivot_form) answers from psi, holding p rows and one chunk
of at most COUPLING_ENTRIES couplings (the last k rows of a lag form), and
never allocates n x n; it never has an all-negative diagonal, as its last
diagonal entry is zero.  matrix and calibrate are the only commands that
build a dense form.
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
        """The ascending indices rows and, as one C-ordered chunk, the rows
        i of C + C^T on them with the entry (i, i) counted as zero; C + C^T
        itself is never formed."""
        m = self.entries
        return [(rows, _zero_diagonal(np.add(m[rows, :], m[:, rows].T, order="C"),
                                      rows))]


# entries per chunk of zero-row couplings an ArForm hands the classifier
COUPLING_ENTRIES = 1 << 20

# longest path ar_paths runs step by step; past it the doubling scan's
# log2(n) passes over a Monte Carlo block cost less than n single-slice steps
SEQUENTIAL_MAX_N = 32


def _impulse_response(model):
    """Impulse response psi_0, ..., psi_{n-1}: psi_0 = 1 and

        psi_r = theta_1 psi_{r-1} + ... + theta_p psi_{r-p},

    summed left to right from 0.0 with zero coefficients skipped.  That
    order fixes the bits of every form built from psi (inf and nan
    included): they are those of A accumulated row by row, which ar_paths,
    with its doubling scan, does not reproduce."""
    theta = model.theta
    psi = [1.0]
    for r in range(1, model.n):
        acc = 0.0
        for i, t in enumerate(theta[:r], start=1):
            if t != 0.0:
                acc += t * psi[r - i]
        psi.append(acc)
    return np.array(psi)


def _toeplitz(v, n):
    """n x n matrix T[r, s] = v[n - 1 + r - s] from v of length 2n - 1: one
    strided copy, row r being v[r:r + n] reversed."""
    return np.lib.stride_tricks.sliding_window_view(v, n)[:, ::-1].copy()


def build_a(model):
    """Unit lower triangular A with X = A eps for every innovation vector:
    the Toeplitz matrix A[r, s] = psi_{r-s} (zero above the diagonal)."""
    n = model.n
    return _toeplitz(np.concatenate((np.zeros(n - 1), _impulse_response(model))), n)


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

    Y = B^k A is A shifted down k rows, the Toeplitz matrix of psi delayed
    by k.  Overflowing entries reach QuadForm's finiteness check without a
    numpy warning."""
    if k < 0:
        raise ValueError("need k >= 0")
    n = model.n
    if k >= n:
        return QuadForm(n=n, entries=np.zeros((n, n)).view(_Fresh))
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _impulse_response(model)
        y = _toeplitz(np.concatenate((np.zeros(n - 1 + k), psi[:n - k])), n)
        return QuadForm(n=n, entries=_solve_form(model.theta, y).view(_Fresh))


def test_matrix(a, a0, n):
    """QuadForm of the studentized statistic n (gamma_n(1) - a0 hat_gamma_n(0))
    for an AR(1) model with coefficient a.

    Y = B A - a0 B^T B A has Y[r, s] = psi_{r-1-s} - a0 psi_{r-s} (psi of a
    negative index is 0) on every row but the last, which is psi_{n-2-s}."""
    model = ArModel((float(a),), n)
    with np.errstate(over="ignore", invalid="ignore"):
        # psi_m at index m + n, for m = -n, ..., n - 1
        padded = np.concatenate((np.zeros(n), _impulse_response(model)))
        y = _toeplitz(padded[:-1] - float(a0) * padded[1:], n)
        y[-1] = padded[n - 1:-1][::-1]
        return QuadForm(n=n, entries=_solve_form(model.theta, y).view(_Fresh))


class ArForm:
    """Structured form C = A^T M A of an AR path statistic, read from the
    impulse response psi without an n x n array: M = B^k for the lag-k
    autocovariance (autocov_form), M = B - a0 B^T B for the pivot
    (pivot_form).

    Rows of C come from the bottom-up recursion _solve_form runs on
    Y = M A, one row of Y at a time and p rows held, so every entry has
    the dense builders' bits (as long as psi has no subnormal entry, which
    is flushed to zero).  The lag-k diagonal C_ii = G(n-1-i), with
    G(M) = sum_{m=k}^{M} psi_m psi_{m-k}, is read off that pass on the
    columns 0..r each row r needs; the pivot diagonal is the closed
    (a - a0) S_i of test_stat_tail.  Rows i >= _bottom (the last k rows of a
    lag, the last row of the pivot) have vanishing column entries C_ji, so
    their couplings are rows of C alone.  Construction checks the
    Cauchy-Schwarz bound |C_ij| <= |A e_i| |M A e_j|, grown by what the
    recursion's partial sums can reach, and raises the dense forms' "need
    finite entries" where it overflows a double: on every form the dense
    builders reject, and on some whose largest entry is within that factor
    of the limit.
    """

    def __init__(self, model, k=None, a0=None):
        if (k is None) == (a0 is None):
            raise ValueError("need exactly one of lag k and reference a0")
        if k is not None and int(k) < 0:
            raise ValueError("need k >= 0")
        if a0 is not None and model.p != 1:
            raise ValueError("need an order-1 model with a reference a0")
        n = self.n = model.n
        self.model = model
        self.k = None if k is None else int(k)
        self.a0 = None if a0 is None else float(a0)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _impulse_response(model)
        if not np.all(np.isfinite(psi)):
            raise ValueError("need finite entries")
        # a decaying psi can end in subnormals, which the AR recursion keeps
        # alive and which slow every operation on a row ~40x; as zeros they
        # move no coefficient by a representable amount
        psi[np.abs(psi) < np.finfo(float).tiny] = 0.0
        # root(m) = sqrt(psi_0^2 + ... + psi_m^2), the norm of a column of A
        top = float(np.max(np.abs(psi)))
        energy = np.cumsum((psi / top) ** 2)

        def root(m):
            return top * math.sqrt(float(energy[m]))

        if self.a0 is None:
            self._bottom = max(n - self.k, 0)
            bound = root(n - 1) * root(n - 1 - self.k) if self._bottom else 0.0
        else:
            self._bottom = n - 1
            bound = (root(n - 2) * (root(n - 1) + abs(self.a0) * root(n - 2))
                     if self._bottom else 0.0)
        # the recursion's partial sums reach (1 + sum |theta_q|) times the
        # bound; the margin covers the rounding of the dense builders' sums
        reach = 1.0 + sum(abs(t) for t in model.theta)
        if not math.isfinite(bound * reach * (1.0 + 1e-6)):
            raise ValueError("need finite entries")
        self._padded = np.concatenate((np.zeros(n), psi))

    def diagonal(self):
        n = self.n
        if self.a0 is not None:
            a = self.model.theta[0]
            sums = power_sums(a * a, n - 1)[::-1]
            return np.append(np.multiply(a - self.a0, sums), 0.0)
        diag = np.zeros(n)
        for r, row in self._rows(0, prefix=True):
            diag[r] = row[r]
        return diag

    def is_zero(self, tol):
        """True when the form is identically zero (lag k >= n, or a pivot of
        length 1), for tol below max(1, max |C_ii|): every other form has
        C_{n-1, n-1-k} = psi_0^2 = 1 (lag) or C_{n-1, n-2} = psi_0 = 1
        (pivot)."""
        return self._bottom == 0

    def _shifted(self, d, width):
        """Fresh row (psi_{d-s}), s = 0, ..., width - 1, psi of a negative
        index being 0."""
        if d < 0:
            return np.zeros(width)
        return self._padded[self.n + d - width + 1:self.n + d + 1][::-1].copy()

    def _y_row(self, r, width):
        """The first width entries of row r of Y = M A."""
        if self.a0 is None:
            return self._shifted(r - self.k, width)
        if r == self.n - 1:
            return self._shifted(r - 1, width)
        return self._shifted(r - 1, width) - self.a0 * self._shifted(r, width)

    def _rows(self, lo, prefix=False):
        """Rows r = n - 1, ..., lo of C, bottom up: row r is Y's row r plus
        theta_q times row r + q, holding p rows.  With prefix, only the
        columns 0..r of row r, all that the rows above read of it."""
        theta = self.model.theta
        recent = []
        for r in range(self.n - 1, lo - 1, -1):
            width = r + 1 if prefix else self.n
            row = self._y_row(r, width)
            for t, prev in zip(theta, recent):
                if t != 0.0:
                    row += t * prev[:width]
            recent = [row] + recent[:len(theta) - 1]
            yield r, row

    def couplings(self, rows):
        """(indices, chunk) pairs covering the ascending indices rows in
        order: each chunk holds the rows i of C + C^T on its indices, with
        the entry (i, i) counted as zero, in at most COUPLING_ENTRIES
        entries, with the bits of the dense QuadForm's chunk."""
        rows = np.asarray(rows)
        step = max(1, COUPLING_ENTRIES // self.n)
        for start in range(0, rows.size, step):
            at = rows[start:start + step]
            yield at, self._coupling_chunk(at)

    def _coupling_chunk(self, at):
        """One pass down to at[0] fills the rows of C on at; rows before
        _bottom also need their columns, so the pass then runs on to row 0 and
        adds each row's entries on them.  Each entry gets its two nonzero
        terms added to 0.0, so it is C_ij + C_ji to the bit."""
        out = np.zeros((len(at), self.n))
        slot = np.full(self.n, -1)
        slot[at] = np.arange(len(at))
        inner = at[at < self._bottom]  # a prefix of at
        for r, row in self._rows(0 if inner.size else int(at[0])):
            if slot[r] >= 0:
                out[slot[r]] += row
            if inner.size:
                out[:inner.size, r] += row[inner]
        return _zero_diagonal(out, at)


def _zero_diagonal(chunk, rows):
    """Chunk of rows i of C + C^T with each entry (i, i) set to zero."""
    chunk[np.arange(len(rows)), rows] = 0.0
    return chunk


def autocov_form(model, k):
    """ArForm of C = A^T B^k A: the classifier's reads of autocov_matrix
    without its n x n array."""
    return ArForm(model, k=k)


def pivot_form(a, a0, n):
    """ArForm of the studentized lag-1 statistic of an AR(1) model: the
    classifier's reads of test_matrix without its n x n array."""
    return ArForm(ArModel((float(a),), n), a0=a0)


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

        C_{i,i} = a^k * sum_{j=0}^{n-i-k} a^(2j),    zero once i > n - k;

    the case i = j of ar1_offdiag_closed.
    """
    return ar1_offdiag_closed(a, n, k, i, i)


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
