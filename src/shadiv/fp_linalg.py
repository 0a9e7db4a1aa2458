"""Exact linear algebra over prime fields F_p.

Everything here is integer arithmetic mod p; no floating point.  `rref` is
the package's one row reducer and `echelon_bases` its one subspace
enumerator.
"""

from functools import lru_cache
from itertools import combinations, product
from math import isqrt

import numpy as np

from .errors import BudgetExceeded

SUBSPACE_BUDGET = 10 ** 6


# Miller-Rabin to the first 13 prime bases decides every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015);
# the bound itself is the least composite that passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin below 3.3 * 10^24, Baillie-PSW above.

    Above _MR_BOUND a strong Lucas test is added to the Miller-Rabin bases;
    that pair has no known counterexample.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with Selfridge's parameters P = 1, Q = (1 - D)/4, for odd n > 41."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = lambda x: (x if x % 2 == 0 else x + n) // 2 % n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def det_raw(a, p):
    n = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return det % p


def rref(rows, p):
    """Reduced row echelon form of a 2-d matrix over F_p.

    Returns (reduced, pivots): the nonzero rows of the RREF as an int64
    array and the tuple of their leading columns.  The RREF of a row space
    is unique, so anything read off it is canonical.
    """
    m = np.array(rows, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = m[r:, c].nonzero()[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        row = m[r] * pow(int(m[r, c]), -1, p) % p
        m -= m[:, c, None] * row
        m[r] = row
        m %= p
        pivots.append(c)
    return m[: len(pivots)], tuple(pivots)


def kernel_basis(a_rows, ncols, p):
    """Basis of {x : A x = 0} over F_p, one vector per non-pivot column.

    Read off the RREF of A, so the basis depends only on the row space.
    Returned as a tuple of tuples of Python ints.
    """
    reduced, pivots = rref(np.asarray(a_rows, dtype=np.int64).reshape(len(a_rows), ncols), p)
    reduced = reduced.tolist()
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, col in zip(reduced, pivots):
            v[col] = -row[f] % p
        basis.append(tuple(v))
    return tuple(basis)


def subspace_count(p, n, d):
    """Gaussian binomial coefficient [n choose d]_p."""
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=64)
def echelon_bases(p, n, d):
    """All d-dimensional subspaces of F_p^n as RREF bases, by pivot columns.

    Returns a tuple of (pivots, bases), bases a read-only int64 array of
    shape (m, d, n); pivot tuples come in lexicographic order, and within
    one the free entries run in `itertools.product` order.  Raises
    BudgetExceeded above SUBSPACE_BUDGET subspaces.
    """
    count = subspace_count(p, n, d)
    if count > SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{count} subspaces exceeds budget {SUBSPACE_BUDGET}")
    groups = []
    for pivots in combinations(range(n), d):
        free = [
            (i, col)
            for i, piv in enumerate(pivots)
            for col in range(piv + 1, n)
            if col not in pivots
        ]
        values = np.array(list(product(range(p), repeat=len(free))), dtype=np.int64)
        bases = np.zeros((len(values), d, n), dtype=np.int64)
        for i, piv in enumerate(pivots):
            bases[:, i, piv] = 1
        for k, (i, col) in enumerate(free):
            bases[:, i, col] = values[:, k]
        bases.flags.writeable = False
        groups.append((pivots, bases))
    return tuple(groups)
