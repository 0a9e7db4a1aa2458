"""Exact linear algebra over prime fields F_p.

Everything here is integer arithmetic mod p; no floating point.  `rref` is
the package's one row reducer and `echelon_bases` its one subspace
enumerator.
"""

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded

SUBSPACE_BUDGET = 10 ** 6


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
