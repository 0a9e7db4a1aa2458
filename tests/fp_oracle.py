"""Pure-Python linear algebra over F_p, the tests' independent oracle.

Plain lists and integers, no numpy: the brute-force H^1 and H^1_* oracles
and the invariant-subspace filter below must not share the reducer
(`shadiv.fp_linalg.rref`) or the subspace enumerator
(`shadiv.fp_linalg.echelon_bases`) that they check.
"""

from functools import cache
from itertools import product


class LinearSystemInconsistent(ValueError):
    """A x = b has no solution over F_p."""


def rref(rows, p):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    pivots = []
    row = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] % p != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [x * inv % p for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return tuple(tuple(r) for r in m[:row]), tuple(pivots)


def rank_of(rows, p):
    return len(rref(rows, p)[1])


def reduce_against(vector, rref_rows, p):
    """Coordinates of vector in the row space, or None if not a member."""
    v = [x % p for x in vector]
    coords = []
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        c = v[lead]
        coords.append(c)
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


def solve_linear(a_rows, b, p):
    """Solve A x = b over F_p.

    Returns (particular_solution, kernel_basis).  The kernel basis spans
    the full solution space of A x = 0; every solution is particular plus
    a combination of basis vectors.  Raises LinearSystemInconsistent when
    there is no solution.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else len(b)
    aug = [list(row) + [bv % p] for row, bv in zip(a_rows, b)]
    reduced, pivots = rref(aug, p) if aug else ((), ())
    if ncols in pivots:
        raise LinearSystemInconsistent("no solution over F_p")
    particular = [0] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row[-1]
    kernel = kernel_basis([row[:-1] for row in aug] if aug else [], ncols, p)
    return tuple(particular), kernel


def kernel_basis(a_rows, ncols, p):
    """Basis of {x : A x = 0} over F_p."""
    if not a_rows:
        return tuple(
            tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)
        )
    reduced, pivots = rref(a_rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, col in zip(reduced, pivots):
            v[col] = (-row[f]) % p
        basis.append(tuple(v))
    return tuple(basis)


def mat_vec(a, v, p):
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


@cache
def all_subspaces(p, n, d):
    """Every d-dimensional subspace of F_p^n, as its RREF basis, in a frozenset.

    Grown from the zero space one vector at a time, so it shares nothing
    with an echelon enumerator.  Memoized: the set depends on (p, n, d) only.
    """
    spaces = {()}
    for _ in range(d):
        grown = set()
        for basis in spaces:
            for v in product(range(p), repeat=n):
                reduced, pivots = rref(basis + (v,), p)
                if len(pivots) > len(basis):
                    grown.add(reduced)
        spaces = grown
    return frozenset(spaces)


def invariant_subspaces_by_filter(mats, p, n, d):
    """The d-dimensional subspaces of F_p^n that every matrix maps into itself."""
    return {
        basis
        for basis in all_subspaces(p, n, d)
        if all(reduce_against(mat_vec(m, v, p), basis, p) is not None for m in mats for v in basis)
    }
