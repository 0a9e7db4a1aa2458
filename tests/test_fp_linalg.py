import random

import numpy as np
import pytest

import fp_oracle
from fp_oracle import (
    LinearSystemInconsistent,
    invariant_subspaces_by_filter,
    mat_vec,
    rank_of,
    solve_linear,
)
from shadiv.arith import is_prime
from shadiv.cohomology import _first_invariant_subspace
from shadiv.errors import BudgetExceeded
from shadiv.fp_linalg import (
    det_raw,
    echelon_bases,
    kernel_basis,
    rref,
    subspace_count,
)


def test_is_prime_small():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(9991)  # 97 * 103


def test_is_prime_beyond_sorenson_webster_bound():
    from shadiv.arith import _MR_BOUND

    # the bound is a strong pseudoprime to all 13 bases; the Lucas half
    # of Baillie-PSW rejects it
    assert not is_prime(_MR_BOUND)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 107 - 1) and is_prime(2 ** 127 - 1)
    assert not is_prime((2 ** 61 - 1) ** 2)
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def _random_invertible(rng, p, n):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if det_raw(m, p):
            return m


def _mat_mul(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def test_det_raw_examples():
    assert det_raw(((0, 1), (1, 0)), 5) == 4  # a swap has det -1
    assert det_raw(((1, 1), (1, 1)), 3) == 0
    assert det_raw(((2, 0, 0), (0, 3, 0), (1, 1, 4)), 7) == 24 % 7


def test_det_raw_multiplicative_random():
    # property: det(AB) = det(A) det(B), products taken by hand
    rng = random.Random(11)
    for p in (3, 5, 7, 13):
        for n in (2, 3, 4):
            for _ in range(10):
                a = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
                b = _random_invertible(rng, p, n)
                assert det_raw(_mat_mul(a, b, p), p) == det_raw(a, p) * det_raw(b, p) % p


def test_solve_linear_identity_and_zero():
    sol, kernel = solve_linear([[1, 0], [0, 1]], [3, 4], 5)
    assert sol == (3, 4) and kernel == ()
    sol, kernel = solve_linear([[0, 0], [0, 0]], [0, 0], 5)
    assert sol == (0, 0) and len(kernel) == 2


def test_solve_linear_inconsistent():
    with pytest.raises(LinearSystemInconsistent):
        solve_linear([[1, 1], [1, 1]], [0, 1], 3)


def test_solve_linear_resubstitution_random():
    rng = random.Random(23)
    for p in (3, 5, 11):
        for _ in range(30):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            x = [rng.randrange(p) for _ in range(4)]
            b = mat_vec(rows, x, p)
            sol, kernel = solve_linear(rows, b, p)
            assert mat_vec(rows, sol, p) == tuple(b)
            for k in kernel:
                assert mat_vec(rows, k, p) == (0, 0, 0)
            # kernel has full claimed rank
            assert rank_of(kernel, p) == len(kernel)


def _matrices(rng, p):
    """Seeded matrices of every shape the reducers meet, low rank included."""
    yield [[0] * 5 for _ in range(0)], 5  # no rows
    yield [[0] * 6 for _ in range(4)], 6  # all zero
    yield [[rng.randrange(p) for _ in range(8)] for _ in range(520)], 8  # tall
    yield [[rng.randrange(p) for _ in range(21)] for _ in range(4)], 21  # wide
    for _ in range(6):
        r, c, k = rng.randrange(1, 12), rng.randrange(1, 12), rng.randrange(1, 5)
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
        right = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
        yield [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left], c


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reducers_match_sympy(p):
    # oracle: SymPy's RREF and nullspace over GF(p), for the one reducer
    # in src and for the pure-Python reducer the other oracles use
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    rng = random.Random(1000 + p)
    for rows, ncols in _matrices(rng, p):
        dm = DomainMatrix([[field(x) for x in row] for row in rows], (len(rows), ncols), field)
        sym, sym_pivots = dm.rref()
        sym_rows = tuple(tuple(int(x) % p for x in row) for row in sym.to_list()[: len(sym_pivots)])
        got, pivots = rref(np.array(rows, dtype=np.int64).reshape(len(rows), ncols), p)
        assert pivots == tuple(sym_pivots)
        assert tuple(map(tuple, got.tolist())) == sym_rows
        assert fp_oracle.rref(rows, p) == (sym_rows, tuple(sym_pivots))

        kernel = kernel_basis(rows, ncols, p)
        assert all(type(x) is int for v in kernel for x in v)
        assert len(kernel) == ncols - len(sym_pivots)
        free = [c for c in range(ncols) if c not in sym_pivots]
        assert [[v[c] for c in free] for v in kernel] == np.eye(len(free), dtype=int).tolist()
        if kernel and rows:
            # SymPy scales its nullspace vectors differently; compare spans
            span = DomainMatrix([[field(x) for x in v] for v in kernel], (len(kernel), ncols), field)
            assert span.rref()[0] == dm.nullspace().rref()[0]
        assert fp_oracle.kernel_basis(rows, ncols, p) == kernel


def test_subspace_count_matches_enumeration():
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for d in range(n + 1):
                groups = echelon_bases(p, n, d)
                assert subspace_count(p, n, d) == sum(len(bases) for _, bases in groups)
                for pivots, bases in groups:
                    for basis in bases:
                        assert fp_oracle.rref(basis.tolist(), p) == (
                            tuple(map(tuple, basis.tolist())),
                            pivots,
                        )


def _pivots(basis):
    return tuple(next(i for i, x in enumerate(row) if x) for row in basis)


def _least_invariant(mats, p, n):
    """The oracle's invariant subspaces of least dimension 0 < d < n, checked against the package.

    _first_invariant_subspace must return the first of them in echelon
    order (pivot columns, then entries), or None when there are none.
    """
    basis, pivots = _first_invariant_subspace(np.array(mats, dtype=np.int64), p, n, n - 1)
    for d in range(1, n):
        spaces = invariant_subspaces_by_filter(mats, p, n, d)
        if spaces:
            first = min(spaces, key=lambda b: (_pivots(b), b))
            assert (tuple(map(tuple, basis.tolist())), tuple(pivots)) == (first, _pivots(first))
            return spaces
    assert basis is None and pivots is None
    return set()


def test_enumerate_invariant_subspaces_trivial_action():
    lines = _least_invariant([((1, 0), (0, 1))], 3, 2)
    assert len(lines) == 4  # all lines of F_3^2


def test_enumerate_invariant_subspaces_unipotent_line():
    u = ((1, 1), (0, 1))
    lines = _least_invariant([u], 5, 2)
    # oracle: direct check over all p + 1 lines
    expected = []
    for rep in [(1, t) for t in range(5)] + [(0, 1)]:
        img = mat_vec(u, rep, 5)
        if (img[0] * rep[1] - img[1] * rep[0]) % 5 == 0:
            expected.append(rep)
    assert len(lines) == len(expected) == 1
    assert lines == {((1, 0),)}


def test_enumerate_invariant_subspaces_irreducible_empty():
    # nonsplit torus element: x^2 = nonresidue has no eigenline over F_p
    m = ((0, 2), (1, 0))  # eigenvalues sqrt(2), 2 is a nonresidue mod 5
    assert _least_invariant([m], 5, 2) == set()


def test_invariant_subspaces_agree_with_exhaustive_filter():
    # oracle: every subspace, found by brute force, filtered by stability
    rng = random.Random(3)
    for p, n in ((3, 3), (5, 2), (3, 4), (2, 4)):
        for trial in range(2):
            _least_invariant([_random_invertible(rng, p, n) for _ in range(2 - trial)], p, n)
    # two non-isomorphic irreducible planes: no line, two invariant planes
    block = ((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 0, 3), (0, 0, 1, 0))
    assert len(_least_invariant([block], 5, 4)) == 2


def _inverse(m, p):
    n = len(m)
    cols = [solve_linear(m, tuple(int(i == j) for i in range(n)), p)[0] for j in range(n)]
    return tuple(zip(*cols))


def _block_triangular(rng, p, n, k):
    """k matrices with the block shape [[A, B], [0, D]], conjugated by one random matrix.

    All of them map C span(e_1, ..., e_b) into itself, C the conjugating
    matrix: for b = 1 a common invariant line, for b > 1 a common
    invariant subspace that may or may not hold one.
    """
    b = rng.randrange(1, n)
    mats = []
    for _ in range(k):
        while True:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            for i in range(b, n):
                m[i][:b] = [0] * b
            if det_raw(m, p):
                break
        mats.append(m)
    c = _random_invertible(rng, p, n)
    c_inv = _inverse(c, p)
    return [_mat_mul(_mat_mul(c, m, p), c_inv, p) for m in mats]


def test_line_scan_matches_filter():
    # the first invariant line in echelon order, or none, found by one
    # product over all lines against the oracle's filter over all lines;
    # a singular matrix maps its kernel's lines to 0, which they contain.
    # At n = 3, and on the block-triangular sets at n = 4 and p = 7, the
    # scan up to dimension n - 1 is checked as well: there the least
    # invariant subspace is at times a plane or more
    rng = random.Random(24)
    deep_hits = 0
    for p in (7, 11, 13):
        hits = misses = 0
        for n in (2, 3, 4):
            singular = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
            singular.append(singular[0])
            for k in (1, 2, 3):
                for kind, mats in enumerate((
                    [_random_invertible(rng, p, n) for _ in range(k)],
                    _block_triangular(rng, p, n, k),
                    [_random_invertible(rng, p, n) for _ in range(k - 1)] + [singular],
                )):
                    basis, pivots = _first_invariant_subspace(np.array(mats, dtype=np.int64), p, n, 1)
                    lines = invariant_subspaces_by_filter(mats, p, n, 1)
                    if lines:
                        first = min(lines, key=lambda b: (_pivots(b), b))
                        assert (tuple(map(tuple, basis.tolist())), tuple(pivots)) == (first, _pivots(first))
                        hits += 1
                    else:
                        assert basis is None and pivots is None, (p, n, mats)
                        misses += 1
                    if n == 3 or (p, n, kind) == (7, 4, 1):
                        deep_hits += any(len(space) >= 2 for space in _least_invariant(mats, p, n))
        assert hits > 3 and misses > 3, (p, hits, misses)
    assert deep_hits >= 1, deep_hits


def test_subspace_budget_error():
    with pytest.raises(BudgetExceeded):
        echelon_bases(1009, 4, 2)


def test_kernel_basis_empty_matrix():
    assert kernel_basis([], 3, 5) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_basis(np.zeros((0, 2), dtype=np.int64), 2, 5) == ((1, 0), (0, 1))
