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
from shadiv.cohomology import invariant_subspaces
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


def _invariant(mats, p, n, d):
    found = invariant_subspaces(np.array(mats, dtype=np.int64), p, n, d)
    return {tuple(map(tuple, basis.tolist())) for basis in found}


def test_enumerate_invariant_subspaces_trivial_action():
    lines = _invariant([((1, 0), (0, 1))], 3, 2, 1)
    assert lines == invariant_subspaces_by_filter([((1, 0), (0, 1))], 3, 2, 1)
    assert len(lines) == 4  # all lines of F_3^2


def test_enumerate_invariant_subspaces_unipotent_line():
    u = ((1, 1), (0, 1))
    lines = _invariant([u], 5, 2, 1)
    # oracle: direct check over all p + 1 lines
    expected = []
    for rep in [(1, t) for t in range(5)] + [(0, 1)]:
        img = mat_vec(u, rep, 5)
        if (img[0] * rep[1] - img[1] * rep[0]) % 5 == 0:
            expected.append(rep)
    assert len(lines) == len(expected) == 1
    assert lines == {((1, 0),)}
    assert lines == invariant_subspaces_by_filter([u], 5, 2, 1)


def test_enumerate_invariant_subspaces_irreducible_empty():
    # nonsplit torus element: x^2 = nonresidue has no eigenline over F_p
    m = ((0, 2), (1, 0))  # eigenvalues sqrt(2), 2 is a nonresidue mod 5
    assert _invariant([m], 5, 2, 1) == set()
    assert invariant_subspaces_by_filter([m], 5, 2, 1) == set()


def test_invariant_subspaces_agree_with_exhaustive_filter():
    # oracle: every subspace, found by brute force, filtered by stability
    rng = random.Random(3)
    for p, n in ((3, 3), (5, 2), (3, 4), (2, 4)):
        for trial in range(2):
            mats = [_random_invertible(rng, p, n) for _ in range(2 - trial)]
            for d in range(n + 1):
                assert _invariant(mats, p, n, d) == invariant_subspaces_by_filter(mats, p, n, d)


def test_subspace_budget_error():
    with pytest.raises(BudgetExceeded):
        echelon_bases(1009, 4, 2)


def test_kernel_basis_empty_matrix():
    assert kernel_basis([], 3, 5) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_basis(np.zeros((0, 2), dtype=np.int64), 2, 5) == ((1, 0), (0, 1))
