"""Composition factors by splitting every element's matrix, and module
isomorphism by scanning the intertwiners: the tests' oracles.

`GModule.factors` finds the factors on the generator matrices and derives
a factor's all-element matrices only when they are read.  The recursion
here is the one it replaced: at each level the sub-module and the
quotient are built for all |G| elements, and the next level reads its
generator matrices off those.  It shares with the package only the choice
of the first least-dimension invariant subspace, which
`tests/test_fp_linalg.py` checks against the brute-force filter.

`modules_isomorphic` answers on irreducible modules by Schur's lemma;
the scan below decides isomorphism of any two modules by looking for an
invertible element in the whole intertwiner space, with the pure-Python
linear algebra of `fp_oracle`.
"""

from itertools import product

import numpy as np
from fp_oracle import kernel_basis, rank_of

from shadiv.cohomology import GModule, _first_invariant_subspace


def split_module(m, basis, pivots):
    """Sub and quotient module, all element matrices, for an invariant subspace in RREF."""
    p = m.p
    n = m.dim
    d = len(pivots)
    others = [c for c in range(n) if c not in pivots]
    w = m.mats @ basis.T % p  # (|G|, n, d): images of basis vectors as columns
    sub_mats = w[:, pivots, :] % p
    cols = m.mats[:, :, others] % p  # images of the complement unit vectors
    coords = cols[:, pivots, :]
    reduced = (cols - basis.T @ coords) % p
    quot_mats = reduced[:, others, :] % p
    return GModule(m.subgroup, d, sub_mats), GModule(m.subgroup, n - d, quot_mats)


def factors_by_splitting(m):
    """Jordan-Holder factors of m, each a GModule built from all its element matrices."""
    if m.dim == 0:
        return []
    gens = m.gen_mats if len(m.subgroup.generator_ids) else np.eye(m.dim, dtype=np.int64)[None]
    basis, pivots = _first_invariant_subspace(gens, m.p, m.dim, m.dim - 1)
    if basis is None:
        return [m]
    sub, quot = split_module(m, basis, pivots)
    return [sub] + factors_by_splitting(quot)


def isomorphic_by_scan(a, b):
    """Whether some invertible T has T A(s) = B(s) T on every generator s.

    Solves the system for T, then scans all p^k elements of its
    k-dimensional solution space for one of full rank.
    """
    p, n = a.p, a.dim
    if b.dim != n:
        return False
    rows = []
    for amat, bmat in zip(a.gen_mats.tolist(), b.gen_mats.tolist()):
        for i, j in product(range(n), repeat=2):
            # (T A - B T)[i, j] = sum_k T[i, k] A[k, j] - B[i, k] T[k, j]
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += amat[k][j]
                row[k * n + j] -= bmat[i][k]
            rows.append([x % p for x in row])
    basis = kernel_basis(rows, n * n, p)
    for coeffs in product(range(p), repeat=len(basis)):
        t = [sum(c * v[x] for c, v in zip(coeffs, basis)) % p for x in range(n * n)]
        if rank_of([t[r * n : (r + 1) * n] for r in range(n)], p) == n:
            return True
    return False
