"""H^1 and H^1_* by the Cayley relations alone, the tests' oracle for the Sylow route.

`shadiv.cohomology.h1` reads dim H^1 off the Sylow p-subgroup and builds
the Cayley relations only where H^1 > 0; `h1_star` is 0 by proof.  The
functions here take neither shortcut: Z^1 is the kernel of the full
relation matrix of every module, and H^1_* cuts Z^1 by the coboundary
condition on every cyclic subgroup.  They share `_relations` and the row
reducer with the package, which the brute-force oracles of
test_cohomology.py check independently.
"""

import numpy as np

from shadiv.cohomology import CohomologyClassSpace, _relations
from shadiv.fp_linalg import kernel_basis, rref


def coboundary_rank(m):
    """dim B^1, the rank of v -> (s.v - v) over the generators s."""
    cob = (m.gen_mats - np.eye(m.dim, dtype=np.int64)).reshape(-1, m.dim)
    return len(rref(cob, m.p)[1])


def h1_by_relations(g, m):
    """H^1(G, M) with its cocycle basis on the generators, Z^1 from the relations."""
    _, rel = _relations(g, m)
    n = m.dim
    k = len(g.generator_ids)
    z1 = kernel_basis(rel, n * k, g.p)
    dim_b1 = coboundary_rank(m)
    basis = tuple(tuple(vec[j * n : (j + 1) * n] for j in range(k)) for vec in z1)
    return CohomologyClassSpace(len(z1), dim_b1, len(z1) - dim_b1, basis)


def cyclic_generator_positions(g):
    """Positions of the least generator of each nontrivial cyclic subgroup of g.

    x is the least generator of <x> when no x^j with j prime to the order
    of x has a smaller id; one power walk checks every element at once.
    """
    amb = g.ambient
    ids = np.asarray(g.element_ids, dtype=np.intp)
    orders = amb.orders[ids]
    least = ids.copy()
    power = ids
    for j in range(2, int(orders.max())):
        power = amb.mul(power, ids)
        generates = (np.gcd(j, orders) == 1) & (j < orders)
        least = np.where(generates, np.minimum(least, power), least)
    return np.flatnonzero((least == ids) & (orders > 1))


def h1_star_by_relations(g, m):
    """Dimension of the classes killed by restriction to every cyclic subgroup.

    A cocycle restricts to a coboundary on <x> exactly when f(x) lies in
    (x - 1)M, i.e. when the left kernel of x - 1 kills f(x) = t[x] u, u
    the unknowns.  Those rows join the relations, and one rank gives the
    subspace W of Z^1 they cut out.
    """
    t, rel = _relations(g, m)
    p = g.p
    n = m.dim
    nunk = t.shape[2]
    reduced, pivots = rref(rel, p)
    dim_b1 = coboundary_rank(m)
    if nunk - len(pivots) == dim_b1:
        return 0
    rows = [reduced]
    for i in cyclic_generator_positions(g):
        shifted = (m.mats[i] - np.eye(n, dtype=np.int64)) % p
        left_kernel = np.array(kernel_basis(shifted.T, n, p), dtype=np.int64)
        rows.append(left_kernel.reshape(-1, n) @ t[i] % p)
    dim_w = nunk - len(rref(np.concatenate(rows), p)[1])
    return dim_w - dim_b1
