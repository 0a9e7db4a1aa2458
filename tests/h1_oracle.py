"""H^1 and H^1_* by the Cayley relations, the tests' oracle for the transfer route.

`shadiv.cohomology.h1` takes Z^1 as the coboundaries plus the transfers of
the Sylow subgroup's cocycles, and `h1_star` is 0 by proof.  The functions
here use neither argument: the unknown values of a cocycle on the
generators are propagated along a spanning tree of the Cayley graph, every
other edge gives linear relations, and Z^1 is their kernel.  H^1_* cuts
Z^1 by the coboundary condition on every cyclic subgroup.  They share only
the row reducer with the package, which the brute-force oracles of
test_cohomology.py check independently.
"""

from functools import lru_cache

import numpy as np

from shadiv.cohomology import CohomologyClassSpace
from shadiv.fp_linalg import kernel_basis, rref

RELATIONS_MAX_ORDER = 10 ** 4


@lru_cache(maxsize=64)
def cayley_schedule(g, generator_ids):
    """Breadth-first spanning tree and non-tree edges of the Cayley graph.

    Returns (parent, steps, tree, extra) over element positions.  parent[x]
    is x's parent in the tree, the identity its own; 2^steps is at least
    the tree's depth; tree and extra are the (src, gen, dst) triples of the
    tree edges and of every other edge x -> x*s, s the gen-th generator.
    Keyed by the generators as well: Subgroup equality ignores them.
    """
    amb = g.ambient
    order = g.order
    k = len(generator_ids)
    pos = g.positions
    targets = pos[amb.mul(np.asarray(g.element_ids)[:, None], generator_ids)]
    rows = targets.tolist()
    root = int(pos[amb.identity_id])
    parent = np.full(order, root)
    depth = [-1] * order
    depth[root] = 0
    in_tree = np.zeros(order * k, dtype=bool)
    queue = [root]
    for x in queue:
        for j, y in enumerate(rows[x]):
            if depth[y] < 0:
                parent[y] = x
                depth[y] = depth[x] + 1
                in_tree[x * k + j] = True
                queue.append(y)
    edges = (*np.divmod(np.arange(order * k), k), targets.ravel())
    steps = max(depth[queue[-1]] - 1, 0).bit_length()
    return parent, steps, tuple(e[in_tree] for e in edges), tuple(e[~in_tree] for e in edges)


def relations(g, m):
    """Cocycle values along the Cayley tree, and the relations between them.

    A cocycle is fixed by its values on the k generators: n*k unknowns.
    Returns (t, rel).  t[x] is the (n, n*k) matrix taking the unknowns to
    f(x): the sum of y.f(s) over the tree edges y -> y*s from the identity
    to x, by f(y*s) = f(y) + y.f(s), summed by pointer doubling.  rel
    stacks t[x*s] - t[x] - x.f(s) over the non-tree edges, n rows each;
    its kernel is Z^1.  Raises ValueError above RELATIONS_MAX_ORDER.
    """
    if g != m.subgroup:
        raise ValueError("module does not belong to the subgroup")
    if g.order > RELATIONS_MAX_ORDER:
        raise ValueError(f"|G| = {g.order} exceeds the relation size limit")
    p = g.p
    n = m.dim
    k = len(g.generator_ids)
    parent, steps, (src, gen, dst), extra = cayley_schedule(g, g.generator_ids)
    t = np.zeros((g.order, n, k, n), dtype=np.int64)
    t[dst, :, gen, :] = m.mats[src]
    t = t.reshape(g.order, n, n * k)
    for _ in range(steps):
        t = (t + t[parent]) % p
        parent = parent[parent]
    src, gen, dst = extra
    rel = (t[dst] - t[src]).reshape(len(src), n, k, n)
    rel[np.arange(len(src)), :, gen, :] -= m.mats[src]
    return t, rel.reshape(len(src) * n, n * k) % p


def coboundary_rank(m):
    """dim B^1, the rank of v -> (s.v - v) over the generators s."""
    cob = (m.gen_mats - np.eye(m.dim, dtype=np.int64)).reshape(-1, m.dim)
    return len(rref(cob, m.p)[1])


def h1_by_relations(g, m):
    """H^1(G, M) with its cocycle basis on the generators, Z^1 from the relations."""
    _, rel = relations(g, m)
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
    t, rel = relations(g, m)
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
