"""G-modules over F_p: composition factors, isomorphism testing, H^1.

The first cohomology is computed by propagating unknown cocycle values on
the generators along a spanning tree of the Cayley graph; every non-tree
edge contributes linear constraints.  This keeps the unknown count at
dim(M) * #generators independently of |G|.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceeded, SizeExceeded
from .fp_linalg import det_raw, echelon_bases, kernel_basis, rref
from .gl2 import Subgroup, embeds_in_s3, invariant_line, normalizer_in, p_sylow

H1_MAX_ORDER = 10 ** 4
ISO_SCAN_BUDGET = 10 ** 6
HOM_CHECK_FULL_MAX = 200


@dataclass(frozen=True, eq=False)
class GModule:
    """Finite-dimensional F_p representation of an explicit subgroup.

    mats[i] is the matrix of the i-th element in the subgroup's canonical
    element order; vectors are columns and matrices act on the left.
    """

    subgroup: Subgroup
    dim: int
    mats: np.ndarray

    @property
    def p(self):
        return self.subgroup.p

    @cached_property
    def gen_mats(self):
        ids = self.subgroup.element_ids
        return self.mats[[bisect_left(ids, g) for g in self.subgroup.generator_ids]]


def make_standard_module(g: Subgroup) -> GModule:
    """The tautological 2-dimensional module: action by inclusion."""
    amb = g.ambient
    return GModule(g, 2, amb.mats[list(g.element_ids)].copy())


def make_adjoint_module(g: Subgroup) -> GModule:
    """End(V) with conjugation action, in the basis E11, E12, E21, E22."""
    amb = g.ambient
    return GModule(g, 4, amb.ad_mats[list(g.element_ids)].copy())


def character_module(g: Subgroup, values) -> GModule:
    """A 1-dimensional module from an element -> F_p* value map."""
    return gmodule_from_action(g, 1, {eid: ((values[eid],),) for eid in g.element_ids})


def gmodule_from_action(g: Subgroup, dim, action):
    """Build a GModule from an element -> matrix map, checking it is a hom.

    The homomorphism property is verified on all pairs for |G| <= 200 and
    on generator x element pairs for larger groups.
    """
    p = g.p
    mats = np.zeros((g.order, dim, dim), dtype=np.int64)
    for i, eid in enumerate(g.element_ids):
        mat = action[eid] if not callable(action) else action(eid)
        mats[i] = np.asarray(mat, dtype=np.int64) % p
    mod = GModule(g, dim, mats)
    _validate_hom(mod)
    return mod


def _validate_hom(mod):
    g = mod.subgroup
    amb = g.ambient
    p = g.p
    pos = g.positions
    ident = mod.mats[pos[amb.identity_id]]
    if not np.array_equal(ident % p, np.eye(mod.dim, dtype=np.int64)):
        raise ValueError("action(identity) != identity matrix")
    left = g.element_ids if g.order <= HOM_CHECK_FULL_MAX else g.generator_ids
    left = np.asarray(left, dtype=np.intp)
    ab = amb.mul(left[:, None], g.element_ids)
    if not np.array_equal(mod.mats[pos[left]][:, None] @ mod.mats % p, mod.mats[pos[ab]]):
        raise ValueError("action is not a homomorphism")


# ---------------------------------------------------------------------------
# invariant subspace machinery (echelon representatives, vectorized scan)


def _invariant_mask(gen_mats, p, pivots, bases):
    """Boolean mask of which echelon bases span invariant subspaces."""
    mask = np.ones(len(bases), dtype=bool)
    piv = list(pivots)
    for m in gen_mats:
        if not mask.any():
            break
        w = bases @ m.T % p
        coords = w[:, :, piv]
        residual = (w - coords @ bases) % p
        mask &= ~residual.any(axis=(1, 2))
    return mask


def invariant_subspaces(gen_mats, p, n, d):
    """All d-dim subspaces invariant under every generator, as RREF bases."""
    if d == 0:
        return [np.zeros((0, n), dtype=np.int64)]
    found = []
    gen_mats = np.asarray(gen_mats, dtype=np.int64) % p
    for pivots, bases in echelon_bases(p, n, d):
        mask = _invariant_mask(gen_mats, p, pivots, bases)
        found.extend(bases[mask])
    return found


def _first_invariant_subspace(gen_mats, p, n, max_dim):
    """First (canonical) invariant subspace of minimal dimension, or None."""
    gen_mats = np.asarray(gen_mats, dtype=np.int64) % p
    for d in range(1, max_dim + 1):
        for pivots, bases in echelon_bases(p, n, d):
            mask = _invariant_mask(gen_mats, p, pivots, bases)
            idx = np.nonzero(mask)[0]
            if len(idx):
                return bases[int(idx[0])], list(pivots)
    return None, None


# ---------------------------------------------------------------------------
# composition factors and isomorphism


def composition_factors(m: GModule):
    """Jordan-Holder factors of m, as a list of irreducible GModules."""
    if m.dim > 4:
        raise ValueError("modules of dimension > 4 are out of scope")
    if m.dim == 0:
        return []
    p = m.p
    gens = m.gen_mats if len(m.subgroup.generator_ids) else np.eye(m.dim, dtype=np.int64)[None]
    basis, pivots = _first_invariant_subspace(gens, p, m.dim, m.dim - 1)
    if basis is None:
        return [m]
    sub, quot = _split_module(m, basis, pivots)
    # sub has the least dimension of any invariant subspace of m, so it is
    # irreducible: an invariant subspace of sub would be a smaller one of m
    return [sub] + composition_factors(quot)


def _split_module(m, basis, pivots):
    """Sub and quotient module for an invariant subspace in RREF."""
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
    sub = GModule(m.subgroup, d, sub_mats)
    quot = GModule(m.subgroup, n - d, quot_mats)
    return sub, quot


def modules_isomorphic(a: GModule, b: GModule) -> bool:
    """Whether an invertible equivariant map a -> b exists.

    Solves T A(s) = B(s) T on the generators and scans the intertwiner
    space for an invertible element; the scan is exhaustive and
    deterministic, capped by the p^dim budget.
    """
    if a.subgroup != b.subgroup:
        raise ValueError("modules must share their subgroup")
    if a.dim != b.dim:
        return False
    n = a.dim
    p = a.p
    amats = a.gen_mats
    bmats = b.gen_mats
    if len(amats) == 0 or all(
        np.array_equal(x, y) for x, y in zip(amats, bmats)
    ):
        return True  # identity intertwines
    if n == 1:
        return all(int(x[0, 0]) == int(y[0, 0]) for x, y in zip(amats, bmats))
    rows = []
    for s in range(len(amats)):
        A = amats[s]
        B = bmats[s]
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] = (row[i * n + k] + int(A[k, j])) % p
                    row[k * n + j] = (row[k * n + j] - int(B[i, k])) % p
                rows.append(tuple(row))
    basis = kernel_basis(rows, n * n, p)
    dim = len(basis)
    if dim == 0:
        return False
    if p ** dim > ISO_SCAN_BUDGET:
        raise BudgetExceeded(f"intertwiner scan p^{dim} over budget")
    for coeffs in product(range(p), repeat=dim):
        if not any(coeffs):
            continue
        t = [[0] * n for _ in range(n)]
        for c, vec in zip(coeffs, basis):
            if c:
                for i in range(n):
                    for j in range(n):
                        t[i][j] = (t[i][j] + c * vec[i * n + j]) % p
        if det_raw(tuple(tuple(r) for r in t), p) != 0:
            return True
    return False


def common_irreducible_factor(a: GModule, b: GModule) -> bool:
    """Whether some Jordan-Holder factor of a is isomorphic to one of b."""
    fa = composition_factors(a)
    fb = composition_factors(b)
    for x in fa:
        for y in fb:
            if x.dim == y.dim and modules_isomorphic(x, y):
                return True
    return False


# ---------------------------------------------------------------------------
# H^1 by Cayley-tree propagation


@dataclass(frozen=True)
class CohomologyClassSpace:
    dim_z1: int
    dim_b1: int
    h1: int
    basis: tuple  # cocycle value tables: per basis vector, per generator, a vector


def _cayley_schedule(subgroup):
    """Breadth-first spanning tree and non-tree edges of the Cayley graph.

    Returns (parent, steps, tree, extra) over element positions.  parent[x]
    is x's parent in the tree, the identity its own; 2^steps is at least
    the tree's depth; tree and extra are the (src, gen, dst) triples of the
    tree edges and of every other edge x -> x*s, s the gen-th generator.
    Cached by (subgroup, generators): Subgroup equality ignores the
    generator set, which the schedule depends on.
    """
    return _cayley_schedule_cached(subgroup, subgroup.generator_ids)


@lru_cache(maxsize=64)
def _cayley_schedule_cached(g, generator_ids):
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


def _relations(g, m):
    """Cocycle values along the Cayley tree, and the relations between them.

    A cocycle is fixed by its values on the k generators: n*k unknowns.
    Returns (t, rel).  t[x] is the (n, n*k) matrix taking the unknowns to
    f(x): the sum of y.f(s) over the tree edges y -> y*s from the identity
    to x, by f(y*s) = f(y) + y.f(s), summed by pointer doubling.  rel
    stacks t[x*s] - t[x] - x.f(s) over the non-tree edges, n rows each;
    its kernel is Z^1.
    """
    if g != m.subgroup:
        raise ValueError("module does not belong to the subgroup")
    if g.order > H1_MAX_ORDER:
        raise SizeExceeded(f"|G| = {g.order} exceeds H^1 size limit")
    p = g.p
    n = m.dim
    k = len(g.generator_ids)
    parent, steps, (src, gen, dst), extra = _cayley_schedule(g)
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


def _coboundary_rank(m):
    """dim B^1, the rank of v -> (s.v - v) over the generators s."""
    cob = (m.gen_mats - np.eye(m.dim, dtype=np.int64)).reshape(-1, m.dim)
    return len(rref(cob, m.p)[1])


def h1(g: Subgroup, m: GModule) -> CohomologyClassSpace:
    """H^1(G, M) with explicit cocycle basis on the generators."""
    _, rel = _relations(g, m)
    n = m.dim
    k = len(g.generator_ids)
    z1 = kernel_basis(rel, n * k, g.p)
    dim_b1 = _coboundary_rank(m)
    basis = tuple(tuple(vec[j * n : (j + 1) * n] for j in range(k)) for vec in z1)
    return CohomologyClassSpace(len(z1), dim_b1, len(z1) - dim_b1, basis)


def _cyclic_generator_positions(g):
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


def h1_star(g: Subgroup, m: GModule) -> int:
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
    dim_b1 = _coboundary_rank(m)
    if nunk - len(pivots) == dim_b1:
        return 0
    rows = [reduced]
    for i in _cyclic_generator_positions(g):
        shifted = (m.mats[i] - np.eye(n, dtype=np.int64)) % p
        left_kernel = np.array(kernel_basis(shifted.T, n, p), dtype=np.int64)
        rows.append(left_kernel.reshape(-1, n) @ t[i] % p)
    dim_w = nunk - len(rref(np.concatenate(rows), p)[1])
    return dim_w - dim_b1


# ---------------------------------------------------------------------------
# characters on a triangularizing datum, and the two criterion sides


def _line_characters(amb, ids, line_idx):
    """(chi1, chi2) on ids that all fix the line: its eigenvalue, and det / chi1.

    chi2 is the other eigenvalue, read off as trace - chi1.
    """
    ids = np.asarray(ids, dtype=np.intp)
    chi1 = amb.lines[1][ids, line_idx]
    trace = amb.mats[ids, 0, 0] + amb.mats[ids, 1, 1]
    return chi1, (trace - chi1) % amb.p


def reducible_characters(g: Subgroup):
    """(chi1, chi2) values on generators if V is reducible, else None.

    chi1 is the sub-character on an invariant line, chi2 the quotient
    character det/chi1, with the first stabilized line in canonical order.
    """
    line_idx = invariant_line(g)
    if line_idx is None:
        return None
    chi1, chi2 = _line_characters(g.ambient, g.generator_ids, line_idx)
    return tuple(chi1.tolist()), tuple(chi2.tolist())


def groupcrit_side_analytic(g: Subgroup) -> bool:
    """No common irreducible factor between V and End(V), and H^1(G, V) = 0."""
    std = make_standard_module(g)
    adj = make_adjoint_module(g)
    if common_irreducible_factor(std, adj):
        return False
    return h1(g, std).h1 == 0


def groupcrit_side_structural(g: Subgroup) -> bool:
    """Not inside an S3 copy; reducible characters avoid 1 and each other's square."""
    if embeds_in_s3(g):
        return False
    chars = reducible_characters(g)
    if chars is None:
        return True
    chi1, chi2 = chars
    p = g.p
    one = tuple(1 for _ in chi1)
    chi1_sq = tuple(x * x % p for x in chi1)
    chi2_sq = tuple(x * x % p for x in chi2)
    if chi1 == one or chi1 == chi2_sq:
        return False
    if chi2 == one or chi2 == chi1_sq:
        return False
    return True


# ---------------------------------------------------------------------------
# the Sylow-normalizer datum behind the H^1 vanishing bound


def borel_datum(g: Subgroup):
    """Sylow normalizer data for p | #G: (P, N_G(P), chi1, chi2) or None.

    chi1, chi2 are the diagonal characters of N_G(P) read off a basis in
    which P is the standard unipotent group; chi1 restricts to the
    character of the line fixed by P.
    """
    p = g.p
    if g.order % p != 0:
        return None
    amb = g.ambient
    syl = p_sylow(g)
    norm = normalizer_in(g, syl)
    # the one line P fixes: where its generator has an eigenvalue
    line_idx = int(np.flatnonzero(amb.lines[1][syl.generator_ids[0]])[0])
    ids = norm.element_ids
    chi1, chi2 = _line_characters(amb, ids, line_idx)
    return syl, norm, dict(zip(ids, chi1.tolist())), dict(zip(ids, chi2.tolist()))


def sylow_hom_bound(g: Subgroup):
    """dim Hom_{N_G(P)}(P, chi2), the upper bound for h^1(G, V).

    Computed purely from the normalizer characters: the Hom space is one
    dimensional exactly when chi1 = chi2^2 on N_G(P), else zero.
    """
    datum = borel_datum(g)
    if datum is None:
        return None
    _, norm, chi1, chi2 = datum
    p = g.p
    if all(chi1[e] == chi2[e] * chi2[e] % p for e in norm.element_ids):
        return 1
    return 0
