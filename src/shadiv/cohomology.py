"""G-modules over F_p: composition factors, isomorphism testing, H^1.

The first cohomology is read off the Sylow p-subgroup P by the
stable-element theorem: restriction to P is injective on H^1(G, M), and
since P is trivial or cyclic of order p, H^1(G, M) is H^1(P, M)^{N_G(P)},
n x n linear algebra.  Only where that is nonzero are the cocycles found by
propagating unknown values on the generators along a spanning tree of the
Cayley graph; every non-tree edge contributes linear constraints.  This
keeps the unknown count at dim(M) * #generators independently of |G|.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceeded, InternalInconsistency, SizeExceeded
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

    @cached_property
    def factors(self):
        """Jordan-Holder factors, as a tuple of irreducible GModules, computed once."""
        if self.dim > 4:
            raise ValueError("modules of dimension > 4 are out of scope")
        if self.dim == 0:
            return ()
        gens = self.gen_mats if len(self.subgroup.generator_ids) else np.eye(self.dim, dtype=np.int64)[None]
        basis, pivots = _first_invariant_subspace(gens, self.p, self.dim, self.dim - 1)
        if basis is None:
            return (self,)
        sub, quot = _split_module(self, basis, pivots)
        # sub has the least dimension of any invariant subspace, so it is
        # irreducible: an invariant subspace of sub would be a smaller one
        return (sub,) + quot.factors


def make_standard_module(g: Subgroup) -> GModule:
    """The tautological 2-dimensional module: action by inclusion."""
    return _ambient_module(g, g.generator_ids, 2)


def make_adjoint_module(g: Subgroup) -> GModule:
    """End(V) with conjugation action, in the basis E11, E12, E21, E22."""
    return _ambient_module(g, g.generator_ids, 4)


@lru_cache(maxsize=4)
def _ambient_module(g, generator_ids, dim):
    """V (dim 2) or End V (dim 4) of g, built once and shared, with read-only mats.

    Sharing the module shares its generator matrices and factors too.
    Keyed by the generators as well: Subgroup equality ignores them, and
    gen_mats depends on them.
    """
    amb = g.ambient
    mats = (amb.mats if dim == 2 else amb.ad_mats)[list(g.element_ids)]
    mats.flags.writeable = False
    return GModule(g, dim, mats)


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
    """Jordan-Holder factors of m, as a list of irreducible GModules (see GModule.factors)."""
    return list(m.factors)


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
    for x in a.factors:
        for y in b.factors:
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


@lru_cache(maxsize=8)
def _sylow_normalizer(g):
    """P = p_sylow(g) and its normalizer N_G(P), once per subgroup.

    Both depend only on g's elements, so g alone is the key.
    """
    syl = p_sylow(g)
    return syl, normalizer_in(g, syl)


def _sylow_h1_dim(g, m):
    """dim H^1(G, M), read off the Sylow p-subgroup by stable elements.

    Restriction to P is injective on H^1(G, M): cor o res is
    multiplication by [G : P], a unit mod p.  P is trivial or <sigma> of
    order p, so P meets every conjugate other than itself trivially, and
    the stable elements of H^1(P, M) are its N_G(P)-invariants (Swan;
    Cartan-Eilenberg XII.10; Brown, Cohomology of Groups, III):
    H^1(G, M) = H^1(P, M)^{N_G(P)}.  H^1(P, M) is ker N / (sigma - 1)M,
    N = 1 + sigma + ... + sigma^{p-1}.  An x in N_G(P) with
    x^-1 sigma x = sigma^a maps the class of v to that of x S_a v,
    S_a = 1 + sigma + ... + sigma^{a-1}; v is fixed modulo (sigma - 1)M
    when C (x S_a - 1) v = 0, the rows of C spanning the left kernel of
    sigma - 1.  So the dimension is n - rank [N; C (x S_a - 1) for each
    generator x of N_G(P)] - rank(sigma - 1).
    """
    p = g.p
    if g.order % p:
        return 0
    amb = g.ambient
    n = m.dim
    ident = np.eye(n, dtype=np.int64)
    syl, norm = _sylow_normalizer(g)
    sigma = syl.generator_ids[0]
    powers = [amb.identity_id]
    for _ in range(p - 1):
        powers.append(int(amb.mul(powers[-1], sigma)))
    ids = g.element_ids
    partial = np.cumsum(m.mats[[bisect_left(ids, x) for x in powers]], axis=0) % p  # S_1 .. S_p
    shift = (m.mats[bisect_left(ids, sigma)] - ident) % p
    left_kernel = np.array(kernel_basis(shift.T, n, p), dtype=np.int64).reshape(-1, n)
    xs = np.asarray(norm.generator_ids, dtype=np.intp)
    exponents = [powers.index(int(y)) for y in amb.mul(amb.mul(amb.inv[xs], sigma), xs)]
    rows = [partial[-1]]
    for x, a in zip(norm.generator_ids, exponents):
        act = m.mats[bisect_left(ids, x)] @ partial[a - 1] - ident
        rows.append(left_kernel @ act % p)
    return n - len(rref(np.concatenate(rows), p)[1]) - len(rref(shift, p)[1])


def h1(g: Subgroup, m: GModule) -> CohomologyClassSpace:
    """H^1(G, M) with explicit cocycle basis on the generators.

    The dimension comes from the Sylow p-subgroup (_sylow_h1_dim).  Where it
    is 0, Z^1 = B^1, spanned by the cocycles (s.v - v)_s; the basis is
    kernel_basis of the annihilator of B^1, which depends only on the
    subspace and so equals the basis the Cayley relations give.  Only
    where H^1 > 0 are the relations built (_relations), and their
    kernel is Z^1.
    """
    if g != m.subgroup:
        raise ValueError("module does not belong to the subgroup")
    p = g.p
    n = m.dim
    k = len(g.generator_ids)
    dim_h1 = _sylow_h1_dim(g, m)
    cob = (m.gen_mats - np.eye(n, dtype=np.int64)).reshape(k * n, n)
    annihilator = kernel_basis(cob.T, k * n, p)
    dim_b1 = k * n - len(annihilator)
    if dim_h1 == 0:
        z1 = kernel_basis(annihilator, k * n, p)
    else:
        z1 = kernel_basis(_relations(g, m)[1], k * n, p)
        if len(z1) != dim_b1 + dim_h1:
            raise InternalInconsistency(
                f"dim Z^1 = {len(z1)} from the relations, {dim_b1 + dim_h1} from the Sylow subgroup"
            )
    basis = tuple(tuple(vec[j * n : (j + 1) * n] for j in range(k)) for vec in z1)
    return CohomologyClassSpace(len(z1), dim_b1, dim_h1, basis)


def h1_star(g: Subgroup, m: GModule) -> int:
    """Dimension of the classes killed by restriction to every cyclic subgroup: always 0.

    The Sylow p-subgroup P of G is trivial or cyclic of order p, since p
    divides |GL2(F_p)| exactly once.  A class killed on every cyclic
    subgroup is killed on P, and restriction to P is injective on
    H^1(G, M), because cor o res is multiplication by [G : P], a unit mod
    p.  So the class is 0, for every subgroup and every F_p-module.
    """
    if g != m.subgroup:
        raise ValueError("module does not belong to the subgroup")
    return 0


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
    syl, norm = _sylow_normalizer(g)
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
