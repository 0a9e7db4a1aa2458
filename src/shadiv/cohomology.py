"""G-modules over F_p: composition factors, isomorphism testing, H^1.

The first cohomology comes from the Sylow p-subgroup P by transfer: since
[G : P] is a unit mod p, corestriction from P is onto H^1(G, M), so the
cocycles of G are the coboundaries plus the transfers of the cocycles of
P.  P is trivial or cyclic of order p, so its cocycles are n x n linear
algebra, and the transfer is one sum over the cosets of P.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fp_linalg import echelon_bases, kernel_basis
from .gl2 import Subgroup, embeds_in_s3, invariant_line, normalizer_in, p_sylow


class GModule:
    """Finite-dimensional F_p representation of an explicit subgroup.

    mats[i] is the matrix of the i-th element in the subgroup's canonical
    element order; vectors are columns and matrices act on the left.
    gen_mats are the generators' matrices.  A module split off another
    (a composition factor, or a quotient on the way to one) is built from
    the generator matrices alone; its mats are derived on first read, by
    one change of basis from the module above it that holds its mats.
    """

    def __init__(self, subgroup: Subgroup, dim: int, mats: np.ndarray):
        self.subgroup = subgroup
        self.dim = dim
        self.mats = mats

    @property
    def p(self):
        return self.subgroup.p

    @cached_property
    def gen_mats(self):
        ids = self.subgroup.element_ids
        return self.mats[[bisect_left(ids, g) for g in self.subgroup.generator_ids]]

    @cached_property
    def mats(self):
        source, left, right = self._change_of_basis
        return left @ source @ right % self.p

    def _section(self, left, right):
        """The module of left @ x @ right over the matrices x of self.

        left (d x n) and right (n x d) satisfy left @ right = 1, and
        either right's columns span an invariant subspace (a sub-module)
        or left kills one (a quotient), so this is a representation.  Only
        the generator matrices are computed here.  The change of basis is
        kept against the nearest module above that holds its mats, so a
        factor's mats are one product and no quotient on the way to it
        derives its own.
        """
        p = self.p
        mod = GModule.__new__(GModule)
        mod.subgroup = self.subgroup
        mod.dim = len(left)
        mod.gen_mats = left @ self.gen_mats @ right % p
        if "mats" in vars(self):
            mod._change_of_basis = (self.mats, left, right)
        else:
            source, outer_left, outer_right = self._change_of_basis
            mod._change_of_basis = (source, left @ outer_left % p, outer_right @ right % p)
        return mod

    @property
    def factors(self):
        """Jordan-Holder factors, as a tuple of irreducible GModules, found once.

        The first invariant subspace of least dimension is a factor, and
        the factors of the quotient by it follow.  Both come from the
        generator matrices; the factors' mats are derived on first read.
        An irreducible module caches None: a cached (self,) would be a
        reference cycle, which only the cyclic collector frees.
        """
        return (self,) if self._reducible_factors is None else self._reducible_factors

    @cached_property
    def _reducible_factors(self):
        if self.dim > 4:
            raise ValueError("modules of dimension > 4 are out of scope")
        if self.dim == 0:
            return ()
        basis, pivots = _first_invariant_subspace(self.gen_mats, self.p, self.dim, self.dim - 1)
        if basis is None:
            return None
        # the RREF basis B is the identity on its pivot columns: B^T y has
        # y at the pivots, and the quotient keeps the other coordinates of
        # x less B^T times x's pivot coordinates
        eye = np.eye(self.dim, dtype=np.int64)
        others = [c for c in range(self.dim) if c not in pivots]
        sub = self._section(eye[pivots], basis.T)
        quot = self._section((eye - basis.T @ eye[pivots])[others] % self.p, eye[:, others])
        # sub has the least dimension of any invariant subspace, so it is
        # irreducible: an invariant subspace of sub would be a smaller one
        sub._reducible_factors = None
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


# ---------------------------------------------------------------------------
# invariant subspace machinery (echelon representatives, vectorized scan)


@lru_cache(maxsize=16)
def _subspaces(p, n, d):
    """Every d-subspace of F_p^n in echelon order: (bases, pivots, kernels), read-only.

    bases[i] is the RREF basis B (d x n), pivots[i] its pivot columns and
    kernels[i] the basis K (n x (n - d)) of ker B that is the identity at
    B's free columns and minus B's free entries at its pivots, so B K = 0.
    """
    groups = echelon_bases(p, n, d)
    eye = np.eye(n, dtype=np.int64)
    bases = np.concatenate([b for _, b in groups])
    pivots = np.concatenate([np.broadcast_to(piv, (len(b), d)) for piv, b in groups])
    # K is the columns of 1 - E^T B at B's free columns, E the pivot rows of 1
    free = [[c for c in range(n) if c not in piv] for piv, _ in groups]
    kernels = np.concatenate([(eye - eye[list(piv)].T @ b)[:, :, f] % p for (piv, b), f in zip(groups, free)])
    bases.flags.writeable = pivots.flags.writeable = kernels.flags.writeable = False
    return bases, pivots, kernels


def _first_invariant_subspace(gen_mats, p, n, max_dim):
    """First (canonical) invariant subspace of minimal dimension, or None.

    With B and K as in _subspaces, the row space of B is the annihilator
    of ker B, spanned by the columns of K, so M maps it into itself exactly when every B M^T K vanishes
    mod p: u^T M^T x = (M u) . x is 0 for u in the row space and x in
    ker B.  Each dimension is one test over all its subspaces at once.
    """
    gen_mats_t = np.asarray(gen_mats, dtype=np.int64).transpose(0, 2, 1)[:, None]
    for d in range(1, max_dim + 1):
        bases, pivots, kernels = _subspaces(p, n, d)
        invariant = ~(bases @ gen_mats_t @ kernels % p).any(axis=(0, 2, 3))
        first = int(invariant.argmax())
        if invariant[first]:
            return bases[first], pivots[first].tolist()
    return None, None


# ---------------------------------------------------------------------------
# composition factors and isomorphism


def composition_factors(m: GModule):
    """Jordan-Holder factors of m, as a list of irreducible GModules (see GModule.factors).

    They are found on the generator matrices; a factor's mats are derived
    when first read.
    """
    return list(m.factors)


def modules_isomorphic(a: GModule, b: GModule) -> bool:
    """Whether the irreducible modules a and b are isomorphic.

    By Schur's lemma a nonzero equivariant map between irreducible modules
    is invertible, since its kernel and image are sub-modules; so a and b
    are isomorphic exactly when T A(s) = B(s) T on the generators has a
    nonzero solution T.  A reducible argument raises ValueError.
    """
    if a.subgroup != b.subgroup:
        raise ValueError("modules must share their subgroup")
    if len(a.factors) != 1 or len(b.factors) != 1:
        raise ValueError("modules must be irreducible")
    if a.dim != b.dim:
        return False
    n = a.dim
    p = a.p
    amats = a.gen_mats
    bmats = b.gen_mats
    if np.array_equal(amats, bmats):
        return True  # identity intertwines
    if n == 1:
        return False  # a 1 x 1 intertwiner is a scalar, which commutes
    # T A = B T on every generator, row-major vec(T): equation (s, i, j)
    # has coefficient [i == a] A[s, b, j] - B[s, i, a] [b == j] on T[a, b]
    eye = np.eye(n, dtype=np.int64)
    a_t = amats.transpose(0, 2, 1)
    system = eye[:, None, :, None] * a_t[:, None, :, None, :] - bmats[:, :, None, :, None] * eye[:, None, :]
    return bool(kernel_basis(system.reshape(-1, n * n) % p, n * n, p))


def common_irreducible_factor(a: GModule, b: GModule) -> bool:
    """Whether some Jordan-Holder factor of a is isomorphic to one of b."""
    for x in a.factors:
        for y in b.factors:
            if x.dim == y.dim and modules_isomorphic(x, y):
                return True
    return False


# ---------------------------------------------------------------------------
# H^1 by transfer from the Sylow p-subgroup


@dataclass(frozen=True)
class CohomologyClassSpace:
    dim_z1: int
    dim_b1: int
    h1: int
    basis: tuple  # cocycle value tables: per basis vector, per generator, a vector


@lru_cache(maxsize=4)
def _sylow_cosets(g, generator_ids):
    """Coset data of a Sylow p-subgroup P = <sigma> of g, or None when p does not divide |G|.

    Returns (powers, t_prime, e), element positions and exponents: powers[e]
    is sigma^e, and for the j-th generator s and the i-th coset of the left
    transversal of least elements, s t_i = t_prime[j, i] sigma^e[j, i].
    Keyed by the generators as well: Subgroup equality ignores them.
    """
    p = g.p
    if g.order % p:
        return None
    amb = g.ambient
    sigma = p_sylow(g).generator_ids[0]
    powers = [amb.identity_id]
    for _ in range(p - 1):
        powers.append(int(amb.mul(powers[-1], sigma)))
    ids = np.asarray(g.element_ids, dtype=np.intp)
    pos = g.positions
    # coset[x, e] is x sigma^e; positions follow ids, so the least is the
    # representative, and x is one where it comes first
    coset = pos[amb.mul(ids[:, None], powers)]
    first = coset.argmin(axis=1)
    rep = coset.min(axis=1)
    transversal = ids[first == 0]
    moved = pos[amb.mul(np.asarray(generator_ids, dtype=np.intp)[:, None], transversal)]
    return pos[powers], rep[moved], -first[moved] % p


def h1(g: Subgroup, m: GModule) -> CohomologyClassSpace:
    """H^1(G, M) with explicit cocycle basis on the generators.

    A cocycle is given by its values on the k generators, a vector of
    length n*k.  For a Sylow p-subgroup P, cor o res is multiplication by
    [G : P], a unit mod p, so corestriction is onto H^1(G, M) and
    Z^1(G, M) = B^1 + cor Z^1(P, M) (Brown, Cohomology of Groups, ch. III,
    transfer; Cartan-Eilenberg XII.10).  B^1 is spanned by (s.v - v)_s.
    P is trivial or <sigma> of order p, since p divides |GL2(F_p)| exactly
    once, and Z^1(P, M) is f_v(sigma^e) = S_e v for v in ker N, where
    S_e = 1 + sigma + ... + sigma^{e-1} and N = S_p.  With s t = t' sigma^e
    over the transversal, cor f_v(s) = sum_t t' f_v(sigma^e) = C_s v.  The
    basis is kernel_basis of the annihilator of Z^1, which depends only on
    the subspace.
    """
    if g != m.subgroup:
        raise ValueError("module does not belong to the subgroup")
    p = g.p
    n = m.dim
    k = len(g.generator_ids)
    cob = (m.gen_mats - np.eye(n, dtype=np.int64)).reshape(k * n, n)
    annihilator = kernel_basis(cob.T, k * n, p)
    dim_b1 = k * n - len(annihilator)
    cosets = _sylow_cosets(g, g.generator_ids)
    if cosets is not None:
        powers, t_prime, e = cosets
        partial = np.zeros((p + 1, n, n), dtype=np.int64)
        partial[1:] = np.cumsum(m.mats[powers], axis=0) % p  # S_0 .. S_p
        kernel = np.array(kernel_basis(partial[p], n, p), dtype=np.int64).reshape(-1, n)
        transfer = np.einsum("jtab,jtbc->jac", m.mats[t_prime], partial[e]) % p  # C_s
        cocycles = (transfer @ kernel.T).reshape(k * n, -1) % p
        if (np.array(annihilator, dtype=np.int64).reshape(-1, k * n) @ cocycles % p).any():
            annihilator = kernel_basis(np.concatenate([cob, cocycles], axis=1).T, k * n, p)
    z1 = kernel_basis(annihilator, k * n, p)
    basis = tuple(tuple(vec[j * n : (j + 1) * n] for j in range(k)) for vec in z1)
    return CohomologyClassSpace(len(z1), dim_b1, len(z1) - dim_b1, basis)


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
