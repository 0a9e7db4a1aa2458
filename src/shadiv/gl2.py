"""Explicit subgroups of GL2(F_p): closure, enumeration, sampling, classification.

A per-prime ambient context indexes every element of GL2(F_p) in
lexicographic order of its entry 4-tuple (a, b, c, d); that ordering is
canonical throughout.  It has one product, `GL2Ambient.mul`, broadcast over
id arrays: for p <= 7 a lookup in the full multiplication table, built
once from the rows of a generating set (|GL2(F_7)| = 2016, an 8 MB uint16
table), and for p = 11, 13 direct 2x2 arithmetic mod p.  Element orders and the action on the p + 1 lines of
F_p^2 are arrays over all elements, computed once per prime.  Since p
divides |GL2(F_p)| exactly once, a Sylow p-subgroup is trivial or cyclic
of order p.

A subgroup is one frozen value, `Subgroup`: its generators and its
membership mask over the ambient's ids, packed into bytes.  Equality, hash,
membership, containment, element ids and element positions all come from
that mask.  Every closure goes through one kernel, `_close`, which grows a
boolean membership mask from a known subgroup.  Every subgroup enumeration
goes through one join memo, `_Joins`: the seeded stream and the exhaustive
enumeration each intern the subgroups they meet and memoize their joins,
within one stream or one enumeration only; the seeded stream stays a pure
function of (p, count, seed).
"""

import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .arith import is_prime, legendre_symbol
from .errors import (
    InternalInconsistency,
    ModeUnsupported,
    NonInvertibleGenerator,
)

TABLE_MAX_P = 7
_TABLE_BLOCK = 256  # rows per gather while the multiplication table is built
SAMPLING_MAX_P = 13
EXHAUSTIVE_MAX_P = 5

_ambient_cache = {}
_ambient_lock = threading.Lock()


def gl2_order(p):
    return (p * p - 1) * (p * p - p)


def _encode(a, b, c, d, p):
    return ((a * p + b) * p + c) * p + d


class GL2Ambient:
    """Indexed copy of GL2(F_p) with shared lookup structure."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        codes = np.arange(p ** 4, dtype=np.int64)
        a, rem = np.divmod(codes, p ** 3)
        b, rem = np.divmod(rem, p ** 2)
        c, d = np.divmod(rem, p)
        invertible = (a * d - b * c) % p != 0
        self.codes = codes[invertible]
        a, b, c, d = a[invertible], b[invertible], c[invertible], d[invertible]
        self.size = len(self.codes)
        assert self.size == gl2_order(p)
        self.code_to_id = np.full(p ** 4, -1, dtype=np.int32)
        self.code_to_id[self.codes] = np.arange(self.size, dtype=np.int32)
        self.mats = np.stack(
            [np.stack([a, b], axis=1), np.stack([c, d], axis=1)], axis=1
        ).astype(np.int64)
        self.dets = (a * d - b * c) % p
        self._unit_inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
        di = self._unit_inv[self.dets]
        inv_codes = _encode(d * di % p, (-b) * di % p, (-c) * di % p, a * di % p, p)
        self.inv = self.code_to_id[inv_codes].astype(np.int32)
        self.identity_id = int(self.code_to_id[_encode(1, 0, 0, 1, p)])
        self.scalar_ids = np.array(
            [int(self.code_to_id[_encode(s, 0, 0, s, p)]) for s in range(1, p)],
            dtype=np.int32,
        )
        self.table = self._build_mul_table() if p <= TABLE_MAX_P else None
        self._ad_mats = None
        self._orders = None
        self._lines = None
        self._lock = threading.Lock()

    def _build_mul_table(self):
        """The table of every product, table[x, z] = id of x z, grown from the rows of generators.

        The rows of u = [[1, 1], [0, 1]] and w = [[0, 1], [-1, 0]], which
        generate SL2(F_p), and of diag(t, 1) for t = 2 .. p - 1, which
        bring every determinant, come from 2x2 arithmetic.  Every other row
        is reached breadth-first along right multiplication by a generator
        g: (x g) z = x (g z), so row(x g) = row(x)[row(g)], one gather of a
        known row.  The identity too is a word in the generators, so the
        walk reaches every id.  Each gather takes at most _TABLE_BLOCK rows,
        which bounds its scratch memory.
        """
        p = self.p
        gens = [((1, 1), (0, 1)), ((0, 1), (-1, 0))] + [((t, 0), (0, 1)) for t in range(2, p)]
        gen_ids = np.array([self.id_of_mat(g) for g in gens])
        table = np.empty((self.size, self.size), dtype=np.uint16)
        table[gen_ids] = self._mat_mul(gen_ids[:, None], np.arange(self.size))
        known = np.zeros(self.size, dtype=bool)
        known[gen_ids] = True
        frontier = gen_ids
        while frontier.size:
            reached = []
            for start in range(0, frontier.size, _TABLE_BLOCK):
                xs = frontier[start : start + _TABLE_BLOCK]
                for g in gen_ids:
                    ys = table[xs, g]
                    new = ~known[ys]
                    ys = ys[new]
                    table[ys] = table[xs[new]].take(table[g], axis=1)
                    known[ys] = True
                    reached.append(ys)
            frontier = np.concatenate(reached)
        if not known.all():
            raise InternalInconsistency(
                f"the generator rows reach {np.count_nonzero(known)} of {self.size} rows at p={p}"
            )
        return table

    def mat_of(self, eid):
        m = self.mats[eid]
        return ((int(m[0, 0]), int(m[0, 1])), (int(m[1, 0]), int(m[1, 1])))

    def id_of_mat(self, mat):
        p = self.p
        (a, b), (c, d) = mat
        eid = int(self.code_to_id[_encode(a % p, b % p, c % p, d % p, p)])
        if eid < 0:
            raise NonInvertibleGenerator(f"matrix {mat} is singular mod {p}")
        return eid

    def mul(self, a, b):
        """Ids of the products a*b; a and b are ids or id arrays, broadcast against each other.

        The one product of the package: a lookup in the multiplication table
        for p <= TABLE_MAX_P, 2x2 arithmetic mod p above it.
        """
        if self.table is not None:
            return self.table[a, b]
        return self._mat_mul(a, b)

    def _mat_mul(self, a, b):
        """Ids of the products a*b by 2x2 arithmetic mod p, broadcast as in mul."""
        p = self.p
        prod = (self.mats[np.asarray(a, dtype=np.intp)] @ self.mats[np.asarray(b, dtype=np.intp)]) % p
        codes = _encode(prod[..., 0, 0], prod[..., 0, 1], prod[..., 1, 0], prod[..., 1, 1], p)
        return self.code_to_id[codes]

    @property
    def orders(self):
        """The order of every element, indexed by id."""
        with self._lock:
            if self._orders is None:
                identity = np.zeros(self.size, dtype=bool)
                identity[self.identity_id] = True
                self._orders = _first_power_in(self, np.arange(self.size), identity)
        return self._orders

    @property
    def ad_mats(self):
        """Conjugation action on 2x2 matrices in the basis E11, E12, E21, E22."""
        with self._lock:
            if self._ad_mats is None:
                p = self.p
                g = self.mats
                ginv = self.mats[self.inv]
                ginv_t = ginv.transpose(0, 2, 1)
                ad = np.einsum("nij,nkl->nikjl", g, ginv_t).reshape(self.size, 4, 4) % p
                self._ad_mats = ad.astype(np.int64)
        return self._ad_mats

    @property
    def lines(self):
        """(image, eigenvalue): two arrays indexed by (element id, line index).

        Line t < p is spanned by (1, t) and line p by (0, 1).  image[x, l]
        is the index of the line x maps l to; eigenvalue[x, l] is the
        eigenvalue of x on l where x fixes l, and 0 elsewhere.
        """
        with self._lock:
            if self._lines is None:
                p = self.p
                vecs = np.array([(1, t) for t in range(p)] + [(0, 1)], dtype=np.int64)
                w0, w1 = np.moveaxis(self.mats @ vecs.T % p, 1, 0)
                image = np.where(w0 != 0, w1 * self._unit_inv[w0] % p, p)
                eigenvalue = np.where(vecs[:, 0] != 0, w0, w1)
                fixed = image == np.arange(p + 1)
                self._lines = image, np.where(fixed, eigenvalue, 0)
        return self._lines


def _first_power_in(amb, ids, stop_mask):
    """For each id x, the least k >= 1 with x^k in the set `stop_mask` marks.

    One power walk over all ids at once; every power of x reaches the
    identity, so the stop set must hold it.
    """
    ids = np.asarray(ids, dtype=np.intp)
    out = np.ones(len(ids), dtype=np.intp)
    walking = np.flatnonzero(~stop_mask[ids])
    cur = ids[walking]
    k = 1
    while walking.size:
        k += 1
        cur = amb.mul(cur, ids[walking])
        done = stop_mask[cur]
        out[walking[done]] = k
        walking, cur = walking[~done], cur[~done]
    return out


def ambient(p):
    with _ambient_lock:
        if p not in _ambient_cache:
            _ambient_cache[p] = GL2Ambient(p)
        return _ambient_cache[p]


class ClassificationTag(Enum):
    BOREL_CONTAINED = "BorelContained"
    CONTAINS_SL2 = "ContainsSL2"
    SPLIT_TORUS_NORMALIZER = "SplitTorusNormalizer"
    NONSPLIT_TORUS_NORMALIZER = "NonsplitTorusNormalizer"
    EXCEPTIONAL_A4 = "Exceptional(A4)"
    EXCEPTIONAL_S4 = "Exceptional(S4)"
    EXCEPTIONAL_A5 = "Exceptional(A5)"


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of GL2(F_p), as one value: its packed membership mask and generators.

    bits is the membership mask over the ambient's ids, packed eight to a
    byte.  Equality and hash come from (p, bits) alone; the generators take
    no part.  element_ids are the member ids sorted ascending, which is
    lexicographic order on the entry 4-tuples; all downstream output is
    deterministic because of this.  Only element_ids is cached: the mask
    and the positions are recomputed on each read, because keeping them on
    every subgroup a stream yields costs more memory than they save time.
    """

    p: int
    generator_ids: tuple = field(compare=False)
    bits: bytes

    def __contains__(self, eid):
        return 0 <= eid < 8 * len(self.bits) and self.bits[eid >> 3] & (128 >> (eid & 7)) != 0

    @property
    def mask(self):
        """Boolean membership mask over the ambient's ids, unpacked on each read."""
        return np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8), count=gl2_order(self.p)).view(bool)

    @property
    def positions(self):
        """Index into element_ids of each member id, as an array over the ambient's ids (0 elsewhere)."""
        pos = np.zeros(gl2_order(self.p), dtype=np.intp)
        pos[self.mask] = np.arange(self.order)
        return pos

    @cached_property
    def element_ids(self):
        return tuple(np.flatnonzero(self.mask).tolist())

    @property
    def order(self):
        return len(self.element_ids)

    @property
    def ambient(self):
        return ambient(self.p)

    @property
    def generators(self):
        amb = self.ambient
        return tuple(amb.mat_of(i) for i in self.generator_ids)

    @property
    def elements(self):
        amb = self.ambient
        return tuple(amb.mat_of(i) for i in self.element_ids)

    def is_subset_of(self, other):
        """Whether every member of self is in other, read off the packed masks."""
        return self.p == other.p and int.from_bytes(self.bits, "big") & ~int.from_bytes(other.bits, "big") == 0


def _pack(mask):
    """The bits of a Subgroup from its boolean membership mask."""
    return np.packbits(mask).tobytes()


def _normalize_generator(gen):
    if hasattr(gen, "entries"):
        gen = gen.entries
    rows = tuple(tuple(int(x) for x in row) for row in gen)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("generators must be 2x2 matrices")
    return rows


def _close(amb, gen_ids, start=None):
    """Membership mask of the subgroup generated by `start` and `gen_ids`.

    `start` is the boolean membership mask of a known subgroup (the trivial
    group when None); it is not modified.  The closure is a breadth-first
    search under left multiplication by the generators: each level is one
    gather of the generators' rows of the multiplication table at the newest
    elements, and the mask alone tells which products are new.  A finite
    set closed under multiplication by the generators is the group they
    generate.  By Lagrange, a subgroup holding more than half of GL2(F_p)
    is all of it, so the search stops there.
    """
    if start is None:
        seen = np.zeros(amb.size, dtype=bool)
        seen[amb.identity_id] = True
    else:
        seen = start.copy()
    gens = np.asarray(gen_ids, dtype=np.intp)
    rows = amb.table[gens].astype(np.intp) if amb.table is not None else None
    frontier = seen.nonzero()[0]
    found = frontier.size
    while frontier.size:
        new = seen.copy()
        if rows is not None:
            seen[rows.take(frontier, axis=1)] = True
        else:
            seen[amb.mul(gens[:, None], frontier)] = True
        new ^= seen
        frontier = new.nonzero()[0]
        found += frontier.size
        if 2 * found > amb.size:
            seen[:] = True
            break
    return seen


def closure(p, generators):
    """Smallest subgroup of GL2(F_p) containing the given matrices."""
    amb = ambient(p)
    gen_ids = tuple(amb.id_of_mat(_normalize_generator(g)) for g in generators)
    return Subgroup(p, gen_ids, _pack(_close(amb, gen_ids)))


def subgroup_from_ids(p, element_ids):
    """Wrap a known-closed id set as a Subgroup, choosing generators greedily in id order."""
    amb = ambient(p)
    ids = sorted(int(i) for i in element_ids)
    gens = []
    have = _close(amb, ())
    for eid in ids:
        if not have[eid]:
            gens.append(eid)
            have = _close(amb, gens, start=have)
            if np.count_nonzero(have) == len(ids):
                break
    return Subgroup(p, tuple(gens), _pack(have))


def meets_center(g: Subgroup) -> bool:
    """True iff the subgroup contains a nontrivial scalar matrix."""
    # scalar_ids[0] is the identity
    return bool(g.mask[g.ambient.scalar_ids[1:]].any())


def det_image_order(g: Subgroup) -> int:
    return len(np.unique(g.ambient.dets[g.mask]))


def p_sylow(g: Subgroup) -> Subgroup:
    """One Sylow p-subgroup, chosen deterministically.

    p divides |GL2(F_p)| = p(p-1)^2(p+1) exactly once, so the Sylow
    p-subgroup is trivial or cyclic of order p: the group generated by the
    first element of order p in canonical order.
    """
    p = g.p
    amb = g.ambient
    gens = () if g.order % p else (int(np.argmax(g.mask & (amb.orders == p))),)
    return Subgroup(p, gens, _pack(_close(amb, gens)))


def normalizer_in(g: Subgroup, h: Subgroup) -> Subgroup:
    """Normalizer of h inside g: the x in g with x s x^-1 in h for every generator s of h."""
    if not h.is_subset_of(g):
        raise ValueError("h must be a subgroup of g")
    amb = g.ambient
    x = np.asarray(g.element_ids, dtype=np.intp)[:, None]
    conj = amb.mul(amb.mul(x, h.generator_ids), amb.inv[x])
    return subgroup_from_ids(g.p, x[h.mask[conj].all(axis=1), 0])


def s3_copy(p):
    """The standard S3 inside GL2(F_p), from its 2-dimensional integral model.

    The representation is the sum-zero plane of the coordinate-permutation
    action on F_p^3 in the basis (e1 - e2, e2 - e3); it is faithful for
    every prime p and its determinant is the sign of the permutation.
    Returns (subgroup, transposition_id, three_cycle_id).
    """
    transposition = ((-1, 1), (0, 1))
    three_cycle = ((0, -1), (1, -1))
    group = closure(p, (transposition, three_cycle))
    if group.order != 6:
        raise InternalInconsistency(f"S3 model degenerated at p={p}")
    return (group, *group.generator_ids)


def embeds_in_s3(g: Subgroup) -> bool:
    """True iff g lies inside some subgroup of GL2(F_p) isomorphic to S3."""
    n = g.order
    if n not in (1, 2, 3, 6):
        return False
    amb = g.ambient
    if n == 1:
        return True
    ids = np.asarray(g.element_ids, dtype=np.intp)
    if n == 6:
        prods = amb.mul(ids[:, None], ids)
        return bool((prods != prods.T).any())
    # an involution t and an element s of order 3 with t s t^-1 = s^-1:
    # g's nontrivial element is one of them, the other is searched for
    x = int(ids[ids != amb.identity_id][0])
    others = np.flatnonzero(amb.orders == 5 - n)
    t, s = (x, others) if n == 2 else (others, x)
    return bool((amb.mul(amb.mul(t, s), amb.inv[t]) == amb.inv[s]).any())


def invariant_line(g: Subgroup):
    """Index of a line of F_p^2 fixed setwise by the whole subgroup, or None."""
    image = g.ambient.lines[0][list(g.generator_ids)]
    fixed = np.flatnonzero((image == np.arange(g.p + 1)).all(axis=0))
    return int(fixed[0]) if fixed.size else None


def _fp2_mul(x, y, r, p):
    return (x[0] * y[0] + r * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def _fp2_inv(x, r, p):
    n = (x[0] * x[0] - r * x[1] * x[1]) % p
    ninv = pow(n, -1, p)
    return x[0] * ninv % p, (-x[1]) * ninv % p


def _stabilizes_nonsplit_pair(amb, gen_ids, z, r):
    """Whether all generators stabilize the conjugate line pair [1 : z], [1 : z~]."""
    p = amb.p
    zbar = (z[0], (-z[1]) % p)
    for g in gen_ids:
        m = amb.mats[g]
        a, b = int(m[0, 0]), int(m[0, 1])
        c, d = int(m[1, 0]), int(m[1, 1])
        num = ((c + d * z[0]) % p, d * z[1] % p)
        den = ((a + b * z[0]) % p, b * z[1] % p)
        w = _fp2_mul(num, _fp2_inv(den, r, p), r, p)
        if w != z and w != zbar:
            return False
    return True


def _in_split_torus_normalizer(g: Subgroup):
    """Whether the generators all stabilize one pair of distinct lines."""
    image = g.ambient.lines[0][list(g.generator_ids)]
    l1, l2 = np.triu_indices(g.p + 1, 1)
    a, b = image[:, l1], image[:, l2]
    pair = ((a == l1) | (a == l2)) & ((b == l1) | (b == l2))
    return bool(pair.all(axis=0).any())


def _in_nonsplit_torus_normalizer(g: Subgroup):
    amb = g.ambient
    p = g.p
    if p == 2:
        # the nonsplit torus of GL2(F_2) is the cyclic C_3, whose
        # normalizer is all of GL2(F_2): everything qualifies
        return True
    gens = g.generator_ids if g.generator_ids else (amb.identity_id,)
    r = next(x for x in range(2, p) if legendre_symbol(x, p) == -1)
    for za in range(p):
        for zb in range(1, (p - 1) // 2 + 1):
            if _stabilizes_nonsplit_pair(amb, gens, (za, zb), r):
                return True
    return False


_EXCEPTIONAL_ORDER_PROFILES = {
    12: ("A4", {1: 1, 2: 3, 3: 8}),
    24: ("S4", {1: 1, 2: 9, 3: 8, 4: 6}),
    60: ("A5", {1: 1, 2: 15, 3: 20, 5: 24}),
}


def classify(g: Subgroup) -> ClassificationTag:
    """Classification tag per the subgroup taxonomy of GL2(F_p).

    The p | #G dichotomy is settled first; overlapping prime-to-p cases are
    resolved with priority split > nonsplit > exceptional.
    """
    p = g.p
    amb = g.ambient
    if g.order % p == 0:
        if invariant_line(g) is not None:
            return ClassificationTag.BOREL_CONTAINED
        t1 = amb.id_of_mat(((1, 1), (0, 1)))
        t2 = amb.id_of_mat(((1, 0), (1, 1)))
        if t1 in g and t2 in g:
            return ClassificationTag.CONTAINS_SL2
        raise InternalInconsistency(
            "subgroup with p | order is neither Borel-contained nor contains SL2"
        )
    if _in_split_torus_normalizer(g):
        return ClassificationTag.SPLIT_TORUS_NORMALIZER
    if _in_nonsplit_torus_normalizer(g):
        return ClassificationTag.NONSPLIT_TORUS_NORMALIZER
    # each coset of the scalars, by its least id
    cosets = np.unique(amb.mul(amb.scalar_ids[:, None], g.element_ids).min(axis=0))
    image_order = len(cosets)
    if image_order in _EXCEPTIONAL_ORDER_PROFILES:
        name, profile = _EXCEPTIONAL_ORDER_PROFILES[image_order]
        scalar = np.zeros(amb.size, dtype=bool)
        scalar[amb.scalar_ids] = True
        orders, counts = np.unique(_first_power_in(amb, cosets, scalar), return_counts=True)
        observed = dict(zip(orders.tolist(), counts.tolist()))
        if observed != profile:
            raise InternalInconsistency(
                f"projective image of order {image_order} has order profile "
                f"{observed}, expected {profile}"
            )
        return {
            "A4": ClassificationTag.EXCEPTIONAL_A4,
            "S4": ClassificationTag.EXCEPTIONAL_S4,
            "A5": ClassificationTag.EXCEPTIONAL_A5,
        }[name]
    raise InternalInconsistency(
        f"no classification case matched (order {g.order}, image order {image_order})"
    )


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sampled:
    count: int
    seed: int


def enumerate_subgroups(p, mode):
    """Iterator over subgroups of GL2(F_p), either all of them or a seeded sample.

    Exhaustive mode (p <= EXHAUSTIVE_MAX_P) builds the full subgroup
    lattice as the fixpoint of joins with the cyclic subgroups, in
    (order, element ids) order.  Sampled mode draws generator sets of size
    <= 3 from a seeded RNG and deduplicates; its output is a pure function
    of (p, count, seed).  Both resolve joins through one `_Joins` memo,
    which lives for one stream or one enumeration.  An unsupported mode or
    prime raises ModeUnsupported at the call, before any iteration.
    """
    if isinstance(mode, Exhaustive):
        if p > EXHAUSTIVE_MAX_P:
            raise ModeUnsupported(f"exhaustive enumeration only for p <= {EXHAUSTIVE_MAX_P}")
        return _enumerate_all(p)
    if isinstance(mode, Sampled):
        if p > SAMPLING_MAX_P:
            raise ModeUnsupported(f"sampling only for p <= {SAMPLING_MAX_P}")
        return _sample(p, mode.count, mode.seed)
    raise ModeUnsupported(f"unknown mode {mode!r}")


def _enumerate_all(p):
    """Every subgroup of GL2(F_p), as the fixpoint of joins with cyclic subgroups.

    A subgroup is the join of the cyclic subgroups of its elements, so
    closing the set of cyclic subgroups under joins with them reaches the
    whole lattice.  Each cyclic subgroup is keyed by its first generator in
    id order; each newly found subgroup K is joined, through the memo of
    `_Joins`, with every cyclic subgroup whose generator lies outside K,
    until a round finds nothing new.  A new subgroup keeps the generators
    of the join that found it first: K's generators and the new one.
    """
    amb = ambient(p)
    joins = _Joins(amb)
    found = {}  # bits -> subgroup
    firsts = []  # the first generator in id order of each distinct cyclic subgroup
    for g in range(amb.size):
        cyc = joins._cyclic(g)
        if cyc.bits not in found:
            found[cyc.bits] = cyc
            firsts.append(g)
    frontier = list(found.values())
    while frontier:
        new = []
        for known in frontier:
            for g in firsts:
                if g not in known:
                    joined = joins.generated(known.generator_ids + (g,))
                    if joined.bits not in found:
                        found[joined.bits] = joined
                        new.append(joined)
        frontier = new
    yield from sorted(found.values(), key=lambda s: (s.order, s.element_ids))


class _Joins:
    """Subgroups generated by id tuples, with every subgroup interned and every join memoized.

    A tuple (g1, ..., gk) is resolved from the cyclic subgroup of g1 by
    joining one generator at a time.  A generator already inside the
    current subgroup is skipped; otherwise the join is looked up under the
    unordered pair {current subgroup, cyclic subgroup of the generator}
    (a join is symmetric), and computed by `_close` from the current
    subgroup only when that pair is new.  Subgroups are interned by their
    bits, so each is kept once, with the generators it was first met by.
    The memos are keyed by bits, not by Subgroup: bytes cache their hash,
    and a Subgroup is built only for a mask not met before.  The memo
    lives for one stream or one enumeration.
    """

    def __init__(self, amb):
        self.amb = amb
        self.interned = {}  # bits -> Subgroup
        self.cyclic = {}  # element id -> the cyclic Subgroup it generates
        self.joins = {}  # {bits, bits of a cyclic subgroup} -> Subgroup

    def _intern(self, mask, gens):
        bits = _pack(mask)
        known = self.interned.get(bits)
        if known is None:
            known = self.interned[bits] = Subgroup(self.amb.p, gens, bits)
        return known

    def _cyclic(self, g):
        known = self.cyclic.get(g)
        if known is None:
            known = self.cyclic[g] = self._intern(_close(self.amb, (g,)), (g,))
        return known

    def generated(self, gen_ids):
        cur = self._cyclic(gen_ids[0])
        for g in gen_ids[1:]:
            if g in cur:
                continue
            key = frozenset((cur.bits, self._cyclic(g).bits))
            joined = self.joins.get(key)
            if joined is None:
                gens = cur.generator_ids + (g,)
                joined = self.joins[key] = self._intern(_close(self.amb, gens, start=cur.mask), gens)
            cur = joined
        return cur


def _sample(p, count, seed):
    """Distinct subgroups from seeded <=3-generator draws.

    GL2(F_p) can have fewer subgroups than requested (GL2(F_5) has exactly
    466 in total), so the stream saturates: it stops early, after yielding
    everything it found, once a deterministic attempt or stall budget runs
    out.  Output is a pure function of (p, count, seed): the generator ids
    are the drawn tuple and the element ids its closure.  Past saturation
    nearly every draw is a subgroup met before, so the stream memoizes its
    joins (`_Joins`); the memo lives and dies with the stream.
    """
    amb = ambient(p)
    joins = _Joins(amb)
    rng = random.Random(seed)
    yielded = set()
    produced = 0
    attempts = 0
    stall = 0
    max_attempts = max(1000, 40 * count)
    max_stall = max(1000, 10 * count)
    while produced < count and attempts < max_attempts and stall < max_stall:
        attempts += 1
        k = rng.randint(1, 3)
        gen_ids = tuple(rng.randrange(amb.size) for _ in range(k))
        bits = joins.generated(gen_ids).bits
        if bits in yielded:
            stall += 1
            continue
        stall = 0
        yielded.add(bits)
        produced += 1
        yield Subgroup(p, gen_ids, bits)
