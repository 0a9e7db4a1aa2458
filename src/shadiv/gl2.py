"""Explicit subgroups of GL2(F_p): closure, enumeration and sampling.

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
boolean membership mask from a known subgroup.  For p <= TABLE_MAX_P the
whole subgroup lattice, `_Lattice`, is built once per process when a
stream first needs it, by cyclic extension over conjugacy classes, with a
table of every join S v <g>: the seeded stream resolves each draw by
lookups in it, and the exhaustive enumeration yields it.  At p = 11 and
13 the seeded stream joins through the memo `_Joins` instead, which
lives for one stream.  Either way the stream is a pure function of
(p, count, seed).
"""

import random
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import is_prime, prime_factors
from .errors import (
    InternalInconsistency,
    ModeUnsupported,
    NonInvertibleGenerator,
)

TABLE_MAX_P = 7
_TABLE_BLOCK = 256  # rows per gather while the multiplication table is built
SAMPLING_MAX_P = 13
EXHAUSTIVE_MAX_P = TABLE_MAX_P  # the lattice needs the multiplication table

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
        if self.size != gl2_order(p):
            raise InternalInconsistency(f"{self.size} invertible matrices mod {p}, expected {gl2_order(p)}")
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
                # one power walk over all ids at once
                orders = np.ones(self.size, dtype=np.intp)
                walking = cur = np.delete(np.arange(self.size), self.identity_id)
                k = 1
                while walking.size:
                    k += 1
                    cur = self.mul(cur, walking)
                    done = cur == self.identity_id
                    orders[walking[done]] = k
                    walking, cur = walking[~done], cur[~done]
                self._orders = orders
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


def ambient(p):
    with _ambient_lock:
        if p not in _ambient_cache:
            _ambient_cache[p] = GL2Ambient(p)
        return _ambient_cache[p]


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
    x = np.asarray(g.element_ids, dtype=np.intp)
    return subgroup_from_ids(g.p, x[h.mask[_conjugates(g.ambient, x, h.generator_ids)].all(axis=1)])


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


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sampled:
    count: int
    seed: int


def enumerate_subgroups(p, mode):
    """Iterator over subgroups of GL2(F_p), either all of them or a seeded sample.

    Exhaustive mode (p <= EXHAUSTIVE_MAX_P) yields the subgroup lattice,
    `_Lattice`, in (order, element ids) order.  Sampled mode draws
    generator sets of size <= 3 from a seeded RNG and deduplicates; its
    output is a pure function of (p, count, seed).  An unsupported mode or
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
    """Every subgroup of GL2(F_p), in the lattice's (order, element ids) order.

    The generator ids are those of the fixpoint of joins with the cyclic
    subgroups, replayed over the join table, so they do not depend on how
    the lattice was built.  The fixpoint starts from the cyclic subgroups,
    each generated by its least generator in id order (the lattice's
    `firsts`).  Round by round, it joins each subgroup K that the previous
    round found with every first g, in id order; a subgroup first reached
    by (K, g) gets K's generators and g.  It stops when a round finds
    nothing new.
    """
    lat = _lattice(p)
    firsts = lat.firsts
    frontier = lat.join[0, firsts].tolist()  # the trivial group's row: <g> for each first g
    gens = {k: (g,) for k, g in zip(frontier, firsts.tolist())}
    found = np.zeros(len(lat.bits), dtype=bool)
    found[frontier] = True
    while frontier:
        new = []
        for k in frontier:
            reached = lat.join[k, firsts]
            at = np.flatnonzero(~found[reached])
            _, first = np.unique(reached[at], return_index=True)
            for i in at[np.sort(first)].tolist():
                j = int(reached[i])
                found[j] = True
                gens[j] = gens[k] + (int(firsts[i]),)
                new.append(j)
        frontier = new
    if not found.all():
        raise InternalInconsistency(f"the joins reach {len(gens)} of {len(lat.bits)} subgroups at p={p}")
    for j, bits in enumerate(lat.bits):
        yield Subgroup(p, gens[j], bits)


def _conjugates(amb, xs, ids):
    """x s x^-1 for x in xs down the rows and s in ids along the columns."""
    xs = np.asarray(xs, dtype=np.intp)[:, None]
    return amb.mul(amb.mul(xs, np.asarray(ids, dtype=np.intp)), amb.inv[xs])


def _least_generators(amb):
    """For each id g, the least id that generates <g>: g^k for k prime to the order of g."""
    ids = np.arange(amb.size)
    orders = amb.orders
    least = ids
    power = ids
    for k in range(2, int(orders.max())):
        power = amb.mul(power, ids)
        least = np.where((k < orders) & (np.gcd(k, orders) == 1), np.minimum(least, power), least)
    return least


def _subgroups(amb, least):
    """Every subgroup, class by class, by cyclic extension: (members, bits, generator ids).

    Every subgroup is the join of its cyclic subgroups of prime-power order
    (an element is a product of commuting prime-power powers of itself).
    So it ends a chain 1 = H_0 < H_1 < ... with H_{i+1} = H_i v C_i.
    Conjugating step by step puts each H_i on its class representative R,
    and R v C depends on C only up to its orbit under N_G(R).  So,
    breadth first from the trivial group, each representative R is joined
    with one prime-power cyclic subgroup outside R from each N_G(R)-orbit.
    This is Neubueser's cyclic extension method (1960); see Holt, Eick and
    O'Brien, Handbook of Computational Group Theory (2005), the
    subgroup-lattice chapter.  A join is a new class unless its bits are
    among those of the conjugates met so far, so each class is expanded
    into its conjugates as soon as it is found: x R x^-1 for x over a left
    transversal of N_G(R), the least id of each coset.
    """
    orders = amb.orders
    prime_power = np.array([len(prime_factors(n)) == 1 for n in range(1, int(orders.max()) + 1)])
    cyclic = np.unique(least[prime_power[orders - 1]])  # each prime-power cyclic subgroup by its least generator
    members, gens, reps = [], [], []
    seen = {}  # the bits of every subgroup met, as keys in the order met

    def new_class(mask, rep_gens):
        normalizer = np.flatnonzero(mask[_conjugates(amb, np.arange(amb.size), rep_gens)].all(axis=1))
        transversal = []
        left = np.ones(amb.size, dtype=bool)
        while left.any():
            x = int(left.argmax())
            transversal.append(x)
            left[amb.mul(x, normalizer)] = False
        block = np.zeros((len(transversal), amb.size), dtype=bool)
        block[np.arange(len(transversal))[:, None], _conjugates(amb, transversal, np.flatnonzero(mask))] = True
        for row in block:
            seen[_pack(row)] = None
        members.append(block)
        gens.extend(map(tuple, _conjugates(amb, transversal, rep_gens).tolist()))
        reps.append((mask, rep_gens, normalizer))

    new_class(_close(amb, ()), ())
    for mask, rep_gens, normalizer in reps:  # the list grows while it is read: breadth first
        outside = cyclic[~mask[cyclic]]
        if outside.size:
            for c in np.unique(least[_conjugates(amb, normalizer, outside)].min(axis=0)).tolist():
                joined = _close(amb, rep_gens + (c,), start=mask)
                if _pack(joined) not in seen:
                    new_class(joined, rep_gens + (c,))
    return np.concatenate(members), list(seen), gens


class _Lattice:
    """Every subgroup of GL2(F_p), p <= TABLE_MAX_P, with the table of its joins.

    The subgroups are those of `_subgroups`, sorted by (order, element
    ids); `bits[i]` is the i-th one's packed mask, and index 0 is the
    trivial group.  `join[i, g]` is the index of S_i v <g>,
    the subgroup that S_i and the id g generate.  It is the first
    supergroup of S_i in that order that holds g: every supergroup of S_i
    holding g holds the join, and the join comes first among them, since
    it has the least order.  Containment S_i <= S_j is read off S_i's
    generators, one column of the membership masks each.

    `bits_of` reads `join` through a flat int16 buffer, one row per
    generator; Python ints for the whole table would cost more memory
    than the lookups save.  `firsts` are the ids that are the least
    generator of their cyclic subgroup.
    """

    def __init__(self, amb):
        least = _least_generators(amb)
        self.firsts = np.flatnonzero(least == np.arange(amb.size))
        members, bits, gens = _subgroups(amb, least)
        orders = np.count_nonzero(members, axis=1).tolist()
        # (order, element ids) ascending is (order ascending, bits descending):
        # of two sets of one size, the one that holds the least id of their
        # difference has that bit set
        ranked = sorted(range(len(bits)), key=lambda i: (-orders[i], bits[i]), reverse=True)
        members = members[ranked]
        self.bits = [bits[i] for i in ranked]
        n = len(ranked)
        columns = np.full((n, max(map(len, gens))), amb.identity_id)  # padded with an id every subgroup holds
        for row, i in enumerate(ranked):
            columns[row, : len(gens[i])] = gens[i]
        contains = np.ones((n, n), dtype=bool)  # contains[j, i]: S_i <= S_j
        for col in columns.T:
            contains &= members[:, col]
        cyclic = members[:, self.firsts]
        column = np.searchsorted(self.firsts, least)  # <g> = <least[g]>, so g reads its first's column
        self.join = np.empty((n, amb.size), dtype=np.int16)
        for i in range(n):
            above = np.flatnonzero(contains[:, i])
            self.join[i] = above[cyclic[above].argmax(axis=0)][column]
        self._flat = memoryview(self.join.reshape(-1))
        self._size = amb.size

    def bits_of(self, gen_ids):
        """The bits of the subgroup the ids generate, one join lookup per id."""
        cur = 0
        for g in gen_ids:
            cur = self._flat[cur * self._size + g]
        return self.bits[cur]


_lattice_cache = {}
_lattice_lock = threading.Lock()


def _lattice(p):
    """The subgroup lattice of GL2(F_p), p <= TABLE_MAX_P, built when a stream first needs it."""
    with _lattice_lock:
        if p not in _lattice_cache:
            _lattice_cache[p] = _Lattice(ambient(p))
        return _lattice_cache[p]


class _Joins:
    """Subgroups generated by id tuples, with every subgroup interned and every join memoized.

    The seeded stream's joins at p = 11 and 13, where no multiplication
    table, and so no `_Lattice`, exists.  A tuple (g1, ..., gk) is resolved
    from the cyclic subgroup of g1 by joining one generator at a time.  A
    generator already inside the current subgroup is skipped; otherwise the
    join is looked up under the unordered pair {current subgroup, cyclic
    subgroup of the generator} (a join is symmetric), and computed by
    `_close` from the current subgroup only when that pair is new.
    Subgroups are interned by their bits, so each is kept once, with the
    generators it was first met by.  The memos are keyed by bits, not by
    Subgroup: bytes cache their hash, and a Subgroup is built only for a
    mask not met before.  The memo lives for one stream.
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

    def bits_of(self, gen_ids):
        return self.generated(gen_ids).bits


def _sample(p, count, seed):
    """Distinct subgroups from seeded <=3-generator draws.

    GL2(F_p) can have fewer subgroups than requested (GL2(F_5) has exactly
    466 in total), and a stream may stop short of count, after yielding
    everything it found, once a deterministic attempt or stall budget runs
    out.  Output is a pure function of (p, count, seed): the generator ids
    are the drawn tuple and the element ids its closure.  For p <=
    TABLE_MAX_P each draw is resolved by lookups in the join table of
    `_Lattice`, built on the stream's first step and kept for the process;
    above it, by the join memo `_Joins`, which lives and dies with the
    stream.
    """
    amb = ambient(p)
    joins = _lattice(p) if p <= TABLE_MAX_P else _Joins(amb)
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
        bits = joins.bits_of(gen_ids)
        if bits in yielded:
            stall += 1
            continue
        stall = 0
        yielded.add(bits)
        produced += 1
        yield Subgroup(p, gen_ids, bits)
