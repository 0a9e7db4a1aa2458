"""The subgroup lattice as the fixpoint of joins with cyclic subgroups, the tests' oracle.

`shadiv.gl2.enumerate_subgroups(p, Exhaustive())` builds the lattice by
cyclic extension over conjugacy classes and replays this fixpoint's
discovery order over its join table to choose generators.  The fixpoint
here closes every join with `_close` through the `_Joins` memo instead,
so the tests can check the lattice, and its generator ids, against it.
It takes seconds at p = 5 and about a minute at p = 7, so the tests run
it at p = 2 and 3.
"""

from shadiv.gl2 import _Joins, ambient


def fixpoint_subgroups(p):
    """Every subgroup of GL2(F_p), in (order, element ids) order, as the fixpoint of joins.

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
    return sorted(found.values(), key=lambda s: (s.order, s.element_ids))
