"""Hensel-certified root search for diagonal cubics, the tests' independent oracle.

`shadiv.local_cubic.has_local_point` decides p = 3 from primitive zeros
mod 27 alone; this search goes to any precision p^k and certifies what it
finds, so the tests can check that rule, and the p != 3 cube-class route,
against roots that provably lift.
"""

import numpy as np

from shadiv.arith import valuation_split


def certified_root(cubic, p, k):
    """Search the primitive roots mod p^k of the cubic, one per unit multiple.

    Scaling by a unit keeps a primitive root a root and keeps the
    valuations of its partial derivatives, so it is enough to search the
    triples whose first unit coordinate is 1: the charts (1, y, z),
    (p*, 1, z) and (p*, p*, 1).  In each, one coordinate runs over its
    residues mod p^k and the last is read from a table of the least
    valuation of a solution t of coef * t^3 = r for each residue r: p^k +
    2p^(k-1) candidates, where a sweep of all triples takes p^(2k).

    Returns (certificate, roots): (x, y, z, j) for a primitive root mod
    p^k whose partials have least valuation j with 2j < k, or None; and
    whether any primitive root mod p^k exists.
    """
    pk = p ** k
    res = np.arange(pk, dtype=np.int64)
    cubes = res * res % pk * res % pk
    val = np.zeros(pk, dtype=np.int64)  # v_p of each residue, k for 0
    for e in range(1, k):
        val[:: p ** e] += 1
    val[0] = k
    coeffs = [coef % pk for coef in (cubic.a, cubic.b, cubic.c)]
    v3 = [valuation_split(3 * coef, p)[0] for coef in (cubic.a, cubic.b, cubic.c)]
    mult = res[::p]

    def least_valuations(coef, ts):
        """For each residue r, the least v_p(t) over t in ts with coef t^3 = r; k + 1 if none."""
        least = np.full(pk, k + 1, dtype=np.int64)
        np.minimum.at(least, coef * cubes[ts] % pk, val[ts])
        return least

    z_any, y_mult = least_valuations(coeffs[2], res), least_valuations(coeffs[1], mult)
    roots = False
    # (fixed, free, solved): the coordinate set to 1, the one that runs
    # over its residues and the one read from its table
    for fixed, (free, frees), (solved, solveds, table) in (
        (0, (1, res), (2, res, z_any)),
        (1, (0, mult), (2, res, z_any)),
        (2, (0, mult), (1, mult, y_mult)),
    ):
        r = (-coeffs[fixed] - coeffs[free] * cubes[frees]) % pk
        v = table[r]
        solvable = v <= k
        roots = roots or bool(solvable.any())
        j = np.minimum(np.minimum(v3[fixed], v3[free] + 2 * val[frees]), v3[solved] + 2 * v)
        hit = np.flatnonzero(solvable & (2 * j < k))
        if len(hit):
            i = hit[0]
            t = solveds[(coeffs[solved] * cubes[solveds] % pk == r[i]) & (val[solveds] == v[i])][0]
            point = [0, 0, 0]
            point[fixed], point[free], point[solved] = 1, int(frees[i]), int(t)
            return (*point, int(j[i])), True
    return None, roots
