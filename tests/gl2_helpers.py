"""Subgroup helpers that only the tests read: the standard S3 and two membership facts."""

import numpy as np

from shadiv.gl2 import closure


def meets_center(g):
    """True iff the subgroup contains a nontrivial scalar matrix."""
    amb = g.ambient
    return any(amb.id_of_mat(((c, 0), (0, c))) in g for c in range(2, g.p))


def det_image_order(g):
    """The order of det(G) in F_p^*."""
    return int(np.count_nonzero(np.bincount(g.ambient.dets[g.mask], minlength=g.p)))


def s3_copy(p):
    """The standard S3 inside GL2(F_p), from its 2-dimensional integral model.

    The representation is the sum-zero plane of the coordinate-permutation
    action on F_p^3 in the basis (e1 - e2, e2 - e3); it is faithful for
    every prime p and its determinant is the sign of the permutation.
    Returns (subgroup, transposition_id, three_cycle_id).
    """
    group = closure(p, (((-1, 1), (0, 1)), ((0, -1), (1, -1))))
    assert group.order == 6, f"S3 model degenerated at p={p}"
    return (group, *group.generator_ids)
