"""G-modules built from an element -> matrix map, checked to be homomorphisms."""

import numpy as np

from shadiv.cohomology import GModule

HOM_CHECK_FULL_MAX = 200


def character_module(g, values):
    """A 1-dimensional module from an element -> F_p* value map."""
    return gmodule_from_action(g, 1, {eid: ((values[eid],),) for eid in g.element_ids})


def gmodule_from_action(g, dim, action):
    """Build a GModule from an element -> matrix map (a dict or a callable), checking it is a hom.

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
    if not np.array_equal(mod.mats[pos[amb.identity_id]], np.eye(mod.dim, dtype=np.int64)):
        raise ValueError("action(identity) != identity matrix")
    left = np.asarray(g.element_ids if g.order <= HOM_CHECK_FULL_MAX else g.generator_ids, dtype=np.intp)
    ab = amb.mul(left[:, None], g.element_ids)
    if not np.array_equal(mod.mats[pos[left]][:, None] @ mod.mats % p, mod.mats[pos[ab]]):
        raise ValueError("action is not a homomorphism")
