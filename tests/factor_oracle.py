"""Composition factors by splitting every element's matrix, the tests' oracle.

`GModule.factors` finds the factors on the generator matrices and derives
a factor's all-element matrices only when they are read.  The recursion
here is the one it replaced: at each level the sub-module and the
quotient are built for all |G| elements, and the next level reads its
generator matrices off those.  It shares with the package only the choice
of the first least-dimension invariant subspace, which
`tests/test_fp_linalg.py` checks against the brute-force filter.
"""

import numpy as np

from shadiv.cohomology import GModule, _first_invariant_subspace


def split_module(m, basis, pivots):
    """Sub and quotient module, all element matrices, for an invariant subspace in RREF."""
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
    return GModule(m.subgroup, d, sub_mats), GModule(m.subgroup, n - d, quot_mats)


def factors_by_splitting(m):
    """Jordan-Holder factors of m, each a GModule built from all its element matrices."""
    if m.dim == 0:
        return []
    gens = m.gen_mats if len(m.subgroup.generator_ids) else np.eye(m.dim, dtype=np.int64)[None]
    basis, pivots = _first_invariant_subspace(gens, m.p, m.dim, m.dim - 1)
    if basis is None:
        return [m]
    sub, quot = split_module(m, basis, pivots)
    return [sub] + factors_by_splitting(quot)
