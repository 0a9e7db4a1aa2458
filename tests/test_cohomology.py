import dataclasses
import hashlib
import random
from itertools import product

import numpy as np
import pytest

from fp_oracle import (
    LinearSystemInconsistent,
    invariant_subspaces_by_filter,
    kernel_basis,
    rank_of,
    solve_linear,
)
from shadiv.cohomology import (
    GModule,
    borel_datum,
    common_irreducible_factor,
    composition_factors,
    gmodule_from_action,
    groupcrit_side_analytic,
    groupcrit_side_structural,
    h1,
    h1_star,
    invariant_subspaces,
    make_adjoint_module,
    make_standard_module,
    modules_isomorphic,
    reducible_characters,
    sylow_hom_bound,
)
from shadiv.gl2 import closure, s3_copy


def h1_dims_bruteforce(g, mod):
    """Oracle: unknowns f(x) for every x in G, cocycle constraints on all pairs.

    Completely independent of the Cayley-tree propagation: builds the full
    linear system f(ab) - f(a) - a.f(b) = 0 and reads dim Z^1 and dim B^1
    off its kernel and the coboundary map.
    """
    amb = g.ambient
    p = g.p
    n = mod.dim
    pos = {eid: i for i, eid in enumerate(g.element_ids)}
    nunk = n * g.order
    rows = []
    for a in g.element_ids:
        for b in g.element_ids:
            ab = amb.mul(a, b)
            for coord in range(n):
                row = [0] * nunk
                row[pos[ab] * n + coord] += 1
                row[pos[a] * n + coord] -= 1
                for k in range(n):
                    row[pos[b] * n + k] -= int(mod.mats[pos[a]][coord, k])
                rows.append(tuple(x % p for x in row))
    z1 = len(kernel_basis(rows, nunk, p))
    cob = []
    for v_idx in range(n):
        col = []
        for eid in g.element_ids:
            m = mod.mats[pos[eid]]
            for coord in range(n):
                col.append((int(m[coord, v_idx]) - (1 if coord == v_idx else 0)) % p)
        cob.append(tuple(col))
    b1 = rank_of(cob, p)
    return z1, b1


CASES = [
    (5, [((1, 1), (0, 1))]),  # C_5 unipotent
    (3, [((1, 1), (0, 1)), ((2, 0), (0, 1))]),  # Borel S3
    (3, [((1, 1), (0, 1)), ((1, 0), (1, 1))]),  # SL2(F3)
    (5, [((2, 0), (0, 1)), ((1, 0), (0, 2))]),  # split torus
    (5, [((0, 2), (1, 0))]),  # nonsplit-ish cyclic
    (3, [((1, 1), (0, 1)), ((2, 0), (0, 2))]),  # C3 x center
    (7, [((1, 1), (0, 1)), ((3, 0), (0, 1))]),  # borel piece at 7
    (5, [((4, 4), (0, 4))]),  # <-u>, order 10, contains -I
]


@pytest.mark.parametrize("p,gens", CASES)
def test_h1_matches_bruteforce(p, gens):
    g = closure(p, gens)
    for mod in (make_standard_module(g), make_adjoint_module(g)):
        space = h1(g, mod)
        z1, b1 = h1_dims_bruteforce(g, mod)
        assert (space.dim_z1, space.dim_b1) == (z1, b1)
        assert space.h1 == z1 - b1
        assert space.h1 >= 0


# sha256 over (dim Z1, dim B1, h1, basis) for V and End V, and h1_*(End V),
# of every subgroup in the seed-1 samples, computed with the per-row
# reducer that preceded fp_linalg.rref: the reducer must not move them
H1_DIGESTS = {
    5: "5206aff4d7aae636a35c0d7028317fe6ae9cf9e947bd094a05156de842e4ba14",
    7: "96a9c504899907cf0b3a4aa4524a45ed748756b5b49acada313bca3b1a7b5af4",
}


def test_h1_digests_are_pinned(sampled_p5, sampled_p7):
    for sample in (sampled_p5, sampled_p7):
        digest = hashlib.sha256()
        for s in sample:
            adj = make_adjoint_module(s)
            row = []
            for mod in (make_standard_module(s), adj):
                space = h1(s, mod)
                row.append((space.dim_z1, space.dim_b1, space.h1, space.basis))
            row.append(h1_star(s, adj))
            digest.update(repr(tuple(row)).encode())
        assert digest.hexdigest() == H1_DIGESTS[sample[0].p]


def test_h1_unipotent_cyclic_is_one_dimensional():
    g = closure(5, [((1, 1), (0, 1))])
    space = h1(g, make_standard_module(g))
    assert (space.dim_z1, space.dim_b1, space.h1) == (2, 1, 1)
    # cocycle basis tables really are cocycles: f(s^2) = f(s) + s f(s)
    assert len(space.basis) == space.dim_z1


def test_h1_trivial_group_vanishes():
    g = closure(7, [])
    assert h1(g, make_standard_module(g)).h1 == 0


def test_b1_dimension_identity(subgroups_p3):
    # dim B^1 = n - dim M^G, with the fixed space computed independently
    # by intersecting kernels of rho(x) - 1 over every group element
    for s in subgroups_p3:
        pos = {eid: i for i, eid in enumerate(s.element_ids)}
        for mod in (make_standard_module(s), make_adjoint_module(s)):
            space = h1(s, mod)
            rows = []
            for eid in s.element_ids:
                block = (mod.mats[pos[eid]] - np.eye(mod.dim, dtype=np.int64)) % 3
                rows.extend(tuple(int(x) for x in r) for r in block)
            fixed_dim = len(kernel_basis(rows, mod.dim, 3))
            assert space.dim_b1 == mod.dim - fixed_dim


def test_h1_size_limit(monkeypatch):
    import shadiv.cohomology as coh

    g = closure(5, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
    monkeypatch.setattr(coh, "H1_MAX_ORDER", 100)
    from shadiv.errors import SizeExceeded

    with pytest.raises(SizeExceeded):
        coh.h1(g, make_standard_module(g))
    with pytest.raises(SizeExceeded):
        coh.h1_star(g, make_standard_module(g))


def test_h1_vanishes_prime_to_p(subgroups_p3):
    for s in subgroups_p3:
        if s.order % 3 != 0:
            assert h1(s, make_standard_module(s)).h1 == 0


def test_h1_vanishing_by_central_scalar():
    g = closure(7, [((3, 0), (0, 3))])  # scalar of order 6
    assert h1(g, make_standard_module(g)).h1 == 0
    assert not common_irreducible_factor(make_standard_module(g), make_adjoint_module(g))


def test_h1_star_basics(subgroups_p3):
    for s in subgroups_p3:
        std = make_standard_module(s)
        star = h1_star(s, std)
        full = h1(s, std).h1
        assert 0 <= star <= full
        # cyclic groups restrict to themselves
        if _is_cyclic(s):
            assert star == 0


def _is_cyclic(s):
    amb = s.ambient
    return any(amb.orders[e] == s.order for e in s.element_ids)


def test_h1_star_bruteforce_small():
    # oracle: enumerate all of Z^1 and test the coboundary condition per
    # cyclic subgroup by solving (rho(x) - 1) v = f(x) directly
    for p, gens in (
        (3, [((1, 1), (0, 1)), ((2, 0), (0, 2))]),  # C3 x center
        (5, [((4, 4), (0, 4))]),  # <-u>, order 10, contains -I
    ):
        g = closure(p, gens)
        mod = make_adjoint_module(g)
        space = h1(g, mod)
        star = h1_star(g, mod)
        pos = {eid: i for i, eid in enumerate(g.element_ids)}
        count_in_w = 0
        for coeffs in product(range(p), repeat=space.dim_z1):
            table = {}
            for gen_idx, gid in enumerate(g.generator_ids):
                vec = np.zeros(mod.dim, dtype=np.int64)
                for c, basis_table in zip(coeffs, space.basis):
                    vec = (vec + c * np.asarray(basis_table[gen_idx])) % p
                table[gid] = vec
            # extend to all elements along products of generators
            full = _extend_cocycle(g, mod, table)
            ok = True
            for eid in g.element_ids:
                rho = mod.mats[pos[eid]]
                rows = [tuple(int(x) for x in row) for row in (rho - np.eye(mod.dim, dtype=np.int64)) % p]
                try:
                    solve_linear(rows, tuple(int(x) for x in full[eid]), p)
                except LinearSystemInconsistent:
                    ok = False
                    break
            if ok:
                count_in_w += 1
        assert count_in_w == p ** (star + space.dim_b1), (p, g.order)


def _extend_cocycle(g, mod, gen_table):
    amb = g.ambient
    p = g.p
    pos = {eid: i for i, eid in enumerate(g.element_ids)}
    full = {amb.identity_id: np.zeros(mod.dim, dtype=np.int64)}
    frontier = [amb.identity_id]
    while frontier:
        nxt = []
        for x in frontier:
            for gid in g.generator_ids:
                y = amb.mul(x, gid)
                if y in full:
                    continue
                full[y] = (full[x] + mod.mats[pos[x]] @ gen_table[gid]) % p
                nxt.append(y)
        frontier = nxt
    return full


def test_standard_and_adjoint_modules_are_homs():
    g = closure(5, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    pos = {eid: i for i, eid in enumerate(g.element_ids)}
    amb = g.ambient
    for mod in (make_standard_module(g), make_adjoint_module(g)):
        for a in g.generator_ids:
            for b in g.element_ids:
                ab = amb.mul(a, b)
                assert np.array_equal(
                    mod.mats[pos[a]] @ mod.mats[pos[b]] % 5, mod.mats[pos[ab]]
                )


def test_gmodule_from_action_validates():
    g = closure(3, [((1, 1), (0, 1))])
    bad = {eid: ((1, 1), (0, 1)) for eid in g.element_ids}
    with pytest.raises(ValueError):
        gmodule_from_action(g, 2, bad)


def test_character_module_roundtrip():
    from shadiv.cohomology import character_module

    g = closure(5, [((2, 0), (0, 1))])
    amb = g.ambient
    values = {eid: int(amb.dets[eid]) for eid in g.element_ids}
    chi = character_module(g, values)
    assert chi.dim == 1
    assert {eid: int(chi.mats[i, 0, 0]) for i, eid in enumerate(g.element_ids)} == values
    bad = dict(values)
    bad[g.generator_ids[0]] = 3  # breaks multiplicativity
    with pytest.raises(ValueError):
        character_module(g, bad)


def test_adjoint_fixes_identity_line():
    # conjugation fixes scalars: the line through vec(I) is invariant
    g = closure(7, [((1, 1), (0, 1)), ((3, 0), (0, 1))])
    adj = make_adjoint_module(g)
    identity_vec = np.array([1, 0, 0, 1], dtype=np.int64)
    for m in adj.gen_mats:
        assert np.array_equal(m @ identity_vec % 7, identity_vec)


def test_composition_factors_trivial_group():
    g = closure(5, [])
    factors = composition_factors(make_standard_module(g))
    assert [f.dim for f in factors] == [1, 1]


def test_composition_factors_nonsplit_torus_irreducible():
    g = closure(5, [((0, 2), (1, 0))])
    factors = composition_factors(make_standard_module(g))
    assert [f.dim for f in factors] == [2]
    # oracle: no line of F_5^2 is fixed by the generator, by direct scan:
    # the image of each line vector v is never a multiple of v
    (a, b), (c, d) = g.generators[0]
    for v in [(1, t) for t in range(5)] + [(0, 1)]:
        w = ((a * v[0] + b * v[1]) % 5, (c * v[0] + d * v[1]) % 5)
        assert (w[0] * v[1] - w[1] * v[0]) % 5 != 0
    assert invariant_subspaces(make_standard_module(g).gen_mats, 5, 2, 1) == []


def test_composition_factors_standard_borel():
    g = closure(5, [((2, 0), (0, 1)), ((1, 0), (0, 3)), ((1, 1), (0, 1))])
    std = make_standard_module(g)
    factors = composition_factors(std)
    assert sorted(f.dim for f in factors) == [1, 1]
    chi1, chi2 = reducible_characters(g)
    values = sorted(tuple(int(f.gen_mats[i][0, 0]) for i in range(len(g.generator_ids))) for f in factors)
    assert values == sorted([chi1, chi2])


def test_composition_factors_are_irreducible(subgroups_p3, subgroups_p5):
    # every factor has no invariant subspace but 0 and itself (by the
    # test-side filter, on the generators' matrices), and the dimensions
    # add up to the module's
    for g in list(subgroups_p3) + random.Random(20).sample(list(subgroups_p5), 60):
        for make in (make_standard_module, make_adjoint_module):
            m = make(g)
            factors = composition_factors(m)
            assert sum(f.dim for f in factors) == m.dim
            for f in factors:
                mats = f.gen_mats.tolist()
                for d in range(1, f.dim):
                    assert not invariant_subspaces_by_filter(mats, g.p, f.dim, d), (g.generator_ids, d)


def test_adjoint_factors_for_borel_subgroup():
    # irreducible factors of End(V): chi1/chi2, 1, 1, chi2/chi1
    for p, gens in ((5, [((2, 0), (0, 1)), ((1, 1), (0, 1))]), (7, [((3, 0), (0, 2)), ((1, 1), (0, 1))])):
        g = closure(p, gens)
        chi1, chi2 = reducible_characters(g)
        adj_factors = composition_factors(make_adjoint_module(g))
        assert sorted(f.dim for f in adj_factors) == [1, 1, 1, 1]
        got = sorted(
            tuple(int(f.gen_mats[i][0, 0]) for i in range(len(g.generator_ids)))
            for f in adj_factors
        )
        one = tuple(1 for _ in g.generator_ids)
        ratio = tuple(a * pow(b, -1, p) % p for a, b in zip(chi1, chi2))
        ratio_inv = tuple(b * pow(a, -1, p) % p for a, b in zip(chi1, chi2))
        assert got == sorted([one, one, ratio, ratio_inv])


def test_adjoint_splits_for_torus_normalizer():
    # End(V) = (torus part) + (twisted part), both 2-dimensional invariant
    for p, gens in (
        (5, [((0, 2), (1, 0)), ((1, 0), (0, 4))]),  # nonsplit torus + flip
        (7, [((2, 0), (0, 4)), ((0, 1), (1, 0))]),  # split torus + swap
    ):
        g = closure(p, gens)
        assert g.order % p != 0
        adj = make_adjoint_module(g)
        planes = invariant_subspaces(adj.gen_mats, p, 4, 2)
        found_complementary = False
        for i in range(len(planes)):
            for j in range(len(planes)):
                if i == j:
                    continue
                stacked = [tuple(int(x) for x in row) for row in planes[i]] + [
                    tuple(int(x) for x in row) for row in planes[j]
                ]
                if rank_of(stacked, p) == 4:
                    found_complementary = True
        assert found_complementary


def test_modules_isomorphic_basics():
    g = closure(5, [((2, 0), (0, 1))])
    std = make_standard_module(g)
    assert modules_isomorphic(std, std)
    factors = composition_factors(std)
    assert len(factors) == 2
    assert not modules_isomorphic(factors[0], factors[1])  # chi = 2 vs 1


def test_modules_isomorphic_requires_same_subgroup():
    a = make_standard_module(closure(5, [((2, 0), (0, 1))]))
    b = make_standard_module(closure(5, [((1, 0), (0, 2))]))
    with pytest.raises(ValueError):
        modules_isomorphic(a, b)


def test_s3_standard_inside_adjoint():
    # V = V.F <= End(V) for every S3 copy: the common-factor detector sees it
    for p in (2, 3, 5, 7, 11, 13):
        s3, _, _ = s3_copy(p)
        assert common_irreducible_factor(make_standard_module(s3), make_adjoint_module(s3))


def test_common_factor_trivial_group():
    g = closure(5, [])
    assert common_irreducible_factor(make_standard_module(g), make_adjoint_module(g))


def test_jordan_holder_invariance_under_generator_permutation():
    g = closure(5, [((2, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (0, 3))])
    reordered = dataclasses.replace(g, generator_ids=tuple(reversed(g.generator_ids)))
    for make in (make_standard_module, make_adjoint_module):
        f1 = composition_factors(make(g))
        f2 = composition_factors(make(reordered))
        assert sorted(f.dim for f in f1) == sorted(f.dim for f in f2)
        # match multisets up to isomorphism (compare on the same subgroup)
        remaining = list(f2)
        for x in f1:
            hit = None
            for idx, y in enumerate(remaining):
                if x.dim == y.dim and _iso_after_realign(x, y, g):
                    hit = idx
                    break
            assert hit is not None
            remaining.pop(hit)


def _iso_after_realign(x, y, g):
    y_aligned = GModule(x.subgroup, y.dim, y.mats)
    return modules_isomorphic(x, y_aligned)


def test_sylow_hom_bound_matches_h1(subgroups_p3, sampled_p5):
    for s in list(subgroups_p3) + list(sampled_p5[:200]):
        if s.order % s.p:
            assert sylow_hom_bound(s) is None
            continue
        bound = sylow_hom_bound(s)
        assert bound in (0, 1)
        assert h1(s, make_standard_module(s)).h1 <= bound


def test_borel_datum_characters_multiplicative():
    g = closure(5, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    syl, norm, chi1, chi2 = borel_datum(g)
    amb = g.ambient
    for a in norm.element_ids:
        for b in norm.element_ids:
            ab = amb.mul(a, b)
            assert chi1[ab] == chi1[a] * chi1[b] % 5
            assert chi2[ab] == chi2[a] * chi2[b] % 5


def test_groupcrit_sides_examples():
    gl2f5 = closure(5, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))])
    assert groupcrit_side_analytic(gl2f5) and groupcrit_side_structural(gl2f5)
    borel_s3 = closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    assert not groupcrit_side_analytic(borel_s3) and not groupcrit_side_structural(borel_s3)
    scalar = closure(7, [((3, 0), (0, 3))])
    assert groupcrit_side_analytic(scalar) and groupcrit_side_structural(scalar)
