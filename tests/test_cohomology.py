import dataclasses
import gc
import hashlib
import random
import weakref
from itertools import product

import numpy as np
import pytest

from factor_oracle import factors_by_splitting, isomorphic_by_scan
from fp_oracle import (
    LinearSystemInconsistent,
    invariant_subspaces_by_filter,
    kernel_basis,
    rank_of,
    solve_linear,
)
from gl2_helpers import s3_copy
from h1_oracle import RELATIONS_MAX_ORDER, h1_by_relations, h1_star_by_relations
from module_fixtures import character_module, gmodule_from_action
from shadiv import cohomology
from shadiv.cohomology import (
    GModule,
    _line_characters,
    _sylow_cosets,
    borel_datum,
    common_irreducible_factor,
    composition_factors,
    groupcrit_side_analytic,
    groupcrit_side_structural,
    h1,
    h1_star,
    make_adjoint_module,
    make_standard_module,
    modules_isomorphic,
    reducible_characters,
    sylow_hom_bound,
)
from shadiv.gl2 import Exhaustive, Sampled, ambient, closure, enumerate_subgroups, invariant_line


def h1_dims_bruteforce(g, mod):
    """Oracle: unknowns f(x) for every x in G, cocycle constraints on all pairs.

    Independent of the transfer route and of the Cayley relations: builds
    the full linear system f(ab) - f(a) - a.f(b) = 0 and reads dim Z^1 and
    dim B^1 off its kernel and the coboundary map.
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
# reducer that preceded fp_linalg.rref: the reducer must not move them.
# h1_* is 0 by proof; the relation-route oracle recomputes it here.
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
            assert h1_star_by_relations(s, adj) == 0, s.generator_ids
            digest.update(repr(tuple(row)).encode())
        assert digest.hexdigest() == H1_DIGESTS[sample[0].p]


def _character_modules(s):
    """det^k for 0 <= k < p - 1, and chi_1 on the first invariant line where there is one."""
    amb = s.ambient
    p = s.p
    dets = amb.dets[list(s.element_ids)].tolist()
    mods = [
        character_module(s, dict(zip(s.element_ids, (pow(d, k, p) for d in dets))))
        for k in range(p - 1)
    ]
    line_idx = invariant_line(s)
    if line_idx is not None:
        chi1 = _line_characters(amb, s.element_ids, line_idx)[0].tolist()
        mods.append(character_module(s, dict(zip(s.element_ids, chi1))))
    return mods


def test_h1_equals_relation_route(subgroups_p3, subgroups_p5, sampled_p7):
    # the transfer route against Z^1 from the full Cayley relations: the
    # dimensions and the cocycle basis
    for s in list(subgroups_p3) + list(subgroups_p5) + list(sampled_p7):
        mods = [make_standard_module(s), make_adjoint_module(s)]
        if s.p < 7:
            mods += _character_modules(s)
        for mod in mods:
            assert h1(s, mod) == h1_by_relations(s, mod), (s.p, s.generator_ids, mod.dim)


@pytest.mark.parametrize("p", [11, 13])
def test_h1_answers_above_the_relation_size_limit(p):
    # the seed-1 samples hold subgroups above the oracle's size limit, and
    # GL2(F_p) itself is above it; their H^1 vanishes, and h1 answers
    gl2 = closure(p, [((1, 1), (0, 1)), ((0, 1), (-1, 0)), ((2, 0), (0, 1))])  # 2 generates F_p^*
    assert gl2.order > RELATIONS_MAX_ORDER
    large = 0
    for s in enumerate_subgroups(p, Sampled(120, 1)):
        for mod in (make_standard_module(s), make_adjoint_module(s)):
            space = h1(s, mod)
            if s.order <= RELATIONS_MAX_ORDER:
                assert space == h1_by_relations(s, mod), (s.generator_ids, mod.dim)
            else:
                assert space.h1 == 0
                with pytest.raises(ValueError, match="size limit"):
                    h1_by_relations(s, mod)
        large += s.order > RELATIONS_MAX_ORDER
    assert large == {11: 1, 13: 2}[p]
    for mod in (make_standard_module(gl2), make_adjoint_module(gl2)):
        assert h1(gl2, mod).h1 == 0


def test_sylow_cosets_factor_generators_through_the_transversal(subgroups_p3, subgroups_p5):
    # s t = t' sigma^e, with t, t' the least elements of their cosets t P,
    # checked against the cosets built as sets of element ids
    for g in list(subgroups_p3) + list(subgroups_p5):
        p = g.p
        data = _sylow_cosets(g, g.generator_ids)
        if g.order % p:
            assert data is None
            continue
        amb = g.ambient
        ids = list(g.element_ids)
        powers, t_prime, e = (np.asarray(a).tolist() for a in data)
        sigma_powers = [ids[i] for i in powers]
        assert sigma_powers[0] == amb.identity_id
        assert len(set(sigma_powers)) == p
        assert int(amb.mul(sigma_powers[-1], sigma_powers[1])) == amb.identity_id
        coset_of = {x: frozenset(int(amb.mul(x, y)) for y in sigma_powers) for x in ids}
        rank = {x: i for i, x in enumerate(ids)}
        transversal = sorted({min(c, key=rank.get) for c in coset_of.values()}, key=rank.get)
        assert len(transversal) * p == g.order
        for j, s in enumerate(g.generator_ids):
            for i, t in enumerate(transversal):
                rep = ids[t_prime[j][i]]
                assert rep in transversal
                assert 0 <= e[j][i] < p
                assert int(amb.mul(s, t)) == int(amb.mul(rep, sigma_powers[e[j][i]]))


def test_h1_follows_the_generators_of_equal_subgroups():
    # Subgroup equality ignores the generators, so the coset cache must not
    # hand one generating set's transfers to another of the same group
    a, b = ((1, 1), (0, 1)), ((4, 0), (0, 2))
    for gens in ([a, b], [b, a], [b, a, a]):
        g = closure(5, gens)
        assert g == closure(5, [a, b])
        for mod in (make_standard_module(g), make_adjoint_module(g)):
            assert h1(g, mod) == h1_by_relations(g, mod), (gens, mod.dim)


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
        assert star == h1_star_by_relations(s, std)
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
    assert invariant_subspaces_by_filter(make_standard_module(g).gen_mats.tolist(), 5, 2, 1) == set()


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


def test_composition_factors_match_the_splitting_oracle(subgroups_p3, subgroups_p5, sampled_p7):
    # the factors found on the generator matrices against the recursion
    # that splits every element's matrix: the same dims in the same order,
    # the same generator matrices, and the same mats once they are read
    subgroups = list(enumerate_subgroups(2, Exhaustive())) + list(subgroups_p3) + list(subgroups_p5)
    for s in subgroups + list(sampled_p7):
        mods = [make_standard_module(s), make_adjoint_module(s)]
        if s.p in (3, 5):
            mods += _character_modules(s)
        for mod in mods:
            got = composition_factors(mod)
            want = factors_by_splitting(mod)
            assert [f.dim for f in got] == [f.dim for f in want], (s.p, s.generator_ids, mod.dim)
            for f, w in zip(got, want):
                assert np.array_equal(f.gen_mats, w.gen_mats), (s.p, s.generator_ids, mod.dim)
                assert np.array_equal(f.mats, w.mats), (s.p, s.generator_ids, mod.dim)


class _Refused:
    """Stands in for GModule.mats, the derivation of a split-off module's mats: it raises.

    It defines __get__ alone, so a module that holds its mats in its
    instance dict still reads them.
    """

    def __get__(self, mod, owner=None):
        raise AssertionError("all-element matrices derived")


def test_factors_derive_no_element_matrices(monkeypatch, subgroups_p5, sampled_p7):
    # the analytic side and the factor dims need only the generator
    # matrices; a split-off module derives its mats on first read alone
    monkeypatch.setattr(GModule, "mats", _Refused())
    for s in subgroups_p5:
        assert groupcrit_side_analytic(s) == groupcrit_side_structural(s), s.generator_ids
    makes = (make_standard_module, make_adjoint_module)
    dims = [[f.dim for f in make(s).factors] for s in sampled_p7 for make in makes]
    g = closure(5, [((2, 0), (0, 1))])
    fresh = GModule(g, 2, make_standard_module(g).mats)
    assert [f.dim for f in fresh.factors] == [1, 1]
    with pytest.raises(AssertionError, match="derived"):
        fresh.factors[0].mats
    monkeypatch.undo()
    assert dims == [[f.dim for f in factors_by_splitting(make(s))] for s in sampled_p7 for make in makes]


def test_irreducible_module_frees_without_the_cyclic_collector(monkeypatch):
    # reading factors on an irreducible module scans once and caches no
    # reference to the module itself: with the cyclic collector off, del
    # frees it
    calls = []
    scan = cohomology._first_invariant_subspace
    monkeypatch.setattr(cohomology, "_first_invariant_subspace", lambda *args: calls.append(args) or scan(*args))
    g = closure(5, [((0, 2), (1, 0))])  # nonsplit torus: V is irreducible
    mod = GModule(g, 2, make_standard_module(g).mats)
    gc.disable()
    try:
        assert mod.factors[0] is mod and len(mod.factors) == 1
        assert len(calls) == 1
        ref = weakref.ref(mod)
        del mod
        assert ref() is None
    finally:
        gc.enable()


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
        planes = list(invariant_subspaces_by_filter(adj.gen_mats.tolist(), p, 4, 2))
        assert any(rank_of(a + b, p) == 4 for a in planes for b in planes)


def test_modules_isomorphic_basics():
    g = closure(5, [((2, 0), (0, 1))])
    std = make_standard_module(g)
    factors = composition_factors(std)
    assert len(factors) == 2
    assert modules_isomorphic(factors[0], factors[0])
    assert not modules_isomorphic(factors[0], factors[1])  # chi = 2 vs 1
    # Schur's lemma decides irreducible modules only: V is reducible here
    with pytest.raises(ValueError):
        modules_isomorphic(std, std)
    with pytest.raises(ValueError):
        modules_isomorphic(factors[0], std)


def test_modules_isomorphic_requires_same_subgroup():
    a = make_standard_module(closure(5, [((2, 0), (0, 1))]))
    b = make_standard_module(closure(5, [((1, 0), (0, 2))]))
    with pytest.raises(ValueError):
        modules_isomorphic(a, b)


def _isomorphic_by_search(a, b):
    """Oracle: an invertible T among all n x n matrices over F_p with T A = B T on every generator."""
    p, n = a.p, a.dim
    ts = np.array(list(product(range(p), repeat=n * n)), dtype=np.int64).reshape(-1, 1, n, n)
    intertwines = ((ts @ a.gen_mats - b.gen_mats @ ts) % p == 0).all(axis=(1, 2, 3))
    return any(rank_of(t.tolist(), p) == n for t in ts[intertwines, 0])


def test_modules_isomorphic_on_twists_of_the_standard_module(subgroups_p3, sampled_p5):
    # V against V (x) det^k, n = 2, against a search over every 2 x 2
    # matrix where V is irreducible; where det^k is not 1 on the generators
    # their matrices differ.  A reducible V raises.
    found = {True: 0, False: 0}
    for s in list(subgroups_p3) + list(sampled_p5):
        amb = s.ambient
        p = s.p
        std = make_standard_module(s)
        for k in range(1, p - 1):
            twist = gmodule_from_action(s, 2, lambda eid: amb.mats[eid] * pow(int(amb.dets[eid]), k, p))
            if len(std.factors) > 1:
                with pytest.raises(ValueError):
                    modules_isomorphic(std, twist)
                continue
            expected = _isomorphic_by_search(std, twist)
            assert modules_isomorphic(std, twist) == expected, (s.generator_ids, k)
            if not np.array_equal(std.gen_mats, twist.gen_mats):
                found[expected] += 1
    assert found[True] > 10 and found[False] > 10, found


def _random_invertible(rng, n, p):
    """A random invertible n x n matrix mod p and its inverse."""
    from sympy import Matrix

    c = Matrix(n, n, lambda i, j: rng.randrange(p))
    while c.det() % p == 0:
        c = Matrix(n, n, lambda i, j: rng.randrange(p))
    return (np.array(x.tolist(), dtype=np.int64) for x in (c, c.inv_mod(p)))


def test_modules_isomorphic_on_a_conjugate_of_the_adjoint_module(subgroups_p3, sampled_p5):
    # C End(V) C^-1 is isomorphic to End(V), through C^-1, for every
    # invertible C, and its generator matrices differ from End(V)'s; but
    # End(V) is reducible (the scalars are a fixed line), so both raise
    rng = random.Random(25)
    unequal = 0
    for s in list(subgroups_p3) + list(sampled_p5[:100]):
        p = s.p
        adj = make_adjoint_module(s)
        c, c_inv = _random_invertible(rng, 4, p)
        conj = GModule(s, 4, c @ adj.mats @ c_inv % p)
        with pytest.raises(ValueError):
            modules_isomorphic(adj, conj)
        with pytest.raises(ValueError):
            modules_isomorphic(conj, conj)
        unequal += not np.array_equal(adj.gen_mats, conj.gen_mats)
    assert unequal > 100, unequal
    # End V of <380> at p = 5, where the intertwiner scan took 16,400 determinants
    g = closure(5, [ambient(5).mat_of(380)])
    adj = make_adjoint_module(g)
    with pytest.raises(ValueError):
        modules_isomorphic(adj, GModule(g, 4, adj.mats[:, ::-1, ::-1]))


def test_one_dimensional_isomorphism_is_equality_of_characters(subgroups_p5):
    # two characters are isomorphic exactly when they agree on every
    # element: on det^k and chi_1 of every subgroup, and on the
    # 1-dimensional factors of V and End V
    def character(mod):
        return mod.mats[:, 0, 0].tolist()

    pairs = 0
    for s in subgroups_p5:
        factors = [f for mod in (make_standard_module(s), make_adjoint_module(s)) for f in mod.factors if f.dim == 1]
        for mods in (_character_modules(s), factors):
            for a in mods:
                for b in mods:
                    assert modules_isomorphic(a, b) == (character(a) == character(b)), s.generator_ids
                    pairs += 1
    assert pairs > 10 ** 4
    # equal characters on two different subgroups of order 4 still raise
    dets = [_character_modules(closure(5, gens))[1] for gens in ([((2, 0), (0, 1))], [((1, 0), (0, 2))])]
    assert character(dets[0]) == character(dets[1])
    with pytest.raises(ValueError):
        modules_isomorphic(*dets)


def test_modules_isomorphic_on_irreducible_factors_matches_the_scan(subgroups_p3, subgroups_p5):
    # Schur's lemma against the intertwiner scan, and against the search
    # over every matrix where n <= 2: every same-dimension pair of the
    # factors of V and End V, and each factor F against C F C^-1
    rng = random.Random(27)
    seen = {True: 0, False: 0}
    unequal = 0
    for s in list(subgroups_p3) + list(subgroups_p5):
        p = s.p
        factors = [f for mod in (make_standard_module(s), make_adjoint_module(s)) for f in mod.factors]
        pairs = [(a, b) for a in factors for b in factors if a.dim == b.dim]
        for f in factors:
            c, c_inv = _random_invertible(rng, f.dim, p)
            pairs.append((f, GModule(s, f.dim, c @ f.mats @ c_inv % p)))
        for a, b in pairs:
            got = modules_isomorphic(a, b)
            assert got == isomorphic_by_scan(a, b), (p, s.generator_ids, a.dim)
            if a.dim <= 2:
                assert got == _isomorphic_by_search(a, b), (p, s.generator_ids, a.dim)
            seen[got] += 1
            unequal += not np.array_equal(a.gen_mats, b.gen_mats)
    assert seen[True] > 100 and seen[False] > 100 and unequal > 100, (seen, unequal)


def test_isomorphism_domain_check_scans_no_factor(monkeypatch, subgroups_p5):
    # each module in a chain of factors is scanned once: a scan that finds
    # a subspace splits the module, and one that finds none ends the chain
    # at its last quotient.  The sub split off is recorded irreducible, so
    # the domain check of modules_isomorphic scans no factor again.
    found = []
    scan = cohomology._first_invariant_subspace

    def counted(*args):
        basis, pivots = scan(*args)
        found.append(basis is not None)
        return basis, pivots

    monkeypatch.setattr(cohomology, "_first_invariant_subspace", counted)
    splits = 0
    for s in subgroups_p5:
        std, adj = (GModule(s, m.dim, m.mats) for m in (make_standard_module(s), make_adjoint_module(s)))
        common_irreducible_factor(std, adj)
        splits += len(std.factors) + len(adj.factors) - 2
    assert sum(found) == splits
    assert len(found) - sum(found) == 2 * len(subgroups_p5)


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
    # the bound is exact; h1 itself rests on the Sylow subgroup, so the
    # comparison is with the relation-route oracle
    for s in list(subgroups_p3) + list(sampled_p5[:200]):
        if s.order % s.p:
            assert sylow_hom_bound(s) is None
            continue
        bound = sylow_hom_bound(s)
        assert bound in (0, 1)
        assert h1_by_relations(s, make_standard_module(s)).h1 == bound


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
