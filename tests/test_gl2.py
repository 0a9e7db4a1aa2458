import ast
import dataclasses
import hashlib
import random
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from gl2_helpers import det_image_order, meets_center, s3_copy
from lattice_oracle import fixpoint_subgroups

import shadiv
from shadiv import gl2
from shadiv.cohomology import (
    borel_datum,
    groupcrit_side_analytic,
    groupcrit_side_structural,
    reducible_characters,
    sylow_hom_bound,
)
from shadiv.errors import ModeUnsupported, NonInvertibleGenerator
from shadiv.gl2 import (
    Exhaustive,
    Sampled,
    _close,
    _lattice,
    ambient,
    closure,
    embeds_in_s3,
    enumerate_subgroups,
    gl2_order,
    invariant_line,
    normalizer_in,
    p_sylow,
    subgroup_from_ids,
)


def brute_closure(p, mats):
    """Independent oracle: saturate the set under pairwise products."""
    amb = ambient(p)
    ids = {amb.identity_id}
    ids.update(amb.id_of_mat(m) for m in mats)
    while True:
        new = set()
        for a in ids:
            for b in ids:
                c = amb.mul(a, b)
                if c not in ids:
                    new.add(c)
        if not new:
            return frozenset(ids)
        ids |= new


def test_close_from_a_known_subgroup_matches_bruteforce():
    # the kernel grown from a known subgroup's mask, with a multiplication
    # table (p = 5, any invertible draws, often all of GL2) and without one
    # (p = 11, upper-triangular draws with diagonal +-1, small enough for
    # the brute-force oracle)
    rng = random.Random(3)
    draws = {
        5: lambda: ((rng.randrange(5), rng.randrange(5)), (rng.randrange(5), rng.randrange(5))),
        11: lambda: ((rng.choice((1, 10)), rng.randrange(11)), (0, rng.choice((1, 10)))),
    }
    for p, draw in draws.items():
        amb = ambient(p)
        for _ in range(15):
            k = rng.randint(1, 3)
            mats = []
            while len(mats) < k:
                m = draw()
                if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
                    mats.append(m)
            gens = tuple(amb.id_of_mat(m) for m in mats)
            start = _close(amb, gens[:-1])
            grown = _close(amb, gens, start=start)
            assert frozenset(np.flatnonzero(grown).tolist()) == brute_closure(p, mats)
            assert (start <= grown).all()


def test_closure_empty_is_trivial():
    g = closure(5, [])
    assert g.order == 1
    assert g.elements == (((1, 0), (0, 1)),)


def test_closure_borel_s3_at_3():
    g = closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    assert g.order == 6
    assert frozenset(g.element_ids) == brute_closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    # nonabelian of order 6
    amb = g.ambient
    assert any(
        amb.mul(a, b) != amb.mul(b, a)
        for a in g.element_ids
        for b in g.element_ids
    )


def test_closure_transvections_generate_sl2():
    for p in (3, 5, 7):
        g = closure(p, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
        assert g.order == p * (p * p - 1)
        assert frozenset(g.element_ids) == brute_closure(p, [((1, 1), (0, 1)), ((1, 0), (1, 1))])


def test_closure_rejects_singular_generator():
    with pytest.raises(NonInvertibleGenerator):
        closure(3, [((1, 1), (1, 1))])


def test_canonical_element_order_is_lexicographic():
    g = closure(3, [((1, 1), (0, 1))])
    assert list(g.elements) == sorted(g.elements)


def test_subgroup_lagrange_and_closure_invariant(sampled_p5):
    rng = random.Random(0)
    for s in rng.sample(list(sampled_p5), 60):
        assert gl2_order(5) % s.order == 0
        amb = s.ambient
        for _ in range(10):
            a, b = rng.choice(s.element_ids), rng.choice(s.element_ids)
            assert amb.mul(a, b) in s
            assert int(amb.inv[a]) in s


def test_meets_center():
    assert not meets_center(closure(5, []))
    assert meets_center(closure(5, [((4, 0), (0, 4))]))
    sl2 = closure(5, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
    assert meets_center(sl2)  # contains -I


def test_det_image_order():
    sl2 = closure(5, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
    assert det_image_order(sl2) == 1
    gl2 = closure(5, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))])
    assert gl2.order == gl2_order(5)
    assert det_image_order(gl2) == 4
    s3 = closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    assert det_image_order(s3) == 2


def test_p_sylow_and_normalizer():
    gl2 = closure(3, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))])
    syl = p_sylow(gl2)
    assert syl.order == 3
    norm = normalizer_in(gl2, syl)
    assert norm.order == 3 * (3 - 1) ** 2  # standard Borel order p(p-1)^2
    assert normalizer_in(gl2, gl2) == gl2
    trivial_sylow = p_sylow(closure(5, [((2, 0), (0, 2))]))
    assert trivial_sylow.order == 1


def test_normalizer_requires_containment():
    g = closure(3, [((1, 1), (0, 1))])
    h = closure(3, [((2, 0), (0, 1))])
    with pytest.raises(ValueError):
        normalizer_in(g, h)


def test_is_subset_of_matches_set_inclusion(subgroups_p3):
    # every ordered pair of the 55 subgroups of GL2(F_3), both orders of
    # which one divides the other, against inclusion of the element sets
    pairs = [(h, g) for h in subgroups_p3 for g in subgroups_p3]
    assert any(g.order % h.order == 0 and not set(h.element_ids) <= set(g.element_ids) for h, g in pairs)
    for h, g in pairs:
        assert h.is_subset_of(g) == (set(h.element_ids) <= set(g.element_ids))
    trivial = subgroups_p3[0]
    assert trivial.order == 1 and not trivial.is_subset_of(closure(5, [((2, 0), (0, 2))]))


def test_is_subset_of_matches_the_mask_comparison(subgroups_p3, sampled_p7):
    # is_subset_of reads the packed bytes; against the unpacked masks on every
    # ordered pair at p = 3, and on each (Sylow, normalizer, group) triple of
    # the first 50 sampled subgroups at p = 7
    groups = [(h, g) for h in subgroups_p3 for g in subgroups_p3]
    for g in sampled_p7[:50]:
        sylow = p_sylow(g)
        triple = (sylow, normalizer_in(g, sylow), g)
        groups += [(h, k) for h in triple for k in triple]
    assert any(not h.is_subset_of(g) for h, g in groups) and any(h.is_subset_of(g) for h, g in groups)
    for h, g in groups:
        assert h.is_subset_of(g) == bool((h.mask <= g.mask).all()), (h.generator_ids, g.generator_ids)


def test_s3_copy_all_primes():
    for p in (2, 3, 5, 7, 11, 13):
        group, t_id, c_id = s3_copy(p)
        assert group.order == 6
        amb = group.ambient
        # marked generators have the right orders and the braid relation
        assert amb.orders[t_id] == 2
        assert amb.orders[c_id] == 3
        conj = amb.mul(amb.mul(t_id, c_id), int(amb.inv[t_id]))
        assert conj == int(amb.inv[c_id])
        # determinant realizes the sign character
        assert int(amb.dets[t_id]) == (p - 1) % p  # -1 mod p
        assert int(amb.dets[c_id]) == 1
        assert det_image_order(group) == (2 if p > 2 else 1)


def test_embeds_in_s3_cases():
    assert embeds_in_s3(closure(7, []))  # trivial group
    gl2f2 = closure(2, [((1, 1), (0, 1)), ((0, 1), (1, 0))])
    assert gl2f2.order == 6 and embeds_in_s3(gl2f2)
    minus_i = closure(5, [((4, 0), (0, 4))])
    assert not embeds_in_s3(minus_i)  # central involution
    # order-3 subgroup embeds (it sits inside its S3 copy)
    s3, t_id, c_id = s3_copy(5)
    c3 = closure(5, [s3.ambient.mat_of(c_id)])
    assert embeds_in_s3(c3)
    c6 = closure(7, [((3, 0), (0, 3))])  # scalar of order 6, cyclic
    assert c6.order == 6 and not embeds_in_s3(c6)


def test_embeds_in_s3_monotone_under_inclusion():
    for p in (3, 5, 7):
        s3, _, _ = s3_copy(p)
        amb = s3.ambient
        # every subgroup of an embedded S3 embeds
        for k in (1, 2):
            for subset in combinations(s3.element_ids, k):
                sub = closure(p, [amb.mat_of(i) for i in subset])
                assert sub.order in (1, 2, 3, 6)
                assert embeds_in_s3(sub)


def test_embeds_implies_order_divides_6(sampled_p5):
    for s in sampled_p5[:300]:
        if embeds_in_s3(s):
            assert 6 % s.order == 0
        if det_image_order(s) >= 3:
            assert not embeds_in_s3(s)


def test_enumerate_exhaustive_p3(subgroups_p3):
    assert len(subgroups_p3) == 55
    orders = sorted(s.order for s in subgroups_p3)
    assert all(48 % o == 0 for o in orders)
    # independent structural checks: four Sylow 3-subgroups, three Sylow
    # 2-subgroups, a unique subgroup of index 2, the full group once
    assert orders.count(3) == 4
    assert orders.count(16) == 3
    assert orders.count(24) == 1
    assert orders.count(48) == 1
    # deduplicated
    assert len({s.element_ids for s in subgroups_p3}) == 55


def test_enumerate_exhaustive_p5(subgroups_p5):
    amb = ambient(5)
    assert len(subgroups_p5) == 466
    assert len({s.element_ids for s in subgroups_p5}) == 466
    orders = [s.order for s in subgroups_p5]
    assert orders == sorted(orders)
    assert all(480 % o == 0 for o in orders)
    # p + 1 Sylow 5-subgroups; one subgroup of index 2 (GL2 / SL2 is cyclic
    # of order 4), and the full group once
    assert orders.count(5) == 6
    assert orders.count(240) == 1
    assert orders.count(480) == 1
    # each yielded id set is the subgroup its generators generate
    for s in subgroups_p5:
        assert np.flatnonzero(_close(amb, s.generator_ids)).tolist() == list(s.element_ids)


def test_exhaustive_streams_are_pinned(subgroups_p3, subgroups_p5):
    # sha256 over (generator ids, element ids) in yield order; both digests
    # are those of the per-element closure loop the join fixpoint replaced
    assert _stream_digest(subgroups_p3) == (
        "7660066f6e6b2c96b6fe99e3b185bdd6bd8273c69d64deebdefb464a55bfed99"
    )
    assert _stream_digest(subgroups_p5) == (
        "a00bf000a0abf54549b8519ecd7f3a983731bf32517992b6de3c210a4ff52989"
    )


def test_enumerate_exhaustive_rejects_large_p():
    # the lattice needs the multiplication table, which stops at p = 7
    with pytest.raises(ModeUnsupported):
        list(enumerate_subgroups(11, Exhaustive()))
    with pytest.raises(ModeUnsupported):
        list(enumerate_subgroups(17, Sampled(10, 0)))


def test_sampling_deterministic_and_distinct():
    a = [s.element_ids for s in enumerate_subgroups(5, Sampled(200, 42))]
    b = [s.element_ids for s in enumerate_subgroups(5, Sampled(200, 42))]
    assert a == b
    assert len(set(a)) == len(a) == 200
    c = [s.element_ids for s in enumerate_subgroups(5, Sampled(200, 43))]
    assert a != c


def test_sampling_saturates_instead_of_looping(sampled_p5):
    # GL2(F_5) has exactly 466 subgroups; a large request (the fixture's
    # Sampled(5000, 1)) stops on its attempt budget instead of looping
    subs = list(sampled_p5)
    assert 400 <= len(subs) <= 466
    assert len({s.element_ids for s in subs}) == len(subs)


def test_subgroup_value_contract(subgroups_p3, sampled_p7):
    # membership, element ids and positions read one mask; equality and
    # hash ignore the generators, which generate the subgroup
    for s in list(subgroups_p3) + list(sampled_p7[:50]):
        amb = s.ambient
        assert [e for e in range(-8, amb.size + 8) if e in s] == list(s.element_ids)
        assert s.positions[list(s.element_ids)].tolist() == list(range(s.order))
        other = dataclasses.replace(s, generator_ids=s.element_ids)
        assert other == s and hash(other) == hash(s)
        assert closure(s.p, s.generators) == s


def test_subgroup_from_ids_greedy_generators():
    g = closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    rebuilt = subgroup_from_ids(3, g.element_ids)
    assert rebuilt == g
    assert len(rebuilt.generator_ids) <= 3


def _stream_digest(subgroups):
    h = hashlib.sha256()
    for g in subgroups:
        h.update(repr((tuple(g.generator_ids), tuple(g.element_ids))).encode())
    return h.hexdigest()


def test_sampled_streams_are_pinned(sampled_p5, sampled_p7):
    # sha256 over (generator ids, element ids) in stream order, as the
    # benchmark's stream_digest: the streams are the same element for element
    assert _stream_digest(sampled_p5) == (
        "e7a8991b70a12fdb8e87ef1149440085aa3690bf8a11a505fa86bde80a1918c9"
    )
    assert _stream_digest(sampled_p7) == (
        "ea114a333db0917b428db53ac5b19f52eaa29a53fbde8fac068c8153cf411d2f"
    )


# ---------------------------------------------------------------------------
# the subgroup lattice and its join table


def test_exhaustive_equals_the_fixpoint_oracle():
    # generator ids included: the lattice replays the fixpoint's discovery
    # order; the pins above cover p = 5
    for p in (2, 3):
        ours = [(s.generator_ids, s.element_ids) for s in enumerate_subgroups(p, Exhaustive())]
        assert ours == [(s.generator_ids, s.element_ids) for s in fixpoint_subgroups(p)]


def _conjugacy_classes(subgroups):
    """The subgroups' indices, grouped into orbits under conjugation, each in list order.

    Conjugation by u = [[1, 1], [0, 1]] and w = [[0, 1], [-1, 0]], which
    generate SL2(F_p), and by diag(t, 1), which bring every determinant:
    the orbits of a generating set are those of the group.  A conjugate
    outside the list raises KeyError.
    """
    amb = subgroups[0].ambient
    p = amb.p
    mats = [((1, 1), (0, 1)), ((0, 1), (-1, 0))] + [((t, 0), (0, 1)) for t in range(2, p)]
    xs = [amb.id_of_mat(m) for m in mats]
    index = {s.element_ids: i for i, s in enumerate(subgroups)}
    root = list(range(len(subgroups)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, s in enumerate(subgroups):
        for x in xs:
            conj = np.sort(amb.mul(amb.mul(x, np.asarray(s.element_ids)), amb.inv[x]))
            a, b = sorted((find(i), find(index[tuple(conj.tolist())])))
            root[b] = a
    classes = {}
    for i in range(len(subgroups)):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


@pytest.mark.parametrize("p, classes, subgroups", [(3, 16, 55), (5, 48, 466), (7, 84, 1704)])
def test_lattice_counts(request, p, classes, subgroups):
    stream = request.getfixturevalue(f"subgroups_p{p}")
    assert len(stream) == len(_lattice(p).bits) == subgroups
    assert len({s.element_ids for s in stream}) == subgroups
    assert len(_conjugacy_classes(stream)) == classes


def test_lattice_at_5_is_closed_under_conjugation(subgroups_p5):
    amb = ambient(5)
    known = {s.element_ids for s in subgroups_p5}
    x = np.arange(amb.size)[:, None]
    for s in subgroups_p5:
        conj = np.unique(np.sort(amb.mul(amb.mul(x, s.element_ids), amb.inv[x]), axis=1), axis=0)
        assert {tuple(row) for row in conj.tolist()} <= known


@pytest.mark.parametrize("p", [3, 5, 7])
def test_join_table_matches_close(request, p):
    # every entry at p = 3, 2000 seeded (subgroup, id) pairs at p = 5 and 7
    stream = request.getfixturevalue(f"subgroups_p{p}")
    amb = ambient(p)
    lat = _lattice(p)
    assert lat.bits == [s.bits for s in stream]
    if p == 3:
        pairs = list(product(range(len(stream)), range(amb.size)))
    else:
        rng = random.Random(p)
        pairs = [(rng.randrange(len(stream)), rng.randrange(amb.size)) for _ in range(2000)]
    for i, g in pairs:
        s = stream[i]
        joined = _close(amb, s.generator_ids + (g,), start=s.mask)
        assert np.flatnonzero(joined).tolist() == list(stream[int(lat.join[i, g])].element_ids), (i, g)


def test_criterion_sides_agree_on_conjugates_at_7(subgroups_p7):
    # both sides are conjugation-invariant: each class's first subgroup and
    # three conjugates of it, by seeded x, with conjugated generators
    amb = ambient(7)
    rng = random.Random(7)
    classes = _conjugacy_classes(subgroups_p7)
    for members in classes:
        rep = subgroups_p7[members[0]]
        for x in [None] + rng.sample(range(amb.size), 3):
            s = rep if x is None else closure(
                7, [amb.mat_of(int(amb.mul(amb.mul(x, g), amb.inv[x]))) for g in rep.generator_ids]
            )
            assert s.element_ids in {subgroups_p7[i].element_ids for i in members}
            assert groupcrit_side_analytic(s) == groupcrit_side_structural(s), (s.order, s.generator_ids)


def test_sampled_streams_make_no_closure_once_the_lattice_exists(monkeypatch):
    for p in (3, 5, 7):
        _lattice(p)
    calls = []
    close = gl2._close

    def counted(*args, **kwargs):
        calls.append(args[1])
        return close(*args, **kwargs)

    monkeypatch.setattr(gl2, "_close", counted)
    for p, count in ((3, 100), (5, 500), (7, 300)):
        assert list(enumerate_subgroups(p, Sampled(count, 3)))
    assert calls == []
    # the count sees the joins at p = 11, where no lattice exists
    list(enumerate_subgroups(11, Sampled(3, 1)))
    assert calls


def test_ambient_and_closure_build_no_lattice(monkeypatch):
    monkeypatch.setattr(gl2, "_ambient_cache", {})
    monkeypatch.setattr(gl2, "_lattice_cache", {})
    amb = ambient(7)
    g = closure(7, [((1, 1), (0, 1)), ((3, 0), (0, 1))])
    assert g.order == 42 and amb.orders.max() == 48
    assert gl2._lattice_cache == {}
    # a stream's first step builds it, in the cache this test watches
    next(enumerate_subgroups(7, Sampled(1, 1)))
    assert list(gl2._lattice_cache) == [7]


# ---------------------------------------------------------------------------
# the ambient arrays against direct 2x2 arithmetic


def _mat_mul(x, y, p):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p)


def _sample_ids(amb, rng, k):
    """Every id for p <= 5, else k seeded ones."""
    return np.arange(amb.size) if amb.p <= 5 else rng.integers(amb.size, size=k)


def _products_by_arithmetic(amb, a, b):
    """The matrices a*b for id arrays a and b, by 2x2 arithmetic mod p."""
    p = amb.p
    (x00, x01), (x10, x11) = np.moveaxis(amb.mats[a], (1, 2), (0, 1))
    (y00, y01), (y10, y11) = np.moveaxis(amb.mats[b], (1, 2), (0, 1))
    return np.stack(
        [
            np.stack([(x00 * y00 + x01 * y10) % p, (x00 * y01 + x01 * y11) % p], axis=1),
            np.stack([(x10 * y00 + x11 * y10) % p, (x10 * y01 + x11 * y11) % p], axis=1),
        ],
        axis=1,
    )


def test_mul_matches_matrix_arithmetic():
    rng = np.random.default_rng(15)
    for p in (2, 3, 5, 7, 11, 13):
        amb = ambient(p)
        if p <= 7:  # every pair, 256 rows of the table at a time
            for start in range(0, amb.size, 256):
                a, b = np.divmod(np.arange(start * amb.size, min(start + 256, amb.size) * amb.size), amb.size)
                assert np.array_equal(amb.mats[amb.mul(a, b)], _products_by_arithmetic(amb, a, b)), (p, start)
        else:
            a, b = rng.integers(amb.size, size=(2, 20000))
            assert np.array_equal(amb.mats[amb.mul(a, b)], _products_by_arithmetic(amb, a, b)), p
        # ids broadcast against each other; a pair of ids gives one id
        grid = amb.mul(a[:7, None], b[:5])
        assert grid.shape == (7, 5)
        i, j = int(a[3]), int(b[4])
        assert int(amb.mul(i, j)) == grid[3, 4] == amb.id_of_mat(_mat_mul(amb.mat_of(i), amb.mat_of(j), p))


def test_table_is_a_contiguous_uint16_array_up_to_p7():
    for p in (2, 3, 5, 7):
        table = ambient(p).table
        assert table.dtype == np.uint16 and table.flags.c_contiguous and table.shape == (gl2_order(p),) * 2
    assert ambient(11).table is None


def test_codes_are_the_invertible_codes_in_ascending_order():
    for p in (2, 3, 5, 7, 11, 13):
        brute = [
            ((a * p + b) * p + c) * p + d
            for a, b, c, d in product(range(p), repeat=4)
            if (a * d - b * c) % p
        ]
        assert ambient(p).codes.tolist() == brute, p


def test_orders_match_a_walk_of_powers():
    rng = np.random.default_rng(16)
    for p in (3, 5, 7, 11, 13):
        amb = ambient(p)
        for eid in _sample_ids(amb, rng, 300).tolist():
            m = amb.mat_of(eid)
            k, power = 1, m
            while power != ((1, 0), (0, 1)):
                power = _mat_mul(power, m, p)
                k += 1
            assert amb.orders[eid] == k, (p, eid)


def test_lines_match_line_vectors():
    # line t < p is spanned by (1, t), line p by (0, 1); x maps line l to
    # the line of x v_l, and fixes l with eigenvalue lam when x v_l = lam v_l
    rng = np.random.default_rng(17)
    for p in (3, 5, 7, 11, 13):
        amb = ambient(p)
        image, eigenvalue = amb.lines
        vecs = [(1, t) for t in range(p)] + [(0, 1)]
        for eid in _sample_ids(amb, rng, 200).tolist():
            (a, b), (c, d) = amb.mat_of(eid)
            for l, v in enumerate(vecs):
                w = ((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p)
                on = [k for k, u in enumerate(vecs) if (w[0] * u[1] - w[1] * u[0]) % p == 0]
                assert on == [image[eid, l]], (p, eid, l)
                lam = [x for x in range(1, p) if (x * v[0] % p, x * v[1] % p) == w]
                assert eigenvalue[eid, l] == (lam[0] if lam else 0), (p, eid, l)


# ---------------------------------------------------------------------------
# the subgroup helpers, pinned


def _helper_outputs(s):
    syl = p_sylow(s)
    datum = borel_datum(s)
    chars = None if datum is None else (sorted(datum[2].items()), sorted(datum[3].items()))
    return (
        syl.generator_ids,
        syl.element_ids,
        normalizer_in(s, syl).element_ids,
        embeds_in_s3(s),
        invariant_line(s),
        reducible_characters(s),
        sylow_hom_bound(s),
        chars,
    )


@pytest.fixture(scope="module")
def helper_samples():
    """Seeded samples at p = 7, 11, 13, the last two without a multiplication table."""
    return [tuple(enumerate_subgroups(p, Sampled(120, p))) for p in (7, 11, 13)]


def test_subgroup_helpers_are_pinned(subgroups_p3, subgroups_p5, helper_samples):
    # sha256 over the outputs above on every subgroup of GL2(F_3) and
    # GL2(F_5) and on the seeded samples at p = 7, 11, 13, 881 subgroups;
    # computed with the per-element loops these helpers had before the
    # ambient arrays, and recomputed over the same subgroups without the
    # two fields of the deleted subgroup classification
    digest = hashlib.sha256()
    count = 0
    for stream in [subgroups_p3, subgroups_p5] + helper_samples:
        for s in stream:
            digest.update(repr(_helper_outputs(s)).encode())
            count += 1
    assert count == 881
    assert digest.hexdigest() == "d9a6ddf07d86344eeafdefbd2986d25592ba127141daa0bb5bc385b35c423a16"


def test_center_and_det_image_match_sets(subgroups_p3, subgroups_p5, helper_samples):
    # the two helpers the digest above leaves out, against Python sets of ids
    for stream in [subgroups_p3, subgroups_p5] + helper_samples:
        for s in stream:
            amb = s.ambient
            ids = set(s.element_ids)
            (a, b), (c, d) = amb.mats.transpose(1, 2, 0)
            center = np.flatnonzero((a == d) & (b == 0) & (c == 0) & (a != 1)).tolist()
            assert meets_center(s) == any(z in ids for z in center)
            assert det_image_order(s) == len({int(amb.dets[e]) for e in ids})


# ---------------------------------------------------------------------------
# one product, one subgroup representation and one subspace scan, checked on
# the package's source

_TABLE_READERS = {"GL2Ambient.mul", "_close"}
# the ambient's code -> id map and the one position map of a subgroup
_ARANGE_SCATTERS = {"GL2Ambient.__init__", "Subgroup.positions"}


def _scoped_nodes(tree):
    """(enclosing qualified name, node) for every node of the tree."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        out.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def _table_reads(tree):
    """(enclosing function's qualified name, line) of each read of an attribute `table`."""
    return [
        (scope, node.lineno)
        for scope, node in _scoped_nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr == "table" and isinstance(node.ctx, ast.Load)
    ]


def _is_arange(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "arange"


def test_only_the_product_reads_the_table():
    offences = []
    readers = set()
    for path in sorted(Path(shadiv.__file__).parent.glob("*.py")):
        for scope, line in _table_reads(ast.parse(path.read_text())):
            readers.add(scope)
            if scope not in _TABLE_READERS:
                offences.append(f"{path.name}:{line} reads .table in {scope or 'module scope'}")
    assert not offences, "\n".join(offences)
    assert "GL2Ambient.mul" in readers


def test_only_the_subspace_scan_reads_the_subspace_enumerator():
    # every invariant-subspace question goes through the one cached scan:
    # echelon_bases is read in cohomology._subspaces alone
    readers = [
        (path.name, scope)
        for path in sorted(Path(shadiv.__file__).parent.glob("*.py"))
        for scope, node in _scoped_nodes(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "echelon_bases" and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "echelon_bases"
    ]
    assert readers == [("cohomology.py", "_subspaces")], readers


def test_one_subgroup_representation():
    # the packed mask is packed and unpacked only by Subgroup, and no module
    # builds its own position map of a subgroup's elements
    offences = []
    for path in sorted(Path(shadiv.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')} in {scope or 'module scope'}"
            if isinstance(node, ast.Attribute) and node.attr in ("packbits", "unpackbits"):
                if (path.name, scope) not in {("gl2.py", "Subgroup.mask"), ("gl2.py", "_pack")}:
                    offences.append(f"{where}: np.{node.attr}")
            if _is_arange(node) and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "order":
                if (path.name, scope) != ("gl2.py", "Subgroup.positions"):
                    offences.append(f"{where}: np.arange over a subgroup's order")
            if isinstance(node, ast.Assign) and _is_arange(node.value):
                if any(isinstance(t, ast.Subscript) for t in node.targets) and scope not in _ARANGE_SCATTERS:
                    offences.append(f"{where}: np.arange scattered into an array")
    assert not offences, "\n".join(offences)
