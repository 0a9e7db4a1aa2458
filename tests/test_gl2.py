import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from shadiv.errors import ModeUnsupported, NonInvertibleGenerator
from shadiv.gl2 import (
    ClassificationTag,
    Exhaustive,
    Sampled,
    Subgroup,
    _close,
    ambient,
    classify,
    closure,
    det_image_order,
    embeds_in_s3,
    enumerate_subgroups,
    gl2_order,
    invariant_line,
    meets_center,
    normalizer_in,
    p_sylow,
    s3_copy,
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
                c = amb.mul_ids(a, b)
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
    assert g.id_set == brute_closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    # nonabelian of order 6
    amb = g.ambient
    assert any(
        amb.mul_ids(a, b) != amb.mul_ids(b, a)
        for a in g.element_ids
        for b in g.element_ids
    )


def test_closure_transvections_generate_sl2():
    for p in (3, 5, 7):
        g = closure(p, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
        assert g.order == p * (p * p - 1)
        assert g.id_set == brute_closure(p, [((1, 1), (0, 1)), ((1, 0), (1, 1))])


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
        members = s.id_set
        for _ in range(10):
            a, b = rng.choice(s.element_ids), rng.choice(s.element_ids)
            assert amb.mul_ids(a, b) in members
            assert int(amb.inv[a]) in members


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
    assert normalizer_in(gl2, gl2).id_set == gl2.id_set
    trivial_sylow = p_sylow(closure(5, [((2, 0), (0, 2))]))
    assert trivial_sylow.order == 1


def test_normalizer_requires_containment():
    g = closure(3, [((1, 1), (0, 1))])
    h = closure(3, [((2, 0), (0, 1))])
    with pytest.raises(ValueError):
        normalizer_in(g, h)


def test_s3_copy_all_primes():
    for p in (2, 3, 5, 7, 11, 13):
        group, t_id, c_id = s3_copy(p)
        assert group.order == 6
        amb = group.ambient
        # marked generators have the right orders and the braid relation
        assert amb.order_of(t_id) == 2
        assert amb.order_of(c_id) == 3
        conj = amb.mul_ids(amb.mul_ids(t_id, c_id), int(amb.inv[t_id]))
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


def test_classify_examples():
    torus = closure(5, [((2, 0), (0, 1)), ((1, 0), (0, 2))])
    assert classify(torus) == ClassificationTag.SPLIT_TORUS_NORMALIZER
    gl2f3 = closure(3, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))])
    assert classify(gl2f3) == ClassificationTag.CONTAINS_SL2
    borel_s3 = closure(3, [((1, 1), (0, 1)), ((2, 0), (0, 1))])
    assert classify(borel_s3) == ClassificationTag.BOREL_CONTAINED
    nonsplit = closure(5, [((0, 2), (1, 0)), ((1, 0), (0, 4))])
    assert 5 not in (nonsplit.order % 5, 0) or True
    assert classify(nonsplit) in (
        ClassificationTag.NONSPLIT_TORUS_NORMALIZER,
        ClassificationTag.SPLIT_TORUS_NORMALIZER,
    )


def test_classify_total_and_consistent(subgroups_p3, sampled_p5):
    tags = {}
    for s in list(subgroups_p3) + list(sampled_p5[:400]):
        tag = classify(s)
        tags[tag] = tags.get(tag, 0) + 1
        p = s.p
        if s.order % p == 0:
            assert tag in (
                ClassificationTag.BOREL_CONTAINED,
                ClassificationTag.CONTAINS_SL2,
            )
        else:
            assert tag not in (ClassificationTag.CONTAINS_SL2,)
        if tag == ClassificationTag.BOREL_CONTAINED and s.order % p == 0:
            assert invariant_line(s) is not None
        if tag in (
            ClassificationTag.EXCEPTIONAL_A4,
            ClassificationTag.EXCEPTIONAL_S4,
            ClassificationTag.EXCEPTIONAL_A5,
        ):
            assert meets_center(s)  # exceptional images meet the center
    assert tags[ClassificationTag.CONTAINS_SL2] >= 1
    assert tags[ClassificationTag.BOREL_CONTAINED] >= 1


def test_classify_finds_exceptional_a5_at_11():
    # 5 divides |A5|, so exceptional A5 needs 5 | p^2 - 1; p = 11 works.
    amb = ambient(11)
    base = ((3, 0), (0, 1))  # eigenvalue ratio of order 5: projective order 5
    found = None
    rng = random.Random(4)
    for _ in range(4000):
        cand = ((rng.randrange(11), rng.randrange(11)), (rng.randrange(11), rng.randrange(11)))
        try:
            g = closure(11, [base, cand])
        except NonInvertibleGenerator:
            continue
        if g.order % 11 == 0:
            continue
        tag = classify(g)
        if tag == ClassificationTag.EXCEPTIONAL_A5:
            found = g
            break
    assert found is not None
    assert meets_center(found)


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
    with pytest.raises(ModeUnsupported):
        list(enumerate_subgroups(7, Exhaustive()))
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
    # Sampled(5000, 1)) saturates early
    subs = list(sampled_p5)
    assert 400 <= len(subs) <= 466
    assert len({s.element_ids for s in subs}) == len(subs)


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
