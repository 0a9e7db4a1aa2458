"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 1 requests 5000 distinct subgroups at p = 5 and p = 7; GL2(F_5)
has exactly 466 subgroups in total.  The seed-1 streams stop on their
attempt budget, max(1000, 40 * 5000) = 200,000 draws, with 461 of the 466
at p = 5 and 1493 of the 1704 at p = 7; two more criterion-1 tests check
all 466, and all 1704 subgroups of GL2(F_7), from the exhaustive
enumeration.  Criterion 3 contains two sub-claims that are mathematically false
as stated; they are split into a strict test that pins their refutation
by explicit counterexamples, see test_criterion_3_strict_literal_reading.
"""

import math
import random
import time

import numpy as np
import pytest
from count_oracle import count_points_enumeration
from gl2_helpers import det_image_order, meets_center, s3_copy
from h1_oracle import h1_by_relations, h1_star_by_relations

from shadiv.arith import legendre_symbol, primes_up_to
from shadiv.cohomology import (
    common_irreducible_factor,
    groupcrit_side_analytic,
    groupcrit_side_structural,
    h1,
    h1_star,
    make_adjoint_module,
    make_standard_module,
    reducible_characters,
    sylow_hom_bound,
)
from shadiv.datasets import SELMER_COMPANIONS, SELMER_CUBIC, embedded_curve
from shadiv.divisibility import Outcome, twist_scan, verdict_over_Q
from shadiv.elliptic import (
    count_points,
    curve,
    frobenius_traces,
    is_supersingular,
    quadratic_twist,
    trace_at,
)
from shadiv.errors import SingularCurve
from shadiv.galois_image import (
    Consistent,
    cyclotomic_pair_candidates,
    nv3_bad_sets,
    nv3_conclusion_threshold,
    test_cyclotomic_pair,
)
from shadiv.gl2 import closure
from shadiv.local_cubic import DiagonalCubic, has_local_point, has_zeta3, is_cube

# deterministic frozen sizes of the seed-1 samples, which stop on their attempt budget
EXPECTED_SAMPLE_SIZES = {5: 461, 7: 1493}


def _line(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_group_criterion_equivalence(subgroups_p3, sampled_p5, sampled_p7):
    t0 = time.monotonic()
    mismatches = []
    counts = {}
    for label, sample in (("p=3 exhaustive", subgroups_p3), ("p=5", sampled_p5), ("p=7", sampled_p7)):
        n = 0
        for s in sample:
            if groupcrit_side_analytic(s) != groupcrit_side_structural(s):
                mismatches.append((label, s.order, s.generator_ids))
            n += 1
        counts[label] = n
    elapsed = time.monotonic() - t0 + sampled_p5.elapsed + sampled_p7.elapsed + subgroups_p3.elapsed
    ok = (
        not mismatches
        and counts["p=3 exhaustive"] == 55
        and counts["p=5"] == EXPECTED_SAMPLE_SIZES[5]
        and counts["p=7"] == EXPECTED_SAMPLE_SIZES[7]
        and elapsed < 300
    )
    _line(
        1,
        ok,
        f"0 mismatches over {counts} in {elapsed:.0f}s "
        "(the p=5 request of 5000 stops on its attempt budget with 461 of the 466 subgroups "
        "of GL2(F_5): the sweep covers nearly the whole lattice)",
    )
    assert not mismatches
    assert counts["p=3 exhaustive"] == 55
    assert counts["p=5"] == EXPECTED_SAMPLE_SIZES[5] >= 400
    assert counts["p=7"] == EXPECTED_SAMPLE_SIZES[7] >= 1400
    assert elapsed < 300, f"criterion 1 runtime {elapsed:.0f}s exceeds 5 minutes"


def test_criterion_1_on_every_subgroup_at_5(subgroups_p5, sampled_p5):
    # the whole lattice of GL2(F_5), next to the pinned sampled check
    t0 = time.monotonic()
    mismatches = [
        (s.order, s.generator_ids)
        for s in subgroups_p5
        if groupcrit_side_analytic(s) != groupcrit_side_structural(s)
    ]
    elapsed = time.monotonic() - t0 + subgroups_p5.elapsed
    everything = {s.element_ids for s in subgroups_p5}
    sampled = {s.element_ids for s in sampled_p5}
    extra = sorted(len(ids) for ids in everything - sampled)
    ok = not mismatches and len(everything) == 466 and sampled <= everything and elapsed < 15
    _line(
        1,
        ok,
        f"0 mismatches on all {len(everything)} subgroups of GL2(F_5) in {elapsed:.1f}s; "
        f"the seed-1 sample misses {len(extra)} of orders {extra}",
    )
    assert not mismatches
    assert len(subgroups_p5) == len(everything) == 466
    assert sampled <= everything
    assert extra == [4, 16, 16, 16, 16]
    assert elapsed < 15, f"exhaustive criterion 1 at p = 5 took {elapsed:.1f}s"


def test_criterion_1_on_every_subgroup_at_7(subgroups_p7, sampled_p7):
    # the whole lattice of GL2(F_7), next to the pinned sampled check
    t0 = time.monotonic()
    mismatches = [
        (s.order, s.generator_ids)
        for s in subgroups_p7
        if groupcrit_side_analytic(s) != groupcrit_side_structural(s)
    ]
    elapsed = time.monotonic() - t0 + subgroups_p7.elapsed
    everything = {s.element_ids for s in subgroups_p7}
    sampled = {s.element_ids for s in sampled_p7}
    missed = len(everything - sampled)
    ok = not mismatches and len(everything) == 1704 and sampled <= everything and elapsed < 15
    _line(
        1,
        ok,
        f"0 mismatches on all {len(everything)} subgroups of GL2(F_7) in {elapsed:.1f}s; "
        f"the seed-1 sample misses {missed}",
    )
    assert not mismatches
    assert len(subgroups_p7) == len(everything) == 1704
    assert sampled <= everything
    assert missed == 1704 - EXPECTED_SAMPLE_SIZES[7]
    assert elapsed < 15, f"exhaustive criterion 1 at p = 7 took {elapsed:.1f}s"


def test_criterion_2_h1_cross_validation(subgroups_p3, sampled_p5, sampled_p7):
    checked = 0
    for sample in (subgroups_p3, sampled_p5, sampled_p7):
        for s in sample:
            p = s.p
            if s.order % p:
                continue
            bound = sylow_hom_bound(s)
            # h1 reads H^1 off the Sylow subgroup, the bound's own ground:
            # the relation-route oracle keeps the comparison independent
            value = h1_by_relations(s, make_standard_module(s)).h1
            assert value <= bound, (p, s.order, value, bound)
            if bound == 0:
                assert value == 0
            checked += 1
    _line(2, True, f"h1 <= Hom-bound (and = 0 whenever chi1 != chi2^2) on {checked} subgroups with p | #G")


def test_criterion_3_center_and_s3_suite(subgroups_p3, sampled_p5, sampled_p7):
    """The attainable readings: the center lemma for V, the common-factor
    statement, and the S3 determinant-as-sign facts."""
    center_checked = 0
    for sample in (subgroups_p3, sampled_p5, sampled_p7):
        for s in sample:
            if not meets_center(s):
                continue
            std = make_standard_module(s)
            assert h1(s, std).h1 == 0, (s.p, s.order)
            assert not common_irreducible_factor(std, make_adjoint_module(s)), (s.p, s.order)
            center_checked += 1
    s3_checked = []
    for p in (2, 3, 5, 7, 11, 13):
        group, t_id, c_id = s3_copy(p)
        amb = group.ambient
        assert common_irreducible_factor(
            make_standard_module(group), make_adjoint_module(group)
        )
        # det realizes sign: -1 on the transposition, +1 on the 3-cycle
        assert int(amb.dets[t_id]) == (-1) % p
        assert int(amb.dets[c_id]) == 1
        assert det_image_order(group) == (2 if p != 2 else 1)
        s3_checked.append(p)
    _line(
        3,
        True,
        f"center-meeting: h1(V)=0 and no common factor on {center_checked} subgroups; "
        f"S3 copies at p in {s3_checked}: common factor and det = sign "
        "(det image order 2 for odd p, 1 at p = 2)",
    )


def test_criterion_3_strict_literal_reading(sampled_p5):
    """Criterion 3 verbatim also asserts h1(End V) = 0 for every sampled
    center-meeting subgroup and det image order 2 at p = 2.  Both are
    mathematically false; this test pins their refutation:

    - scalars act trivially under conjugation, so for G = <-u> with u
      unipotent at p = 5 (cyclic of order 10, containing -I) the Sylow-5
      restriction gives h1(G, End V) = h1(<u>, End V) = 2 while the center
      lemma still gives h1(G, V) = 0: the center argument kills h1 of V,
      never of End V.  The Jannsen-star variant h1_*(G, End V) = 0 is the
      true replacement and is checked on every sampled center-meeting
      subgroup;
    - the sign character is trivial mod 2, so the S3 determinant image
      has order 1, not 2, at p = 2.
    """
    witness = closure(5, [((4, 4), (0, 4))])  # -[[1, 1], [0, 1]] mod 5
    assert witness.order == 10
    assert meets_center(witness)
    assert witness in sampled_p5
    assert h1(witness, make_standard_module(witness)).h1 == 0
    end_v = h1(witness, make_adjoint_module(witness))
    assert (end_v.dim_z1, end_v.dim_b1, end_v.h1) == (4, 2, 2)

    counterexamples = []
    star_checked = 0
    for s in sampled_p5:
        if not meets_center(s):
            continue
        adj = make_adjoint_module(s)
        value = h1(s, adj).h1
        if value != 0:
            counterexamples.append((s.order, value))
        assert h1_star(s, adj) == 0, (s.order, s.generator_ids)
        assert h1_star_by_relations(s, adj) == 0, (s.order, s.generator_ids)
        star_checked += 1
    assert (10, 2) in counterexamples

    group, t_id, _ = s3_copy(2)
    p2_det = det_image_order(group)
    assert p2_det == 1
    assert int(group.ambient.dets[t_id]) == 1 == (-1) % 2
    _line(
        3,
        True,
        f"(strict literal reading refuted) h1(<-u>, V) = 0 but h1(<-u>, End V) = 2 at p = 5; "
        f"h1(End V) != 0 on {len(counterexamples)} center-meeting subgroups, "
        f"(order, h1) in {sorted(set(counterexamples))}; h1_*(End V) = 0 on all "
        f"{star_checked}; det image order at p=2 is {p2_det}",
    )


def test_criterion_4_conductor_121_reproduction():
    t0 = time.monotonic()
    expected = {
        "121-B1": (0, (3, 8)),
        "121-C1": (1, (4, 7)),
        "121-C2": (1, (4, 7)),
    }
    for label, (tr2, pair) in expected.items():
        e = embedded_curve(label)
        assert trace_at(e, 2) == tr2, label
        fd = frobenius_traces(e, 1000)
        consistent = [
            (c.a, c.b)
            for c in cyclotomic_pair_candidates(11)
            if isinstance(test_cyclotomic_pair(fd, 11, c), Consistent)
        ]
        assert consistent == [pair], label
    row = [
        (pow(2, a, 11) + pow(2, b, 11)) % 11
        for a, b in ((0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6))
    ]
    signed = [v - 11 if v > 5 else v for v in row]
    assert signed == [3, 3, -1, 0, 1, -3]
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 4 took {elapsed:.1f}s"
    _line(4, True, f"traces (0,1,1), unique pairs (3,8),(4,7),(4,7), row {signed} in {elapsed:.1f}s")


def test_criterion_5_nv3_sieve():
    set_a, set_b = nv3_bad_sets()
    assert set_a == (1, 2, 3, 4, 5, 6, 7)
    assert set_b == (12, 2, 4, 12, 20, 22, 12)
    assert nv3_conclusion_threshold() == 11
    _line(5, True, f"setA {set_a}, setB {set_b}, conclusion p > 11")


def hasse_window_sweep(nmax):
    """All (N, a) with 2 <= N <= nmax and a^2 <= 4N outside the Hasse window.

    (N - sqrt(N))^2 <= N + N^2 + 3Na - a^3 <= (N + sqrt(N))^2 says, with
    the radicals cleared, (3Na - a^3)^2 <= 4N^3.  Empty when the window holds.
    """
    violations = []
    for n in range(2, nmax + 1):
        amax = math.isqrt(4 * n)
        a = np.arange(-amax, amax + 1, dtype=np.int64)
        bad = np.nonzero((3 * n * a - a ** 3) ** 2 > 4 * n ** 3)[0]
        violations.extend((n, int(a[i])) for i in bad)
    return violations


def test_criterion_6_hasse_function_inequality():
    t0 = time.monotonic()
    violations = hasse_window_sweep(10 ** 4)
    elapsed = time.monotonic() - t0
    assert violations == []
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"
    _line(6, True, f"0 violations over N <= 10^4, |a| <= 2 sqrt(N) in {elapsed:.1f}s")


def test_criterion_7_selmer_example():
    t0 = time.monotonic()
    s = DiagonalCubic(*SELMER_CUBIC)
    from shadiv.local_cubic import coordinate_section_point

    sections = [coordinate_section_point(s, 3)]
    for coeffs in SELMER_COMPANIONS.values():
        sections.append(coordinate_section_point(DiagonalCubic(*coeffs), 3))
    assert sections == [True, False, False, False]
    assert is_cube(10, 3)
    assert not is_cube(60, 2) and not is_cube(60, 5)
    assert not has_zeta3(2) and not has_zeta3(5)
    for p in primes_up_to(100):
        assert has_local_point(s, p), p
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 7 took {elapsed:.1f}s"
    _line(7, True, f"sections (T,F,F,F), cube and zeta_3 facts, local points at all p <= 100 in {elapsed:.1f}s")


def test_criterion_8_twist_caps():
    t0 = time.monotonic()
    base_curves = ["121-B1", "121-C1", "selmer-jacobian"]
    caps = {3: 2, 5: 2, 7: 1}
    summary = {}
    for label in base_curves:
        e = embedded_curve(label)
        failing_primes = []
        for p in (3, 5, 7):
            report = twist_scan(e, p, 500)
            assert report.failure_count <= caps[p], (label, p, report.failure_count)
            if report.failure_count:
                failing_primes.append((p, report.failure_count))
        assert len(failing_primes) <= 1, (label, failing_primes)
        summary[label] = failing_primes
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"criterion 8 took {elapsed:.0f}s"
    _line(8, True, f"failure counts within caps (2,2,1), at most one bad prime per curve: {summary}, {elapsed:.0f}s")


def test_criterion_9_verdict_sanity():
    for label in ("121-B1", "121-C1", "121-C2", "legendre-test", "cm-j1728", "selmer-jacobian"):
        v = verdict_over_Q(embedded_curve(label), 13)
        assert v.outcome == Outcome.GUARANTEED
        assert v.chain[0].rule == "rational.large_prime"
    leg = verdict_over_Q(embedded_curve("legendre-test"), 5)
    assert leg.outcome == Outcome.GUARANTEED
    assert leg.chain[0].rule == "rational.full_2torsion"
    c1 = verdict_over_Q(embedded_curve("121-C1"), 11)
    assert c1.outcome == Outcome.GUARANTEED
    assert c1.chain[-1].rule == "rational.regular_prime_resolution"
    _line(9, True, "p=13 large-prime rule on every embedded curve; legendre route at 5; recorded resolution for 121-C1 at 11")


def test_criterion_10_elliptic_oracles():
    rng = random.Random(2024)
    primes = [l for l in primes_up_to(500)]
    pairs = 0
    while pairs < 500:
        try:
            e = curve(tuple(rng.randint(-9, 9) for _ in range(5)))
        except SingularCurve:
            continue
        good = [l for l in primes if e.discriminant % l]
        ell = rng.choice(good)
        assert count_points(e, ell) == count_points_enumeration(e, ell), (e, ell)
        pairs += 1
    triples = 0
    while triples < 100:
        try:
            e = curve(tuple(rng.randint(-9, 9) for _ in range(5)))
        except SingularCurve:
            continue
        d = rng.choice([-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, 11, -11, 13])
        tw = quadratic_twist(e, d)
        good = [
            l
            for l in primes
            if l != 2 and (e.discriminant * tw.discriminant * d) % l != 0
        ]
        ell = rng.choice(good)
        assert trace_at(tw, ell) == legendre_symbol(d, ell) * trace_at(e, ell), (e, d, ell)
        triples += 1
    cm = embedded_curve("cm-j1728")
    for p in primes_up_to(200):
        if p == 2:
            continue
        assert is_supersingular(cm, p) == (p % 4 == 3), p
    _line(10, True, "dual counts on 500 pairs, twist identity on 100 triples, CM supersingularity pattern up to 200")
