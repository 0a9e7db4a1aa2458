import hashlib
import itertools
import math
import random
import time
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from count_oracle import count_points_enumeration
from shadiv.arith import legendre_symbol, primes_up_to
from shadiv.datasets import EMBEDDED_AINVS, embedded_curve
from shadiv.divisibility import _trace_arrays, _twist_symbols, twist_scan
from shadiv.elliptic import (
    BSGS_MIN_ELL,
    COLUMN_PRIMES,
    ReductionType,
    _character_sum_count,
    _column_traces,
    _shanks_mestre_column,
    _shanks_mestre_rounds,
    count_points,
    curve,
    derive_invariants,
    frobenius_traces,
    has_full_rational_2torsion,
    is_supersingular,
    quadratic_twist,
    reduction_type,
    trace_at,
    two_division_roots,
)
from shadiv.errors import BadReduction, InternalInconsistency, SingularCurve, UnsupportedPrime


def random_curve(rng, bound=8):
    while True:
        try:
            return curve(tuple(rng.randint(-bound, bound) for _ in range(5)))
        except SingularCurve:
            continue


def test_derive_invariants_accepts_121b1():
    e = curve((0, -1, 1, -7, 10), label="121-B1")
    assert e.j == -(2 ** 15)
    assert e.discriminant == -(11 ** 3)


def test_derive_invariants_rejects_singular():
    with pytest.raises(SingularCurve):
        derive_invariants(0, 0, 0, 0, 0)


def test_invariant_identities_random():
    rng = random.Random(99)
    for _ in range(100):
        e = random_curve(rng, 30)
        assert 1728 * e.discriminant == e.c4 ** 3 - e.c6 ** 2
        assert 4 * e.b8 == e.b2 * e.b6 - e.b4 ** 2


def test_count_points_at_2_matches_table():
    assert trace_at(curve((0, -1, 1, -7, 10)), 2) == 0  # 121-B1
    assert trace_at(curve((1, 1, 0, -2, -7)), 2) == 1  # 121-C1
    assert trace_at(curve((1, 1, 0, -3632, 82757)), 2) == 1  # 121-C2


def test_trace_cache_ignores_the_label():
    # the label names a curve but is not part of its identity: one curve
    # under two labels is one trace_at cache entry
    a, b = curve((0, -1, 1, -7, 10), label="121-B1"), curve((0, -1, 1, -7, 10), label="other")
    assert a == b and hash(a) == hash(b) and a.label != b.label
    trace_at.cache_clear()
    assert trace_at(a, 101) == trace_at(b, 101)
    info = trace_at.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_count_points_example_f5():
    e = curve((0, 0, 0, 1, 0))
    assert count_points(e, 5) == 4
    assert trace_at(e, 5) == 2


def test_count_points_requires_good_reduction():
    e = curve((0, 0, 0, 1, 0))  # disc = -64
    with pytest.raises(BadReduction):
        count_points(e, 2)


def test_dual_point_counting_agrees():
    rng = random.Random(17)
    primes = [l for l in primes_up_to(250)]
    for _ in range(120):
        e = random_curve(rng)
        good = [l for l in primes if e.discriminant % l]
        ell = rng.choice(good)
        assert count_points(e, ell) == count_points_enumeration(e, ell)


# the embedded curves plus y^2 = x^3 + k (j = 0) and y^2 = x^3 + k x
# (j = 1728): supersingular at half the primes, and often with a
# non-cyclic group, so that one point's order leaves several candidates
SHANKS_MESTRE_CURVES = [embedded_curve(label) for label in EMBEDDED_AINVS] + [
    curve((0, 0, 0, 0, k)) for k in (1, 2, -3)
] + [curve((0, 0, 0, k, 0)) for k in (2, -5)]


def test_default_trace_bound_stays_on_character_sum():
    # analyze and twist-scan default to --trace-bound 1000; the tests below
    # need BSGS_MIN_ELL well inside (1000, 10^4]
    assert 1000 <= BSGS_MIN_ELL <= 5000


def test_shanks_mestre_equals_character_sum_to_1e4():
    primes = [l for l in primes_up_to(10 ** 4) if l > BSGS_MIN_ELL]
    for e in SHANKS_MESTRE_CURVES:
        for ell in primes:
            if e.discriminant % ell:
                assert count_points(e, ell) == _character_sum_count(e, ell), (e, ell)


def test_shanks_mestre_equals_character_sum_on_seeded_primes_to_1e5():
    rng = random.Random(2010)
    primes = [l for l in primes_up_to(10 ** 5) if l > 10 ** 4]
    for label in EMBEDDED_AINVS:
        e = embedded_curve(label)
        for ell in rng.sample([l for l in primes if e.discriminant % l], 30):
            assert count_points(e, ell) == _character_sum_count(e, ell), (label, ell)


def test_shanks_mestre_equals_enumeration_above_bsgs_min_ell():
    primes = [l for l in primes_up_to(BSGS_MIN_ELL + 100) if l >= BSGS_MIN_ELL][:5]
    assert len(primes) == 5
    for ell, label in zip(primes, ("121-B1", "121-C1", "selmer-jacobian", "cm-j1728", "legendre-test")):
        e = embedded_curve(label)
        assert count_points(e, ell) == count_points_enumeration(e, ell), (label, ell)


def test_column_kernel_equals_character_sum_to_1e4():
    # the kernel's first-round counts on every good prime from 5 to 10^4
    # (small primes give small point orders, which the kernel must leave to
    # later rounds), and the traces frobenius_traces builds from its rounds
    # from BSGS_MIN_ELL up; the first point is at x0 = 1, past the order-3
    # flex at x0 = 0 of the j = 0 curves, and the j = 1728 curves leave
    # primes with several candidates to later rounds
    for e in SHANKS_MESTRE_CURVES:
        good = [l for l in primes_up_to(10 ** 4)[2:] if e.discriminant % l]
        counts, x0 = [], []
        for i in range(0, len(good), COLUMN_PRIMES):
            column = good[i : i + COLUMN_PRIMES]
            n, used = _shanks_mestre_column(e, column, [1] * len(column))
            counts += n.tolist()
            x0 += used.tolist()
        expected = [_character_sum_count(e, l) for l in good]
        assert all(n in (0, m) for n, m in zip(counts, expected)), e
        assert all(1 <= x <= 4 for x in x0), e  # f has at most three roots
        large = next(i for i, l in enumerate(good) if l >= BSGS_MIN_ELL)
        assert counts[large:].count(0) < (len(good) - large) // 4, e
        if e.c6 == 0:
            assert counts[large:].count(0) > 0, e
        _column_traces.cache_clear()
        traces = {l: a for l, a, _ in frobenius_traces(e, 10 ** 4).entries}
        assert [traces[l] for l in good[large:]] == [l + 1 - m for l, m in zip(good[large:], expected[large:])], e


def test_column_kernel_equals_enumeration_across_a_column_boundary():
    primes = primes_up_to(7000)
    first = primes.index(2003)
    edge = primes[first + COLUMN_PRIMES - 2 : first + COLUMN_PRIMES + 2]  # two on each side
    assert len(edge) == 4 and primes[first - 1] < BSGS_MIN_ELL
    for ell, label in zip(edge, ("121-B1", "legendre-test", "cm-j1728", "selmer-jacobian")):
        e = embedded_curve(label)
        _column_traces.cache_clear()
        a = dict((l, a) for l, a, _ in frobenius_traces(e, edge[-1]).entries)[ell]
        assert a == ell + 1 - count_points_enumeration(e, ell), (label, ell)


def test_column_kernel_rejects_primes_outside_its_range():
    e = embedded_curve("121-B1")
    assert _shanks_mestre_column(e, [], [])[0].size == 0
    for ells in ([3, 5003], [100003], list(primes_up_to(10 ** 4)[3 : 3 + COLUMN_PRIMES + 1])):
        with pytest.raises(ValueError):
            _shanks_mestre_column(e, ells, [1] * len(ells))


def test_shanks_mestre_below_229_is_exact_or_raises():
    # below 230 the orders of the points of E and E' can leave several
    # candidates (y^2 = x^3 - x at 29); the count must then raise, never guess
    with pytest.raises(InternalInconsistency):
        _shanks_mestre_rounds(curve((0, 0, 0, -1, 0)), [29])
    for e in SHANKS_MESTRE_CURVES:
        for ell in primes_up_to(229)[2:]:
            if e.discriminant % ell:
                try:
                    [n] = _shanks_mestre_rounds(e, [ell]).tolist()
                except InternalInconsistency:
                    continue
                assert n == _character_sum_count(e, ell), (e, ell)


def test_frobenius_traces_hasse_and_determinism():
    e = curve((1, 1, 0, -2, -7))
    fd1 = frobenius_traces(e, 200)
    fd2 = frobenius_traces(e, 200)
    assert fd1 == fd2
    for ell, a, good in fd1.entries:
        if good:
            assert a * a <= 4 * ell
        else:
            assert a is None and e.discriminant % ell == 0


# sha256 over repr(frobenius_traces(e, 3 * 10^4).entries), computed when
# every prime was counted one at a time by count_points
DEEP_TRACE_DIGESTS = {
    "tate7-t2": ((-1, -4, -4, 0, 0), "db00ac61346b9c7bb411f2d0362ddac5203e66c318a8ef2e8295839091f3a070"),
    "121-B1": ((0, -1, 1, -7, 10), "da6dc6516a1e1e4dc46aee37cadec50c8f5819827df05c411b0e86c0d6f9274f"),
    "tate5-t3": ((-2, -3, -3, 0, 0), "062475fa82e02e980bb0fa49be35b3d9f3022dbfc06c6f013af61be9ffdec340"),
}


@pytest.mark.parametrize("label", sorted(DEEP_TRACE_DIGESTS))
def test_deep_traces_are_pinned(label):
    ainvs, digest = DEEP_TRACE_DIGESTS[label]
    fd = frobenius_traces(curve(ainvs), 3 * 10 ** 4)
    assert hashlib.sha256(repr(fd.entries).encode()).hexdigest() == digest


def test_columns_take_few_kernel_calls(monkeypatch):
    # the first round settles all but a few of a column's good primes and
    # the later rounds the rest: at most three kernel calls per column to
    # the pinned bound, on the pinned curves and on the j = 0 curve
    # y^2 = x^3 + 1
    import shadiv.elliptic as ell

    calls = []
    real = ell._shanks_mestre_column
    monkeypatch.setattr(ell, "_shanks_mestre_column", lambda e, ells, x0: calls.append(int(ells[0])) or real(e, ells, x0))
    cases = [(label, ainvs) for label, (ainvs, _) in DEEP_TRACE_DIGESTS.items()] + [("y^2 = x^3 + 1", (0, 0, 0, 0, 1))]
    for label, ainvs in cases:
        ell._column_traces.cache_clear()
        calls.clear()
        fd = frobenius_traces(curve(ainvs), 3 * 10 ** 4)
        large = [l for l, _, _ in fd.entries if l >= BSGS_MIN_ELL]
        starts = large[::COLUMN_PRIMES]
        per_column = Counter(bisect_right(starts, l) for l in calls)
        assert sorted(per_column) == list(range(1, len(starts) + 1)), label
        assert 1 < max(per_column.values()) <= 3, label


def test_count_points_reads_the_trace_columns(monkeypatch):
    # from BSGS_MIN_ELL up, trace_at and frobenius_traces share one source:
    # after the traces to 3 * 10^4, a trace in a full column counts no point
    import shadiv.elliptic as ell

    e = embedded_curve("121-B1")
    ell._column_traces.cache_clear()
    traces = {l: a for l, a, _ in frobenius_traces(e, 3 * 10 ** 4).entries}
    ell.trace_at.cache_clear()

    def boom(*args):
        raise AssertionError("a point was counted")

    monkeypatch.setattr(ell, "_shanks_mestre_column", boom)
    for l in (2003, 9973, 26021):  # in the first, second and last full columns
        assert ell.trace_at(e, l) == traces[l], l


def test_count_points_rejects_composites_and_primes_past_the_bound():
    e = embedded_curve("121-B1")
    for n in (15, 1001, 2001, 100003):
        with pytest.raises(UnsupportedPrime):
            count_points(e, n)
    assert count_points(e, 99991) == _character_sum_count(e, 99991)


def test_traces_against_slow_recount():
    e = curve((1, 1, 0, -2, -7), label="121-C1")
    for ell in (2, 3, 5, 7):
        assert trace_at(e, ell) == ell + 1 - count_points_enumeration(e, ell)


def test_reduction_type_good():
    e = curve((0, 0, 0, 1, 0))
    assert reduction_type(e, 5) == ReductionType.GOOD


def test_reduction_type_rejects_p2():
    with pytest.raises(UnsupportedPrime):
        reduction_type(curve((0, 0, 0, 1, 0)), 2)


def test_reduction_type_121_curves_additive_at_11():
    for ai in ((0, -1, 1, -7, 10), (1, 1, 0, -2, -7)):
        assert reduction_type(curve(ai), 11) == ReductionType.ADDITIVE


def _curves_mod_p(p):
    # every a-invariant tuple mod p, with a6 shifted by p where the tuple
    # is singular over Z; the reduction type depends only on a1..a6 mod p
    for ainvs in itertools.product(range(p), repeat=5):
        try:
            yield curve(ainvs)
        except SingularCurve:
            yield curve(ainvs[:4] + (ainvs[4] + p,))


def _small_family():
    for a2 in range(-5, 6):
        for a6 in range(-5, 6):
            try:
                yield curve((0, a2, 0, 0, a6))
            except SingularCurve:
                continue


def test_reduction_type_multiplicative_split_nonsplit():
    # every tuple mod p at p = 3, 5, 7 and a small family at 11;
    # oracle: explicit tangent-cone factorization at the node
    cases = [(p, e) for p in (3, 5, 7) for e in _curves_mod_p(p)]
    cases += [(11, e) for e in _small_family()]
    kinds = (ReductionType.MULTIPLICATIVE_SPLIT, ReductionType.MULTIPLICATIVE_NONSPLIT)
    found = {p: dict.fromkeys(kinds, 0) for p in (3, 5, 7, 11)}
    for p, e in cases:
        if e.discriminant % p == 0 and e.c4 % p:
            rt = reduction_type(e, p)
            assert rt in found[p]
            found[p][rt] += 1
            _check_tangent_cone(e, p, rt)
    assert all(v > 0 for counts in found.values() for v in counts.values())
    # p^3 (p - 1) of the p^5 tuples reduce to a nodal cubic
    assert {p: sum(found[p].values()) for p in (3, 5, 7)} == {3: 54, 5: 500, 7: 2058}


def _check_tangent_cone(e, p, rt):
    # locate the node by brute force and factor the tangent quadric directly;
    # the nodal cubic has p points if split, p + 2 if nonsplit
    sing = None
    points = 1
    for x in range(p):
        for y in range(p):
            fx = (e.a1 * y - (3 * x * x + 2 * e.a2 * x + e.a4)) % p
            fy = (2 * y + e.a1 * x + e.a3) % p
            f = (y * y + e.a1 * x * y + e.a3 * y - (x ** 3 + e.a2 * x * x + e.a4 * x + e.a6)) % p
            if fx == 0 and fy == 0 and f == 0:
                sing = (x, y)
            points += f == 0
    assert sing is not None
    x0 = sing[0]
    disc = (e.b2 + 12 * x0) % p
    # split iff Y^2 + a1 XY - (3x0 + a2) X^2 factors over F_p
    expected_split = legendre_symbol(disc, p) == 1
    assert (rt == ReductionType.MULTIPLICATIVE_SPLIT) == expected_split
    assert points == (p if expected_split else p + 2)


def test_reduction_type_stable_under_p_shift():
    # substitute x -> x + p*t: an admissible change preserving p-integrality
    def shift(e, r):
        a1, a2, a3, a4, a6 = e.ainvs
        return curve(
            (
                a1,
                a2 + 3 * r,
                a3 + a1 * r,
                a4 + 2 * a2 * r + 3 * r * r,
                a6 + a4 * r + a2 * r * r + r ** 3,
            )
        )

    for a2 in range(-5, 6):
        for a6 in range(-5, 6):
            try:
                e = curve((0, a2, 0, 0, a6))
            except SingularCurve:
                continue
            for p in (5, 7):
                if e.discriminant % p == 0 and e.c4 % p:
                    base = reduction_type(e, p)
                    for t in (1, 2):
                        shifted = shift(e, p * t)
                        assert shifted.discriminant == e.discriminant
                        assert reduction_type(shifted, p) == base


def test_supersingular_cm_curve():
    e = curve((0, 0, 0, 1, 0))  # CM by Z[i]
    assert is_supersingular(e, 7)
    assert not is_supersingular(e, 5)
    for p in primes_up_to(200):
        if p <= 2:
            continue
        assert is_supersingular(e, p) == (p % 4 == 3)


def test_supersingular_needs_good_reduction():
    with pytest.raises(BadReduction):
        is_supersingular(curve((0, 0, 0, 1, 0)), 2)


def test_quadratic_twist_invariants():
    rng = random.Random(31)
    e = curve((1, -1, 1, -3, 3))
    assert quadratic_twist(e, 1).j == e.j
    with pytest.raises(ValueError):
        quadratic_twist(e, 12)  # not squarefree
    with pytest.raises(ValueError):
        quadratic_twist(e, 0)
    for _ in range(100):
        base = random_curve(rng)
        d = rng.choice([-1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10, -11])
        tw = quadratic_twist(base, d)
        assert tw.j == base.j
        good = [
            l
            for l in primes_up_to(80)
            if l != 2 and (base.discriminant * tw.discriminant * d) % l != 0
        ]
        ell = rng.choice(good)
        assert trace_at(tw, ell) == legendre_symbol(d, ell) * trace_at(base, ell)


def test_quadratic_twist_by_large_d_is_fast():
    # the squarefree check trial-divided |d| up to its square root: 1.9 s at
    # d = 100000000000031 (a prime), minutes near 10^18
    e = embedded_curve("121-B1")
    d = 1000000000000000003  # prime
    t0 = time.monotonic()
    tw = quadratic_twist(e, d)
    assert time.monotonic() - t0 < 1
    assert tw.j == e.j
    for not_squarefree in (4 * d, -3 * (10 ** 9 + 7) ** 2, d * d):
        with pytest.raises(ValueError):
            quadratic_twist(e, not_squarefree)


def test_scaled_twist_models_equal_derive_invariants():
    # twisted invariants are scaled from the base curve's, not re-derived;
    # derive_invariants, which computes every field from the a-invariants
    # and checks its two identities, is the oracle, on every row of the
    # nine benchmark scans to |d| = 10^4 and on quadratic_twist
    for label in ("121-B1", "121-C1", "selmer-jacobian"):
        for p in (3, 5, 7):
            for d, v in twist_scan(embedded_curve(label), p, 10 ** 4).rows:
                assert v.curve == derive_invariants(*v.curve.ainvs)
                assert v.curve.label == (label if d == 1 else f"{label}^({d})")
    rng = random.Random(12)
    primes = primes_up_to(300)
    ds = [10 ** 18 + 3] + [rng.choice((-1, 1)) * math.prod(rng.sample(primes, rng.randint(1, 4))) for _ in range(30)]
    assert any(d < 0 for d in ds) and any(d > 1 for d in ds) and any(d % 2 == 0 for d in ds)
    for label in ("121-B1", "121-C2", "legendre-test", "cm-j1728", "selmer-jacobian"):
        base = embedded_curve(label)
        for d in ds:
            tw = quadratic_twist(base, d)
            assert tw == derive_invariants(*tw.ainvs), (label, d)


def test_frobenius_twist_matches_direct_traces():
    # the shape-test engine reads a_ell(E^d) = (d/ell) a_ell(E) off the base
    # curve's trace arrays, 0 where E^d is bad; here the traces are counted
    # on the twisted model itself, including at 2, at the primes of d and
    # at the bad primes of the base
    ds = (-1, 2, -2, 3, -3, 5, -5, 6, 7, -11, 13, 15, -30, 105, -1155)
    for label in ("121-B1", "121-C1", "selmer-jacobian", "legendre-test", "cm-j1728"):
        base = embedded_curve(label)
        ells, a, good = _trace_arrays(frobenius_traces(base, 1000).entries)
        for d, symbols in zip(ds, _twist_symbols(ells, good, np.array(ds)).T, strict=True):
            tw_ells, tw_a, tw_good = _trace_arrays(frobenius_traces(quadratic_twist(base, d), 1000).entries)
            assert tw_ells.tolist() == ells.tolist()
            assert (symbols != 0).tolist() == tw_good.tolist(), (label, d)
            assert (symbols * a).tolist() == tw_a.tolist(), (label, d)


def test_two_torsion_detection():
    assert has_full_rational_2torsion(curve((0, 0, 0, -1, 0)))  # x(x-1)(x+1)
    assert not has_full_rational_2torsion(curve((0, 0, 0, 1, 1)))  # irreducible cubic
    # one rational root only
    assert not has_full_rational_2torsion(curve((0, 0, 0, 1, 0)))
    assert len(two_division_roots(curve((0, 0, 0, 1, 0)))) == 1


def test_two_torsion_invariant_under_twist():
    base = curve((0, 0, 0, -1, 0))
    for d in (-1, 2, -3, 5, 17):
        assert has_full_rational_2torsion(quadratic_twist(base, d))
    nontriv = curve((0, 0, 0, 1, 1))
    for d in (-1, 2, -3):
        assert not has_full_rational_2torsion(quadratic_twist(nontriv, d))


def test_two_division_roots_large_coefficients():
    # split cubic with huge roots survives the Hensel route exactly
    r = (10 ** 7, -3, 12345)
    b = -(r[0] + r[1] + r[2])
    c = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
    d = -r[0] * r[1] * r[2]
    from shadiv.elliptic import _monic_cubic_integer_roots

    assert _monic_cubic_integer_roots(b, c, d) == sorted(r)
