import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubic_oracle import certified_root
from shadiv.arith import is_prime
from shadiv.datasets import SELMER_COMPANIONS, SELMER_CUBIC
from shadiv.errors import BudgetExceeded
from shadiv.local_cubic import (
    CubeClass,
    DiagonalCubic,
    coordinate_section_point,
    cube_class,
    cube_class_group_order,
    has_local_point,
    has_real_point,
    has_zeta3,
    is_cube,
    selmer_example_report,
    _normalised,
)

# bound on p^(2k), the steps of the sweep oracle over all triples mod p^k
SWEEP_WORK_BUDGET = 7 ** 10


class Undecided(Exception):
    """The sweep oracle met roots mod p^k but none with a Hensel certificate."""


def _vp_int(n, p, cap):
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def lift_certificate(cubic: DiagonalCubic, point, p, k):
    """Oracle replay of Hensel: one more digit of precision for a certified point.

    Returns a triple congruent to `point` mod p^(k-j) with F = 0 mod p^(k+1).
    """
    a, b, c = cubic.a, cubic.b, cubic.c
    x, y, z = point
    target = p ** (k + 1)
    vals = list(point)
    partials = (3 * a * x * x, 3 * b * y * y, 3 * c * z * z)
    js = [_vp_int(q, p, k) for q in partials]
    j = min(js)
    i = js.index(j)
    step = p ** (k - j)
    for t in range(p):
        trial = list(vals)
        trial[i] = (trial[i] + t * step) % target
        if (a * trial[0] ** 3 + b * trial[1] ** 3 + c * trial[2] ** 3) % target == 0:
            return tuple(trial)
    raise AssertionError("certificate failed to lift, which contradicts k > 2j")


def test_is_cube_reference_values():
    assert is_cube(10, 3)
    assert is_cube(8, 3) and is_cube(Fraction(1, 8), 3)  # -1 mod 9
    assert not is_cube(2, 3) and not is_cube(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        cube_class(0, 5)
    assert not is_cube(60, 2)
    assert not is_cube(60, 5)


def test_is_cube_of_cubes_random():
    rng = random.Random(2)
    for _ in range(100):
        x = Fraction(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice((1, -1))
        p = rng.choice((2, 3, 5, 7, 11, 13))
        assert is_cube(x ** 3, p)


def test_is_cube_multiplicative():
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 13):
        for _ in range(50):
            x = Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 3
            y = Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 3
            assert is_cube(x * y, p)


def test_cube_class_stability_under_precision_increase():
    # the class is fixed by finitely many digits: 2 of the unit at p = 3,
    # 1 elsewhere, so perturbing deeper digits keeps it
    for p in (2, 3, 5, 7):
        for x in (Fraction(10), Fraction(60), Fraction(-5, 4), Fraction(7, 9)):
            base = cube_class(x, p)
            for extra in (3, 6, 10):
                assert cube_class(x * (1 + p ** extra), p) == base


def test_cube_class_group_orders_by_enumeration():
    """Oracle: enumerate p^v * u over v in {0,1,2} and unit representatives,
    and count the distinct classes the classifier assigns."""
    for p in (2, 3, 5, 7, 13):
        classes = set()
        unit_reps = range(1, min(p ** 3, 200))
        for v in range(3):
            for u in unit_reps:
                if u % p == 0:
                    continue
                classes.add(cube_class(Fraction(p) ** v * u, p))
        assert len(classes) == cube_class_group_order(p)
        units_only = {c for c in classes if c.valuation_mod_3 == 0}
        assert len(units_only) == cube_class_group_order(p) // 3


def test_group_order_values():
    assert cube_class_group_order(3) == 9
    assert cube_class_group_order(7) == 9
    assert cube_class_group_order(2) == 3
    assert cube_class_group_order(5) == 3


def test_has_zeta3():
    assert has_zeta3(7) and has_zeta3(13)
    assert not has_zeta3(2) and not has_zeta3(5) and not has_zeta3(3) and not has_zeta3(11)
    # oracle at 3: x^2 + x + 1 has no root mod 9
    assert all((x * x + x + 1) % 9 != 0 for x in range(9))


def test_coordinate_sections():
    s = DiagonalCubic(*SELMER_CUBIC)
    assert coordinate_section_point(s, 3)
    for name, coeffs in SELMER_COMPANIONS.items():
        assert not coordinate_section_point(DiagonalCubic(*coeffs), 3), name
    assert coordinate_section_point(DiagonalCubic(1, 1, -8), 7)
    assert coordinate_section_point(DiagonalCubic(1, 1, -8), 11)


def test_diagonal_cubic_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        DiagonalCubic(0, 1, 1)


def test_has_local_point_rejects_non_prime():
    for p in (1, 9):
        with pytest.raises(ValueError):
            has_local_point(DiagonalCubic(1, 1, 1), p)


def test_has_local_point_smooth_prime():
    assert has_local_point(DiagonalCubic(*SELMER_CUBIC), 7)
    assert has_local_point(DiagonalCubic(1, 1, 1), 11)


def test_has_local_point_selmer_small_primes():
    s = DiagonalCubic(*SELMER_CUBIC)
    for p in (2, 3, 5):
        assert has_local_point(s, p)


def test_has_local_point_everywhere_up_to_100():
    s = DiagonalCubic(*SELMER_CUBIC)
    assert has_real_point(s)
    for p in range(2, 101):
        if is_prime(p):
            assert has_local_point(s, p), p


def test_has_local_point_refutes_classic_counterexample():
    # x^3 + 2y^3 + 4z^3 has no 2-adic point: the 2-adic valuations
    # 0, 1, 2 of the coefficients force infinite descent
    assert has_local_point(DiagonalCubic(1, 2, 4), 2) is False


def test_has_local_point_precision_floor_and_budget():
    # no precision to choose and no budget to exceed: both cubics that
    # once needed one are decided outright
    with pytest.raises(TypeError):
        has_local_point(DiagonalCubic(1, 2, 4), 2, precision=3)
    assert has_local_point(DiagonalCubic(1, 2, 4), 2) is False
    assert has_local_point(DiagonalCubic(1, 1, 97), 97) is True


def test_has_local_point_work_budget():
    # 13^5 rows of 13^5 entries were once refused; now answered at once
    t0 = time.monotonic()
    assert has_local_point(DiagonalCubic(1, 2, 13), 13) is False
    assert time.monotonic() - t0 < 1
    for p in (2, 3, 5, 7):
        assert has_local_point(DiagonalCubic(1, 1, 3 * p), p) is True


def test_has_local_point_answers_large_primes_fast():
    # p >= 11 dividing 3abc: decided by cube classes, with no search
    cases = {
        (1, 2, 13, 13): False,
        (1, 3, 13, 13): False,
        (1, 13, 169, 13): False,
        (2, 3, 11, 11): True,
        (1, 1, 97, 97): True,
        (7, 14, 28, 7): True,  # 7 times a smooth cubic
    }
    for (a, b, c, p), expected in cases.items():
        assert has_local_point(DiagonalCubic(a, b, c), p) is expected, (a, b, c, p)
        assert _best_of_three_ms(DiagonalCubic(a, b, c), p) < 10, (a, b, c, p)


def _best_of_three_ms(cubic, p):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        has_local_point(cubic, p)
        times.append(time.perf_counter() - t0)
    return 1000 * min(times)


def _large_prime_cases(n=20, seed=5):
    """Seeded cubics at p = 11 and 13 with coefficient valuations 0-4."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        p = rng.choice((11, 13))
        coeffs = [
            rng.choice((1, -1)) * rng.choice([u for u in range(1, 60) if u % p]) * p ** rng.randint(0, 4)
            for _ in range(3)
        ]
        cases.append((DiagonalCubic(*coeffs), p))
    return cases


def test_has_local_point_matches_search_at_large_primes():
    # on the normalised cubic every primitive root mod p^5 is certified
    # (j <= 2), so the root search decides and is an independent check
    outcomes = set()
    for cubic, p in _large_prime_cases():
        certificate, roots = certified_root(_normalised(cubic, p), p, 5)
        assert certificate is not None or not roots, (cubic, p)
        assert has_local_point(cubic, p) is (certificate is not None), (cubic, p)
        outcomes.add(certificate is not None)
    assert outcomes == {True, False}


_PROPERTY_PRIMES = [q for q in range(2, 98) if is_prime(q)]


@st.composite
def _cubic_and_prime(draw):
    p = draw(st.sampled_from(_PROPERTY_PRIMES))
    units = st.integers(1, 200).filter(lambda u: u % p)
    coeffs = [
        draw(st.sampled_from((1, -1))) * draw(units) * p ** draw(st.integers(0, 6))
        for _ in range(3)
    ]
    return DiagonalCubic(*coeffs), p


@settings(max_examples=150, deadline=None)
@given(
    _cubic_and_prime(),
    st.permutations(range(3)),
    st.integers(0, 2),
    st.integers(1, 50).map(lambda t: t ** 3),
    st.integers(-30, 30).filter(bool),
    st.integers(0, 4),
)
def test_has_local_point_invariants(case, perm, slot, cube, scale, scale_valuation):
    cubic, p = case
    scale *= p ** scale_valuation
    coeffs = (cubic.a, cubic.b, cubic.c)
    answer = has_local_point(cubic, p)
    assert answer in (True, False)
    assert _best_of_three_ms(cubic, p) < 10, (cubic, p)
    assert has_local_point(DiagonalCubic(*(coeffs[i] for i in perm)), p) is answer
    cubed = list(coeffs)
    cubed[slot] *= cube
    assert has_local_point(DiagonalCubic(*cubed), p) is answer
    assert has_local_point(DiagonalCubic(*(scale * x for x in coeffs)), p) is answer


def test_certificates_replay():
    # certified points lift one more digit of precision
    cubic = DiagonalCubic(1, 1, 1)
    point, _ = certified_root(cubic, 3, 5)
    assert point is not None
    x, y, z, j = point
    assert 5 > 2 * j
    lifted = lift_certificate(cubic, (x, y, z), 3, 5)
    assert (cubic.a * lifted[0] ** 3 + cubic.b * lifted[1] ** 3 + cubic.c * lifted[2] ** 3) % 3 ** 6 == 0


def test_has_local_point_at_3_on_every_class():
    # step 3 of the has_local_point proof: up to unit cubes a normalised
    # cubic at 3 is 3^v * r with v in {0,1,2}^3 (least 0) and r in {1,2,4}^3;
    # on each class the certified search mod 3^7 decides, and agrees
    t0 = time.monotonic()
    classes = [
        (vs, rs)
        for vs in itertools.product(range(3), repeat=3)
        if min(vs) == 0
        for rs in itertools.product((1, 2, 4), repeat=3)
    ]
    assert len(classes) == 513
    outcomes = set()
    for vs, rs in classes:
        cubic = DiagonalCubic(*(3 ** v * r for v, r in zip(vs, rs)))
        assert _normalised(cubic, 3) == cubic
        certificate, roots = certified_root(cubic, 3, 7)
        assert certificate is not None or not roots, cubic
        assert has_local_point(cubic, 3) is (certificate is not None), cubic
        outcomes.add(certificate is not None)
    assert outcomes == {True, False}
    assert time.monotonic() - t0 < 2


def test_selmer_example_report_contents():
    report = selmer_example_report()
    sections = next(s for s in report["steps"] if s["name"] == "coordinate-sections-at-3")
    assert sections["detail"] == {"S": True, "S'": False, "S''": False, "S'''": False}
    cubes = next(s for s in report["steps"] if s["name"] == "cube-classes-at-3")
    assert cubes["detail"]["is_cube(10, 3)"] is True
    assert cubes["detail"]["order of Q_3*/(Q_3*)^3"] == 9
    torsion = next(s for s in report["steps"] if s["name"] == "jacobian-torsion-vanishing-inputs")
    assert torsion["detail"] == {
        "is_cube(60, 2)": False,
        "is_cube(60, 5)": False,
        "has_zeta3(2)": False,
        "has_zeta3(5)": False,
    }
    tags = {s["tag"] for s in report["steps"]}
    assert tags == {"computed", "cited"}
    for step in report["steps"]:
        if step["tag"] == "cited":
            assert "statement" in step  # cited facts carry their statements
        else:
            assert "detail" in step
    assert report["derived"]["only [S] survives the trivial-at-3 condition"] is True
    assert report["derived"]["local points of S at all p <= 100"] is True


def test_report_is_deterministic():
    import json

    a = json.dumps(selmer_example_report(), sort_keys=True)
    b = json.dumps(selmer_example_report(), sort_keys=True)
    assert a == b


def sweep_has_local_point(cubic: DiagonalCubic, p, precision=None) -> bool:
    """Oracle for has_local_point: a sweep of all primitive triples mod p^k.

    For p not dividing 3abc the reduction is a smooth plane cubic, which
    has an F_p-point by Hasse-Weil, and smoothness lifts it.  Otherwise we
    sweep primitive triples mod p^k: a triple with F = 0 mod p^k and some
    partial derivative of valuation j with k > 2j certifies a point; if no
    primitive root mod p^k exists at all the curve is rigorously pointless
    over Q_p; roots without certificates raise Undecided.  A
    sweep of more than SWEEP_WORK_BUDGET steps (p^k rows of p^k entries)
    raises BudgetExceeded before it starts.
    """
    a, b, c = cubic.a, cubic.b, cubic.c
    if (3 * a * b * c) % p != 0:
        return True
    k = precision if precision is not None else (6 if p == 3 else 5)
    if k < 5:
        raise ValueError("precision must be at least 5")
    pk = p ** k
    if pk * pk > SWEEP_WORK_BUDGET:
        raise BudgetExceeded(f"a scan mod {p}^{k} takes {pk}^2 steps, over the budget {SWEEP_WORK_BUDGET}")
    res = np.arange(pk, dtype=np.int64)
    cubes = res * res % pk * res % pk
    val = np.full(pk, k, dtype=np.int64)
    nonzero = res > 0
    v = np.zeros(pk, dtype=np.int64)
    tmp = res.copy()
    for _ in range(k):
        divisible = nonzero & (tmp % p == 0)
        v[divisible] += 1
        tmp[divisible] //= p
    val[nonzero] = v[nonzero]

    cz = c % pk * cubes % pk
    vz_of = np.full(pk, k, dtype=np.int64)  # min valuation of z with c z^3 = R
    has_any = np.zeros(pk, dtype=bool)
    has_unit_z = np.zeros(pk, dtype=bool)
    np.minimum.at(vz_of, cz, val)
    has_any[cz] = True
    unit_mask = res % p != 0
    has_unit_z[cz[unit_mask]] = True

    va = _vp_int(3 * a, p, k)
    vb = _vp_int(3 * b, p, k)
    vc = _vp_int(3 * c, p, k)
    ax3 = a % pk * cubes % pk
    by3 = b % pk * cubes % pk
    jx_row = np.minimum(va + 2 * val, np.full(pk, k))  # valuation of dF/dX per x
    jy = np.minimum(vb + 2 * val, np.full(pk, k))

    roots_seen = False
    for x in range(pk):
        r_row = (-ax3[x] - by3) % pk
        hit = has_any[r_row]
        if x % p == 0:
            # primitive needs y or z a unit
            hit = hit & ((res % p != 0) | has_unit_z[r_row])
        if not hit.any():
            continue
        roots_seen = True
        jz = np.minimum(vc + 2 * vz_of[r_row], k)
        jmin = np.minimum(np.minimum(jx_row[x], jy), jz)
        certified = hit & (2 * jmin < k)
        idx = np.nonzero(certified)[0]
        if len(idx):
            return True
    if not roots_seen:
        return False
    raise Undecided(
        f"roots mod {p}^{k} exist but none carries a Hensel certificate"
    )


def _outcome(search, cubic, p):
    try:
        return search(cubic, p)
    except (BudgetExceeded, Undecided) as exc:
        return type(exc)


def _cubic_grid(n=210, seed=11):
    """Seeded diagonal cubics: coefficient valuations 0-3, both signs, and a
    quarter whose coefficients all share a power of p.  Weighted towards
    small p, where the oracle is cheap: at p = 7 it takes seconds per
    cubic without a certified point."""
    rng = random.Random(seed)
    primes = [2] * 7 + [3] * 7 + [5] * 5 + [7]
    cubics = []
    for _ in range(n):
        p = rng.choice(primes)
        low = rng.randint(1, 3) if rng.random() < 0.25 else 0
        coeffs = [
            rng.choice((1, -1)) * rng.choice([u for u in range(1, 40) if u % p]) * p ** rng.randint(low, 3)
            for _ in range(3)
        ]
        cubics.append((DiagonalCubic(*coeffs), p))
    return cubics


def test_has_local_point_matches_sweep_on_grid():
    grid = _cubic_grid()
    assert len(grid) >= 200 and {p for _, p in grid} == {2, 3, 5, 7}
    outcomes = set()
    for cubic, p in grid:
        k = 6 if p == 3 else 5
        swept = _outcome(sweep_has_local_point, cubic, p)
        outcomes.add(swept)
        if swept is Undecided:
            # the normalised cubic has the same points, and the sweep decides it
            decided = sweep_has_local_point(_normalised(cubic, p), p, precision=7 if p == 3 else 5)
        else:
            decided = swept
        assert has_local_point(cubic, p) is decided, (cubic, p)
        # the root search at the sweep's precision finds what the sweep finds
        point, _ = certified_root(cubic, p, k)
        assert (point is not None) == (swept is True), (cubic, p)
        if point is not None:
            x, y, z, j = point
            assert (cubic.a * x ** 3 + cubic.b * y ** 3 + cubic.c * z ** 3) % p ** k == 0
            assert any(t % p for t in (x, y, z))
            assert k > 2 * j
    assert outcomes == {True, False, Undecided}


def test_pointless_7adic_cubics_answer_fast():
    # a point would need units x, y with -b/a a cube mod 7, and it is not;
    # the oracle sweeps all 7^5 rows on these
    for cubic in (DiagonalCubic(1, 2, 7), DiagonalCubic(3, 1, 7)):
        t0 = time.monotonic()
        answer = has_local_point(cubic, 7)
        assert time.monotonic() - t0 < 1
        assert answer is False
        assert certified_root(cubic, 7, 5)[0] is None


def test_certificates_replay_at_7():
    for cubic in (DiagonalCubic(1, 1, 7), DiagonalCubic(-1764, 735, -2401)):
        (x, y, z, j), _ = certified_root(cubic, 7, 5)
        assert 5 > 2 * j
        lifted = lift_certificate(cubic, (x, y, z), 7, 5)
        assert (cubic.a * lifted[0] ** 3 + cubic.b * lifted[1] ** 3 + cubic.c * lifted[2] ** 3) % 7 ** 6 == 0
