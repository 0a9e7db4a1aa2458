import random
import time
from fractions import Fraction

import pytest

from shadiv.datasets import SELMER_COMPANIONS, SELMER_CUBIC
from shadiv.errors import BudgetExceeded
from shadiv.fp_linalg import is_prime
from shadiv.local_cubic import (
    CubeClass,
    DiagonalCubic,
    PAdicApprox,
    coordinate_section_point,
    cube_class,
    cube_class_from_approx,
    cube_class_group_order,
    find_certified_point,
    has_local_point,
    has_real_point,
    has_zeta3,
    is_cube,
    lift_certificate,
    selmer_example_report,
    unit_cube_class_count,
)


def test_is_cube_reference_values():
    assert is_cube(10, 3)
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
    for p in (2, 3, 5, 7):
        for x in (Fraction(10), Fraction(60), Fraction(-5, 4), Fraction(7, 9)):
            base = cube_class(x, p)
            for extra in (3, 6, 10):
                assert cube_class(x, p, precision=extra) == base


def test_cube_class_from_approx_requires_precision():
    with pytest.raises(ValueError):
        cube_class_from_approx(PAdicApprox(3, 0, 2, 1))
    cls = cube_class_from_approx(PAdicApprox(3, 0, 8, 2))
    assert cls.is_trivial  # 8 = -1 mod 9


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
        assert len(units_only) == unit_cube_class_count(p)


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
    with pytest.raises(ValueError):
        has_local_point(DiagonalCubic(1, 2, 4), 2, precision=3)
    with pytest.raises(BudgetExceeded):
        has_local_point(DiagonalCubic(1, 1, 97), 97)


def test_has_local_point_work_budget():
    # 13^5 rows of 13^5 entries: refused before any table is built
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        has_local_point(DiagonalCubic(1, 2, 13), 13)
    assert time.monotonic() - t0 < 5
    # every default-precision scan at p <= 7 is admitted
    for p in (2, 3, 5, 7):
        assert has_local_point(DiagonalCubic(1, 1, 3 * p), p) is True


def test_certificates_replay():
    # certified points lift one more digit of precision
    cubic = DiagonalCubic(1, 1, 1)
    point = find_certified_point(cubic, 3, 5)
    assert point is not None
    x, y, z, j = point
    assert 5 > 2 * j
    lifted = lift_certificate(cubic, (x, y, z), 3, 5)
    assert (cubic.a * lifted[0] ** 3 + cubic.b * lifted[1] ** 3 + cubic.c * lifted[2] ** 3) % 3 ** 6 == 0


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
