"""p-adic solvability of diagonal plane cubics and cube classes in Q_p*.

Covers exactly what the worked Selmer-curve example needs: cube class
computations in Q_p*/(Q_p*)^3, coordinate-section point tests, and an
exact decision of local solvability: a cube class test for p != 3 and a
test for a primitive zero mod 27 at p = 3.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_prime, primes_up_to, valuation_split


@dataclass(frozen=True)
class CubeClass:
    """Image of x in Q_p*/(Q_p*)^3: valuation mod 3 plus a unit-class tag."""

    p: int
    valuation_mod_3: int
    unit_class: int

    @property
    def is_trivial(self):
        return self.valuation_mod_3 == 0 and self.unit_class == 1


def _unit_class(unit, p):
    """Canonical tag of a p-adic unit modulo cubes.

    p = 3: units are cubes iff congruent to +-1 mod 9; the tag is the
    smaller of u, 9-u mod 9 (values 1, 2, 4).  p = 1 mod 3: the cubic
    residue symbol u^((p-1)/3) mod p.  p = 2 mod 3: every unit is a cube.
    """
    if p == 3:
        u = unit % 9
        return min(u, 9 - u)
    if p % 3 == 1:
        return pow(unit % p, (p - 1) // 3, p)
    return 1


def cube_class(x, p) -> CubeClass:
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no cube class")
    # x * den^3 is an integer in the cube class of x
    v, u = valuation_split(x.numerator * x.denominator ** 2, p)
    return CubeClass(p, v % 3, _unit_class(u, p))


def is_cube(x, p) -> bool:
    """Whether the nonzero rational x is a cube in Q_p*."""
    cls = cube_class(x, p)
    return cls.is_trivial


def cube_class_group_order(p):
    """|Q_p*/(Q_p*)^3|: 9 for p = 3 and p = 1 mod 3, else 3.

    The valuation contributes Z/3 always; units contribute Z/3 exactly
    when mu_3 lies in Q_p (p = 1 mod 3) or p = 3 (the 1-units).
    """
    if p == 3 or p % 3 == 1:
        return 9
    return 3


def has_zeta3(v) -> bool:
    """Whether Q_v contains a primitive cube root of unity.

    x^2 + x + 1 has a root mod v iff v = 1 mod 3, and Hensel lifts it for
    v != 3; over Q_3 there is no root even mod 9.
    """
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    if v == 3:
        return False
    return v % 3 == 1


@dataclass(frozen=True)
class DiagonalCubic:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a * self.b * self.c == 0:
            raise ValueError("coefficients must be nonzero")

    def __str__(self):
        return f"{self.a}X^3 + {self.b}Y^3 + {self.c}Z^3 = 0"


def coordinate_section_point(cubic: DiagonalCubic, p) -> bool:
    """Whether the locus XYZ = 0 on the cubic has a Q_p-point.

    X = 0 needs -c/b a cube, Y = 0 needs -c/a, Z = 0 needs -b/a.
    """
    a, b, c = cubic.a, cubic.b, cubic.c
    return (
        is_cube(Fraction(-c, b), p)
        or is_cube(Fraction(-c, a), p)
        or is_cube(Fraction(-b, a), p)
    )


def has_real_point(cubic: DiagonalCubic) -> bool:
    """Always true: an odd-degree form represents zero over R."""
    return True


def _normalised(cubic: DiagonalCubic, p) -> DiagonalCubic:
    """The cubic with coefficient valuations in {0, 1, 2} and least 0.

    Rescaling a variable by p^(v // 3) and dividing the form by a power of
    p are isomorphisms over Q_p, so the two cubics have the same points.
    """
    splits = [valuation_split(coef, p) for coef in (cubic.a, cubic.b, cubic.c)]
    low = min(v % 3 for v, _ in splits)
    return DiagonalCubic(*(p ** (v % 3 - low) * u for v, u in splits))


# x^3 mod 27 depends only on x mod 9, since (x + 9t)^3 = x^3 mod 27
_CUBES_MOD_27 = np.arange(9) ** 3 % 27
_UNIT_MOD_9 = np.arange(9) % 3 != 0
_PRIMITIVE_MOD_9 = _UNIT_MOD_9[:, None, None] | _UNIT_MOD_9[:, None] | _UNIT_MOD_9  # x, y, z


def has_local_point(cubic: DiagonalCubic, p) -> bool:
    """Whether the cubic has a Q_p-point; exact for every prime p.

    p != 3: on the normalised cubic with all coefficients units the
    reduction is a smooth plane cubic, which has an F_p-point by
    Hasse-Weil, and smoothness lifts it.  Otherwise two terms of a point
    share the least valuation and minus their ratio is a 1-unit, hence a
    cube, so a point exists exactly when a coordinate section has one.

    p = 3: the normalised cubic has a Q_3-point iff it has a primitive zero
    mod 27, that is x, y, z mod 9, not all divisible by 3, with
    ax^3 + by^3 + cz^3 = 0 mod 27.  A point gives one (scale it to a
    primitive 3-adic triple).  For the converse:

    1. Both predicates are unchanged if the coefficients are permuted, or
       one coefficient is multiplied by w^3 for a 3-adic unit w: the
       substitution x -> w x maps points to points and primitive zeros
       mod 27 to primitive zeros mod 27.
    2. A 3-adic unit is a cube iff it is +-1 mod 9 (_unit_class).  So a
       normalised coefficient 3^v u may be replaced by 3^v r, with r in
       {1, 2, 4} and r = +-u mod 9, since u / r is then a cube.
    3. Both predicates are therefore functions of the 19 * 27 = 513
       classes: v in {0, 1, 2}^3 with least entry 0, and r in {1, 2, 4}^3.
       On one cubic of each class, a search of the primitive roots mod
       3^7 with Hensel certificates (tests/cubic_oracle.py) finds either
       a root whose partials have valuation j with 2j < 7, which lifts
       to a point, or no primitive root at all; its verdict equals the
       mod-27 test on all 513 (tests/test_local_cubic.py,
       test_has_local_point_at_3_on_every_class).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    normal = _normalised(cubic, p)
    if p != 3:
        return normal.a * normal.b * normal.c % p != 0 or coordinate_section_point(normal, p)
    x3, y3, z3 = (coef % 27 * _CUBES_MOD_27 for coef in (normal.a, normal.b, normal.c))
    zero = (x3[:, None, None] + y3[:, None] + z3) % 27 == 0
    return bool(zero[_PRIMITIVE_MOD_9].any())


# ---------------------------------------------------------------------------
# the worked example: Selmer's cubic and the Jacobian X^3 + Y^3 + 60 Z^3


def selmer_example_report() -> dict:
    """Every computable ingredient of the Selmer-curve example, plus the
    cited conclusions it feeds, each step tagged computed or cited."""
    from .datasets import SELMER_COMPANIONS, SELMER_CUBIC

    s = DiagonalCubic(*SELMER_CUBIC)
    companions = {name: DiagonalCubic(*coeffs) for name, coeffs in SELMER_COMPANIONS.items()}
    sections = {"S": coordinate_section_point(s, 3)}
    for name, cubic in companions.items():
        sections[name] = coordinate_section_point(cubic, 3)
    local_points = {}
    for p in primes_up_to(100):
        local_points[p] = has_local_point(s, p)
    steps = [
        {
            "tag": "computed",
            "name": "cube-classes-at-3",
            "detail": {
                "is_cube(10, 3)": is_cube(10, 3),
                "order of Q_3*/(Q_3*)^3": cube_class_group_order(3),
            },
        },
        {
            "tag": "computed",
            "name": "coordinate-sections-at-3",
            "detail": {name: sections[name] for name in ("S", "S'", "S''", "S'''")},
        },
        {
            "tag": "computed",
            "name": "everywhere-local-solvability-of-S",
            "detail": {
                "real": has_real_point(s),
                "p <= 100": all(local_points.values()),
            },
        },
        {
            "tag": "computed",
            "name": "jacobian-torsion-vanishing-inputs",
            "detail": {
                "is_cube(60, 2)": is_cube(60, 2),
                "is_cube(60, 5)": is_cube(60, 5),
                "has_zeta3(2)": has_zeta3(2),
                "has_zeta3(5)": has_zeta3(5),
            },
        },
        {
            "tag": "cited",
            "name": "sha-structure",
            "statement": "Sha of the Jacobian over Q is Z/3 x Z/3, with S, S', S'', S''' "
            "representing the nontrivial classes up to inversion",
        },
        {
            "tag": "cited",
            "name": "selmer-order-count",
            "statement": "the 3-relaxed Selmer groups have order 3^(n+1) at level 3^n",
        },
        {
            "tag": "cited",
            "name": "divisible-intersection-generator",
            "statement": "the class of the Selmer cubic generates the intersection of "
            "Sha with the maximal divisible subgroup of the Weil-Chatelet group",
        },
        {
            "tag": "cited",
            "name": "pairing-antisymmetry",
            "statement": "the Bockstein pairing against the compactly supported class of S "
            "vanishes by antisymmetry of the Weil pairing",
        },
    ]
    return {
        "curve": str(s),
        "jacobian": "X^3 + Y^3 + 60Z^3 = 0, Weierstrass model y^2 = x^3 - 1555200",
        "steps": steps,
        "derived": {
            "only [S] survives the trivial-at-3 condition": sections["S"]
            and not any(sections[n] for n in ("S'", "S''", "S'''")),
            "local points of S at all p <= 100": all(local_points.values()),
        },
    }
