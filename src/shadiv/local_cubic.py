"""p-adic solvability of diagonal plane cubics and cube classes in Q_p*.

Covers exactly what the worked Selmer-curve example needs: cube class
computations in Q_p*/(Q_p*)^3, coordinate-section point tests, and an
exact decision of local solvability: a cube class test for p != 3 and a
search for primitive roots mod 3^k with Hensel certification at p = 3.
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


def _certified_root(cubic: DiagonalCubic, p, k):
    """Search the primitive roots mod p^k of the cubic, one per unit multiple.

    Scaling by a unit keeps a primitive root a root and keeps the
    valuations of its partial derivatives, so it is enough to search the
    triples whose first unit coordinate is 1: the charts (1, y, z),
    (p*, 1, z) and (p*, p*, 1).  In each, one coordinate runs over its
    residues mod p^k and the last is read from a table of the least
    valuation of a solution t of coef * t^3 = r for each residue r: p^k +
    2p^(k-1) candidates, where a sweep of all triples takes p^(2k).

    Returns (certificate, roots): (x, y, z, j) for a primitive root mod
    p^k whose partials have least valuation j with 2j < k, or None; and
    whether any primitive root mod p^k exists.
    """
    pk = p ** k
    res = np.arange(pk, dtype=np.int64)
    cubes = res * res % pk * res % pk
    val = np.zeros(pk, dtype=np.int64)  # v_p of each residue, k for 0
    for e in range(1, k):
        val[:: p ** e] += 1
    val[0] = k
    coeffs = [coef % pk for coef in (cubic.a, cubic.b, cubic.c)]
    v3 = [valuation_split(3 * coef, p)[0] for coef in (cubic.a, cubic.b, cubic.c)]
    mult = res[::p]

    def least_valuations(coef, ts):
        """For each residue r, the least v_p(t) over t in ts with coef t^3 = r; k + 1 if none."""
        least = np.full(pk, k + 1, dtype=np.int64)
        np.minimum.at(least, coef * cubes[ts] % pk, val[ts])
        return least

    z_any, y_mult = least_valuations(coeffs[2], res), least_valuations(coeffs[1], mult)
    roots = False
    # (fixed, free, solved): the coordinate set to 1, the one that runs
    # over its residues and the one read from its table
    for fixed, (free, frees), (solved, solveds, table) in (
        (0, (1, res), (2, res, z_any)),
        (1, (0, mult), (2, res, z_any)),
        (2, (0, mult), (1, mult, y_mult)),
    ):
        r = (-coeffs[fixed] - coeffs[free] * cubes[frees]) % pk
        v = table[r]
        solvable = v <= k
        roots = roots or bool(solvable.any())
        j = np.minimum(np.minimum(v3[fixed], v3[free] + 2 * val[frees]), v3[solved] + 2 * v)
        hit = np.flatnonzero(solvable & (2 * j < k))
        if len(hit):
            i = hit[0]
            t = solveds[(coeffs[solved] * cubes[solveds] % pk == r[i]) & (val[solveds] == v[i])][0]
            point = [0, 0, 0]
            point[fixed], point[free], point[solved] = 1, int(frees[i]), int(t)
            return (*point, int(j[i])), True
    return None, roots


def _normalised(cubic: DiagonalCubic, p) -> DiagonalCubic:
    """The cubic with coefficient valuations in {0, 1, 2} and least 0.

    Rescaling a variable by p^(v // 3) and dividing the form by a power of
    p are isomorphisms over Q_p, so the two cubics have the same points.
    """
    splits = [valuation_split(coef, p) for coef in (cubic.a, cubic.b, cubic.c)]
    low = min(v % 3 for v, _ in splits)
    return DiagonalCubic(*(p ** (v % 3 - low) * u for v, u in splits))


def has_local_point(cubic: DiagonalCubic, p) -> bool:
    """Whether the cubic has a Q_p-point; exact for every prime p.

    On the normalised cubic a point has a unit coordinate, where some
    partial derivative has valuation j <= v_p(3) + 2.

    p != 3: with all coefficients units the reduction is a smooth plane
    cubic, which has an F_p-point by Hasse-Weil, and smoothness lifts it.
    Otherwise two terms of a point share the least valuation and minus
    their ratio is a 1-unit, hence a cube, so a point exists exactly when
    a coordinate section has one.

    p = 3: search primitive roots mod 3^k (_certified_root) for k = 3, 5,
    7.  A root whose partials have valuation j with 2j < k certifies a
    point; no primitive root at all refutes one.  Both answers are
    rigorous at every k, and at k = 7 (j <= 3) every root is certified.
    An even k certifies no j that k - 1 does not, so it is skipped.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    normal = _normalised(cubic, p)
    if p != 3:
        return normal.a * normal.b * normal.c % p != 0 or coordinate_section_point(normal, p)
    for k in (3, 5):
        certificate, roots = _certified_root(normal, 3, k)
        if certificate is not None or not roots:
            return certificate is not None
    return _certified_root(normal, 3, 7)[1]


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
