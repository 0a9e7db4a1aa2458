"""The benchmark's oracles against textbook values and SymPy.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import random
from fractions import Fraction

import pytest

import oracles

sympy = pytest.importorskip("sympy")
from sympy.ntheory.elliptic_curve import EllipticCurve  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

U = ((1, 1), (0, 1))
L = ((1, 0), (1, 1))


# -- closure


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closure_orders_of_gl2_sl2_borel(p):
    w = int(sympy.primitive_root(p))
    d1, d2 = ((w, 0), (0, 1)), ((1, 0), (0, w))
    assert len(oracles.closure([d1, d2, U, L], p)) == (p * p - 1) * (p * p - p)
    assert len(oracles.closure([U, L], p)) == p * (p * p - 1)
    assert len(oracles.closure([d1, d2, U], p)) == (p - 1) ** 2 * p


def test_closure_is_a_group():
    p = 5
    g = oracles.closure([((2, 1), (0, 3)), ((0, 1), (1, 0))], p)
    for x in g:
        assert oracles.mat_inv(x, p) in g
        for y in g:
            assert oracles.mat_mul(x, y, p) in g


# -- point counts

CURVES = {
    "121-B1": (0, -1, 1, -7, 10),
    "121-C1": (1, 1, 0, -2, -7),
    "y2=x3+x": (0, 0, 0, 1, 0),
    "tate-5": (-2, -3, -3, 0, 0),
}


def test_121b1_has_a2_zero():
    assert oracles.trace(CURVES["121-B1"], 2) == 0


@pytest.mark.parametrize("label", sorted(CURVES))
def test_point_counts_match_sympy(label):
    ainvs = CURVES[label]
    for ell in oracles.good_primes(ainvs, 150, exclude=(2, 3)):
        n = oracles.point_count(ainvs, ell)
        a1, a2, a3, a4, a6 = ainvs
        affine = EllipticCurve(a4, a6, a1, a2, a3, modulus=ell).order  # SymPy counts affine points
        assert n == affine + 1
        assert (ell + 1 - n) ** 2 <= 4 * ell


def test_cm_curve_is_supersingular_at_3_mod_4():
    for ell in oracles.good_primes(CURVES["y2=x3+x"], 300):
        if ell % 4 == 3:
            assert oracles.trace(CURVES["y2=x3+x"], ell) == 0


def test_rational_5_torsion_makes_counts_divisible_by_5():
    for ell in oracles.good_primes(CURVES["tate-5"], 300, exclude=(5,)):
        assert oracles.point_count(CURVES["tate-5"], ell) % 5 == 0


def test_discriminant_and_primes():
    assert oracles.discriminant(CURVES["121-B1"]) == -1331  # -11^3
    assert oracles.primes_up_to(10 ** 4) == list(sympy.primerange(2, 10 ** 4 + 1))


# -- fundamental discriminants


def test_squarefree_flags_match_factorint():
    flags = oracles.squarefree_flags(3000)
    for m in range(1, 3001):
        assert flags[m] == all(e == 1 for e in sympy.factorint(m).values())


def test_fundamental_discriminants_small_and_full_range():
    assert [d for d in oracles.fundamental_discriminants(20)] == sorted(
        [1, -3, -4, 5, -7, -8, 8, -11, 12, 13, -15, 17, -19, -20]
    )

    def squarefree(m):
        return all(e == 1 for e in sympy.factorint(abs(m)).values())

    expected = [
        d
        for d in range(-10 ** 4, 10 ** 4 + 1)
        if d == 1
        or (d not in (0, 1) and d % 4 == 1 and squarefree(d))
        or (d % 4 == 0 and d != 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4))
    ]
    assert oracles.fundamental_discriminants(10 ** 4) == expected


# -- linear algebra and H^1


def test_rank_matches_sympy():
    rng = random.Random(0)
    for p in (3, 5, 7):
        for _ in range(20):
            rows = [[rng.randrange(p) * rng.randrange(2) for _ in range(6)] for _ in range(rng.randint(1, 8))]
            dm = DomainMatrix([[sympy.GF(p)(x) for x in r] for r in rows], (len(rows), 6), sympy.GF(p))
            assert oracles.rank_mod_p(rows, p) == dm.rank()


def _cyclic_h1(gen_action, order, n, p):
    """H^1 of a cyclic group: dim ker N - dim (g - 1)M, with N the norm map."""
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    norm = [[0] * n for _ in range(n)]
    for _ in range(order):
        norm = [[(norm[i][j] + power[i][j]) % p for j in range(n)] for i in range(n)]
        power = [[sum(power[i][k] * gen_action[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    shifted = [[(gen_action[i][j] - (i == j)) % p for j in range(n)] for i in range(n)]
    return (n - oracles.rank_mod_p(norm, p)) - oracles.rank_mod_p(shifted, p)


def _group(gens, p):
    elements = sorted(oracles.closure(gens, p))
    return elements, lambda x, y: oracles.mat_mul(x, y, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_of_unipotent_group(p):
    elements, mul = _group([U], p)
    trivial = oracles.h1_dim(elements, [U], mul, lambda g: [[1]], 1, p)
    assert trivial == 1  # Hom(C_p, F_p)
    adjoint = oracles.adjoint_action(p)
    assert oracles.h1_dim(elements, [U], mul, oracles.standard_action, 2, p) == 1
    assert oracles.h1_dim(elements, [U], mul, adjoint, 4, p) == _cyclic_h1(adjoint(U), p, 4, p)
    assert oracles.fixed_dim([oracles.standard_action(U)], 2, p) == 1


def test_h1_vanishes_for_order_prime_to_p():
    p = 7
    gens = [((3, 0), (0, 1)), ((0, 1), (1, 0))]  # monomial matrices, order 72
    elements, mul = _group(gens, p)
    assert len(elements) % p
    for act, n in ((oracles.standard_action, 2), (oracles.adjoint_action(p), 4)):
        assert oracles.h1_dim(elements, gens, mul, act, n, p) == 0


# -- diagonal cubics


def test_norm_form_of_cube_root_of_2_has_no_3_adic_point():
    assert not oracles.has_primitive_solution_mod(1, 2, 4, 3, 2)
    assert oracles.certified_point(1, 2, 4, 3) is None


def test_7_adic_points_follow_cubes_mod_7():
    assert not oracles.has_primitive_solution_mod(1, 2, 7, 7, 2)  # -2 is no cube mod 7
    assert oracles.certified_point(1, 6, 7, 7) is not None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_selmer_cubic_has_certified_points(p):
    x, y, z, j = oracles.certified_point(3, 4, 5, p)
    m = 2 * j + 1
    assert (3 * x ** 3 + 4 * y ** 3 + 5 * z ** 3) % p ** m == 0
    assert x % p or y % p or z % p


def test_3_adic_cubes():
    for u in range(1, 200):
        if u % 3:
            assert oracles.is_cube_3adic(Fraction(u)) == any(x ** 3 % 27 == u % 27 for x in range(27))
    assert oracles.is_cube_3adic(Fraction(27 * 10, 8))
    assert not oracles.is_cube_3adic(Fraction(3))


def test_selmer_sections_at_3():
    assert [oracles.section_point_at_3(*c) for c in ((3, 4, 5), (1, 5, 12), (1, 4, 15), (1, 3, 20))] == [
        True,
        False,
        False,
        False,
    ]
