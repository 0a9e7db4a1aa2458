import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadiv.elliptic import curve, frobenius_traces, quadratic_twist, trace_at
from shadiv.errors import BudgetExceeded
from shadiv.galois_image import (
    Consistent,
    CyclotomicPair,
    RefutedAt,
    chi_cubed_equals_epsilon,
    cyclotomic_pair_candidates,
    default_character_modulus,
    dirichlet_pair_scan,
    enumerate_characters,
    exceeds_sqrt_sum_square,
    hasse_window_holds,
    hasse_window_sweep,
    minimal_admissible_prime,
    nv3_bad_sets,
    nv3_conclusion_threshold,
    nv_sieve_bound,
    passes_torsion_bound,
    passes_uniform_degree_bound,
    test_cyclotomic_pair,
    unit_group_generators,
)

CURVE_121 = {
    "121-B1": ((0, -1, 1, -7, 10), (3, 8)),
    "121-C1": ((1, 1, 0, -2, -7), (4, 7)),
    "121-C2": ((1, 1, 0, -3632, 82757), (4, 7)),
}


def test_candidates_satisfy_determinant_congruence():
    for p in (3, 5, 7, 11, 13):
        pairs = cyclotomic_pair_candidates(p)
        assert len(pairs) == (p - 1) // 2
        for c in pairs:
            assert c.a <= c.b
            assert (c.a + c.b) % (p - 1) == 1 % (p - 1)
        assert len(set(pairs)) == len(pairs)


def test_candidates_p11_explicit():
    assert [(c.a, c.b) for c in cyclotomic_pair_candidates(11)] == [
        (0, 1),
        (2, 9),
        (3, 8),
        (4, 7),
        (5, 6),
    ]


def test_reference_row_p11():
    row = [(pow(2, a, 11) + pow(2, b, 11)) % 11 for a, b in ((0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6))]
    signed = [v - 11 if v > 5 else v for v in row]
    assert signed == [3, 3, -1, 0, 1, -3]


def test_unique_consistent_pair_per_121_curve():
    for label, (ainvs, expected) in CURVE_121.items():
        fd = frobenius_traces(curve(ainvs, label=label), 1000)
        consistent = [
            (c.a, c.b)
            for c in cyclotomic_pair_candidates(11)
            if isinstance(test_cyclotomic_pair(fd, 11, c), Consistent)
        ]
        assert consistent == [expected], label


def test_refutation_witness_replays():
    fd = frobenius_traces(curve((0, -1, 1, -7, 10)), 100)
    verdict = test_cyclotomic_pair(fd, 11, CyclotomicPair(0, 1))
    assert isinstance(verdict, RefutedAt)
    assert verdict.rigorous
    # replay: recompute the trace and the expected residue
    a_ell = trace_at(curve((0, -1, 1, -7, 10)), verdict.ell)
    assert a_ell == verdict.observed
    assert (pow(verdict.ell, 0, 11) + pow(verdict.ell, 1, 11)) % 11 == verdict.expected
    assert a_ell % 11 != verdict.expected


def test_consistent_is_labeled_heuristic():
    fd = frobenius_traces(curve((1, 1, 0, -2, -7)), 1000)
    verdict = test_cyclotomic_pair(fd, 11, CyclotomicPair(4, 7))
    assert isinstance(verdict, Consistent)
    assert not verdict.rigorous
    assert len(verdict.checked_primes) > 100


def test_chi_cubed_solutions():
    assert chi_cubed_equals_epsilon(5).exponent == 3
    assert chi_cubed_equals_epsilon(7).exponent is None
    assert chi_cubed_equals_epsilon(7).needs_noncyclotomic_scan
    assert chi_cubed_equals_epsilon(11).exponent == 7
    assert chi_cubed_equals_epsilon(13).exponent is None


def test_unit_group_generators():
    for m in (5, 8, 12, 45, 77, 120):
        gens = unit_group_generators(m)
        total = 1
        for g, order in gens:
            assert math.gcd(g, m) == 1
            assert pow(g, order, m) == 1
            total *= order
        phi = 1
        q = 2
        mm = m
        while mm > 1:
            if mm % q == 0:
                e = 0
                while mm % q == 0:
                    mm //= q
                    e += 1
                phi *= (q - 1) * q ** (e - 1)
            q += 1
        assert total == phi


def test_enumerate_characters_count_and_multiplicativity():
    chars = enumerate_characters(11, 5)
    # hom((Z/11)*, F_5*) has gcd(10, 4) = 2 elements
    assert len(chars) == 2
    for chi in chars:
        for a in (2, 3, 7):
            for b in (2, 5, 8):
                assert chi(a * b % 11) == chi(a) * chi(b) % 5


def test_characters_mod_15_are_homomorphisms():
    # (Z/15)* = Z/2 x Z/4, whose factor orders share the factor 2
    chars = enumerate_characters(15, 5)
    assert len(chars) == 8
    units = [a for a in range(1, 15) if math.gcd(a, 15) == 1]
    tables = set()
    for chi in chars:
        for (g, _), v in zip(chi.generators, chi.values):
            assert chi(g) == v
        for a in units:
            for b in units:
                assert chi(a * b) == chi(a) * chi(b) % 5
        tables.add(tuple(chi(a) for a in units))
    assert len(tables) == 8


COMPOSITE_MODULI = [m for m in range(4, 400) if any(m % q == 0 for q in range(2, math.isqrt(m) + 1))]


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from(COMPOSITE_MODULI),
    p=st.sampled_from([3, 5, 7, 11, 13]),
    pick=st.integers(min_value=0),
    a=st.integers(min_value=1, max_value=10 ** 6),
    b=st.integers(min_value=1, max_value=10 ** 6),
)
def test_dirichlet_characters_are_multiplicative(m, p, pick, a, b):
    assume(math.gcd(a * b, m) == 1)
    chars = enumerate_characters(m, p)
    chi = chars[pick % len(chars)]
    assert chi(a * b) == chi(a) * chi(b) % p
    for (g, _), v in zip(chi.generators, chi.values):
        assert chi(g) == v


def test_dirichlet_scan_chi_chi_squared():
    e = curve((0, -1, 1, 0, 0))
    fd = frobenius_traces(e, 300)
    # p = 7: chi^3 = eps_7 has no solution among characters valued in F_7*
    assert dirichlet_pair_scan(fd, 7, 7 * 11) == []
    # p = 5, modulus 5: the only character with chi^3 = eps is eps^3
    chars = enumerate_characters(5, 5)
    cube_roots = [
        c
        for c in chars
        if all(pow(v, 3, 5) == g % 5 for (g, _), v in zip(c.generators, c.values))
    ]
    assert len(cube_roots) == 1
    gen = cube_roots[0].generators[0][0]
    assert cube_roots[0].values[0] == pow(gen, 3, 5)


def test_dirichlet_scan_needs_p_in_modulus():
    e = curve((0, -1, 1, 0, 0))
    fd = frobenius_traces(e, 100)
    with pytest.raises(ValueError):
        dirichlet_pair_scan(fd, 5, 11)


def test_character_budget():
    with pytest.raises(BudgetExceeded):
        # modulus with massive unit group against a large p
        enumerate_characters(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 9241)


def test_twist_coherence_of_consistent_pairs():
    # (E^tau)_p = E_p tensor tau: twisting by the quadratic character mod p
    # shifts both exponents by (p-1)/2
    e = curve((0, -1, 1, 0, 0), label="11a3")  # rational 5-torsion
    p = 5
    fd = frobenius_traces(e, 500)
    assert isinstance(test_cyclotomic_pair(fd, p, CyclotomicPair(0, 1)), Consistent)
    # 1 + eps holds at 5 but not at 7
    assert isinstance(test_cyclotomic_pair(fd, 7, CyclotomicPair(0, 1)), RefutedAt)
    tw = quadratic_twist(e, 5)  # chi_5 = eps_5^2 (the quadratic character mod 5)
    fd_tw = frobenius_traces(tw, 500)
    shifted = ((0 + 2) % 4, (1 + 2) % 4)
    assert isinstance(test_cyclotomic_pair(fd_tw, p, CyclotomicPair(*shifted)), Consistent)


def test_nv_sieve_threshold():
    t3 = nv_sieve_bound(3)
    assert not t3.admits(19) and not t3.admits(22) and t3.admits(23)
    assert abs((3 + math.sqrt(3)) ** 2 - 22.392) < 0.001
    t2 = nv_sieve_bound(2)
    assert not t2.admits(11) and t2.admits(13)
    # cross-check: d = 1 uniform bound is the same number as Nv = 2
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert t2.admits(p) == passes_uniform_degree_bound(p, 1)


def test_exact_sqrt_comparison_edge():
    # (sqrt(4) + sqrt(9))^2 = 25 exactly: 25 must fail, 26 must pass
    assert not exceeds_sqrt_sum_square(25, 4, 9)
    assert exceeds_sqrt_sum_square(26, 4, 9)


def test_nv3_sets_and_threshold():
    set_a, set_b = nv3_bad_sets()
    assert set_a == (1, 2, 3, 4, 5, 6, 7)
    assert set_b == (12, 2, 4, 12, 20, 22, 12)
    assert nv3_conclusion_threshold() == 11


def test_uniform_bound_minimal_primes():
    minimal = {
        d: minimal_admissible_prime(lambda q, d=d: passes_uniform_degree_bound(q, d))
        for d in range(1, 6)
    }
    assert minimal == {1: 13, 2: 37, 3: 127, 4: 401, 5: 1423}


def test_torsion_bound_examples():
    assert not passes_torsion_bound(7, 2)  # (1+3)^2 = 16 > 7
    assert passes_torsion_bound(17, 2)
    assert passes_torsion_bound(11, 1)  # (1+sqrt3)^2 < 11


def test_hasse_window_holds_everywhere():
    for n in (2, 3, 10, 100, 9999):
        for a in range(-math.isqrt(4 * n), math.isqrt(4 * n) + 1):
            assert hasse_window_holds(n, a)
    assert hasse_window_sweep(500) == []
    # outside the Hasse range the inequality can fail, so the window matters
    assert not hasse_window_holds(4, 100)


def test_default_character_modulus_with_factors_near_1e9():
    # Delta = -2^4 3^3 (p q)^2 for y^2 = x^3 + p q; trial division would run to q
    p, q = 1000000007, 998244353
    e = curve((0, 0, 0, 0, p * q))
    t0 = time.monotonic()
    modulus = default_character_modulus(e, 5)
    elapsed = time.monotonic() - t0
    assert modulus == 2 * 3 * p * q * 5
    assert elapsed < 1
