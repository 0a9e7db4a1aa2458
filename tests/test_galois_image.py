import math

import numpy as np
import pytest

from character_oracle import cube_roots_of_eps
from shadiv.arith import primes_up_to
from shadiv.elliptic import curve, frobenius_traces, quadratic_twist, trace_at
from shadiv.galois_image import (
    Consistent,
    CyclotomicPair,
    RefutedAt,
    cyclotomic_pair_candidates,
    exceeds_sqrt_sum_square,
    minimal_admissible_prime,
    nv3_bad_sets,
    nv3_conclusion_threshold,
    nv_sieve_bound,
    passes_torsion_bound,
    passes_uniform_degree_bound,
    shape_values,
    test_cyclotomic_pair,
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cube_roots_of_eps_are_eps_to_the_x(p):
    # the characters valued in F_p* form a group of exponent dividing
    # p - 1 on every modulus, so chi^3 = eps has the one solution eps^x
    # (3x = 1 mod p - 1) when 3 does not divide p - 1, and none otherwise;
    # the oracle finds the characters by brute force on every m < 1200
    # with p | m
    x = pow(3, -1, p - 1) if (p - 1) % 3 else None
    for m in range(p, 1200, p):
        units = [n for n in range(1, m) if math.gcd(n, m) == 1]
        expected = [] if x is None else [{n: pow(n, x, p) for n in units}]
        assert cube_roots_of_eps(m, p) == expected, m


def test_shape_values_read_either_pair_form():
    # a CyclotomicPair unpacks as the tuple (a, b) it equals
    ells = np.array(primes_up_to(200))
    for p in (3, 5, 7, 11, 13):
        for c in cyclotomic_pair_candidates(p):
            assert c == (c.a, c.b)
            expected = [(pow(ell, c.a, p) + pow(ell, c.b, p)) % p for ell in ells.tolist()]
            assert shape_values(ells, p, c).tolist() == shape_values(ells, p, (c.a, c.b)).tolist() == expected


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


def hasse_window_holds(n, a):
    """(N - sqrt(N))^2 <= N + N^2 + 3Na - a^3 <= (N + sqrt(N))^2, exactly.

    Clearing radicals, both inequalities together say (3Na - a^3)^2 <= 4N^3.
    """
    return (3 * n * a - a ** 3) ** 2 <= 4 * n ** 3


def test_hasse_window_holds_everywhere():
    # the acceptance check sweeps every N <= 10^4
    for n in list(range(2, 501)) + [9999]:
        for a in range(-math.isqrt(4 * n), math.isqrt(4 * n) + 1):
            assert hasse_window_holds(n, a)
    # outside the Hasse range the inequality can fail, so the window matters
    assert not hasse_window_holds(4, 100)
