"""Semisimplification analysis of the mod-p torsion module from Frobenius traces.

Trace congruences can refute a candidate decomposition rigorously but can
only ever certify consistency up to the trace bound; verdict records keep
that asymmetry explicit.  All threshold comparisons are exact integer
arithmetic (radicals cleared by squaring), never floating point.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .arith import is_prime, prime_factors

# ---------------------------------------------------------------------------
# hypothesis and verdict records


class CyclotomicPair(NamedTuple):
    """E_p^ss = eps^a + eps^b with a + b = 1 mod (p-1), normalized a <= b."""

    a: int
    b: int


@dataclass(frozen=True)
class Consistent:
    checked_primes: tuple

    rigorous = False


@dataclass(frozen=True)
class RefutedAt:
    ell: int
    observed: int
    expected: int

    rigorous = True


def cyclotomic_pair_candidates(p):
    """All normalized exponent pairs (a, b), a <= b, with a + b = 1 mod (p-1)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    seen = []
    for a in range(p - 1):
        b = (1 - a) % (p - 1)
        pair = (a, b) if a <= b else (b, a)
        if pair not in seen:
            seen.append(pair)
    return [CyclotomicPair(a, b) for a, b in sorted(seen)]


def shape_values(ells, p, pair):
    """ell^a + ell^b mod p, the trace mod p that the shape eps^a (+) eps^b
    predicts at ell != p, for pair (a, b) a tuple or a CyclotomicPair.
    Elementwise on a numpy int64 array of primes, exact while
    (p - 1)^(p - 2) fits int64, so for p <= 17."""
    a, b = pair
    r = ells % p
    return (r ** a + r ** b) % p


def test_cyclotomic_pair(fd, p, pair):
    """Check a_ell = ell^a + ell^b mod p over the good primes ell != p.

    RefutedAt is a proof of exclusion; Consistent is one-sided evidence
    bounded by the traces available in fd.
    """
    checked = []
    for ell, a_ell, good in fd.entries:
        if not good or ell == p:
            continue
        expected = shape_values(ell, p, pair)
        if a_ell % p != expected:
            return RefutedAt(ell, a_ell, expected)
        checked.append(ell)
    return Consistent(tuple(checked))


test_cyclotomic_pair.__test__ = False  # not a pytest case despite the name


# ---------------------------------------------------------------------------
# exact threshold predicates


def exceeds_sqrt_sum_square(value, x, y):
    """value > (sqrt(x) + sqrt(y))^2, exactly, for nonnegative integers."""
    rem = value - x - y
    return rem > 0 and rem * rem > 4 * x * y


@dataclass(frozen=True)
class NvThreshold:
    """The bound (Nv + sqrt(Nv))^2 as an exact comparison predicate."""

    nv: int

    def admits(self, p):
        return exceeds_sqrt_sum_square(p, self.nv * self.nv, self.nv)


def nv_sieve_bound(nv) -> NvThreshold:
    if nv < 2:
        raise ValueError("residue field size must be at least 2")
    return NvThreshold(nv)


def passes_uniform_degree_bound(p, d):
    """p > (2^d + 2^(d/2))^2, exactly."""
    return exceeds_sqrt_sum_square(p, 4 ** d, 2 ** d)


def passes_torsion_bound(p, d):
    """p > (1 + 3^(d/2))^2, exactly."""
    return exceeds_sqrt_sum_square(p, 1, 3 ** d)


def minimal_admissible_prime(predicate, start=2, limit=10 ** 6):
    q = start
    while q <= limit:
        if is_prime(q) and predicate(q):
            return q
        q += 1
    raise ValueError("no admissible prime below limit")


def nv3_bad_sets():
    """The two obstruction value lists at a good place of norm 3.

    With |a| <= 3, shape 1 + eps forces p | 4 - a and shape chi + chi^2
    forces p | 12 + 9a - a^3; the returned tuples list those values, the
    second in ascending order of a as the proof tabulates them.
    """
    set_a = tuple(sorted(4 - a for a in range(-3, 4)))
    set_b = tuple(12 + 9 * a - a ** 3 for a in range(-3, 4))
    return set_a, set_b


def nv3_conclusion_threshold():
    """Largest prime dividing any obstruction value; p beyond it is safe."""
    set_a, set_b = nv3_bad_sets()
    return max(q for v in set_a + set_b for q in prime_factors(v))
