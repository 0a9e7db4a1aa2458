"""Semisimplification analysis of the mod-p torsion module from Frobenius traces.

Trace congruences can refute a candidate decomposition rigorously but can
only ever certify consistency up to the trace bound; verdict records keep
that asymmetry explicit.  All threshold comparisons are exact integer
arithmetic (radicals cleared by squaring), never floating point.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize, is_prime, prime_factors
from .errors import BudgetExceeded

DIRICHLET_BUDGET = 10 ** 5


# ---------------------------------------------------------------------------
# hypothesis and verdict records


@dataclass(frozen=True)
class CyclotomicPair:
    """E_p^ss = eps^a + eps^b with a + b = 1 mod (p-1), normalized a <= b."""

    a: int
    b: int


@dataclass(frozen=True)
class DirichletPairHypothesis:
    """A character chi mod `modulus` with chi^3 = eps and a_ell = chi(ell) + chi(ell)^2 mod p at the checked primes."""

    modulus: int
    character: tuple  # generator values in F_p*
    checked_primes: tuple


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
    predicts at ell != p.  Elementwise on a numpy int64 array of primes,
    exact while (p - 1)^(p - 2) fits int64, so for p <= 17."""
    a, b = (pair.a, pair.b) if isinstance(pair, CyclotomicPair) else pair
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


@dataclass(frozen=True)
class ChiCubedSolution:
    """Solvability of chi^3 = eps_p inside the cyclotomic character group.

    exponent is x with 3x = 1 mod (p-1) when 3 is invertible mod p-1;
    otherwise None, with needs_noncyclotomic_scan flagging that a cube
    root, if any, would have to come from a larger character group.
    """

    p: int
    exponent: int
    needs_noncyclotomic_scan: bool


def chi_cubed_equals_epsilon(p) -> ChiCubedSolution:
    if math.gcd(3, p - 1) == 1:
        return ChiCubedSolution(p, pow(3, -1, p - 1), False)
    return ChiCubedSolution(p, None, True)


# ---------------------------------------------------------------------------
# Dirichlet characters with values in F_p*


def _primitive_root(q, e=1):
    m = q ** e
    order = (q - 1) * q ** (e - 1)
    factors = prime_factors(order)
    for g in range(2, m):
        if math.gcd(g, m) == 1 and all(pow(g, order // f, m) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {m}")


@lru_cache(maxsize=None)
def _unit_group(m):
    """(Z/m)* by prime-power factor: (q, q^e, ((local generator mod q^e, order), ...)).

    The factor at 2^e, e >= 3, is <-1> x <5>; every other factor is cyclic.
    """
    factors = []
    for q, e in sorted(factorize(m).items()):
        qe = q ** e
        if q != 2:
            local = ((_primitive_root(q, e), (q - 1) * q ** (e - 1)),)
        elif e == 1:
            local = ()
        elif e == 2:
            local = ((3, 2),)
        else:
            local = ((qe - 1, 2), (5, 2 ** (e - 2)))
        factors.append((q, qe, local))
    return tuple(factors)


def unit_group_generators(m):
    """Cyclic decomposition of (Z/m)*: list of (generator mod m, order).

    Each generator is its local generator at one prime power q^e || m,
    lifted by CRT to 1 at the others.
    """
    return [
        (_crt(g, qe, 1, m // qe), order)
        for _, qe, local in _unit_group(m)
        for g, order in local
    ]


def _crt(r1, m1, r2, m2):
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


@dataclass(frozen=True)
class DirichletCharacterFp:
    """Character (Z/modulus)* -> F_p* given by its values on generators."""

    modulus: int
    p: int
    generators: tuple  # (lifted generator, order)
    values: tuple

    def __call__(self, n):
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            raise ValueError(f"{n} is not a unit mod {self.modulus}")
        result = 1
        for k, v in zip(_unit_exponents(n, self.modulus, self.p - 1), self.values):
            result = result * pow(v, k, self.p) % self.p
        return result


def _unit_exponents(n, m, c):
    """Exponents of the unit n on unit_group_generators(m), each right
    modulo gcd(h, c) for its generator's order h.

    n mod q^e is a word in the local generators at q^e alone.  A character
    into F_p* sends a generator of order h to an element of order dividing
    gcd(h, p - 1), so with c = p - 1 these exponents determine its value.
    """
    exponents = []
    for q, qe, local in _unit_group(m):
        r = n % qe
        if q == 2 and len(local) == 2:  # r = (-1)^s 5^k mod 2^e
            s = 0 if r % 4 == 1 else 1
            g, order = local[1]
            exponents += [s, _dlog(r if s == 0 else qe - r, g, order, qe, c)]
        else:
            for g, order in local:
                exponents.append(_dlog(r, g, order, qe, c))
    return exponents


def _dlog(x, g, order, m, c):
    """k mod gcd(order, c) for x = g^k mod m, g of the given order mod m.

    Raising to order / gcd(order, c) maps <g> onto its subgroup of order
    gcd(order, c) <= c, where a scan of at most c steps finds k.
    """
    h = math.gcd(order, c)
    base = pow(g, order // h, m)
    target = pow(x, order // h, m)
    cur = 1
    for k in range(h):
        if cur == target:
            return k
        cur = cur * base % m
    raise ValueError(f"{x} is not a power of {g} mod {m}")


def enumerate_characters(m, p):
    """All characters (Z/m)* -> F_p*, deterministically ordered."""
    gens = tuple(unit_group_generators(m))
    counts = [math.gcd(order, p - 1) for _, order in gens]
    total = math.prod(counts) if counts else 1
    if total > DIRICHLET_BUDGET:
        raise BudgetExceeded(f"{total} characters exceeds budget {DIRICHLET_BUDGET}")
    root = _primitive_root(p) if p > 2 else 1
    value_choices = []
    for (_, order), g in zip(gens, counts):
        step = (p - 1) // g
        value_choices.append([pow(root, step * t, p) for t in range(g)])
    out = []
    idx = [0] * len(gens)
    while True:
        values = tuple(value_choices[i][idx[i]] for i in range(len(gens)))
        out.append(DirichletCharacterFp(m, p, gens, values))
        i = len(gens) - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] < counts[i]:
                break
            idx[i] = 0
            i -= 1
        if i < 0 or not gens:
            break
    return out


def dirichlet_pair_scan(fd, p, modulus):
    """Scan the shape chi + chi^2 against traces over characters mod `modulus`.

    Enumerates characters chi with chi^3 equal to the mod-p cyclotomic
    character on (Z/modulus)*, then tests a_ell = chi(ell) + chi(ell)^2
    mod p.  Requires p | modulus so the cyclotomic character is defined
    mod `modulus`.  (The shape 1 + eps is the cyclotomic pair (0, 1) of
    `test_cyclotomic_pair`.)
    """
    if modulus % p != 0:
        raise ValueError("chi^3 = eps scan needs p | modulus")
    found = []
    for chi in enumerate_characters(modulus, p):
        if any(
            pow(v, 3, p) != g % p for (g, _), v in zip(chi.generators, chi.values)
        ):
            continue
        checked = []
        consistent = True
        for ell, a_ell, good in fd.entries:
            if not good or ell == p or modulus % ell == 0 or math.gcd(ell, modulus) != 1:
                continue
            c = chi(ell)
            if a_ell % p != (c + c * c) % p:
                consistent = False
                break
            checked.append(ell)
        if consistent:
            found.append(
                DirichletPairHypothesis(modulus, chi.values, tuple(checked))
            )
    return found


def default_character_modulus(e, p):
    """rad(disc) * p: characters unramified outside the bad primes and p.

    Raises BudgetExceeded when the discriminant is not factored within
    arith.RHO_BUDGET.
    """
    rad = math.prod(prime_factors(abs(e.discriminant)))
    return rad * p if rad % p else rad


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


def hasse_window_holds(n, a):
    """(N - sqrt(N))^2 <= N + N^2 + 3Na - a^3 <= (N + sqrt(N))^2, exactly.

    Clearing radicals, both inequalities together say (3Na - a^3)^2 <= 4N^3.
    """
    return (3 * n * a - a ** 3) ** 2 <= 4 * n ** 3


def hasse_window_sweep(nmax):
    """All (N, a) violations with 2 <= N <= nmax, a^2 <= 4N; empty when sound."""
    import numpy as np

    violations = []
    for n in range(2, nmax + 1):
        amax = math.isqrt(4 * n)
        a = np.arange(-amax, amax + 1, dtype=np.int64)
        lhs = (3 * n * a - a ** 3) ** 2
        bad = np.nonzero(lhs > 4 * n ** 3)[0]
        for i in bad:
            violations.append((n, int(a[i])))
    return violations
