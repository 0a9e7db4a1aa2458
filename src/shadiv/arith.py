"""Exact integer arithmetic: primality, factoring, Legendre symbols,
valuations and prime and squarefree sieves.

Every integer decision the package takes is made here, once, in Python
integers (numpy booleans for the sieves); no floating point.
"""

import itertools
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import BudgetExceeded

# Miller-Rabin to the first 13 prime bases decides every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015);
# the bound itself is the least composite that passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin below 3.3 * 10^24, Baillie-PSW above.

    Above _MR_BOUND a strong Lucas test is added to the Miller-Rabin bases;
    that pair has no known counterexample.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, d = valuation_split(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with Selfridge's parameters P = 1, Q = (1 - D)/4, for odd n > 41."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s, d = valuation_split(n + 1, 2)
    half = lambda x: (x if x % 2 == 0 else x + n) // 2 % n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def legendre_symbol(a, p):
    """(a/p) for an odd prime p, by Euler's criterion: one modular power."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# Residues below this bound multiply inside int64: _INT64_SQRT^2 < 2^63.
_INT64_SQRT = 3037000499


def power_mods(base, exponent, modulus):
    """base^exponent mod modulus over numpy int64 arrays, row by row.

    Row i of base (broadcast to one row per entry of the 1-D arrays
    exponent and modulus) is raised to exponent[i] >= 0 modulo modulus[i].
    Square-and-multiply: one squaring per exponent bit, and one
    multiplication on the rows whose exponent has that bit set.  Residues
    stay below the modulus, so their products stay inside int64 for moduli
    below _INT64_SQRT; other moduli raise ValueError.
    """
    q = np.asarray(modulus, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    if q.size and not (q.min() > 0 and q.max() < _INT64_SQRT):
        raise ValueError("modular powers run in int64 for moduli from 1 to 3.04 * 10^9")
    q = q.reshape((-1,) + (1,) * (base.ndim - 1))
    base = base % q
    power = np.ones_like(base) % q
    e = np.array(exponent, dtype=np.int64)
    while e.any():
        rows = np.flatnonzero(e & 1)
        power[rows] = power[rows] * base[rows] % q[rows]
        e >>= 1
        base *= base
        base %= q
    return power


def legendre_symbols(a, primes):
    """int8 array t with t[i, j] = (a[j] / primes[i]), for odd primes below _INT64_SQRT.

    Euler's criterion, a^((q - 1)/2) mod q, by power_mods over the whole
    array.
    """
    q = np.asarray(primes, dtype=np.int64)
    if q.size and q.min() <= 2:
        raise ValueError("Euler's criterion needs odd primes")
    power = power_mods(np.asarray(a, dtype=np.int64).reshape(1, -1), (q - 1) // 2, q)
    return (power == 1).astype(np.int8) - (power > 1)


def valuation_split(n, p):
    """(v, u) with n = p^v * u and p not dividing u, for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@lru_cache(maxsize=None)
def primes_up_to(n):
    """The primes q <= n in ascending order, by the sieve of Eratosthenes."""
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return tuple(np.nonzero(sieve)[0].tolist())


def squarefree_sieve(n):
    """Boolean array s of length n + 1 with s[k] true iff k is squarefree (s[0] false)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for q in primes_up_to(isqrt(n)):
        flags[q * q :: q * q] = False
    return flags


def is_squarefree(d):
    """Whether the integer d is nonzero and no prime square divides it."""
    return d != 0 and all(e == 1 for e in factorize(abs(d)).values())


def prime_factors(n):
    """The distinct primes dividing n >= 1, ascending."""
    return sorted(factorize(n))


def factorize(n):
    """{prime: exponent} for n >= 1: primes below 100 by trial division,
    perfect squares by their square root, and every other composite
    cofactor split by Pollard-Brent rho down to is_prime.

    Raises BudgetExceeded when rho finds no factor within RHO_BUDGET steps.
    """
    out = {}
    for q in range(2, 100):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        root = isqrt(m)
        if root * root == m:
            stack += [root, root]
        elif is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return out


# Steps of x -> x^2 + c that _rho_factor may take on one cofactor.
RHO_BUDGET = 2 ** 23


def _rho_factor(n):
    """A proper factor of an odd composite n with no prime factor below 100.

    Brent's cycle search on x -> x^2 + c, products of 128 differences per
    gcd, retrying with the next c when the gcd comes out as n itself.  Each
    round is charged its 2r steps before it runs, and BudgetExceeded is
    raised before the total would pass RHO_BUDGET.

    Rho needs about the square root of the least prime factor of n.  On a
    2-CPU x86-64 machine, n = p q with p = 10^12 + 39, q = 3 * 10^12 + 13
    factors within 2.1 * 10^6 steps in 0.6 s, and the whole budget of
    8.4 * 10^6 steps (p, q near 10^15) runs out in 2.9 s.
    """
    budget = RHO_BUDGET
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise BudgetExceeded(f"no factor of {n} within {RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
