"""Elliptic curves over Q from a-invariants: point counts, traces, reduction.

Models are taken as supplied and never minimalized; good reduction at p is
decided by p not dividing the discriminant of the given model.  All
arithmetic is exact (python integers, numpy int64 for counting sweeps).
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import is_prime, is_squarefree, legendre_symbol, power_mods, primes_up_to
from .errors import BadReduction, InternalInconsistency, SingularCurve, UnsupportedPrime


@dataclass(frozen=True, slots=True)
class EllipticCurveQ:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    discriminant: int
    label: str = field(default=None, compare=False)  # a name, not part of the curve's identity

    @property
    def j(self):
        return Fraction(self.c4 ** 3, self.discriminant)

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __repr__(self):
        tag = f"{self.label}: " if self.label else ""
        return f"EllipticCurveQ({tag}{list(self.ainvs)})"


def derive_invariants(a1, a2, a3, a4, a6, label=None) -> EllipticCurveQ:
    """Standard Weierstrass quantities; raises SingularCurve when disc = 0."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularCurve(f"[{a1},{a2},{a3},{a4},{a6}] has discriminant zero")
    if 4 * b8 != b2 * b6 - b4 * b4 or 1728 * disc != c4 ** 3 - c6 * c6:
        raise InternalInconsistency(f"[{a1},{a2},{a3},{a4},{a6}]: the b- and c-invariants disagree")
    return EllipticCurveQ(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc, label)


def curve(ainvs, label=None):
    return derive_invariants(*ainvs, label=label)


# Primes at and above this are counted by Shanks-Mestre a column at a time
# (_column_traces), below it by the character sum.  On a 2-CPU machine the
# character sum takes 49 us per prime at ell = 10^3 and 71 us at 2000, the
# column's rounds 32 us per prime of the full column from 2003 and 38 us
# from 26003.  The constant stays above the default trace bound 10^3, so
# the default verdicts, the twist scans and one trace_at below it never
# pay for a column.
BSGS_MIN_ELL = 2000


def count_points(e: EllipticCurveQ, ell: int) -> int:
    """Projective point count #E(F_ell) at a prime ell <= TRACE_BOUND_MAX, exact.

    Below BSGS_MIN_ELL it is the quadratic character sum, O(ell) numpy
    work.  At and above it the count is read from _column_traces over the
    column of primes_up_to(TRACE_BOUND_MAX) that holds ell, one of the
    columns frobenius_traces counts: a cold call pays for the whole column
    (about 19 ms near 3 * 10^4 on a 2-CPU machine), a call on a column
    already counted only reads it.
    Raises UnsupportedPrime when ell is not a prime up to TRACE_BOUND_MAX
    (the column kernel's int64 range), BadReduction when ell divides the
    discriminant.
    """
    primes = primes_up_to(TRACE_BOUND_MAX)
    i = bisect_left(primes, ell)
    if i == len(primes) or primes[i] != ell:
        raise UnsupportedPrime(f"point counts are for primes up to {TRACE_BOUND_MAX}, not {ell}")
    if e.discriminant % ell == 0:
        raise BadReduction(f"{ell} divides the discriminant")
    if ell == 2:  # the affine points among the four of F_2^2, and O
        return 1 + sum((y * y + e.a1 * x * y + e.a3 * y - x ** 3 - e.a2 * x * x - e.a4 * x - e.a6) % 2 == 0
                       for x in range(2) for y in range(2))
    if ell < BSGS_MIN_ELL:
        return _character_sum_count(e, ell)
    start = i - (i - bisect_left(primes, BSGS_MIN_ELL)) % COLUMN_PRIMES
    return ell + 1 - _column_traces(e, start, min(start + COLUMN_PRIMES, len(primes)))[i - start]


def _character_sum_count(e, ell):
    """#E(F_ell) for odd good ell via the quadratic character sum.

    Completing the square sends (x, y) to (x, 2y + a1 x + a3), so affine
    points correspond to solutions of eta^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    x = np.arange(ell, dtype=np.int64)
    fx = (4 * x + e.b2 % ell) % ell
    fx = (fx * x + 2 * e.b4 % ell) % ell
    fx = (fx * x + e.b6 % ell) % ell
    counts = np.bincount(x * x % ell, minlength=ell)
    return int(counts[fx].sum()) + 1


def _shanks_mestre_rounds(e, ells):
    """#E(F_ell) at every prime of ells, exact, by rounds of _shanks_mestre_column.

    ells are good primes, 5 <= ell <= TRACE_BOUND_MAX, at most COLUMN_PRIMES
    of them.  The first round gives each prime one point, from x0 = 1:
    x0 = 0 is the flex (0, +-sqrt B) of order 3 on every j = 0 curve.  Each
    later round gives each prime still open up to 4 consecutive starts past
    the last x0 it used, at most COLUMN_PRIMES columns in all.  Any one
    point that leaves one candidate settles its prime exactly, as #E P = O
    and #E lies in the Hasse interval.  The starts 1 .. ell meet every
    point of E and E' up to sign (ell standing for 0), and for ell > 229
    some point of E or E' has one order multiple in the Hasse interval
    (Cremona and Sutherland, "On a theorem of Mestre and Schoof", 2010).
    A prime whose starts run past ell raises InternalInconsistency, which
    can happen below 230.
    """
    ell = np.array(ells, dtype=np.int64)
    count, start = np.zeros_like(ell), np.ones_like(ell)
    todo, per = np.arange(ell.size), 1
    while todo.size:
        spent = start[todo] > ell[todo]
        if spent.any():
            raise InternalInconsistency(f"Shanks-Mestre found no unique order at {ell[todo[spent]].tolist()}")
        cols = np.repeat(todo, per)
        n, used = _shanks_mestre_column(e, ell[cols], start[cols] + np.tile(np.arange(per), todo.size))
        count[todo] = n.reshape(-1, per).max(axis=1)
        start[todo] = used.reshape(-1, per).max(axis=1) + 1
        todo = todo[count[todo] == 0]
        per = min(4, COLUMN_PRIMES // max(todo.size, 1))
    return count


def _shanks_mestre_column(e, ells, x0):
    """One Shanks-Mestre point per column: #E(F_ell) where that point settles it, else 0.

    Column i holds the good prime ells[i] (5 <= ell <= TRACE_BOUND_MAX, at
    most 512 columns, a prime in any number of them) and a start
    0 <= x0[i] < 2^17.  E is y^2 = f(x) = x^3 + A x + B with A = -27 c4,
    B = -54 c6, whose discriminant is 6^12 Delta.  The column's point is
    P = (d x, d^2) for the first x >= x0 with d = f(x) != 0 mod ell (f has
    at most three roots); it lies on y^2 = X^3 + A d^2 X + B d^3, which is
    E when d is a square and the twist E' otherwise, with
    #E' = 2 ell + 2 - #E.  Returns the counts and the x of each column.

    Every array below has one entry per column on its last axis, and all
    columns run in lockstep: the point P, its baby steps j P
    (1 <= j <= M), the giant step (2M + 1) P, the start s0 P with
    s0 = lo + M, and the giant steps from there.  M and the number of
    giant steps are the largest any prime of the call needs.  The start
    is summed over fixed windows of w = M.bit_length() - 1 bits of s0,
    from the top: w doublings and one addition per window, whose addend
    (the window's digit) P is a baby step, as the digit is below
    2^w <= M.  The chains run in Jacobian coordinates (x = X/Z^2,
    y = Y/Z^3) and are made affine together by Montgomery's trick
    (Math. Comp. 48, 1987): one Fermat inversion per column for all its
    points.  One sort of the baby keys index * 2^20 + x and one
    searchsorted match the giants' x against them.

    A column's count is its one candidate n in [lo, hi] with n P = O, which
    Hasse's bound makes #E or #E', as d is a square or not.  A giant step
    at O is a candidate, its own s.  A column is left 0 when it has
    another number of candidates, or when its baby steps cannot key the
    giants: a baby step at O, two with one x, one with y = 0, or a giant
    step (2M + 1) P at O.

    Every value stays inside int64: x0 is below 2^17, residues are reduced
    to [0, ell) with ell <= 10^5 < 2^17, and each value reduced is a sum of
    at most three terms, each at most 8 times a product of at most three
    numbers below 2^17 in absolute value, so below 3 * 2^3 * 2^51 < 2^63.
    The Fermat powers multiply two residues at a time (arith.power_mods),
    and the keys stay below 2^9 * 2^20.
    """
    ell = np.array(ells, dtype=np.int64)
    x0 = np.array(x0, dtype=np.int64)
    cols = len(ells)
    if not cols:
        return ell, x0
    if not (ell.min() >= 5 and ell.max() <= TRACE_BOUND_MAX and cols <= 1 << 9):
        raise ValueError(f"a call holds at most 512 columns, each a prime from 5 to {TRACE_BOUND_MAX}")
    qs = ell.tolist()
    a = np.array([-27 * e.c4 % q for q in qs], dtype=np.int64)
    b = np.array([-54 * e.c6 % q for q in qs], dtype=np.int64)
    x0 -= 1
    d = np.zeros_like(ell)
    while not d.all():
        x0 += d == 0
        d = ((x0 * x0 % ell + a) * x0 + b) % ell
    d2 = d * d % ell
    px, py, one = d * x0 % ell, d2, np.ones_like(ell)
    a = a * d2 % ell  # the point lies on y^2 = x^3 + a d^2 x + b d^3
    twisted = power_mods(d, (ell - 1) // 2, ell) != 1
    r = np.array([isqrt(4 * q) for q in qs], dtype=np.int64)
    lo, hi = ell + 1 - r, ell + 1 + r
    m = isqrt(int(r.max())) + 1
    giants = -(-int((2 * r + 1).max()) // (2 * m + 1))

    # baby steps j P, 1 <= j <= m, in rows 0 .. m - 1
    pts = np.empty((3, m + giants, cols), dtype=np.int64)
    pts[:, 0] = px, py, one
    pts[:, 1] = _jacobian_double(px, py, one, a, ell)
    for j in range(2, m):
        pts[:, j] = _jacobian_add(*pts[:, j - 1], px, py, one, ell)[:3]
    # the baby steps key the giants only when none is O (nor, below, shares its x)
    faulty = (pts[2, :m] == 0).any(axis=0)
    step = _jacobian_add(*_jacobian_double(*pts[:, m - 1], a, ell), px, py, one, ell)[:3]
    faulty |= step[2] == 0

    # the start s0 P by fixed windows of w bits from the top, each window's
    # addend j P (1 <= j < 2^w <= m) a baby step, then the giant steps;
    # O + Q = Q, and Q + Q, which the addition formula cannot add, is 2 Q
    s0 = lo + m
    col = np.arange(cols)
    w = m.bit_length() - 1
    top = (int(s0.max()).bit_length() - 1) // w * w
    acc = np.stack([one, one, np.zeros_like(ell)])
    for shift in range(top, -1, -w):
        if shift < top:  # acc is still O at the top window
            for _ in range(w):
                acc = np.stack(_jacobian_double(*acc, a, ell))
        digit = (s0 >> shift) & ((1 << w) - 1)
        addend = pts[:, np.maximum(digit - 1, 0), col]
        *summed, equal = _jacobian_add(*acc, *addend, ell)
        if equal.any():
            summed = np.where(equal, np.stack(_jacobian_double(*addend, a, ell)), summed)
        summed = np.where(acc[2] == 0, addend, summed)
        acc = np.where(digit == 0, acc, summed)
    step2 = _jacobian_double(*step, a, ell)
    for k in range(giants):
        if k:
            *summed, equal = _jacobian_add(*acc, *step, ell)
            acc = np.where(acc[2] == 0, step, np.where(equal, step2, summed))
        pts[:, m + k] = acc

    # affine coordinates by one inversion per column; O stays marked by z = 0
    z = pts[2]
    at_o = z == 0
    x, y = _affine(pts[0], pts[1], np.where(at_o, 1, z), ell)
    faulty |= (y[:m] == 0).any(axis=0)

    # match the giants' x against the baby keys index * 2^20 + x
    keys = (col << 20) + x[:m]
    order = np.argsort(keys, axis=None)
    sorted_keys = keys.ravel()[order]
    faulty[sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]] >> 20] = True
    giant_keys = ((col << 20) + x[m:]).ravel()
    at = np.minimum(np.searchsorted(sorted_keys, giant_keys), sorted_keys.size - 1)
    hit = (sorted_keys[at] == giant_keys) & ~at_o[m:].ravel()
    j = order[at] // cols + 1
    s = (s0 + (2 * m + 1) * np.arange(giants)[:, None]).ravel()
    n = np.where(y[m:].ravel() == y[:m].ravel()[order[at]], s - j, s + j)
    n = np.where(at_o[m:].ravel(), s, n)
    gcol = np.tile(col, giants)
    kept = (hit | at_o[m:].ravel()) & (lo[gcol] <= n) & (n <= hi[gcol])
    found = np.bincount(gcol[kept], minlength=cols)
    count = np.zeros_like(ell)
    count[gcol[kept]] = n[kept]
    count = np.where(twisted, 2 * ell + 2 - count, count)
    return np.where((found == 1) & ~faulty, count, 0), x0


def _jacobian_double(x, y, z, a, ell):
    """2 (x : y : z) on y^2 = x^3 + a x + b in Jacobian coordinates, columnwise mod ell."""
    yy = y * y % ell
    s = 4 * x * yy % ell
    zz = z * z % ell
    m = (3 * x * x + a * zz * zz) % ell
    x3 = (m * m - 2 * s) % ell
    return x3, (m * (s - x3) - 8 * yy * yy) % ell, 2 * y * z % ell


def _jacobian_add(x1, y1, z1, x2, y2, z2, ell):
    """(x1 : y1 : z1) + (x2 : y2 : z2) in Jacobian coordinates, columnwise mod ell,
    and where the two points are equal and not O (the sum is then wrong).

    Opposite points give z = 0, the point at infinity; so does a summand
    at O, where the sum is the other summand instead.
    """
    zz1, zz2 = z1 * z1 % ell, z2 * z2 % ell
    u1, u2 = x1 * zz2 % ell, x2 * zz1 % ell
    s1, s2 = y1 * z2 * zz2 % ell, y2 * z1 * zz1 % ell
    h, r = (u2 - u1) % ell, (s2 - s1) % ell
    hh = h * h % ell
    hhh, v = h * hh % ell, u1 * hh % ell
    x3 = (r * r - hhh - 2 * v) % ell
    y3 = (r * (v - x3) - s1 * hhh) % ell
    return x3, y3, z1 * z2 * h % ell, (h == 0) & (r == 0) & (z1 != 0) & (z2 != 0)


def _affine(x, y, z, ell):
    """x / z^2 and y / z^3 for rows of Jacobian points with z != 0, by Montgomery's trick.

    The prefix products of z down each column are inverted with one Fermat
    power per column, then unwound row by row into each row's inverse.
    """
    prefix = np.empty_like(z)
    acc = np.ones_like(ell)
    for i, row in enumerate(z):
        prefix[i] = acc = acc * row % ell
    inv = power_mods(acc, ell - 2, ell)
    zinv = np.empty_like(z)
    for i in range(len(z) - 1, 0, -1):
        zinv[i] = inv * prefix[i - 1] % ell
        inv = inv * z[i] % ell
    zinv[0] = inv
    zz = zinv * zinv % ell
    return x * zz % ell, y * zz * zinv % ell


@lru_cache(maxsize=262144)
def trace_at(e: EllipticCurveQ, ell: int):
    """a_ell = ell + 1 - #E(F_ell), or None when the model is bad at ell."""
    if e.discriminant % ell == 0:
        return None
    return _hasse_checked(ell, ell + 1 - count_points(e, ell))


def _hasse_checked(ell, a):
    """a, after checking the Hasse bound a^2 <= 4 ell that every trace of Frobenius obeys."""
    if a * a > 4 * ell:
        raise InternalInconsistency(f"a_{ell} = {a} violates the Hasse bound")
    return a


@dataclass(frozen=True)
class FrobeniusData:
    curve: EllipticCurveQ
    entries: tuple  # (ell, a_ell or None, good)


TRACE_BOUND_MAX = 10 ** 5

# frobenius_traces and count_points take the primes from BSGS_MIN_ELL up in
# columns of this many consecutive primes, each column counted and cached
# whole (_column_traces)
COLUMN_PRIMES = 512


def frobenius_traces(e: EllipticCurveQ, bound: int) -> FrobeniusData:
    """Exact a_ell for all good ell <= bound; bad primes flagged.

    Below BSGS_MIN_ELL each trace comes from trace_at.  From there up the
    primes run in columns of COLUMN_PRIMES, counted together by
    _shanks_mestre_rounds; the columns start at the first prime from
    BSGS_MIN_ELL whatever the bound, so every bound shares them in the
    column cache up to its last, shorter column, and with count_points,
    which reads the full columns of primes_up_to(TRACE_BOUND_MAX).
    """
    if bound > TRACE_BOUND_MAX:
        raise ValueError(f"trace bound {bound} exceeds {TRACE_BOUND_MAX}")
    primes = primes_up_to(bound)
    first = bisect_left(primes, BSGS_MIN_ELL)
    traces = [trace_at(e, ell) for ell in primes[:first]]
    for start in range(first, len(primes), COLUMN_PRIMES):
        traces += _column_traces(e, start, min(start + COLUMN_PRIMES, len(primes)))
    return FrobeniusData(e, tuple((ell, a, a is not None) for ell, a in zip(primes, traces)))


@lru_cache(maxsize=512)  # as many traces as trace_at's cache holds
def _column_traces(e, start, stop):
    """a_ell for each prime of primes_up_to(TRACE_BOUND_MAX)[start:stop] (at most COLUMN_PRIMES), None where bad.

    The good primes are counted together by _shanks_mestre_rounds.
    """
    ells = primes_up_to(TRACE_BOUND_MAX)[start:stop]
    good = [ell for ell in ells if e.discriminant % ell]
    traces = dict.fromkeys(ells)
    for ell, n in zip(good, _shanks_mestre_rounds(e, good).tolist()):
        traces[ell] = _hasse_checked(ell, ell + 1 - n)
    return tuple(traces.values())


class ReductionType(Enum):
    GOOD = "Good"
    MULTIPLICATIVE_SPLIT = "MultiplicativeSplit"
    MULTIPLICATIVE_NONSPLIT = "MultiplicativeNonsplit"
    ADDITIVE = "Additive"


def reduction_type(e: EllipticCurveQ, p: int) -> ReductionType:
    """Reduction type of the supplied model at an odd prime.

    Multiplicative reduction (p | disc, p ∤ c4) is split iff -c6 is a
    square mod p.  Since 1728 disc = c4^3 - c6^2, c6^2 ≡ c4^3 mod p, so
    p ∤ c6.  For p >= 5 the model is isomorphic over F_p to
    y^2 = f(x) = x^3 - 27 c4 x - 54 c6, whose node (x0, 0) is the double
    root of f: f(x0) - (x0/3) f'(x0) = -18 c4 x0 - 54 c6 gives
    x0 = -3 c6/c4.  The tangent cone there is y^2 = 3 x0 (x - x0)^2, which
    splits iff 3 x0 = -9 c6/c4 is a square; and f'(x0) = 0 gives
    c4 = x0^2/9 = (c6/c4)^2, a square, so it splits iff -c6 is a square.
    For p = 3 both the reduction type and (-c6/3) depend only on a1..a6
    mod 3, and the rule holds on every such tuple (checked in the tests
    against the tangent cone at the node, found by brute force).
    """
    if p == 2:
        raise UnsupportedPrime("reduction type analysis is restricted to odd p")
    return _reduction_type(e.discriminant, e.c4, e.c6, p)


def _reduction_type(disc, c4, c6, p):
    """reduction_type of a model with these invariants at an odd prime p."""
    if disc % p != 0:
        return ReductionType.GOOD
    if c4 % p == 0:
        return ReductionType.ADDITIVE
    if legendre_symbol(-c6, p) == 1:
        return ReductionType.MULTIPLICATIVE_SPLIT
    return ReductionType.MULTIPLICATIVE_NONSPLIT


def is_supersingular(e: EllipticCurveQ, p: int) -> bool:
    """Good reduction at p with a_p = 0 mod p (the exact criterion)."""
    if e.discriminant % p == 0:
        raise BadReduction(f"model is bad at {p}")
    return trace_at(e, p) % p == 0


def quadratic_twist(e: EllipticCurveQ, d: int) -> EllipticCurveQ:
    """Twist by a squarefree integer d, on the integral model
    y^2 = x^3 + d*b2*x^2 + 8*d^2*b4*x + 16*d^3*b6.

    This model is exactly isomorphic to E for d = 1; the j-invariant and
    the twisted trace identity a_ell(E^d) = chi_d(ell) * a_ell(E) are on
    the nose for good odd ell not dividing d.  The invariants are scaled
    from E's (_twist_model), not re-derived.  Raises BudgetExceeded when d
    is not factored within arith.RHO_BUDGET.
    """
    if not is_squarefree(d):
        raise ValueError(f"twist discriminant {d} must be squarefree and nonzero")
    return _twist_model(e, d)


def _twist_model(e, d, label=None):
    """quadratic_twist without the squarefree check, for d known squarefree.

    The invariants are E's scaled, those of weight 2k by u^k with u = 4d:
    b2..b8 by u..u^4 (b8 as 4 b8 = b2 b6 - b4^2), c4, c6 by u^2, u^3 and disc
    by u^6.  The identities 4 b8 = b2 b6 - b4^2 and 1728 disc = c4^3 - c6^2,
    which derive_invariants checks, are homogeneous in these weights, so E^d
    inherits them from E, and disc' = u^6 disc != 0: E^d is never singular.
    """
    u, u2, u3 = 4 * d, 16 * d * d, 64 * d ** 3
    return EllipticCurveQ(
        0, d * e.b2, 0, 8 * d * d * e.b4, 16 * d ** 3 * e.b6,
        u * e.b2, u2 * e.b4, u3 * e.b6, u2 * u2 * e.b8, u2 * e.c4, u3 * e.c6, u3 * u3 * e.discriminant, label,
    )


def two_division_roots(e: EllipticCurveQ):
    """Rational roots of the monic 2-division cubic X^3 + b2 X^2 + 8 b4 X + 16 b6.

    Rational roots of a monic integer cubic are integers; the model change
    X = 4x turns the classical division polynomial into this integral form.
    """
    return _monic_cubic_integer_roots(e.b2, 8 * e.b4, 16 * e.b6)


def _monic_cubic_integer_roots(b, c, d):
    """Integer roots of X^3 + b X^2 + c X + d by exact Hensel lifting.

    Roots mod a prime q not dividing the (nonzero) cubic discriminant are
    simple, so Newton lifting doubles q-adic precision; once the modulus
    exceeds twice the Cauchy root bound the symmetric representative is
    the only possible integer root above each residue.  No factoring of
    the constant term, no floating point.
    """
    f = lambda x: ((x + b) * x + c) * x + d
    fprime = lambda x: (3 * x + 2 * b) * x + c
    disc = 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 - 27 * d * d
    if disc == 0:
        raise ValueError("cubic must be separable")
    bound = 1 + max(abs(b), abs(c), abs(d))
    q = 3
    while disc % q == 0 or not is_prime(q):
        q += 2
    roots = set()
    for r0 in range(q):
        if f(r0) % q:
            continue
        modulus = q
        r = r0
        while modulus <= 2 * bound:
            modulus *= modulus
            r = (r - f(r) * pow(fprime(r), -1, modulus)) % modulus
        rep = r if 2 * r <= modulus else r - modulus
        if f(rep) == 0:
            roots.add(rep)
    return sorted(roots)


def has_full_rational_2torsion(e: EllipticCurveQ) -> bool:
    """True iff the 2-division cubic splits into three rational roots."""
    return len(two_division_roots(e)) == 3
