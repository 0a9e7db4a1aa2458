"""Independent reference computations for the benchmark's output checks.

Nothing here imports shadiv.  Each oracle recomputes its quantity from the
definition, with plain Python integers (NumPy only for row reduction), so
a check that compares the program against an oracle compares two separate
implementations:

- subgroup closure in GL2(F_p) by breadth-first search on 2x2 matrices;
- point counts as ell + 1 + sum_x (f(x) / ell), with Euler's criterion;
- fundamental discriminants from a sieve of squares;
- dim M^G and H^1(G, M) from the crossed-homomorphism equations on every
  element of G;
- Hensel-certified points of diagonal cubics, and an exhaustive search for
  primitive solutions mod p^m.
"""

from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# 2x2 matrices mod p


def mat_mul(x, y, p):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (
        ((a * e + b * g) % p, (a * f + b * h) % p),
        ((c * e + d * g) % p, (c * f + d * h) % p),
    )


def mat_det(x, p):
    (a, b), (c, d) = x
    return (a * d - b * c) % p


def mat_inv(x, p):
    (a, b), (c, d) = x
    di = pow(mat_det(x, p), -1, p)
    return ((d * di % p, -b * di % p), (-c * di % p, a * di % p))


def closure(gens, p):
    """The subgroup of GL2(F_p) generated by `gens`, as a frozenset of matrices.

    A finite set closed under multiplication by the generators and holding
    the identity is a group, so a breadth-first search from the identity
    suffices.
    """
    gens = [tuple(tuple(x % p for x in row) for row in g) for g in gens]
    identity = ((1, 0), (0, 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, p)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------------------
# elliptic curves over Q by a-invariants


def b_invariants(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant(ainvs):
    b2, b4, b6, b8 = b_invariants(ainvs)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def primes_up_to(n):
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    q = 2
    while q * q <= n:
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
        q += 1
    return [i for i in range(n + 1) if flags[i]]


def legendre(a, ell):
    """(a / ell) for an odd prime ell, by Euler's criterion."""
    r = pow(a % ell, (ell - 1) // 2, ell)
    return -1 if r == ell - 1 else r


def point_count(ainvs, ell):
    """#E(F_ell) of the given model at a prime of good reduction.

    For odd ell, completing the square turns the model into
    eta^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the count is
    ell + 1 + sum over x of the quadratic character of the right side.
    At ell = 2 the affine points are enumerated.
    """
    if discriminant(ainvs) % ell == 0:
        raise ValueError(f"the model is bad at {ell}")
    a1, a2, a3, a4, a6 = ainvs
    if ell == 2:
        affine = sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0
        )
        return affine + 1
    b2, b4, b6, _ = b_invariants(ainvs)
    total = ell + 1
    for x in range(ell):
        total += legendre(((4 * x + b2) * x + 2 * b4) * x + b6, ell)
    return total


def trace(ainvs, ell):
    return ell + 1 - point_count(ainvs, ell)


def good_primes(ainvs, bound, exclude=()):
    """Primes ell <= bound of good reduction for the model, minus `exclude`."""
    disc = discriminant(ainvs)
    return [q for q in primes_up_to(bound) if disc % q and q not in exclude]


# ---------------------------------------------------------------------------
# fundamental discriminants


def squarefree_flags(n):
    """flags[m] is True iff m is squarefree, for 0 <= m <= n (by a sieve of squares)."""
    flags = [True] * (n + 1)
    flags[0] = False
    q = 2
    while q * q <= n:
        for m in range(q * q, n + 1, q * q):
            flags[m] = False
        q += 1
    return flags


def fundamental_discriminants(dmax):
    """d = 1, squarefree d = 1 mod 4, and 4m with m = 2, 3 mod 4 squarefree; |d| <= dmax."""
    sf = squarefree_flags(dmax)
    out = []
    for d in range(-dmax, dmax + 1):
        if d in (0, 1):
            if d == 1:
                out.append(d)
            continue
        if d % 4 == 1 and sf[abs(d)]:
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and sf[abs(d // 4)]:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# linear algebra over F_p, fixed points and H^1


def rank_mod_p(rows, p):
    """Rank of a list of integer rows over F_p, by Gaussian elimination."""
    m = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p
    rank = 0
    for col in range(m.shape[1]):
        nonzero = np.nonzero(m[rank:, col])[0]
        if len(nonzero) == 0:
            continue
        pivot = rank + nonzero[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = m[rank + 1 :, col].copy()
        m[rank + 1 :] = (m[rank + 1 :] - np.outer(below, m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def fixed_dim(gen_actions, n, p):
    """dim M^G: the common kernel of (g - 1) over the generators' matrices."""
    rows = [
        [(m[i][j] - (i == j)) % p for j in range(n)]
        for m in gen_actions
        for i in range(n)
    ]
    return n - rank_mod_p(rows, p)


def h1_dim(elements, gens, mul, act, n, p):
    """dim H^1(G, M) = dim Z^1 - (n - dim M^G).

    Z^1 is solved with one unknown vector f(g) for every element g; the
    equations are f(g s) = f(g) + g f(s) for every g and every generator s,
    which determine a cocycle on all of G.
    """
    index = {g: i for i, g in enumerate(elements)}
    nunk = n * len(elements)
    rows = []
    for g in elements:
        gi = index[g]
        mg = act(g)
        for s in gens:
            gs = index[mul(g, s)]
            si = index[s]
            for r in range(n):
                row = [0] * nunk
                row[gs * n + r] += 1
                row[gi * n + r] -= 1
                for c in range(n):
                    row[si * n + c] -= mg[r][c]
                rows.append(row)
    dim_z1 = nunk - rank_mod_p(rows, p)
    dim_b1 = n - fixed_dim([act(s) for s in gens], n, p)
    return dim_z1 - dim_b1


def standard_action(g):
    return [list(row) for row in g]


def adjoint_action(p):
    """X -> g X g^-1 on End(V), in the basis E11, E12, E21, E22."""

    def act(g):
        gi = mat_inv(g, p)
        cols = []
        for i in range(2):
            for j in range(2):
                e = tuple(tuple(int(r == i and c == j) for c in range(2)) for r in range(2))
                y = mat_mul(mat_mul(g, e, p), gi, p)
                cols.append([y[0][0], y[0][1], y[1][0], y[1][1]])
        return [[cols[c][r] for c in range(4)] for r in range(4)]

    return act


# ---------------------------------------------------------------------------
# diagonal cubics a X^3 + b Y^3 + c Z^3 over Q_p


def valuation(n, p, cap):
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def primitive_solutions_mod(a, b, c, p, m):
    """Every primitive (x, y, z) mod p^m with F = 0 mod p^m, in lexicographic order."""
    q = p ** m
    by_value = {}
    for z in range(q):
        by_value.setdefault(c * z ** 3 % q, []).append(z)
    for x in range(q):
        ax = a * x ** 3
        for y in range(q):
            for z in by_value.get(-(ax + b * y ** 3) % q, ()):
                if x % p or y % p or z % p:
                    yield x, y, z


def has_primitive_solution_mod(a, b, c, p, m):
    return next(primitive_solutions_mod(a, b, c, p, m), None) is not None


def certified_point(a, b, c, p, max_j=2, max_modulus=1000):
    """A triple with a Hensel certificate, or None if none is found.

    A primitive triple with F = 0 mod p^m whose partial derivatives have
    minimal valuation j with m > 2j lifts to a Q_p-point (Newton's method
    in the coordinate of that partial).  Moduli p^(2j+1) for j = 0 .. max_j
    are searched while they stay within max_modulus.
    """
    for j in range(max_j + 1):
        m = 2 * j + 1
        if p ** m > max_modulus:
            break
        for x, y, z in primitive_solutions_mod(a, b, c, p, m):
            partial = min(
                valuation(3 * a * x * x, p, m),
                valuation(3 * b * y * y, p, m),
                valuation(3 * c * z * z, p, m),
            )
            if 2 * partial < m:
                return x, y, z, partial
    return None


def is_cube_3adic(x):
    """Whether the rational x is a cube in Q_3: 3 | v_3(x) and its unit part is +-1 mod 9."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % 3 == 0:
        num //= 3
        v += 1
    while den % 3 == 0:
        den //= 3
        v -= 1
    return v % 3 == 0 and num * pow(den, -1, 9) % 9 in (1, 8)


def section_point_at_3(a, b, c):
    """Whether aX^3 + bY^3 + cZ^3 = 0 has a Q_3-point with XYZ = 0."""
    return any(is_cube_3adic(Fraction(-u, w)) for u, w in ((c, b), (c, a), (b, a)))
