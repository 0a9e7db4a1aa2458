"""Brute-force oracle for the characters chi: (Z/m)* -> F_p* with chi^3 = eps_p.

It uses no primitive root, no CRT and no structure theorem: values are
tried on a generating set chosen greedily from the units, and a choice is
kept only when extending it along products never gives a unit two values.
"""

import math


def cube_roots_of_eps(m, p):
    """Every homomorphism chi with chi(n)^3 = n mod p on (Z/m)*, p | m, as a dict unit -> chi(unit)."""
    gens, tables = [], [{1: 1}]
    for g in (n for n in range(2, m) if math.gcd(n, m) == 1):
        if not tables or g in tables[0]:  # every table is defined on <gens>
            continue
        gens.append(g)
        tables = [t for table in tables for v in range(1, p) if pow(v, 3, p) == g % p
                  for t in [_extend(table, gens, g, v, m, p)] if t is not None]
    return tables


def _extend(table, gens, g, v, m, p):
    """table extended to <gens> by chi(g) = v along n -> n s, or None where a unit gets two values."""
    chi = {**table, g: v}
    queue = list(chi)
    for n in queue:
        for s in gens:
            ns, value = n * s % m, chi[n] * chi[s] % p
            if ns not in chi:
                chi[ns] = value
                queue.append(ns)
            elif chi[ns] != value:
                return None
    return chi
