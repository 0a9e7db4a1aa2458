import ast
import random
import time
from pathlib import Path

import numpy as np
import pytest

import shadiv
import shadiv.arith as arith
from shadiv.arith import (
    _jacobi,
    factorize,
    is_prime,
    is_squarefree,
    legendre_symbol,
    legendre_symbols,
    prime_factors,
    primes_up_to,
    squarefree_sieve,
    valuation_split,
)
from shadiv.datasets import embedded_curve
from shadiv.elliptic import curve, quadratic_twist
from shadiv.errors import BudgetExceeded


def test_is_prime_matches_sympy():
    from sympy import isprime

    assert all(is_prime(n) == isprime(n) for n in range(10 ** 5))
    rng = random.Random(2015)
    for bits in (20, 40, 64, 81, 82, 100, 128):
        for _ in range(400):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == isprime(n), n


def test_strong_lucas_pseudoprimes():
    from sympy import isprime

    from shadiv.arith import _strong_lucas_probable_prime

    # OEIS A217255: the strong Lucas pseudoprimes (Selfridge parameters) below 6 * 10^4
    liars = [n for n in range(43, 60000, 2) if _strong_lucas_probable_prime(n) and not isprime(n)]
    assert liars == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    assert all(_strong_lucas_probable_prime(n) for n in range(43, 60000, 2) if isprime(n))


def test_factorize_matches_sympy_factorint():
    from sympy import factorint, nextprime

    # Pollard rho costs about the square root of the second-largest prime
    # factor, so every seeded n < 10^30 is a product of primes below 10^8
    # (with repeats) times one prime cofactor of any size
    rng = random.Random(1106)
    for _ in range(50):
        n = 1
        for _ in range(rng.randrange(0, 5)):
            q = nextprime(rng.randrange(2, 10 ** rng.randrange(1, 9)))
            n *= q ** rng.randrange(1, 3)
        if n < 10 ** 29:
            n *= nextprime(rng.randrange(1, 10 ** 30 // n))
        if n < 10 ** 30:
            assert factorize(n) == factorint(n), n
    for n in (1, 2, 97 ** 3, 101 ** 2, (10 ** 9 + 7) ** 3, 2 ** 89 - 1, (2 ** 61 - 1) * (2 ** 31 - 1)):
        assert factorize(n) == factorint(n), n


def test_legendre_symbol_matches_sympy():
    from sympy.functions.combinatorial.numbers import legendre_symbol as sympy_legendre

    for p in primes_up_to(199)[1:]:
        for a in range(-p, 2 * p):
            assert legendre_symbol(a, p) == sympy_legendre(a % p, p), (a, p)


def test_legendre_symbols_match_legendre_symbol():
    primes = primes_up_to(1000)[1:]
    symbols = legendre_symbols(np.arange(1000), primes)  # one pass over every (a, p)
    assert symbols.shape == (len(primes), 1000) and symbols.dtype == np.int8
    for p, row in zip(primes, symbols.tolist()):
        assert row[:p] == [legendre_symbol(a, p) for a in range(p)], p
    # negative residues, and primes whose residues square close to 2^63
    a = [-2 ** 40 - 1, -2, -1, 0, 1, 2, 3, 10 ** 9 + 7, 3037000492, 2 ** 62]
    primes = [1000003, 2 ** 31 - 1, 3037000493]
    assert legendre_symbols(a, primes).tolist() == [[legendre_symbol(x, p) for x in a] for p in primes]
    assert legendre_symbols(a, []).shape == (0, len(a))


def test_legendre_symbols_agree_on_both_sides_of_the_residue_table():
    # len(a) = max(q) takes Euler's criterion on a itself, max(q) + 1 the
    # table of residue classes read at a mod q; negative a and a >= q both ways
    primes = [3, 5, 7, 11, 13]
    for n in (13, 14):
        a = [(-1) ** k * (7 * k + 2) for k in range(n)]
        assert min(a) < 0 and max(a) >= 13
        assert legendre_symbols(a, primes).tolist() == [[legendre_symbol(x, p) for x in a] for p in primes], n


def test_legendre_symbols_reject_moduli_outside_int64():
    for p in (2, 3037000507):
        with pytest.raises(ValueError):
            legendre_symbols(np.arange(3), [5, p])


def test_jacobi_matches_sympy():
    from sympy.functions.combinatorial.numbers import jacobi_symbol

    for n in range(1, 500, 2):
        for a in range(n):
            assert _jacobi(a, n) == jacobi_symbol(a, n), (a, n)


def test_primes_up_to_matches_primerange():
    from sympy import primerange

    assert primes_up_to(10 ** 5) == tuple(primerange(2, 10 ** 5 + 1))
    for n in range(-1, 122):
        assert primes_up_to(n) == tuple(primerange(2, n + 1)), n


def _seeded_values(seed, count):
    """Nonzero n below 10^30: small primes to powers 1-3 times a prime cofactor, squared or not."""
    from sympy import nextprime

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = 1
        for _ in range(rng.randrange(0, 4)):
            n *= nextprime(rng.randrange(2, 10 ** rng.randrange(1, 5))) ** rng.randrange(1, 4)
        q = nextprime(rng.randrange(1, 10 ** rng.randrange(1, 14)))
        n *= q ** rng.randrange(1, 3)
        out.append(n * rng.choice((1, -1)) if n < 10 ** 30 else q)
    return out


def test_is_squarefree_matches_factorint():
    from sympy import factorint

    def oracle(n):
        return n != 0 and all(e == 1 for e in factorint(abs(n)).values())

    for n in range(-2000, 2001):
        assert is_squarefree(n) == oracle(n), n
    assert squarefree_sieve(2000).tolist() == [oracle(n) for n in range(2001)]
    values = _seeded_values(1729, 300)
    assert any(not is_squarefree(n) for n in values) and any(is_squarefree(n) for n in values)
    for n in values:
        assert is_squarefree(n) == oracle(n), n


def test_valuation_split_matches_multiplicity():
    from sympy import multiplicity

    for p in (2, 3, 5, 7, 11, 10 ** 9 + 7):
        for n in _seeded_values(p, 40) + [p ** 5, -(p ** 3) * 7, 1, -1]:
            v, u = valuation_split(n, p)
            assert v == multiplicity(p, abs(n)), (n, p)
            assert u * p ** v == n and u % p != 0, (n, p)


def test_prime_factors_of_a_discriminant_with_factors_near_1e9():
    # Delta = -2^4 3^3 (p q)^2 for y^2 = x^3 + p q; trial division would run to q
    p, q = 1000000007, 998244353
    e = curve((0, 0, 0, 0, p * q))
    t0 = time.monotonic()
    primes = prime_factors(abs(e.discriminant))
    elapsed = time.monotonic() - t0
    assert primes == [2, 3, q, p]
    assert elapsed < 1


def test_rho_factors_a_1e12_semiprime_within_budget():
    p, q = 1000000000039, 3000000000013
    assert factorize(p * q) == {p: 1, q: 1}


def test_rho_budget_raises_typed_error(monkeypatch):
    p, q = 1000003, 1000033  # rho needs about 10^3 steps to split p q
    assert factorize(p * q) == {p: 1, q: 1}
    monkeypatch.setattr(arith, "RHO_BUDGET", 64)
    with pytest.raises(BudgetExceeded):
        factorize(p * q)
    with pytest.raises(BudgetExceeded):
        quadratic_twist(embedded_curve("121-B1"), p * q)


# ---------------------------------------------------------------------------
# arith.py is the one home of the package's integer decisions

_ARITH_ONLY = {
    "is_prime",
    "legendre_symbol",
    "legendre_symbols",
    "primes_up_to",
    "factorize",
    "prime_factors",
    "_squarefree",
    "_is_p_power",
    "_nonresidue",
    "_split",
}
_SRC = Path(shadiv.__file__).parent


def _is_euler_criterion(node):
    """Whether node is a call pow(_, (_ - 1) // 2, _)."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
    ):
        return False
    e = node.args[1]
    return (
        isinstance(e, ast.BinOp)
        and isinstance(e.op, ast.FloorDiv)
        and isinstance(e.right, ast.Constant)
        and e.right.value == 2
        and isinstance(e.left, ast.BinOp)
        and isinstance(e.left.op, ast.Sub)
        and isinstance(e.left.right, ast.Constant)
        and e.left.right.value == 1
    )


def _imports_arith(node, arith_names):
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")[-1]
        return module == "arith" or any(a.name in arith_names for a in node.names)
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "arith" for a in node.names)
    return False


def test_integer_decisions_live_in_arith():
    arith_tree = ast.parse((_SRC / "arith.py").read_text())
    arith_names = {n.name for n in arith_tree.body if isinstance(n, ast.FunctionDef)}
    offences = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _ARITH_ONLY:
                    offences.append(f"{where} defines {node.name}")
                for inner in ast.walk(node):
                    if _imports_arith(inner, arith_names):
                        offences.append(f"{path.name}:{inner.lineno} imports arith inside {node.name}")
            if _is_euler_criterion(node):
                offences.append(f"{where} writes Euler's criterion")
    assert not offences, "\n".join(offences)
