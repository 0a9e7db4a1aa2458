"""The criterion engine: per-(curve, prime) divisibility verdicts.

A Guaranteed verdict means the sufficient criteria for p-divisibility of
the everywhere-locally-divisible classes hold; CriterionFails means a bad
semisimplification shape stayed consistent with the traces, which is NOT a
disproof of divisibility.  Every verdict carries a replayable reason chain
whose steps are tagged rigorous / heuristic / user-supplied.
"""

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, lru_cache

import numpy as np

from .arith import is_prime, legendre_symbols, prime_factors, squarefree_sieve
from .datasets import regular_prime_resolutions
from .elliptic import (
    TRACE_BOUND_MAX,
    EllipticCurveQ,
    ReductionType,
    _reduction_type,
    _twist_model,
    frobenius_traces,
    has_full_rational_2torsion,
    is_supersingular,
)
from .errors import BudgetExceeded, UnsupportedPrime
from .galois_image import (
    Consistent,
    RefutedAt,
    nv_sieve_bound,
    passes_torsion_bound,
    passes_uniform_degree_bound,
    shape_values,
)


class Outcome(Enum):
    GUARANTEED = "Guaranteed"
    CRITERION_FAILS = "CriterionFails"
    INCONCLUSIVE = "Inconclusive"


RIGOROUS = "rigorous"
HEURISTIC = "heuristic"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class ChainStep:
    rule: str
    statement: str
    inputs: dict
    rigor: str


@dataclass(frozen=True, slots=True)
class DivisibilityVerdict:
    curve: EllipticCurveQ | str  # a str names the degree-parameterized subject
    p: int
    outcome: Outcome
    chain: tuple
    evidence: dict = None

    @property
    def curve_name(self):
        if isinstance(self.curve, str):
            return self.curve
        return self.curve.label or ",".join(str(a) for a in self.curve.ainvs)

    def to_json_dict(self):
        return {
            "curve": self.curve_name,
            "p": self.p,
            "outcome": self.outcome.value,
            "chain": [
                {
                    "theorem": s.rule,
                    "quote_tag": s.statement,
                    "inputs": s.inputs,
                    "rigor": s.rigor,
                }
                for s in self.chain
            ],
            "evidence": self.evidence,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def tsv_row(self):
        first = self.chain[0].rule if self.chain else ""
        return "\t".join((self.curve_name, str(self.p), self.outcome.value, first))


@dataclass(frozen=True)
class RunConfig:
    """The engine's one knob: the primes ell <= trace_bound whose traces test the bad shapes."""

    trace_bound: int = 1000

    def __post_init__(self):
        if not 0 <= self.trace_bound <= TRACE_BOUND_MAX:
            raise ValueError(f"trace bound {self.trace_bound} is outside 0..{TRACE_BOUND_MAX}")


DEFAULT_CONFIG = RunConfig()

# shapes scanned per small prime: exponent pairs (a, b) for eps^a + eps^b.
# The bad shapes are 1 (+) eps and chi (+) chi^2 with chi^3 = eps_p.  The
# characters valued in F_p*, on any modulus, form a group of exponent
# dividing p - 1, so when 3 does not divide p - 1 cubing is a bijection on
# it and chi = eps^x with 3x = 1 mod (p - 1) is the one solution; when
# 3 | p - 1 a chi of order n | p - 1 has chi^3 of order n / gcd(3, n),
# never p - 1, and there is none.  So x = 1 at p = 3, where the pair is
# again (0, 1), x = 3 at p = 5, and none at p = 7: the list below is
# complete for p in {3, 5, 7}.
BAD_SHAPE_PAIRS = {3: ((0, 1),), 5: ((0, 1), (2, 3)), 7: ((0, 1),)}

TRACE_ESCALATION = (50, 200)


def _shape_name(p, pair):
    a, b = pair
    def power(k):
        if k == 0:
            return "1"
        if k == 1:
            return "eps"
        return f"eps^{k}"
    return f"{power(a)} (+) {power(b)} mod {p}"


def verdict_over_Q(e: EllipticCurveQ, p: int, cfg: RunConfig = DEFAULT_CONFIG) -> DivisibilityVerdict:
    """Divisibility verdict for an elliptic curve over Q at an odd prime."""
    if p == 2:
        raise UnsupportedPrime("the divisibility criteria concern odd primes")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 7:
        chain = [
            ChainStep(
                "rational.large_prime",
                "over Q the locally divisible classes are p-divisible for every prime p > 7",
                {"p": p, "route": _large_prime_route(p)},
                RIGOROUS,
            )
        ]
        resolution = regular_prime_resolutions().get((e.ainvs, p))
        if resolution is not None:
            chain.append(
                ChainStep(
                    resolution["rule"],
                    resolution["statement"],
                    {"label": resolution["label"], "p": p},
                    RIGOROUS,
                )
            )
        return DivisibilityVerdict(e, p, Outcome.GUARANTEED, tuple(chain))
    return TwistScanReport(e, p, 1, (1,), *_twist_columns(e, p, cfg, (1,)), TWIST_FAILURE_CAPS[p]).rows[0][1]


def _early_chain(rt, p, supersingular, full_2torsion):
    """The one-step chain that settles p in {3, 5, 7} before the bad-shape scan, or None,
    for a curve whose reduction type at p is rt.

    None means the bad shapes decide.  supersingular() (asked only when rt
    is good) and full_2torsion() answer for the curve; each is consulted
    only on the path that needs it.
    """
    if p >= 5 and full_2torsion():
        step = ChainStep(
            "rational.full_2torsion",
            "rational 2-torsion caps odd rational torsion of every quadratic twist at 3, excluding all bad shapes for p >= 5",
            {"p": p, "two_torsion_roots": 3},
            RIGOROUS,
        )
    elif rt == ReductionType.GOOD:
        if not supersingular():
            return None
        step = ChainStep(
            "rational.supersingular",
            "supersingular reduction makes the mod-p representation irreducible",
            {"p": p, "a_p mod p": 0},
            RIGOROUS,
        )
    elif rt == ReductionType.MULTIPLICATIVE_NONSPLIT:
        step = ChainStep(
            "rational.nonsplit_multiplicative",
            "nonsplit multiplicative reduction at p forces the unramified quadratic twist shape, excluding the bad shapes",
            {"p": p, "reduction": rt.value},
            RIGOROUS,
        )
    else:
        return None
    return (step,)


def _large_prime_route(p):
    """Which argument settles the prime: a citable tag, not a computation.

    p = 11 runs through the modular-curve analysis with the recorded
    regular-prime resolution for the two exceptional isogenous curves;
    p >= 13 with 3 | p - 1 is excluded by the rational torsion bound
    (Mazur); otherwise the good-reduction-at-3 norm sieve applies.
    """
    if p == 11:
        return "modular-curve analysis at 11"
    if (p - 1) % 3 == 0:
        return "excluded by Mazur torsion bound"
    return "norm-3 sieve via potentially good reduction"


def _escalation_bounds(trace_bound):
    return [b for b in TRACE_ESCALATION if b < trace_bound] + [trace_bound]


def _exclusion_chain(p, tests):
    """The chain of a curve whose bad shapes at p are all refuted, tests being (pair, RefutedAt)."""
    return tuple(
        ChainStep(
            "rational.shape_exclusion",
            f"semisimplification shape {_shape_name(p, pair)} refuted by a trace congruence",
            {"shape": _shape_name(p, pair), "ell": r.ell, "observed_a_ell": r.observed, "expected_mod_p": r.expected},
            RIGOROUS,
        )
        for pair, r in tests
    )


def _scan_bad_shapes(e, p, cfg, tests):
    """The verdict of e at p with a bad shape left unrefuted, tests as _shape_tests gives them."""
    consistent = [(pair, v) for pair, v in tests if isinstance(v, Consistent)]
    checked_any = any(len(v.checked_primes) > 0 for _, v in consistent)
    if not checked_any:
        step = ChainStep(
            "rational.bad_shape_scan",
            "no usable good primes below the trace bound; shapes undecided",
            {"trace_bound": cfg.trace_bound},
            HEURISTIC,
        )
        return DivisibilityVerdict(e, p, Outcome.INCONCLUSIVE, (step,))

    evidence = {
        "consistent_shapes": [
            {
                "shape": _shape_name(p, pair),
                "pair": list(pair),
                "checked_primes_up_to": cfg.trace_bound,
                "checked_count": len(v.checked_primes),
            }
            for pair, v in consistent
        ],
        "interpretation": "criterion-level failure, not a disproof of divisibility",
        "scan": {"note": "cyclotomic-only scan; complete over Q for p in {3,5,7}"},
    }
    warnings = _semistability_warnings(e, p) if p in (5, 7) else []
    if warnings:
        evidence["semistability_warnings"] = warnings
    chain = tuple(
        ChainStep(
            "rational.bad_shape_scan",
            f"shape {_shape_name(p, pair)} consistent with all traces up to the bound",
            {
                "shape": _shape_name(p, pair),
                "trace_bound": cfg.trace_bound,
                "checked_count": len(v.checked_primes),
            },
            HEURISTIC,
        )
        for pair, v in consistent
    )
    return DivisibilityVerdict(e, p, Outcome.CRITERION_FAILS, chain, evidence)


def _semistability_warnings(e, p):
    """Real shape failures at p in {5,7} force semistability outside p.

    Additive reduction elsewhere on the supplied model therefore signals
    either a non-minimal model or a spurious consistency.  At an odd prime
    q the model is additive exactly when q divides both disc and c4, so
    only gcd(disc, c4) is factored.  The verdict needs no factorisation,
    so a gcd rho cannot factor within its budget skips the check, with a
    warning saying so.
    """
    warnings = []
    try:
        primes = prime_factors(math.gcd(e.discriminant, e.c4))
    except BudgetExceeded:
        primes = []
        warnings.append("gcd(disc, c4) not factored within budget; additive-reduction check skipped")
    for q in primes:
        if q not in (2, p):
            warnings.append(
                f"additive reduction at {q} on the supplied model; "
                "a real shape failure would be semistable outside "
                f"{p} (check model minimality)"
            )
    if e.discriminant % 2 == 0:
        warnings.append("reduction type at 2 not analyzed (odd primes only)")
    return warnings


# ---------------------------------------------------------------------------
# number-field criterion (degree-parameterized; no number-field arithmetic)


def verdict_number_field(degree, p, good_place_norms=(), torsion_bound_supplied=False, curve_label=None):
    """Uniform and refined degree-based criteria for a curve over a degree-d field.

    The caller supplies norms Nv of auxiliary places of good reduction;
    for k = Q these are good primes.  torsion_bound_supplied certifies, as
    user metadata, that no isogenous curve has a rational p-torsion point.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    chain = []
    subject = curve_label or "degree-parameterized"
    if passes_uniform_degree_bound(p, degree):
        chain.append(
            ChainStep(
                "nf.uniform_degree_bound",
                "p exceeds (2^d + 2^(d/2))^2, which settles every condition at once",
                {"p": p, "degree": degree},
                RIGOROUS,
            )
        )
        return DivisibilityVerdict(subject, p, Outcome.GUARANTEED, tuple(chain))
    failed = []
    if p < 5:
        failed.append("p >= 5 required for the refined path")
    if p - 1 >= 3 * degree:
        chain.append(
            ChainStep(
                "nf.cyclotomic_degree",
                "the p-th cyclotomic extension has degree at least 3 over the base field",
                {"p": p, "degree": degree, "lower_bound": (p - 1) // degree},
                RIGOROUS,
            )
        )
    else:
        failed.append("cyclotomic degree (p-1)/d >= 3 not certified")
    if passes_torsion_bound(p, degree):
        chain.append(
            ChainStep(
                "nf.torsion_bound",
                "p exceeds (1 + 3^(d/2))^2, beyond the uniform rational torsion bound",
                {"p": p, "degree": degree},
                RIGOROUS,
            )
        )
    elif torsion_bound_supplied:
        chain.append(
            ChainStep(
                "nf.torsion_bound",
                "caller certified no isogenous curve has a rational p-torsion point",
                {"p": p, "degree": degree},
                USER_SUPPLIED,
            )
        )
    else:
        failed.append("torsion bound p > (1 + 3^(d/2))^2 not met and no certificate supplied")
    witness = None
    for nv in good_place_norms:
        if math.gcd(nv, 3 * p) != 1:
            continue
        if nv_sieve_bound(nv).admits(p):
            witness = nv
            break
    if witness is not None:
        chain.append(
            ChainStep(
                "nf.norm_sieve",
                "a good place away from 3p has norm Nv with p > (Nv + sqrt(Nv))^2",
                {"p": p, "Nv": witness},
                RIGOROUS,
            )
        )
    else:
        failed.append("no supplied good place with p > (Nv + sqrt(Nv))^2 and Nv coprime to 3p")
    if not failed:
        return DivisibilityVerdict(subject, p, Outcome.GUARANTEED, tuple(chain))
    chain.append(
        ChainStep(
            "nf.refined_path",
            "refined conditions incomplete: " + "; ".join(failed),
            {"failed": failed},
            RIGOROUS,
        )
    )
    return DivisibilityVerdict(subject, p, Outcome.INCONCLUSIVE, tuple(chain))


# ---------------------------------------------------------------------------
# quadratic twist scans


@dataclass(frozen=True)
class TwistScanReport:
    """A scan as columns: ds, each Guaranteed row's chain (None if open), open rows' verdicts by d;
    rows, the (d, verdict) pairs with every E^d, built when read."""

    curve: EllipticCurveQ
    p: int
    dmax: int
    ds: tuple
    chains: tuple
    open: dict
    cap: int

    @cached_property
    def rows(self):
        e, p, guaranteed = self.curve, self.p, Outcome.GUARANTEED  # bound once: a hot loop
        return tuple([
            (d, self.open[d] if chain is None else DivisibilityVerdict(_twist_row(e, d), p, guaranteed, chain))
            for d, chain in zip(self.ds, self.chains)
        ])

    @property
    def failures(self):
        return tuple((d, v) for d, v in self.open.items() if v.outcome == Outcome.CRITERION_FAILS)

    @property
    def failure_count(self):
        return len(self.failures)

    def to_json_dict(self):
        outcome = {d: v.outcome.value for d, v in self.open.items()}
        return {
            "curve": self.curve.label or ",".join(map(str, self.curve.ainvs)),
            "p": self.p,
            "dmax": self.dmax,
            "cap": self.cap,
            "failure_count": self.failure_count,
            "failures": [d for d, _ in self.failures],
            "rows": [{"d": d, "outcome": outcome.get(d, Outcome.GUARANTEED.value)} for d in self.ds],
        }


TWIST_FAILURE_CAPS = {3: 2, 5: 2, 7: 1}


def fundamental_discriminants(dmax):
    """All fundamental discriminants d with |d| <= dmax, including 1.

    d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree;
    ordered by |d|, the negative one first.
    """
    return list(_fundamental_discriminants(dmax))


@lru_cache(maxsize=4)
def _fundamental_discriminants(dmax):
    """fundamental_discriminants(dmax) as a tuple, computed once per dmax in a process."""
    if dmax < 1:
        return ()
    squarefree = squarefree_sieve(dmax)
    n = np.arange(1, dmax + 1)
    d = np.stack([-n, n], axis=1).ravel()
    m = d // 4
    fundamental = ((d % 4 == 1) & squarefree[np.abs(d)]) | (
        (d % 4 == 0) & (m % 4 >= 2) & squarefree[np.abs(m)]
    )
    return tuple(d[fundamental].tolist())


def twist_scan(e: EllipticCurveQ, p: int, dmax: int, cfg: RunConfig = DEFAULT_CONFIG) -> TwistScanReport:
    """verdict_over_Q across all twists by fundamental discriminants |d| <= dmax.

    Only the open rows' verdicts are built here, so an error in one is raised here.
    """
    if p not in TWIST_FAILURE_CAPS:
        raise ValueError("twist caps are stated for p in {3, 5, 7}")
    if dmax > 10 ** 4:
        raise ValueError("dmax capped at 10^4")
    ds = _fundamental_discriminants(dmax)
    return TwistScanReport(e, p, dmax, ds, *_twist_columns(e, p, cfg, ds), TWIST_FAILURE_CAPS[p])


def _twist_row(e, d):
    """E^d, labelled E^(d), for a fundamental discriminant d; E itself for d = 1."""
    return e if d == 1 else _twist_model(e, d if d % 4 == 1 else d // 4, f"{e.label}^({d})" if e.label else None)


def _twist_columns(e, p, cfg, ds):
    """The verdicts at p in {3, 5, 7} of the twists E^d (d in ds, E^1 = E), decided from E alone.

    Returns the report's columns chains and open; only the open rows build
    E^d.  E^d's model (d != 1, _twist_row) scales E's disc, c4 and c6 by
    u^6, u^2 and u^3, u = 4d' (d' = d, or d/4 where 4 | d), so
    reduction_type's arithmetic on these mod p gives E^d's type (split by
    (-u^3 c6/p)); where E^d is good so is E, and a_p(E^d) = +-a_p(E).  E^d's
    2-division cubic is E's rescaled.  So E^d's early chain depends on u mod
    p alone, and _early_chain runs once per class.  E = E^1 falls in the
    class of u = 4: 4^k is a square.  One call of _shape_tests decides the
    bad shapes of every twist left open, from E's traces and
    a_ell(E^d) = (d/ell) a_ell(E); each outcome it shares among twists
    whose shapes are all refuted alike gets one exclusion chain.
    """
    supersingular = cache(lambda: is_supersingular(e, p))
    full_2torsion = cache(lambda: has_full_rational_2torsion(e))
    twisted = [_reduction_type(r ** 6 * e.discriminant, r * r * e.c4, r ** 3 * e.c6, p) for r in range(p)]
    by_class = [_early_chain(rt, p, supersingular, full_2torsion) for rt in twisted]
    d = np.array(ds, dtype=np.int64)
    u = 4 * np.where(d % 4 == 1, d, d // 4) % p
    opened = np.array([chain is None for chain in by_class])[u]
    outcomes, index = _shape_tests(lambda bound: frobenius_traces(e, bound), p, d[opened], cfg.trace_bound)
    exclusions = [
        None if any(isinstance(v, Consistent) for _, v in tests) else _exclusion_chain(p, tests) for tests in outcomes
    ]
    u[opened] = len(by_class) + index  # each row's chain, early or exclusion, by one index
    chains = tuple(map((by_class + exclusions).__getitem__, u.tolist()))
    open_rows = {dj: _scan_bad_shapes(_twist_row(e, dj), p, cfg, outcomes[i])
                 for dj, i in zip(d[opened].tolist(), index.tolist()) if exclusions[i] is None}
    return chains, open_rows


def _shape_tests(traces, p, ds, trace_bound):
    """The bad shapes at p of every twist E^d, d in ds, tested in one numpy pass.

    traces(bound) is E's FrobeniusData up to bound.  The primes run in the
    escalation blocks (ell <= 50, ell <= 200, ell <= trace_bound, as far as
    trace_bound reaches).  traces is read once per block, and only while
    some twist has a shape still unrefuted, so for ds = [1]
    (verdict_over_Q) points are counted only up to the bound that settles
    E.  Each block covers just those twists, over the (prime, twist) array:
    ell tests E^d where E^d is good and ell != p (_twist_symbols), and
    there a_ell(E^d) = chi_d(ell) a_ell(E) must be ell^a + ell^b mod p.

    Returns (outcomes, index), ds[j]'s tests being outcomes[index[j]]: a
    tuple of (pair, RefutedAt) for each refuted shape, at its first
    refuting prime, in the order found (block, then pair order), followed
    by (pair, Consistent(checked primes)) for each shape consistent up to
    the trace bound, in pair order.  Twists with every shape refuted at
    the same primes alike share one outcome (equal int64 keys).
    """
    pairs = BAD_SHAPE_PAIRS[p]
    bounds = _escalation_bounds(trace_bound)
    d = np.array(ds, dtype=np.int64)
    first = np.full((len(pairs), len(d)), -1)  # index in ells of each shape's first refutation
    observed = np.zeros((len(pairs), len(d)), dtype=np.int64)
    pending = np.arange(len(d))
    ells, a, good = _trace_arrays(())
    for bound in bounds:
        if not len(pending):
            break
        lo = len(ells)
        ells, a, good = _trace_arrays(traces(bound).entries)
        if lo == len(ells):
            continue
        chi = _twist_symbols(ells[lo:], good[lo:] & (ells[lo:] != p), d[pending])  # prime, twist
        obs = chi * a[lo:, None]
        expected = np.array([shape_values(ells[lo:], p, pair) for pair in pairs])  # pair, prime
        bad = (chi != 0) & (obs % p != expected[:, :, None])  # pair, prime, twist
        at = bad.argmax(axis=1)
        shape, col = np.nonzero(bad.any(axis=1) & (first[:, pending] < 0))
        first[shape, pending[col]] = lo + at[shape, col]
        observed[shape, pending[col]] = obs[at[shape, col], col]
        pending = pending[(first[:, pending] < 0).any(axis=0)]

    ell_list = ells.tolist()

    def tests_of(j, consistent):
        tests = [
            (pair, consistent if i < 0 else RefutedAt(ell_list[i], obs, shape_values(ell_list[i], p, pair)))
            for pair, i, obs in zip(pairs, first[:, j].tolist(), observed[:, j].tolist())
        ]
        tests.sort(key=lambda t: bisect_left(bounds, t[1].ell) if isinstance(t[1], RefutedAt) else len(bounds))
        return tuple(tests)

    # 25 bits for each of at most two shapes (first + 1 < 2^14 primes, |observed| < 2^10 by Hasse);
    # the survivors' keys negative, in order
    key = np.zeros(len(d), dtype=np.int64)
    for where, seen in zip(first, observed):
        key = key << 25 | (where + 1) << 11 | (seen + (1 << 10))
    survivors = np.flatnonzero((first < 0).any(axis=0))
    key[survivors] = survivors - len(d)
    _, firsts, index = np.unique(key, return_index=True, return_inverse=True)
    checked = _twist_symbols(ells, good & (ells != p), d[survivors]).T != 0
    outcomes = [
        tests_of(j, Consistent(tuple(ells[primes].tolist()))) for j, primes in zip(survivors.tolist(), checked)
    ] + [tests_of(j, None) for j in firsts[len(survivors) :].tolist()]
    return outcomes, index


def _trace_arrays(entries):
    """ell, a_ell (0 where bad) and good as numpy columns of FrobeniusData entries."""
    ells, traces, good = zip(*entries) if entries else ((), (), ())
    return (
        np.array(ells, dtype=np.int64),
        np.array([a or 0 for a in traces], dtype=np.int64),
        np.array(good, dtype=bool),
    )


def _twist_symbols(ells, good, ds):
    """(prime, twist) int8 array of chi_d(ell) = (d/ell) where E^d is good
    at ell, 0 where it is bad; good marks the primes where E is good (the
    shape test leaves out p as well).

    E^1 is E itself.  For d != 1, Delta(E^d) = 2^12 d^6 Delta(E) on the
    twist model, so E^d is good exactly at the odd ell prime to d where E
    is good, and there a_ell(E^d) = (d/ell) a_ell(E), with (d/ell) by
    Euler's criterion.  ell = 2 thus counts only for d = 1.
    """
    chi = np.zeros((len(ells), len(ds)), dtype=np.int8)
    chi[:, ds == 1] = good[:, None]
    if (ds != 1).any():
        odd = good & (ells > 2)
        chi[odd] = legendre_symbols(ds, ells[odd])  # (1/ell) = 1 leaves d = 1 as set
    return chi


def unipotent_lift_exception(p) -> bool:
    """Odd primes where quasi-unipotent with unipotent mod-p reduction can
    fail to be unipotent integrally: exactly p = 3, since the p-th
    cyclotomic extension of Q_p has degree p - 1 <= 2 only there."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return p - 1 <= 2
