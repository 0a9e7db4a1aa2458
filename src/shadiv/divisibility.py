"""The criterion engine: per-(curve, prime) divisibility verdicts.

A Guaranteed verdict means the sufficient criteria for p-divisibility of
the everywhere-locally-divisible classes hold; CriterionFails means a bad
semisimplification shape stayed consistent with the traces, which is NOT a
disproof of divisibility.  Every verdict carries a replayable reason chain
whose steps are tagged rigorous / heuristic / user-supplied.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .arith import is_prime, prime_factors, squarefree_sieve
from .datasets import regular_prime_resolutions
from .elliptic import (
    EllipticCurveQ,
    ReductionType,
    _twist_model,
    frobenius_traces,
    has_full_rational_2torsion,
    is_supersingular,
    reduction_type,
)
from .errors import BudgetExceeded, UnsupportedPrime
from .galois_image import (
    Consistent,
    RefutedAt,
    cyclotomic_pair_candidates,
    default_character_modulus,
    dirichlet_pair_scan,
    nv_sieve_bound,
    passes_torsion_bound,
    passes_uniform_degree_bound,
    test_cyclotomic_pair,
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


@dataclass(frozen=True)
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
    """Engine knobs; every default is explicit."""

    trace_bound: int = 1000
    character_mode: str = "cyclotomic"  # or "dirichlet"
    semistable_outside_p: bool = None  # user-supplied metadata


DEFAULT_CONFIG = RunConfig()

# shapes scanned per small prime: exponent pairs (a, b) for eps^a + eps^b.
# Over Q a character valued in F_p* with chi^3 = eps_p exists only when
# 3 does not divide p - 1, and then chi is cyclotomic; so the cyclotomic
# list below is complete for p in {3, 5, 7}.
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
    return _verdict(
        e,
        p,
        cfg,
        traces=lambda bound: frobenius_traces(e, bound),
        supersingular=lambda: is_supersingular(e, p),
        full_2torsion=lambda: has_full_rational_2torsion(e),
    )


def _verdict(e, p, cfg, traces, supersingular, full_2torsion):
    """verdict_over_Q with its curve data taken from sources.

    traces(bound) gives the FrobeniusData of e up to bound; supersingular()
    (asked only when e is good at p) and full_2torsion() answer for e.
    Each is consulted only on the path that needs it.
    """
    if p == 2:
        raise UnsupportedPrime("the divisibility criteria concern odd primes")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chain = []
    if p > 7:
        chain.append(
            ChainStep(
                "rational.large_prime",
                "over Q the locally divisible classes are p-divisible for every prime p > 7",
                {"p": p, "route": _large_prime_route(p)},
                RIGOROUS,
            )
        )
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

    if p >= 5 and full_2torsion():
        chain.append(
            ChainStep(
                "rational.full_2torsion",
                "rational 2-torsion caps odd rational torsion of every quadratic twist at 3, excluding all bad shapes for p >= 5",
                {"p": p, "two_torsion_roots": 3},
                RIGOROUS,
            )
        )
        return DivisibilityVerdict(e, p, Outcome.GUARANTEED, tuple(chain))

    good_at_p = e.discriminant % p != 0
    if good_at_p:
        if supersingular():
            chain.append(
                ChainStep(
                    "rational.supersingular",
                    "supersingular reduction makes the mod-p representation irreducible",
                    {"p": p, "a_p mod p": 0},
                    RIGOROUS,
                )
            )
            return DivisibilityVerdict(e, p, Outcome.GUARANTEED, tuple(chain))
    else:
        rt = reduction_type(e, p)
        if rt == ReductionType.MULTIPLICATIVE_NONSPLIT:
            chain.append(
                ChainStep(
                    "rational.nonsplit_multiplicative",
                    "nonsplit multiplicative reduction at p forces the unramified quadratic twist shape, excluding the bad shapes",
                    {"p": p, "reduction": rt.value},
                    RIGOROUS,
                )
            )
            return DivisibilityVerdict(e, p, Outcome.GUARANTEED, tuple(chain))

    return _scan_bad_shapes(e, p, cfg, chain, traces)


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


def _scan_bad_shapes(e, p, cfg, chain, traces):
    bounds = [b for b in TRACE_ESCALATION if b < cfg.trace_bound] + [cfg.trace_bound]
    pending = list(BAD_SHAPE_PAIRS[p])
    refuted = []
    consistent = []
    fd = None
    for bound in bounds:
        fd = traces(bound)
        consistent = []
        still = []
        for pair in pending:
            verdict = test_cyclotomic_pair(fd, p, pair)
            if isinstance(verdict, RefutedAt):
                refuted.append((pair, verdict))
            else:
                still.append((pair, verdict))
        pending = [pair for pair, _ in still]
        consistent = still
        if not pending:
            break
    if not pending:
        for pair, verdict in refuted:
            chain.append(
                ChainStep(
                    "rational.shape_exclusion",
                    f"semisimplification shape {_shape_name(p, pair)} refuted by a trace congruence",
                    {
                        "shape": _shape_name(p, pair),
                        "ell": verdict.ell,
                        "observed_a_ell": verdict.observed,
                        "expected_mod_p": verdict.expected,
                    },
                    RIGOROUS,
                )
            )
        return DivisibilityVerdict(e, p, Outcome.GUARANTEED, tuple(chain))

    if cfg.character_mode == "dirichlet":
        modulus = default_character_modulus(e, p)
        extra = dirichlet_pair_scan(fd, p, modulus, "chi_chi_squared")
        dirichlet_note = {
            "modulus": modulus,
            "consistent_chi_chi_squared": len(extra),
        }
    else:
        dirichlet_note = {"note": "cyclotomic-only scan; complete over Q for p in {3,5,7}"}

    checked_any = any(len(v.checked_primes) > 0 for _, v in consistent)
    if not checked_any:
        chain.append(
            ChainStep(
                "rational.bad_shape_scan",
                "no usable good primes below the trace bound; shapes undecided",
                {"trace_bound": cfg.trace_bound},
                HEURISTIC,
            )
        )
        return DivisibilityVerdict(e, p, Outcome.INCONCLUSIVE, tuple(chain))

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
        "scan": dirichlet_note,
    }
    if cfg.semistable_outside_p:
        evidence["semistability"] = "user-supplied: semistable outside p"
    else:
        warnings = _semistability_warnings(e, p) if p in (5, 7) else []
        if warnings:
            evidence["semistability_warnings"] = warnings
    for pair, v in consistent:
        chain.append(
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
        )
    return DivisibilityVerdict(e, p, Outcome.CRITERION_FAILS, tuple(chain), evidence)


def _semistability_warnings(e, p):
    """Real shape failures at p in {5,7} force semistability outside p.

    Additive reduction elsewhere on the supplied model therefore signals
    either a non-minimal model or a spurious consistency.  The verdict
    needs no factorisation, so a discriminant rho cannot factor within its
    budget skips the check, with a warning saying so.
    """
    warnings = []
    try:
        primes = prime_factors(abs(e.discriminant))
    except BudgetExceeded:
        primes = []
        warnings.append("discriminant not factored within budget; additive-reduction check skipped")
    for q in primes:
        if q not in (2, p) and reduction_type(e, q) == ReductionType.ADDITIVE:
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


def verdict_number_field(degree, p, good_place_norms=(), cfg=DEFAULT_CONFIG,
                         torsion_bound_supplied=False, curve_label=None):
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
    curve: EllipticCurveQ
    p: int
    dmax: int
    rows: tuple  # (fundamental discriminant, DivisibilityVerdict)
    cap: int

    @property
    def failures(self):
        return tuple(
            (d, v) for d, v in self.rows if v.outcome == Outcome.CRITERION_FAILS
        )

    @property
    def failure_count(self):
        return len(self.failures)

    def to_json_dict(self):
        return {
            "curve": self.curve.label or ",".join(map(str, self.curve.ainvs)),
            "p": self.p,
            "dmax": self.dmax,
            "cap": self.cap,
            "failure_count": self.failure_count,
            "failures": [d for d, _ in self.failures],
            "rows": [
                {"d": d, "outcome": v.outcome.value} for d, v in self.rows
            ],
        }


TWIST_FAILURE_CAPS = {3: 2, 5: 2, 7: 1}


def fundamental_discriminants(dmax):
    """All fundamental discriminants d with |d| <= dmax, including 1.

    d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree;
    ordered by |d|, the negative one first.
    """
    if dmax < 1:
        return []
    squarefree = squarefree_sieve(dmax)
    n = np.arange(1, dmax + 1)
    d = np.stack([-n, n], axis=1).ravel()
    m = d // 4
    fundamental = ((d % 4 == 1) & squarefree[np.abs(d)]) | (
        (d % 4 == 0) & (m % 4 >= 2) & squarefree[np.abs(m)]
    )
    return d[fundamental].tolist()


def twist_scan(e: EllipticCurveQ, p: int, dmax: int, cfg: RunConfig = DEFAULT_CONFIG) -> TwistScanReport:
    """verdict_over_Q across all twists by fundamental discriminants |d| <= dmax.

    Each twist's verdict inputs come from the base curve: its traces by
    a_ell(E^d) = (d/ell) a_ell(E) (FrobeniusData.twist), and its
    supersingularity at p and full rational 2-torsion, which the twist
    leaves unchanged (a_p(E^d) = +-a_p(E) wherever E^d is good at p; the
    2-division cubic of E^d is that of E rescaled by 4d).  Rows are those
    of verdict_over_Q on each twisted curve.
    """
    if p not in TWIST_FAILURE_CAPS:
        raise ValueError("twist caps are stated for p in {3, 5, 7}")
    if dmax > 10 ** 4:
        raise ValueError("dmax capped at 10^4")
    full = cache(lambda: frobenius_traces(e, cfg.trace_bound))
    base_traces = cache(lambda bound: full().upto(bound))
    supersingular = cache(lambda: is_supersingular(e, p))
    full_2torsion = cache(lambda: has_full_rational_2torsion(e))
    rows = []
    for d in fundamental_discriminants(dmax):
        core = d if d % 4 == 1 else d // 4
        if d == 1:
            twisted = e
        else:
            twisted = _twist_model(e, core, label=f"{e.label}^({d})" if e.label else None)
        traces = lambda bound, twisted=twisted, core=core: base_traces(bound).twist(twisted, core)
        rows.append((d, _verdict(twisted, p, cfg, traces, supersingular, full_2torsion)))
    return TwistScanReport(e, p, dmax, tuple(rows), TWIST_FAILURE_CAPS[p])


def unipotent_lift_exception(p) -> bool:
    """Odd primes where quasi-unipotent with unipotent mod-p reduction can
    fail to be unipotent integrally: exactly p = 3, since the p-th
    cyclotomic extension of Q_p has degree p - 1 <= 2 only there."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return p - 1 <= 2
