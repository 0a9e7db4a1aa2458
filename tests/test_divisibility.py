import hashlib
import json
import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import replace

import pytest

import shadiv.divisibility as divisibility
from shadiv.datasets import embedded_curve, regular_prime_resolutions
from shadiv.divisibility import (
    BAD_SHAPE_PAIRS,
    HEURISTIC,
    RIGOROUS,
    Outcome,
    RunConfig,
    fundamental_discriminants,
    twist_scan,
    unipotent_lift_exception,
    verdict_number_field,
    verdict_over_Q,
)
from shadiv.elliptic import (
    TRACE_BOUND_MAX,
    ReductionType,
    curve,
    frobenius_traces,
    is_supersingular,
    quadratic_twist,
    reduction_type,
    trace_at,
)
from shadiv.errors import BudgetExceeded, UnsupportedPrime
from shadiv.galois_image import RefutedAt, test_cyclotomic_pair


def test_large_prime_rule():
    for label in ("121-B1", "121-C1", "legendre-test"):
        v = verdict_over_Q(embedded_curve(label), 13)
        assert v.outcome == Outcome.GUARANTEED
        assert v.chain[0].rule == "rational.large_prime"
        assert all(step.rigor == RIGOROUS for step in v.chain)


def test_large_prime_rule_consults_no_traces(monkeypatch):
    import shadiv.divisibility as div

    def boom(*args, **kwargs):
        raise AssertionError("trace data consulted on the large-prime path")

    monkeypatch.setattr(div, "frobenius_traces", boom)
    v = verdict_over_Q(embedded_curve("121-C2"), 13)
    assert v.outcome == Outcome.GUARANTEED


def test_regular_prime_resolution_chain():
    for label in ("121-C1", "121-C2"):
        v = verdict_over_Q(embedded_curve(label), 11)
        assert v.outcome == Outcome.GUARANTEED
        assert v.chain[-1].rule == "rational.regular_prime_resolution"
    # 121-B1 is excluded by its unique consistent pair, not by the lookup
    v = verdict_over_Q(embedded_curve("121-B1"), 11)
    assert v.outcome == Outcome.GUARANTEED
    assert [s.rule for s in v.chain] == ["rational.large_prime"]


def test_resolution_table_is_data_not_code():
    table = regular_prime_resolutions()
    assert (("121-C1", 11)) in table
    assert ((1, 1, 0, -2, -7), 11) in table


def test_legendre_route():
    v = verdict_over_Q(embedded_curve("legendre-test"), 5)
    assert v.outcome == Outcome.GUARANTEED
    assert v.chain[0].rule == "rational.full_2torsion"
    v7 = verdict_over_Q(embedded_curve("legendre-test"), 7)
    assert v7.outcome == Outcome.GUARANTEED
    assert v7.chain[0].rule == "rational.full_2torsion"


def test_supersingular_route():
    e = embedded_curve("cm-j1728")
    assert is_supersingular(e, 7)
    v = verdict_over_Q(e, 7)
    assert v.outcome == Outcome.GUARANTEED
    assert v.chain[0].rule == "rational.supersingular"


def test_nonsplit_multiplicative_route():
    # find a small curve with nonsplit multiplicative reduction at 5 and no
    # full 2-torsion, so the reduction rule is the one that fires
    from shadiv.elliptic import ReductionType, SingularCurve, has_full_rational_2torsion

    hit = None
    for a2 in range(-6, 7):
        for a6 in range(-6, 7):
            try:
                e = curve((0, a2, 0, 0, a6))
            except SingularCurve:
                continue
            if e.discriminant % 5 == 0 and e.c4 % 5:
                if reduction_type(e, 5) == ReductionType.MULTIPLICATIVE_NONSPLIT:
                    if not has_full_rational_2torsion(e):
                        hit = e
                        break
        if hit:
            break
    assert hit is not None
    v = verdict_over_Q(hit, 5)
    assert v.outcome == Outcome.GUARANTEED
    assert v.chain[0].rule == "rational.nonsplit_multiplicative"


def test_selmer_jacobian_fails_criterion_at_3_only():
    sj = embedded_curve("selmer-jacobian")
    v3 = verdict_over_Q(sj, 3)
    assert v3.outcome == Outcome.CRITERION_FAILS
    assert v3.evidence["interpretation"].startswith("criterion-level failure")
    assert any(step.rigor == HEURISTIC for step in v3.chain)
    assert verdict_over_Q(sj, 5).outcome == Outcome.GUARANTEED
    assert verdict_over_Q(sj, 7).outcome == Outcome.GUARANTEED


def test_rational_5_torsion_curve_fails_at_5():
    e = curve((0, -1, 1, 0, 0), label="11a3")
    v = verdict_over_Q(e, 5)
    assert v.outcome == Outcome.CRITERION_FAILS
    shapes = {s["shape"] for s in v.evidence["consistent_shapes"]}
    assert "1 (+) eps mod 5" in shapes


def test_verdict_rejects_p2():
    with pytest.raises(UnsupportedPrime):
        verdict_over_Q(embedded_curve("121-B1"), 2)


def test_chain_replay():
    """Re-executing every chain step reproduces the verdict."""
    for label, p in (("121-B1", 3), ("121-B1", 5), ("cm-j1728", 7), ("selmer-jacobian", 3)):
        e = embedded_curve(label)
        v = verdict_over_Q(e, p)
        for step in v.chain:
            if step.rule == "rational.shape_exclusion":
                ell = step.inputs["ell"]
                assert trace_at(e, ell) == step.inputs["observed_a_ell"]
                a, b = step.inputs["shape"], None
                pair = step.inputs["shape"]
                assert trace_at(e, ell) % p != step.inputs["expected_mod_p"]
            elif step.rule == "rational.supersingular":
                assert is_supersingular(e, p)
            elif step.rule == "rational.large_prime":
                assert p > 7
            elif step.rule == "rational.full_2torsion":
                from shadiv.elliptic import has_full_rational_2torsion

                assert has_full_rational_2torsion(e) and p >= 5


def test_json_round_trip_and_stability():
    v = verdict_over_Q(embedded_curve("121-C1"), 11)
    blob = v.to_json()
    parsed = json.loads(blob)
    assert parsed["curve"] == "121-C1"
    assert parsed["p"] == 11
    assert parsed["outcome"] == "Guaranteed"
    assert parsed["chain"][-1]["theorem"] == "rational.regular_prime_resolution"
    assert set(parsed["chain"][0]) == {"theorem", "quote_tag", "inputs", "rigor"}
    # bytewise stability
    assert blob == verdict_over_Q(embedded_curve("121-C1"), 11).to_json()
    assert blob == json.dumps(parsed, sort_keys=True, separators=(",", ":"))


def test_tsv_row():
    row = verdict_over_Q(embedded_curve("121-C1"), 13).tsv_row()
    assert row.split("\t") == ["121-C1", "13", "Guaranteed", "rational.large_prime"]


def test_large_prime_route_tags():
    routes = {
        11: "modular-curve analysis at 11",
        13: "excluded by Mazur torsion bound",
        17: "norm-3 sieve via potentially good reduction",
        19: "excluded by Mazur torsion bound",
        23: "norm-3 sieve via potentially good reduction",
    }
    e = embedded_curve("legendre-test")
    for p, route in routes.items():
        v = verdict_over_Q(e, p)
        assert v.chain[0].inputs["route"] == route


def test_user_supplied_semistability_suppresses_warning():
    e = curve((0, -9, 27, 0, 0), label="11a3-scaled")
    cfg = RunConfig(semistable_outside_p=True)
    v = verdict_over_Q(e, 5, cfg)
    assert v.outcome == Outcome.CRITERION_FAILS
    assert "semistability_warnings" not in v.evidence
    assert v.evidence["semistability"].startswith("user-supplied")


def test_semistability_warning_on_nonminimal_model():
    # 11a3 scaled by u = 3: same curve, model now looks additive at 3
    e = curve((0, -9, 27, 0, 0), label="11a3-scaled")
    assert reduction_type(e, 3).value == "Additive"
    v = verdict_over_Q(e, 5)
    assert v.outcome == Outcome.CRITERION_FAILS
    warnings = v.evidence.get("semistability_warnings", [])
    assert any("additive reduction at 3" in w for w in warnings)


def test_number_field_verdicts():
    v = verdict_number_field(1, 13)
    assert v.outcome == Outcome.GUARANTEED
    assert v.chain[0].rule == "nf.uniform_degree_bound"
    # refined path (uniform bound fails at d=2, p=29 but all three conditions hold)
    v = verdict_number_field(2, 29, good_place_norms=(2,))
    assert v.outcome == Outcome.GUARANTEED
    rules = [s.rule for s in v.chain]
    assert rules == ["nf.cyclotomic_degree", "nf.torsion_bound", "nf.norm_sieve"]
    # at p = 11 over Q no norm passes the sieve: (2 + sqrt 2)^2 > 11 already
    v = verdict_number_field(1, 11, good_place_norms=(2, 23))
    assert v.outcome == Outcome.INCONCLUSIVE
    assert "norm sieve" in " ".join(
        s.statement for s in v.chain if s.rule == "nf.refined_path"
    ) or any("Nv" in f for f in v.chain[-1].inputs["failed"])
    v = verdict_number_field(2, 7)
    assert v.outcome == Outcome.INCONCLUSIVE
    v = verdict_number_field(2, 7, good_place_norms=(2,), torsion_bound_supplied=True)
    rules = {s.rule: s.rigor for s in v.chain}
    assert rules.get("nf.torsion_bound") == "user-supplied"


# sha256 of to_json() for each verdict_number_field call in this file, computed
# while the verdict's subject was a placeholder curve carrying the label
NUMBER_FIELD_DIGESTS = [
    ((1, 13), {}, "4ef40fdc35c3dcec17dee014d2d37bde5970765c39bd69f6779b8c520a23a4c7"),
    ((2, 29), {"good_place_norms": (2,)}, "b572237ec70f3cb6e6732ac857153922029bf4fb3d3ff152a107af04cdcea8b4"),
    ((1, 11), {"good_place_norms": (2, 23)}, "e701eb43c2e9e3a04d390b998f08541dd592eadf7a02c9104afa47d9b028dfb3"),
    ((2, 7), {}, "be203307988fed1c1d6f31fd7581c70a07dc43fdb62d5c245327ab4fbfecf1e5"),
    (
        (2, 7),
        {"good_place_norms": (2,), "torsion_bound_supplied": True},
        "5c37d34741678e757838c7d9caeb155a43792774b90befd63f18cca01493887d",
    ),
    ((1, 23), {"good_place_norms": (3, 23, 2)}, "fdffb0dad6eb152eb5d55622d5b402ffbf84ff26d2b18fddb6c9c9e1cbde5e92"),
    ((2, 19), {"good_place_norms": (3,)}, "bc69b179cc24a9437ffd98862ef214ecb2225c7556abb5555ca8d4322449483d"),
]


def test_number_field_verdicts_are_pinned():
    for args, kwargs, digest in NUMBER_FIELD_DIGESTS:
        v = verdict_number_field(*args, **kwargs)
        assert v.curve_name == "degree-parameterized"
        assert hashlib.sha256(v.to_json().encode()).hexdigest() == digest, (args, kwargs)


def test_number_field_norm_sieve_excludes_3p():
    # norms divisible by 3 or p are not admissible witnesses
    v = verdict_number_field(1, 23, good_place_norms=(3, 23, 2))
    # uniform bound (2 + sqrt2)^2 < 23 already fires
    assert v.chain[0].rule == "nf.uniform_degree_bound"
    v = verdict_number_field(2, 19, good_place_norms=(3,))
    failed = v.chain[-1].inputs.get("failed", [])
    assert any("Nv" in f for f in failed)


def test_unipotent_lift_exception():
    assert unipotent_lift_exception(3) is True
    assert unipotent_lift_exception(5) is False
    assert unipotent_lift_exception(7) is False
    with pytest.raises(ValueError):
        unipotent_lift_exception(2)


def test_fundamental_discriminants():
    ds = fundamental_discriminants(20)
    assert 1 in ds and -3 in ds and -4 in ds and 5 in ds and 8 in ds and -8 in ds
    assert 2 not in ds and 3 not in ds and -2 not in ds and 9 not in ds and 12 in ds
    for d in ds:
        assert d % 4 in (0, 1)


def test_twist_by_one_equals_base_verdict():
    e = embedded_curve("selmer-jacobian")
    report = twist_scan(e, 3, 1)
    assert len(report.rows) == 1
    d, v = report.rows[0]
    assert d == 1
    base = verdict_over_Q(e, 3)
    assert v.outcome == base.outcome


def test_twist_scan_caps_small():
    e = embedded_curve("selmer-jacobian")
    report = twist_scan(e, 3, 100)
    assert report.failure_count == 2
    assert [d for d, _ in report.failures] == [1, -3]
    assert report.failure_count <= report.cap
    for p in (5, 7):
        assert twist_scan(e, p, 100).failure_count == 0


def _core(d):
    """Squarefree part of d, by trial division (independent of the scan)."""
    core, n, q = 1, abs(d), 2
    while q * q <= n:
        while n % (q * q) == 0:
            n //= q * q
        if n % q == 0:
            core *= q
            n //= q
        q += 1
    return core * n * (1 if d > 0 else -1)


# 14a1 is split multiplicative at 7 and 15a1 nonsplit at 3, so their
# twists by nonsquares mod p have the other reduction type
_SCAN_CURVES = [embedded_curve(label) for label in ("121-B1", "selmer-jacobian", "legendre-test")] + [
    curve((1, 0, 1, 4, -6), label="14a1"),
    curve((1, 1, 1, -10, -10), label="15a1"),
]


@pytest.mark.parametrize("e", _SCAN_CURVES, ids=lambda e: e.label)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_twist_scan_rows_equal_direct_verdicts(e, p):
    # every row, derived from the base curve, equals verdict_over_Q run on
    # the relabelled twisted curve, whose traces are counted afresh
    label = e.label
    report = twist_scan(e, p, 300)
    ds = [d for d, _ in report.rows]
    assert any(d % 2 == 0 for d in ds)
    assert any(d % p == 0 for d in ds)
    assert any(math.gcd(d, e.discriminant) > 1 and d % p for d in ds)
    for d, v in report.rows:
        direct = e if d == 1 else replace(quadratic_twist(e, _core(d)), label=f"{label}^({d})")
        assert v.curve == direct
        assert v.curve.label == direct.label
        assert v.to_json() == verdict_over_Q(direct, p).to_json(), d


def test_twist_scans_are_pinned():
    # sha256 over (d, verdict JSON) of every row of nine scans; the value
    # was computed by point-counting every twist on its own model
    h = hashlib.sha256()
    for label in ("121-B1", "121-C1", "selmer-jacobian"):
        for p in (3, 5, 7):
            for d, v in twist_scan(embedded_curve(label), p, 1000).rows:
                h.update(f"{d}\t{v.to_json()}\n".encode())
    assert h.hexdigest() == "8231980f9402dda6caa280078228b7d7b39758b2ccfa4831f8b2f3c5f180ec52"


def test_twist_scans_to_1e4_are_pinned():
    # sha256 over (d, verdict JSON, twisted a-invariants, label) of every
    # row of the nine scans to |d| = 10^4, computed by the per-twist
    # FrobeniusData path before the scan decided twists in one numpy pass
    h = hashlib.sha256()
    for label in ("121-B1", "121-C1", "selmer-jacobian"):
        for p in (3, 5, 7):
            for d, v in twist_scan(embedded_curve(label), p, 10 ** 4).rows:
                h.update(f"{d}\t{v.to_json()}\t{v.curve.ainvs}\t{v.curve.label}\n".encode())
    assert h.hexdigest() == "ad79cac191a8e697ccac54632cefed967ee016756a30c5c57f9d842dbefad324"


_EDGE_CONFIGS = [RunConfig(trace_bound=b) for b in (0, 2, 13, 49, 50, 51, 199, 200, 201)] + [
    RunConfig(character_mode="dirichlet"),
    RunConfig(semistable_outside_p=True),
]


# rows first refuted past the first escalation step; tate-5 is the Tate
# normal form with t = 3, which has a rational point of order 5
_LATE_ROWS = [
    ("selmer-jacobian", (0, 0, 0, 0, -432 * 60 * 60), 3, 380),  # 1 (+) eps at 67
    ("tate-5", (-2, -3, -3, 0, 0), 5, -1624),  # eps^2 (+) eps^3 at 13, then 1 (+) eps at 53
    ("tate-5", (-2, -3, -3, 0, 0), 5, -1887),  # 1 (+) eps at 7, then eps^2 (+) eps^3 at 67
]


@pytest.mark.parametrize("cfg", _EDGE_CONFIGS, ids=repr)
def test_twist_scan_rows_equal_direct_verdicts_at_escalation_edges(cfg, monkeypatch):
    # trace bounds on both sides of each TRACE_ESCALATION step, a prime
    # bound whose own trace refutes shapes, and the options that only
    # shape the CriterionFails evidence; one call of the shape-test engine
    # decides every twist of a scan, d = 1 and the surviving shapes included
    engine_calls = []
    engine = divisibility._shape_tests
    monkeypatch.setattr(divisibility, "_shape_tests", lambda *args: engine_calls.append(args) or engine(*args))
    for label in ("121-B1", "selmer-jacobian", "legendre-test"):
        e = embedded_curve(label)
        for p in (3, 5, 7):
            engine_calls.clear()
            assert twist_scan(e, p, 0, cfg).rows == ()
            assert len(engine_calls) == 1
            engine_calls.clear()
            report = twist_scan(e, p, 40, cfg)
            assert len(engine_calls) == 1
            assert [d for d, _ in report.rows] == fundamental_discriminants(40)
            for d, v in report.rows:
                direct = e if d == 1 else replace(quadratic_twist(e, _core(d)), label=f"{label}^({d})")
                assert v.curve == direct
                assert v.curve.label == direct.label
                assert v.to_json() == verdict_over_Q(direct, p, cfg).to_json(), (label, p, d)
    for label, ainvs, p, d in _LATE_ROWS:
        e = curve(ainvs, label=label)
        v = dict(twist_scan(e, p, abs(d), cfg).rows)[d]
        direct = replace(quadratic_twist(e, _core(d)), label=f"{label}^({d})")
        assert v.to_json() == verdict_over_Q(direct, p, cfg).to_json(), (label, d)


# 11a3 is good at 2 (a_2 = -2), where its shape 1 (+) eps is refuted at p = 3 and 7
_ORACLE_CURVES = [embedded_curve(label) for label in ("121-B1", "selmer-jacobian", "legendre-test")] + [
    curve((0, -1, 1, 0, 0), label="11a3")
]


@pytest.mark.parametrize("bound", [0, 2, 13, 49, 50, 51, 199, 200, 201, 1000])
def test_shape_tests_match_test_cyclotomic_pair(bound):
    # for d = 1 the engine's record of each shape is the one the per-prime
    # loop test_cyclotomic_pair gives on the traces up to the bound,
    # checked primes included, in the order found: by escalation block,
    # then pair order, the consistent shapes last
    blocks = divisibility._escalation_bounds(bound)
    for e in _ORACLE_CURVES:
        fd = frobenius_traces(e, bound)
        for p in (3, 5, 7):
            tests, entries = divisibility._shape_tests(lambda b: frobenius_traces(e, b), p, [1], bound)[1]
            expected = sorted(
                ((pair, test_cyclotomic_pair(fd, p, pair)) for pair in BAD_SHAPE_PAIRS[p]),
                key=lambda t: bisect_left(blocks, t[1].ell) if isinstance(t[1], RefutedAt) else len(blocks),
            )
            assert tests == tuple(expected), (e.label, p)
            refuted = all(isinstance(v, RefutedAt) for _, v in tests)
            assert entries == (None if refuted else fd.entries), (e.label, p)


def test_shape_tests_keep_ell_2_for_the_base_curve():
    e = _ORACLE_CURVES[-1]
    for p, expected in ((3, 0), (7, 3)):
        tests, _ = divisibility._shape_tests(lambda b: frobenius_traces(e, b), p, [1], 1000)[1]
        assert tests == (((0, 1), RefutedAt(2, -2, expected)),)
    assert verdict_over_Q(e, 3).chain[0].inputs["ell"] == 2


def test_run_config_rejects_unknown_character_mode():
    with pytest.raises(ValueError, match="dirichet"):
        RunConfig(character_mode="dirichet")


def test_run_config_rejects_negative_trace_bound():
    with pytest.raises(ValueError, match="-5"):
        RunConfig(trace_bound=-5)
    assert RunConfig(trace_bound=0).trace_bound == 0


def test_run_config_rejects_trace_bound_past_the_maximum():
    # a bound of 10^6 raised at p = 3 but returned Guaranteed at p = 13
    with pytest.raises(ValueError, match="1000000"):
        RunConfig(trace_bound=10 ** 6)
    assert RunConfig(trace_bound=TRACE_BOUND_MAX).trace_bound == TRACE_BOUND_MAX


def test_twist_scan_point_counts_do_not_grow_with_dmax(monkeypatch):
    import shadiv.elliptic as ell

    calls = []
    real = ell.count_points

    def counting(e, l):
        calls.append(l)
        return real(e, l)

    monkeypatch.setattr(ell, "count_points", counting)
    e = embedded_curve("selmer-jacobian")  # its d = 1 row scans to the full bound
    counts = []
    for dmax in (1, 100, 3000):
        ell.trace_at.cache_clear()
        ell._column_traces.cache_clear()
        calls.clear()
        report = twist_scan(e, 3, dmax)
        assert report.rows[0][1].outcome == Outcome.CRITERION_FAILS
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] <= len(ell.primes_up_to(1000)) + 1


def test_twist_scan_work_does_not_grow_with_dmax(monkeypatch):
    # a scan scales each twist from the base curve instead of deriving its
    # invariants, validates p once instead of once per row, builds one
    # exclusion chain per distinct refutation key, shared by its rows, and
    # runs _early_chain beyond the base curve only on twists whose
    # reduction type at p can differ from the base's: p | d, or all d != 1
    # when the base is multiplicative at p.  The scan builds E^d only for
    # those twists and the open rows; the JSON builds none, and the rows,
    # built on first read, build each other twist once
    import shadiv.arith as arith
    import shadiv.elliptic as ell

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    curves = [embedded_curve(label) for label in ("121-B1", "121-C1", "selmer-jacobian")]
    for module in (arith, ell, divisibility):
        count(module, "is_prime")
    count(ell, "derive_invariants")
    count(divisibility, "_early_chain")
    count(divisibility, "_twist_model")
    for e in curves:
        for p in (3, 5, 7):
            primality = []
            for dmax in (100, 10 ** 4):
                calls.clear()
                report = twist_scan(e, p, dmax)
                assert calls["derive_invariants"] == 0, (e.label, p, dmax)
                primality.append(calls["is_prime"])
                chains = [v.chain for _, v in report.rows if v.chain[0].rule == "rational.shape_exclusion"]
                assert len({id(c) for c in chains}) == len({repr(c) for c in chains}) < len(chains), (e.label, p)
            assert primality[0] == primality[1] <= 10, (e.label, p, primality)
    multiplicative = (ReductionType.MULTIPLICATIVE_SPLIT, ReductionType.MULTIPLICATIVE_NONSPLIT)
    for e in _SCAN_CURVES:  # good, additive and multiplicative at some p
        for p in (3, 5, 7):
            calls.clear()
            report = twist_scan(e, p, 10 ** 4)
            if reduction_type(e, p) in multiplicative:
                rerun = {d for d in report.ds if d != 1}
            else:
                rerun = {d for d in report.ds if d % p == 0}
            assert calls["_early_chain"] == 1 + len(rerun), (e.label, p)
            built = rerun | set(report.open) - {1}  # E^1 is E
            assert calls["_twist_model"] == len(built), (e.label, p)
            assert set(report.twists) == rerun
            calls.clear()
            report.to_json_dict()
            assert calls["_twist_model"] == 0, (e.label, p)
            rows = report.rows
            assert calls["_twist_model"] == len(report.ds) - 1 - len(built), (e.label, p)
            assert report.rows is rows
            assert {d: v for d, v in rows if v.outcome != Outcome.GUARANTEED} == report.open, (e.label, p)


def test_twist_scan_raises_from_its_open_rows(monkeypatch):
    # the open rows' verdicts are built by the scan itself, so an error in
    # one surfaces at the call, not at a later read of the rows
    e = curve((-2, -3, -3, 0, 0), label="tate-5")
    cfg = RunConfig(character_mode="dirichlet")
    assert twist_scan(e, 5, 300, cfg).failure_count == 2

    def over_budget(*args):
        raise BudgetExceeded("character modulus")

    monkeypatch.setattr(divisibility, "default_character_modulus", over_budget)
    with pytest.raises(BudgetExceeded, match="character modulus"):
        twist_scan(e, 5, 300, cfg)


def test_fundamental_discriminants_match_definition():
    def fundamental(d):
        if d % 4 == 1:
            return _core(d) == d
        return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _core(d // 4) == d // 4

    for dmax in (0, 1, 2, 17, 300):
        expected = [d for n in range(1, dmax + 1) for d in (-n, n) if fundamental(d)]
        assert fundamental_discriminants(dmax) == expected


def test_twist_scan_rejects_large_p():
    with pytest.raises(ValueError):
        twist_scan(embedded_curve("121-B1"), 11, 10)


def _timed_verdict(ainvs, p):
    t0 = time.monotonic()
    v = verdict_over_Q(curve(ainvs), p)
    return v, time.monotonic() - t0


def test_semistability_scan_stops_at_square_root_of_cofactor():
    # rational 5-torsion; disc = 3^10 * 11113^5 * 10002300101, whose largest
    # prime the scan used to reach by trial division
    t = 100017
    v, elapsed = _timed_verdict((1 - t, -t, -t, 0, 0), 5)
    assert v.outcome == Outcome.CRITERION_FAILS
    assert "semistability_warnings" not in v.evidence
    assert elapsed < 5


def test_semistability_scan_factors_two_large_primes():
    # t = 100000007 in the 5-torsion family: disc = 271 * 37199 * t^5 * 991972099;
    # trial division to the second-largest prime t took about 8 s
    t = 100000007
    v, elapsed = _timed_verdict((1 - t, -t, -t, 0, 0), 5)
    assert v.outcome == Outcome.CRITERION_FAILS
    assert "semistability_warnings" not in v.evidence
    assert elapsed < 2


def test_semistability_scan_skips_an_unfactored_discriminant(monkeypatch):
    # the verdict needs no factorisation, so running out of rho budget on
    # the discriminant only skips the additive-reduction check
    import shadiv.arith as arith

    t = 100000007  # disc = 271 * 37199 * t^5 * 991972099
    ainvs = (1 - t, -t, -t, 0, 0)
    factored, _ = _timed_verdict(ainvs, 5)
    monkeypatch.setattr(arith, "RHO_BUDGET", 2 ** 10)
    v, _ = _timed_verdict(ainvs, 5)
    assert v.outcome == factored.outcome == Outcome.CRITERION_FAILS
    assert v.chain == factored.chain
    assert v.evidence["semistability_warnings"] == [
        "discriminant not factored within budget; additive-reduction check skipped"
    ]


def test_semistability_scan_divides_out_two():
    # t = 80 in the 7-torsion family: disc = 2^28 * 5^7 * 13^2 * 79^7 * 2729
    v, elapsed = _timed_verdict((-6319, -505600, -505600, 0, 0), 7)
    assert v.outcome == Outcome.CRITERION_FAILS
    assert v.evidence["semistability_warnings"] == [
        "reduction type at 2 not analyzed (odd primes only)"
    ]
    assert elapsed < 5


def _verdicts_digest(cases, bound):
    cfg = RunConfig(trace_bound=bound)
    h = hashlib.sha256()
    for e, p in cases:
        h.update(verdict_over_Q(e, p, cfg).to_json().encode() + b"\n")
    return h.hexdigest()


# sha256 over the verdict JSON lines, computed with the character-sum point
# count at every prime before Shanks-Mestre counting was added
DEEP_VERDICT_DIGESTS = {
    "tate5-t3-p5-1e5": "cafd90f77bc9cffb11ecba89638cb3d963c5b2b3b61c9d2a66a9e94028f23e49",
    "tate7-t2-p7-3e4": "b7984900efa806f2ddeb5367d6f51799db2f1c07464334882fff388bb3d1fa6d",
    "121-B1-p357-3e4": "197911ba5adba748914410daa2dcba9f8973e733c507f20602f72697d8e37a2e",
}


def test_bound_1e5_verdict_is_pinned_and_fast():
    # the rational 5-torsion curve (1-t, -t, -t, 0, 0) at t = 3 fails the
    # criterion only after the scan to 10^5; it took about 21 s (2 CPUs)
    # when every prime was counted by the character sum
    import shadiv.elliptic as ell

    ell.trace_at.cache_clear()
    ell._column_traces.cache_clear()
    t0 = time.monotonic()
    digest = _verdicts_digest([(curve((-2, -3, -3, 0, 0)), 5)], 10 ** 5)
    elapsed = time.monotonic() - t0
    assert digest == DEEP_VERDICT_DIGESTS["tate5-t3-p5-1e5"]
    assert elapsed < 6


@pytest.mark.parametrize(
    "key, cases",
    [
        ("tate7-t2-p7-3e4", lambda: [(curve((-1, -4, -4, 0, 0)), 7)]),
        ("121-B1-p357-3e4", lambda: [(embedded_curve("121-B1"), p) for p in (3, 5, 7)]),
    ],
)
def test_deep_verdicts_are_pinned(key, cases):
    assert _verdicts_digest(cases(), 3 * 10 ** 4) == DEEP_VERDICT_DIGESTS[key]


def test_second_deep_verdict_counts_no_point(monkeypatch):
    # the column cache keeps a curve's traces past BSGS_MIN_ELL, as trace_at
    # keeps those below it: a second verdict on the same curve at the same
    # bound, at any p, counts no point
    import shadiv.elliptic as ell

    e = embedded_curve("121-B1")
    ell.trace_at.cache_clear()
    ell._column_traces.cache_clear()
    verdict_over_Q(e, 3, RunConfig(trace_bound=3 * 10 ** 4))

    def boom(*args):
        raise AssertionError("a point was counted")

    for name in ("count_points", "_shanks_mestre_column"):
        monkeypatch.setattr(ell, name, boom)
    assert _verdicts_digest([(e, p) for p in (3, 5, 7)], 3 * 10 ** 4) == DEEP_VERDICT_DIGESTS["121-B1-p357-3e4"]
