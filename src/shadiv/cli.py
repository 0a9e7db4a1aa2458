"""Command-line surface: analyze, groupcrit-verify, tables, selmer-example, twist-scan.

All output is deterministic given inputs and seed; JSON is emitted with
sorted keys and fixed separators.  Exit codes are nonzero only for parse
or internal errors, never for mathematical outcomes.
"""

import json
import sys

import click
from click.core import ParameterSource

from .datasets import EMBEDDED_AINVS, embedded_curve
from .divisibility import RunConfig, twist_scan, verdict_over_Q
from .elliptic import curve, trace_at
from .errors import ShadivError
from .galois_image import (
    Consistent,
    cyclotomic_pair_candidates,
    minimal_admissible_prime,
    nv3_bad_sets,
    nv3_conclusion_threshold,
    passes_uniform_degree_bound,
    test_cyclotomic_pair,
)
from .gl2 import Exhaustive, Sampled, enumerate_subgroups
from .local_cubic import selmer_example_report


def _dump_json(payload):
    click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def parse_curve_spec(text, label=None):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected 5 comma-separated integers, got {len(parts)} fields")
    try:
        ainvs = tuple(int(p) for p in parts)
    except ValueError as exc:
        bad = next(p for p in parts if not _is_int(p))
        col = text.index(bad) + 1
        raise ValueError(f"column {col}: {bad!r} is not an integer") from exc
    return curve(ainvs, label=label)


def _is_int(s):
    try:
        int(s)
        return True
    except ValueError:
        return False


def parse_curve_file(path):
    """One curve per line, optional `label:` prefix, `#` comments."""
    curves = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            label = None
            body = line
            if ":" in line:
                label, body = (part.strip() for part in line.split(":", 1))
            try:
                curves.append(parse_curve_spec(body, label=label))
            except (ValueError, ShadivError) as exc:
                raise click.ClickException(f"{path}: line {lineno}: {exc}")
    return curves


@click.group()
def main():
    """Computable p-divisibility criteria for everywhere-locally-divisible classes."""


@main.command()
@click.option("--curve", "curve_spec", help="a1,a2,a3,a4,a6")
@click.option("--curve-file", type=click.Path(exists=True), help="curve list file")
@click.option("--embedded", type=click.Choice(sorted(EMBEDDED_AINVS)), help="embedded curve label")
@click.option("--label", default=None, help="label for --curve input")
@click.option("--primes", required=True, help="comma-separated odd primes")
@click.option("--trace-bound", default=1000, show_default=True)
@click.option("--character-mode", type=click.Choice(["cyclotomic", "dirichlet"]), default="cyclotomic", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "tsv", "text"]), default="text", show_default=True)
def analyze(curve_spec, curve_file, embedded, label, primes, trace_bound,
            character_mode, fmt):
    """Divisibility verdicts for curves at odd primes."""
    if label is not None and not curve_spec:
        raise click.UsageError("--label names the --curve input; give it with --curve")
    curves = []
    if curve_spec:
        try:
            curves.append(parse_curve_spec(curve_spec, label=label))
        except (ValueError, ShadivError) as exc:
            raise click.ClickException(f"--curve: {exc}")
    if embedded:
        curves.append(embedded_curve(embedded))
    if curve_file:
        curves.extend(parse_curve_file(curve_file))
    if not curves:
        raise click.ClickException("no curve given (use --curve, --embedded or --curve-file)")
    try:
        plist = [int(p) for p in primes.split(",")]
    except ValueError:
        raise click.ClickException(f"--primes: {primes!r} is not a comma-separated integer list")
    try:
        cfg = RunConfig(trace_bound=trace_bound, character_mode=character_mode)
        verdicts = [verdict_over_Q(e, p, cfg) for e in curves for p in plist]
    except (ShadivError, ValueError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        _dump_json({"reports": [v.to_json_dict() for v in verdicts]})
    elif fmt == "tsv":
        click.echo("curve\tp\toutcome\tfirst_reason")
        for v in verdicts:
            click.echo(v.tsv_row())
    else:
        for v in verdicts:
            click.echo(f"{v.curve_name} @ p={v.p}: {v.outcome.value}")
            for step in v.chain:
                click.echo(f"    [{step.rigor}] {step.rule}: {step.statement}")
            if v.evidence:
                click.echo(f"    evidence: {json.dumps(v.evidence, sort_keys=True)}")


@main.command("groupcrit-verify")
@click.option("--p", "prime", type=int, required=True)
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), required=True)
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=None, help="required for sampled mode")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def groupcrit_verify(prime, mode, count, seed, fmt):
    """Verify the two-sided subgroup criterion over the chosen subgroup stream."""
    from .cohomology import groupcrit_side_analytic, groupcrit_side_structural

    ctx = click.get_current_context()
    if mode == "exhaustive" and any(
        ctx.get_parameter_source(name) is not ParameterSource.DEFAULT for name in ("count", "seed")
    ):
        raise click.UsageError("--count and --seed apply to sampled mode only")
    if prime not in (3, 5, 7):
        raise click.ClickException("groupcrit-verify supports p in {3, 5, 7}")
    if mode == "sampled" and seed is None:
        raise click.ClickException("--seed is mandatory for sampled mode")
    try:
        stream = enumerate_subgroups(prime, Sampled(count, seed) if mode == "sampled" else Exhaustive())
    except ShadivError as exc:
        raise click.ClickException(str(exc))
    checked = 0
    mismatches = []
    both_true = 0
    both_false = 0
    for sub in stream:
        a = groupcrit_side_analytic(sub)
        s = groupcrit_side_structural(sub)
        checked += 1
        if a != s:
            mismatches.append({"order": sub.order, "generators": [list(map(list, g)) for g in sub.generators]})
        elif a:
            both_true += 1
        else:
            both_false += 1
    payload = {
        "p": prime,
        "mode": mode,
        "subgroups_checked": checked,
        "mismatches": len(mismatches),
        "mismatch_witnesses": mismatches,
        "both_sides_true": both_true,
        "both_sides_false": both_false,
    }
    if mode == "sampled":
        payload["requested"] = count
        payload["seed"] = seed
        if checked < count:
            payload["note"] = "sample saturated: GL2(F_p) has fewer reachable subgroups than requested"
    if fmt == "json":
        _dump_json(payload)
    else:
        for key in ("p", "mode", "subgroups_checked", "both_sides_true", "both_sides_false", "mismatches"):
            click.echo(f"{key}: {payload[key]}")
        if "note" in payload:
            click.echo(f"note: {payload['note']}")
        click.echo("PASS" if not mismatches else "FAIL")


EXPECTED_P11_ROW = (3, 3, -1, 0, 1, -3)
EXPECTED_CURVE_ROWS = {
    "121-B1": {"trace2": 0, "pair": (3, 8)},
    "121-C1": {"trace2": 1, "pair": (4, 7)},
    "121-C2": {"trace2": 1, "pair": (4, 7)},
}
EXPECTED_NV3 = {"setA": (1, 2, 3, 4, 5, 6, 7), "setB": (12, 2, 4, 12, 20, 22, 12), "threshold": 11}
EXPECTED_MINIMAL_PRIMES = {1: 13, 2: 37, 3: 127, 4: 401, 5: 1423}


def _signed_mod(v, m):
    v %= m
    return v - m if v > m // 2 else v


def table_p11():
    from .elliptic import frobenius_traces

    pairs = [(0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6)]
    row = tuple(_signed_mod(pow(2, a, 11) + pow(2, b, 11), 11) for a, b in pairs)
    curves = {}
    for lab in ("121-B1", "121-C1", "121-C2"):
        e = embedded_curve(lab)
        fd = frobenius_traces(e, 1000)
        consistent = [
            (c.a, c.b)
            for c in cyclotomic_pair_candidates(11)
            if isinstance(test_cyclotomic_pair(fd, 11, c), Consistent)
        ]
        curves[lab] = {
            "trace2": trace_at(e, 2),
            "consistent_pairs": consistent,
            "expected_pair": list(EXPECTED_CURVE_ROWS[lab]["pair"]),
            "pass": (
                trace_at(e, 2) == EXPECTED_CURVE_ROWS[lab]["trace2"]
                and consistent == [EXPECTED_CURVE_ROWS[lab]["pair"]]
            ),
        }
    return {
        "pairs": [list(p) for p in pairs],
        "reference_row": list(row),
        "expected_row": list(EXPECTED_P11_ROW),
        "row_pass": row == EXPECTED_P11_ROW,
        "curves": curves,
        "pass": row == EXPECTED_P11_ROW and all(c["pass"] for c in curves.values()),
    }


def table_nv3():
    set_a, set_b = nv3_bad_sets()
    threshold = nv3_conclusion_threshold()
    return {
        "setA": list(set_a),
        "setB": list(set_b),
        "threshold": threshold,
        "expected": {k: list(v) if isinstance(v, tuple) else v for k, v in EXPECTED_NV3.items()},
        "pass": (
            set_a == EXPECTED_NV3["setA"]
            and set_b == EXPECTED_NV3["setB"]
            and threshold == EXPECTED_NV3["threshold"]
        ),
    }


def table_bounds():
    rows = []
    ok = True
    for d in range(1, 6):
        minimal = minimal_admissible_prime(lambda q, d=d: passes_uniform_degree_bound(q, d))
        expected = EXPECTED_MINIMAL_PRIMES[d]
        rows.append(
            {
                "degree": d,
                "threshold_integers": {"X": 4 ** d, "Y": 2 ** d},
                "minimal_admissible_prime": minimal,
                "expected": expected,
                "pass": minimal == expected,
            }
        )
        ok = ok and minimal == expected
    return {"rows": rows, "pass": ok}


@main.command()
@click.option("--which", type=click.Choice(["p11", "nv3", "bounds"]), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def tables(which, fmt):
    """Recompute embedded reference tables and report PASS/FAIL."""
    table = {"p11": table_p11, "nv3": table_nv3, "bounds": table_bounds}[which]()
    if fmt == "json":
        _dump_json(table)
        return
    if which == "p11":
        click.echo("pair        " + "  ".join(f"({a},{b})" for a, b in table["pairs"]))
        click.echo("2^a+2^b mod 11: " + "  ".join(str(v) for v in table["reference_row"]))
        click.echo(f"row check: {'PASS' if table['row_pass'] else 'FAIL'}")
        for lab, row in table["curves"].items():
            click.echo(
                f"{lab}: tr(Frob_2) = {row['trace2']}, consistent pairs {row['consistent_pairs']} "
                f"[{'PASS' if row['pass'] else 'FAIL'}]"
            )
    elif which == "nv3":
        click.echo(f"setA = {table['setA']}")
        click.echo(f"setB = {table['setB']}")
        click.echo(f"safe beyond p = {table['threshold']}")
    else:
        for row in table["rows"]:
            click.echo(
                f"d={row['degree']}: minimal admissible prime {row['minimal_admissible_prime']} "
                f"[{'PASS' if row['pass'] else 'FAIL'}]"
            )
    click.echo("PASS" if table["pass"] else "FAIL")


@main.command("selmer-example")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def selmer_example(fmt):
    """The full worked example around Selmer's cubic 3X^3 + 4Y^3 + 5Z^3 = 0."""
    report = selmer_example_report()
    if fmt == "json":
        _dump_json(report)
        return
    click.echo(report["curve"])
    click.echo(f"Jacobian: {report['jacobian']}")
    for step in report["steps"]:
        if step["tag"] == "computed":
            click.echo(f"  [computed] {step['name']}:")
            for key, value in step["detail"].items():
                click.echo(f"      {key} = {value}")
        else:
            click.echo(f"  [cited]    {step['name']}: {step['statement']}")
    for key, value in report["derived"].items():
        click.echo(f"  => {key}: {value}")


@main.command("twist-scan")
@click.option("--curve", "curve_spec", help="a1,a2,a3,a4,a6")
@click.option("--embedded", type=click.Choice(sorted(EMBEDDED_AINVS)))
@click.option("--p", "prime", type=int, required=True)
@click.option("--dmax", type=int, default=500, show_default=True)
@click.option("--trace-bound", default=1000, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def twist_scan_cmd(curve_spec, embedded, prime, dmax, trace_bound, fmt):
    """Scan quadratic twists by fundamental discriminants |d| <= dmax."""
    if curve_spec and embedded:
        raise click.UsageError("give one curve: --curve or --embedded, not both")
    if curve_spec:
        try:
            e = parse_curve_spec(curve_spec)
        except (ValueError, ShadivError) as exc:
            raise click.ClickException(f"--curve: {exc}")
    elif embedded:
        e = embedded_curve(embedded)
    else:
        raise click.ClickException("no curve given")
    try:
        report = twist_scan(e, prime, dmax, RunConfig(trace_bound=trace_bound))
    except (ShadivError, ValueError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        _dump_json(report.to_json_dict())
        return
    click.echo(f"{report.curve.label or report.curve.ainvs} at p={prime}, |d| <= {dmax}")
    click.echo(f"fundamental discriminants scanned: {len(report.ds)}")
    click.echo(f"criterion failures: {report.failure_count} at d in {[d for d, _ in report.failures]}")
    click.echo(f"cap from the twist corollary: {report.cap}")
    click.echo("WITHIN CAP" if report.failure_count <= report.cap else "CAP EXCEEDED")


if __name__ == "__main__":
    sys.exit(main())
