import hashlib
import json

import pytest
from click.testing import CliRunner

from shadiv.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_analyze_five_primes(runner):
    result = runner.invoke(
        main, ["analyze", "--curve", "0,-1,1,-7,10", "--label", "121-B1", "--primes", "3,5,7,11,13"]
    )
    assert result.exit_code == 0
    assert result.output.count("@ p=") == 5
    assert "121-B1 @ p=13: Guaranteed" in result.output
    assert "rational.large_prime" in result.output


def test_analyze_json_round_trip(runner):
    args = ["analyze", "--curve", "0,-1,1,-7,10", "--primes", "3,13", "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert set(report) == {"curve", "p", "outcome", "chain", "evidence"}
        for step in report["chain"]:
            assert set(step) == {"theorem", "quote_tag", "inputs", "rigor"}
    # bytewise deterministic
    again = runner.invoke(main, args)
    assert again.output == result.output


def test_analyze_tsv(runner):
    result = runner.invoke(
        main, ["analyze", "--embedded", "121-C1", "--primes", "11", "--format", "tsv"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "curve\tp\toutcome\tfirst_reason"
    assert lines[1].split("\t") == ["121-C1", "11", "Guaranteed", "rational.large_prime"]


def test_analyze_parse_error_exit_code(runner):
    result = runner.invoke(main, ["analyze", "--curve", "1,2,3", "--primes", "5"])
    assert result.exit_code != 0
    assert "expected 5" in result.output
    result = runner.invoke(main, ["analyze", "--curve", "1,2,x,4,5", "--primes", "5"])
    assert result.exit_code != 0
    assert "column" in result.output


def test_analyze_rejects_ignored_metadata_flags(runner):
    # --analytic-rank and --assume-minimal were accepted and never read
    for flag in (["--analytic-rank", "0"], ["--assume-minimal"]):
        result = runner.invoke(main, ["analyze", "--embedded", "121-C1", "--primes", "11"] + flag)
        assert result.exit_code == 2
        assert "No such option" in result.output


def test_invalid_trace_bound_exits_through_value_error(runner):
    for command in (["analyze", "--primes", "3"], ["twist-scan", "--p", "3"]):
        result = runner.invoke(main, command + ["--embedded", "121-B1", "--trace-bound", "-5"])
        assert result.exit_code == 1
        assert "Error: trace bound -5 is outside" in result.output


def test_analyze_curve_file(runner, tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text(
        "# embedded reproductions\n"
        "121-B1: 0,-1,1,-7,10\n"
        "plain, no label is fine -> next line\n".replace("plain, no label is fine -> next line\n", "")
        + "0,0,0,-1,0\n"
    )
    result = runner.invoke(main, ["analyze", "--curve-file", str(path), "--primes", "13", "--format", "tsv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("121-B1\t13")


def test_analyze_curve_file_error_line_number(runner, tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("0,0,0,-1,0\nbad: 1,2,three,4,5\n")
    result = runner.invoke(main, ["analyze", "--curve-file", str(path), "--primes", "5"])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_groupcrit_verify_exhaustive_p3(runner):
    result = runner.invoke(main, ["groupcrit-verify", "--p", "3", "--mode", "exhaustive", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["subgroups_checked"] == 55
    assert payload["mismatches"] == 0


def test_groupcrit_verify_exhaustive_p7_is_a_clean_error(runner):
    result = runner.invoke(main, ["groupcrit-verify", "--p", "7", "--mode", "exhaustive"])
    assert result.exit_code == 1
    assert result.output == "Error: exhaustive enumeration only for p <= 5\n"
    assert isinstance(result.exception, SystemExit)  # not an uncaught ModeUnsupported


def test_groupcrit_verify_exhaustive_rejects_sampling_flags(runner):
    # exhaustive mode read neither flag; given at all, even at its default,
    # either is a usage error
    for flags in (["--seed", "5"], ["--count", "10"], ["--count", "1000"], ["--seed", "5", "--count", "10"]):
        result = runner.invoke(main, ["groupcrit-verify", "--p", "3", "--mode", "exhaustive"] + flags)
        assert result.exit_code == 2, flags
        assert "--count and --seed apply to sampled mode only" in result.output


def test_groupcrit_verify_requires_seed(runner):
    result = runner.invoke(main, ["groupcrit-verify", "--p", "5", "--mode", "sampled"])
    assert result.exit_code != 0
    assert "seed" in result.output


def test_groupcrit_verify_sampled_deterministic(runner):
    args = ["groupcrit-verify", "--p", "5", "--mode", "sampled", "--count", "150", "--seed", "9", "--format", "json"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["mismatches"] == 0
    assert payload["subgroups_checked"] == 150


def test_tables_p11(runner):
    result = runner.invoke(main, ["tables", "--which", "p11", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["reference_row"] == [3, 3, -1, 0, 1, -3]
    assert payload["pass"] is True
    assert payload["curves"]["121-B1"]["consistent_pairs"] == [[3, 8]]


def test_tables_nv3(runner):
    result = runner.invoke(main, ["tables", "--which", "nv3", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["setA"] == [1, 2, 3, 4, 5, 6, 7]
    assert payload["setB"] == [12, 2, 4, 12, 20, 22, 12]
    assert payload["threshold"] == 11
    assert payload["pass"] is True


def test_tables_bounds(runner):
    result = runner.invoke(main, ["tables", "--which", "bounds", "--format", "json"])
    payload = json.loads(result.output)
    got = {row["degree"]: row["minimal_admissible_prime"] for row in payload["rows"]}
    assert got == {1: 13, 2: 37, 3: 127, 4: 401, 5: 1423}
    assert payload["pass"] is True


def test_selmer_example_text_and_json(runner):
    text = runner.invoke(main, ["selmer-example"])
    assert text.exit_code == 0
    assert "3X^3 + 4Y^3 + 5Z^3" in text.output
    assert "[computed]" in text.output and "[cited]" in text.output
    as_json = runner.invoke(main, ["selmer-example", "--format", "json"])
    payload = json.loads(as_json.output)
    sections = next(s for s in payload["steps"] if s["name"] == "coordinate-sections-at-3")
    assert sections["detail"]["S"] is True and sections["detail"]["S'"] is False


def test_selmer_example_output_pinned(runner):
    # has_local_point feeds this report; its answers must not move the bytes
    pinned = {
        "text": "0b8de1d2a09cba30304ae15d743ac4811ef29d891e6bf8d9265f8aaccda1c080",
        "json": "a3270dd1c122ca3017cc9de33648895e6af91d4cfed47427d16387c778ad05ec",
    }
    for fmt, digest in pinned.items():
        result = runner.invoke(main, ["selmer-example", "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest, fmt


# sha256 of the JSON output of each command, computed before the integer
# arithmetic moved into one module; selmer-example is pinned above
JSON_DIGESTS = {
    "analyze --embedded selmer-jacobian --primes 3,5,7 --character-mode dirichlet":
        "4c6491fb065463d37086058a500572040dd0cb87649a99087e68fab64557109a",
    "analyze --curve -2,-3,-3,0,0 --primes 5 --trace-bound 100000":
        "a9868c2adc00b7cb1c3eca7a26ffd0a3dc1bb010856a00473b8ffe7cb88664b1",
    "twist-scan --embedded selmer-jacobian --p 3 --dmax 10000":
        "a191b0c38d41ff3ba5752a418d259d5325a37d7ebc30aeb0416b88e0e8e0ccf8",
    "tables --which bounds": "c27c46414cb4bbf67b1dc042a028c10f1af1db5649d68fa656a59d35f499fc73",
    "tables --which nv3": "961599fd4190f11202ca26d5714c9ac39a1898e1d0e1addb70bf8d86a00f927f",
    "tables --which p11": "24c4da5472f158f4cb4e03feec1172f392d4245b811ad73e119f157dc84bf916",
    "groupcrit-verify --p 5 --mode sampled --count 5000 --seed 1":
        "bc6f8a88409fe6e6ff154d54c4baae24d14c3caea51107576ec1591989541768",
    "groupcrit-verify --p 3 --mode exhaustive":
        "6fa087637036e116858508de20ea08a1f49eeabed0fcbb8cae1cc552728f0d14",
    # 466 subgroups, 0 mismatches, 303 with both sides true
    "groupcrit-verify --p 5 --mode exhaustive":
        "b0519530a53b340840c42ba0180f1bb4bdfb8abe2f9296a398a2dcbf6624a94b",
}


@pytest.mark.parametrize("command", JSON_DIGESTS)
def test_json_output_pinned(runner, command):
    result = runner.invoke(main, command.split() + ["--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == JSON_DIGESTS[command]


# sha256 of the text output of twist-scan, computed while the scan still
# built every row's curve and verdict; the text mode reads only the
# discriminants and the open rows
TWIST_SCAN_TEXT_DIGESTS = {
    "twist-scan --embedded 121-B1 --p 3 --dmax 10000":
        "b646648df163a6bfa42d65bb74af2a25f89d3a48b7f61bec6fbdf8847a4ef886",
    "twist-scan --embedded 121-B1 --p 5 --dmax 10000":
        "544a76bf3936a945a412e539c29473793edbf3a7de9445f4769568c1ce8bdd4f",
    "twist-scan --embedded 121-B1 --p 7 --dmax 10000":
        "0534f59fa385216e85ca5bd45985aa79d4ae906e32e5f874f77d86119850dd1e",
    # two failures each: d = 1, -3 and d = 1, 5
    "twist-scan --embedded selmer-jacobian --p 3 --dmax 10000":
        "b665c7ef1043346ece6f743bad038affa8f44a2414568189df8e837ac329232d",
    "twist-scan --curve -2,-3,-3,0,0 --p 5 --dmax 2000":
        "439980bbfe4598a4cf7b42890940cb93c68b502b2297c02e1edd524e5ad09502",
}


@pytest.mark.parametrize("command", TWIST_SCAN_TEXT_DIGESTS)
def test_twist_scan_text_output_pinned(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == TWIST_SCAN_TEXT_DIGESTS[command]


def test_twist_scan_command(runner):
    result = runner.invoke(
        main,
        ["twist-scan", "--embedded", "selmer-jacobian", "--p", "3", "--dmax", "30", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["failures"] == [1, -3]
    assert payload["failure_count"] <= payload["cap"]
    dmax1 = runner.invoke(
        main, ["twist-scan", "--embedded", "121-B1", "--p", "7", "--dmax", "1", "--format", "json"]
    )
    rows = json.loads(dmax1.output)["rows"]
    assert rows == [{"d": 1, "outcome": "Guaranteed"}]


def test_ignored_curve_flags_are_usage_errors(runner):
    # twist-scan scanned --curve and dropped --embedded; analyze took
    # --label without --curve and never read it
    result = runner.invoke(
        main, ["twist-scan", "--curve", "0,0,0,0,-1", "--embedded", "121-B1", "--p", "3", "--dmax", "5"]
    )
    assert result.exit_code == 2
    assert "--curve or --embedded" in result.output
    result = runner.invoke(main, ["analyze", "--label", "foo", "--embedded", "121-B1", "--primes", "3"])
    assert result.exit_code == 2
    assert "--label" in result.output
    for args in (
        ["twist-scan", "--curve", "0,0,0,0,-1", "--p", "3", "--dmax", "5"],
        ["analyze", "--curve", "0,-1,1,-7,10", "--label", "foo", "--embedded", "121-B1", "--primes", "3"],
    ):
        assert runner.invoke(main, args).exit_code == 0, args


def test_exit_zero_for_mathematical_failures(runner):
    # CriterionFails is a mathematical outcome, not an error
    result = runner.invoke(main, ["analyze", "--embedded", "selmer-jacobian", "--primes", "3"])
    assert result.exit_code == 0
    assert "CriterionFails" in result.output


def test_unsupported_prime_is_a_clean_error(runner):
    result = runner.invoke(main, ["analyze", "--embedded", "121-B1", "--primes", "2"])
    assert result.exit_code != 0
    assert "odd primes" in result.output
    result = runner.invoke(
        main, ["twist-scan", "--embedded", "121-B1", "--p", "11", "--dmax", "5"]
    )
    assert result.exit_code != 0
    assert "twist caps" in result.output
