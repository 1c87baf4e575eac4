import csv
import io
import json
import time


def test_count_payload(run_cli):
    out = run_cli("count", "--degree", "3", "--height", "6").stdout
    payload = json.loads(out)
    assert payload["command"] == "count"
    assert payload["exact"] is True
    assert payload["toolkit_version"] == "0.1.0"
    assert payload["parameters"] == {"degree": 3, "height": 6}
    res = payload["results"]
    assert res["exact_count"] == 21
    assert res["claimed_lower"] == 6
    assert res["claimed_upper"] == 153
    assert res["density_ratio"] == {"num": 7, "den": 12}
    assert res["lower_violated"] is False and res["upper_violated"] is False


def test_count_reports_known_violation(run_cli):
    payload = json.loads(run_cli("count", "--degree", "4", "--height", "5").stdout)
    assert payload["results"]["exact_count"] == 0
    assert payload["results"]["lower_violated"] is True


def test_count_height_zero(run_cli):
    res = json.loads(run_cli("count", "--degree", "3", "--height", "0").stdout)["results"]
    assert res["exact_count"] == 0
    assert res["claimed_lower"] == 0
    assert res["claimed_upper"] == 0
    assert res["density_ratio"] is None


def test_json_round_trip(run_cli):
    for argv in (
        ["count", "--degree", "3", "--height", "6"],
        ["fp-audit", "--degree", "2", "--primes", "2,3,5,7"],
        ["primes", "--below", "30"],
    ):
        out = run_cli(*argv).stdout
        payload = json.loads(out)
        assert (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode() == out


def test_enumerate_rows_and_order(run_cli):
    out = run_cli("enumerate", "--degree", "3", "--height", "2").stdout.decode()
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"degree": 3, "coeffs": [1, 2, 2]},
        {"degree": 3, "coeffs": [2, 1, 2]},
        {"degree": 3, "coeffs": [2, 2, 1]},
    ]


def test_enumerate_empty(run_cli):
    assert run_cli("enumerate", "--degree", "3", "--height", "1").stdout == b""


def test_enumerate_truncation_marker(run_cli):
    out = run_cli(
        "enumerate", "--degree", "3", "--height", "6", "--limit", "5"
    ).stdout.decode()
    lines = out.splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1]) == {"emitted": 5, "truncated": True}
    first = json.loads(lines[0])
    assert first == {"degree": 3, "coeffs": [0, 0, 5]}


def test_enumerate_csv(run_cli):
    out = run_cli(
        "enumerate", "--degree", "3", "--height", "2", "--format", "csv"
    ).stdout.decode()
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == ["degree", "a0", "a1", "a2"]
    assert parsed[1:] == [["3", "1", "2", "2"], ["3", "2", "1", "2"], ["3", "2", "2", "1"]]


def test_irr_count_payload(run_cli):
    payload = json.loads(run_cli("irr-count", "--degree", "3", "--height", "2").stdout)
    res = payload["results"]
    assert res["irreducible_count"] == 0
    assert res["ambient_count"] == 3
    assert len(res["witnesses"]) == 3
    assert res["witnesses"][0]["polynomial"] == "x^3 + 2x^2 + 2x + 1"
    assert res["witnesses"][0]["factors"] == ["x + 1", "x^2 + x + 1"]


def test_irr_count_zero_ambient(run_cli):
    res = json.loads(run_cli("irr-count", "--degree", "3", "--height", "1").stdout)["results"]
    assert res["irreducible_count"] == 0
    assert res["witnesses"] == []


def test_sieve_payload(run_cli):
    payload = json.loads(
        run_cli("sieve", "--degree", "3", "--height", "6", "--z", "4").stdout
    )
    assert payload["exact"] is False
    res = payload["results"]
    assert res["z"] == 4 and res["z_overridden"] is True
    assert res["ambient_count"] == 21
    assert res["sifted_exact"] == 21
    assert res["turan_bound"] == {"num": 189, "den": 2}
    assert res["irreducible_count"] == 10
    assert res["turan_inequality_holds"] is True
    assert res["chain_inequality_holds"] is True


def test_sieve_degenerate(run_cli):
    res = json.loads(run_cli("sieve", "--degree", "3", "--height", "1").stdout)["results"]
    assert res["ambient_count"] == 0
    assert res["sifted_exact"] == 0
    assert res["irreducible_count"] == 0
    assert res["turan_bound"] is None


def test_fp_audit_payload(run_cli):
    res = json.loads(
        run_cli("fp-audit", "--degree", "2", "--primes", "2,3,5,7").stdout
    )["results"]
    assert [r["p"] for r in res["rows"]] == [2, 3, 5, 7]
    assert res["rows"][0]["exact_count"] == 1
    assert res["rows"][0]["sq_normalized_error"] == {"num": 1, "den": 4}
    assert res["within_sqrt_scale"] is True


def test_primes_payload(run_cli):
    res = json.loads(run_cli("primes", "--below", "10").stdout)["results"]
    assert res["primes"] == [2, 3, 5, 7]
    res = json.loads(run_cli("primes", "--below", "2").stdout)["results"]
    assert res["primes"] == [] and res["count"] == 0


def test_chebyshev_payload(run_cli):
    res = json.loads(run_cli("chebyshev", "--z-max", "1000").stdout)["results"]
    zs = {s["z"]: s for s in res["samples"]}
    assert zs[100]["prime_count"] == 25
    assert zs[1000]["prime_count"] == 168
    assert res["within_band"] is True


def test_bounds_audit_payload(run_cli):
    res = json.loads(
        run_cli("bounds-audit", "--degree", "4", "--h-min", "5", "--h-max", "6").stdout
    )["results"]
    assert len(res["reports"]) == 2
    assert res["reports"][0]["lower_violated"] is True
    assert res["reports"][1]["exact_count"] == 4


def test_bounds_audit_csv(run_cli):
    out = run_cli(
        "bounds-audit", "--degree", "4", "--h-min", "5", "--h-max", "5",
        "--format", "csv",
    ).stdout.decode()
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0][0] == "degree"
    assert parsed[1][:5] == ["4", "5", "0", "1", "1140"]  # upper = C(20, 3)
    assert parsed[1][6] == "true"  # lower_violated


def test_usage_errors_exit_2(run_cli):
    proc = run_cli("count", "--degree", "0", "--height", "6", expect_code=2)
    err = json.loads(proc.stderr)
    assert err["kind"] == "usage"

    proc = run_cli("fp-audit", "--degree", "2", "--primes", "2,4", expect_code=2)
    assert b"not prime" in proc.stderr

    run_cli("count", "--degree", "3", expect_code=2)  # missing --height
    run_cli("no-such-command", expect_code=2)

    proc = run_cli("enumerate", "--degree", "3", "--height", "6", "--limit", "-1",
                   expect_code=2)
    assert json.loads(proc.stderr)["kind"] == "usage"
    assert proc.stdout == b""

    # The enumeration and search limits are constants, not flags.
    for flag in ("--max-enum", "--max-search"):
        proc = run_cli("irr-count", "--degree", "3", "--height", "2", flag, "1", expect_code=2)
        assert json.loads(proc.stderr)["kind"] == "usage"


def test_feasibility_errors_exit_3(run_cli):
    for argv, message in (
        # N(200) for sextics is 131,035,104,180, past ENUM_LIMIT.
        (["enumerate", "--degree", "6", "--height", "200"], "enumeration too large"),
        (["irr-count", "--degree", "6", "--height", "200"], "enumeration too large"),
        (["sieve", "--degree", "6", "--height", "200", "--z", "4"], "enumeration too large"),
        # The first septic of height 720 needs 1,745,133,540 candidates.
        (["irr-count", "--degree", "7", "--height", "720"], "search space exceeded"),
    ):
        proc = run_cli(*argv, expect_code=3)
        assert proc.stdout == b""
        err = json.loads(proc.stderr)
        assert err["kind"] == "feasibility"
        assert err["message"].startswith(message)


def test_oversized_report_exits_3_with_empty_stdout(run_cli):
    # Each report holds an integer past Python's int-to-str digit limit.
    for argv in (
        ["fp-audit", "--degree", "100000", "--primes", "2"],
        ["count", "--degree", "2000", "--height", "5"],
    ):
        proc = run_cli(*argv, expect_code=3)
        assert proc.stdout == b""
        err = json.loads(proc.stderr)
        assert err["kind"] == "feasibility"
        assert err["message"].startswith("report too large")


def test_oversized_sieves_exit_3_with_empty_stdout(run_cli):
    # Both commands sieve up to about 3e9, past the sieve's limit.
    for argv in (
        ["primes", "--below", "3000000000"],
        ["chebyshev", "--z-max", "3000000000"],
    ):
        proc = run_cli(*argv, expect_code=3)
        assert proc.stdout == b""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["kind"] == "feasibility"
        assert err["message"].startswith("sieve too large")


def test_oversized_sieve_levels_and_audits_exit_3_at_once(run_cli):
    for argv, message in (
        (["sieve", "--degree", "3", "--height", "6", "--z", "100000"], "sieve level too large"),
        # The canonical level of height 10^12 is 30,232: 3,269 primes.
        (["sieve", "--degree", "3", "--height", "1000000000000"], "sieve level too large"),
        # 2,600 quartics times 494 primes whose quartics get no table.
        (["sieve", "--degree", "4", "--height", "24", "--z", "3572"], "sieve work too large"),
        (["bounds-audit", "--degree", "9", "--h-min", "0", "--h-max", "362880"],
         "audit too large"),
        # math.factorial(10**6) alone takes about 9 s; the degree limit fires first.
        (["count", "--degree", "1000000", "--height", "1"], "degree too large"),
        (["enumerate", "--degree", "1000000", "--height", "1"], "degree too large"),
        (["irr-count", "--degree", "1000000", "--height", "1"], "degree too large"),
        (["sieve", "--degree", "1000000", "--height", "1"], "degree too large"),
        (["bounds-audit", "--degree", "1000000", "--h-min", "0", "--h-max", "1"],
         "degree too large"),
        (["fp-audit", "--degree", "1000000", "--primes", "31"], "degree too large"),
    ):
        start = time.monotonic()
        proc = run_cli(*argv, expect_code=3)
        assert time.monotonic() - start < 1, argv
        assert proc.stdout == b""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["kind"] == "feasibility"
        assert err["message"].startswith(message)


def test_repeated_runs_are_byte_identical(run_cli):
    argvs = [
        ["count", "--degree", "3", "--height", "6"],
        ["sieve", "--degree", "3", "--height", "6", "--z", "4"],
        ["enumerate", "--degree", "3", "--height", "6", "--limit", "4"],
    ]
    for argv in argvs:
        assert run_cli(*argv).stdout == run_cli(*argv).stdout
