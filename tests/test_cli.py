import contextlib
import csv
import io
import json
import sys
import time
import tracemalloc

import pytest

from admissible import __version__, cli, integer_irreducibility
from admissible.errors import FeasibilityError
from admissible.finite_field import audit_irreducible_counts
from admissible.integer_irreducibility import is_irreducible_over_z
from admissible.polynomials import count_admissible_exact, enumerate_admissible
from admissible.sieve import primes_below

from oracles import irr_count_report


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


def _reference_rows(n, h, fmt, limit):
    # What json.dumps and csv.writer print for the enumeration, row by row.
    polys = list(enumerate_admissible(n, h))
    shown = polys if limit is None else polys[:limit]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["degree"] + [f"a{i}" for i in range(n)])
        for f in shown:
            writer.writerow([f.degree, *f.coeffs])
        marker = "# truncated\n"
    else:
        for f in shown:
            out.write(json.dumps(dict(coeffs=list(f.coeffs), degree=f.degree),
                                 sort_keys=True) + "\n")
        marker = json.dumps({"emitted": limit, "truncated": True}, sort_keys=True) + "\n"
    return out.getvalue() + (marker if len(shown) < len(polys) else "")


def _cli_rows(capsys, n, h, fmt, limit):
    argv = ["enumerate", "--degree", str(n), "--height", str(h), "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


# (degree, height): degrees 1 to 5, an empty census, censuses of more than
# one block of rows, and a height past n! - 1.
_ENUMERATIONS = [(1, 0), (2, 1), (3, 1), (3, 2), (3, 5), (4, 24), (5, 24), (5, 26),
                 (3, 10**12)]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_enumerate_rows_match_json_and_csv_writers(capsys, fmt):
    assert count_admissible_exact(4, 24) == 2_600  # more than two blocks of rows
    for n, h in _ENUMERATIONS:
        total = count_admissible_exact(n, h)
        limits = [None, 0, 1, total - 1, total, total + 1, cli._BLOCK_ROWS, 10**20]
        for limit in [x for x in limits if x is None or x >= 0]:
            got = _cli_rows(capsys, n, h, fmt, limit).splitlines(keepends=True)
            want = _reference_rows(n, h, fmt, limit).splitlines(keepends=True)
            # The first differing line, not a diff of 2,600 rows (which is slow).
            first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                         min(len(got), len(want)))
            assert got[first:first + 1] == want[first:first + 1], (n, h, limit, first)
            assert len(got) == len(want), (n, h, limit)
    # A height past n! - 1 caps no coefficient further.
    assert _cli_rows(capsys, 3, 10**12, fmt, None) == _cli_rows(capsys, 3, 5, fmt, None)


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


def _irr_count(fmt, n, h):
    return ["irr-count", "--degree", str(n), "--height", str(h), "--format", fmt]


# (degree, height): N = 0 at (3, 1), every cubic reducible at (3, 2), then
# censuses up to the 4,845 quintics of (5, 27), more than one block of rows.
_CENSUSES = [(3, 1), (3, 2), (3, 6), (4, 10), (4, 24), (5, 27)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_irr_count_matches_the_whole_report_writers(capsys, fmt):
    for n, h in _CENSUSES:
        assert cli.main(_irr_count(fmt, n, h)) == 0
        got = capsys.readouterr().out.splitlines(keepends=True)
        want = irr_count_report(n, h, fmt).splitlines(keepends=True)
        # The first differing line, not a diff of the whole report (which is slow).
        first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                     min(len(got), len(want)))
        assert got[first:first + 1] == want[first:first + 1], (n, h, first)
        assert len(got) == len(want), (n, h)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_irr_count_search_limit_past_the_first_polynomial_leaves_stdout_empty(
        capsys, monkeypatch, fmt):
    # Two candidates admit the divisors +-1 of a_0 = 1; the first cubic of
    # (3, 6) with a_0 = 2 needs four.  Eleven cubics are decided before it,
    # reducible ones among them, so rows and witnesses exist when it trips.
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 2)
    decided = []
    with pytest.raises(FeasibilityError):
        for f in enumerate_admissible(3, 6):
            decided.append(is_irreducible_over_z(f))
    assert len(decided) == 11 and not all(w.irreducible for w in decided)
    with pytest.raises(SystemExit) as exc:
        cli.main(_irr_count(fmt, 3, 6))
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    line, = err.splitlines()
    assert json.loads(line)["message"].startswith("search space exceeded")


class _Sink:
    # Stands in for stdout and keeps only the size of what is written.
    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_irr_count_memory_stays_below_one_megabyte(fmt):
    # A(5, 27) writes about 800 KB of JSON.  The first run fills the mod-p
    # caches, which last for the process; the second is traced.
    first, second = _Sink(), _Sink()
    with contextlib.redirect_stdout(first):
        assert cli.main(_irr_count(fmt, 5, 27)) == 0
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(second):
            assert cli.main(_irr_count(fmt, 5, 27)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second.chars == first.chars
    assert peak < 1_000_000, peak


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


def _primes_report(below, fmt):
    # The `primes` report as json.dumps or csv.writer prints it, whole.
    ps = list(primes_below(below))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p"])
        writer.writerows([p] for p in ps)
        return out.getvalue()
    envelope = {"command": "primes", "exact": True, "parameters": {"below": below},
                "results": {"below": below, "count": len(ps), "primes": ps},
                "toolkit_version": __version__}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_primes_matches_the_whole_report_writers(capsys, fmt):
    # No prime below 2, one below 3, and 1,028 below 8200: past one block.
    assert len(primes_below(8200)) == 1_028 > cli._BLOCK_ROWS
    for below in (2, 3, 30, 8200):
        assert cli.main(["primes", "--below", str(below), "--format", fmt]) == 0
        assert capsys.readouterr().out == _primes_report(below, fmt), below


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_primes_memory_stays_below_eight_megabytes(fmt):
    # The 78,498 primes below 10^6 and the sieve's flags take about 4.5 MB
    # traced; rendering the whole report first peaked at 24 to 25 MB.
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.main(["primes", "--below", "1000000", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 500_000
    assert peak < 8_000_000, peak


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
        # The first octic of height 5040 keeps factor degrees 2, 3 and 4 at
        # every prime; its candidates of degree <= 3 with constant term -1 or 1
        # already number 3,252,078,718.
        (["irr-count", "--degree", "8", "--height", "5040"], "search space exceeded"),
        # The 22 admissible polynomials of height 21! have a_0 near 21!,
        # whose divisors take about 7e9 trial divisions to list.
        (["irr-count", "--degree", "22", "--height", "51090942171709440000"],
         "search space exceeded: 7147792818 trial divisions"),
        # 142,506 sextics, each tested at p = 7 and 11: fewer than the 77^5
        # residue vectors mod 77.
        (["sieve", "--degree", "6", "--height", "124", "--z", "12"], "sieve work too large"),
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
        # Past float range the canonical level is an integer cube root.
        (["sieve", "--degree", "3", "--height", str(10**306)], "sieve too large"),
        (["sieve", "--degree", "3", "--height", str(10**400)], "sieve too large"),
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
        # Trial division to sqrt(p) would take hours; the modulus limit fires first.
        (["fp-audit", "--degree", "2", "--primes", "1000000000000000003"], "modulus too large"),
        # main_term's numerator 9973^100000 / 100000 has 399,870 digits.
        (["fp-audit", "--degree", "100000", "--primes", "9973"], "report too large"),
        # p^n would have 10^7 digits (10 s to compute); its bit length settles it.
        (["fp-audit", "--degree", "100000", "--primes", str(10**100 + 1)], "report too large"),
        # 101 primes near the modulus limit: about 7 s of trial division.
        (["fp-audit", "--degree", "2", "--primes", ",".join(["999999999989"] * 101)],
         "audit too large"),
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


@pytest.mark.parametrize("p", [2, 3])
def test_fp_audit_size_check_changes_no_outcome(capsys, p):
    # Around the degree where p^n // n reaches 10^digits, the up-front check
    # must leave the outcome as it is without it: the report, or exit 3.
    digits = sys.get_int_max_str_digits()
    edge = next(n for n in range(2, 20_000) if p**n // n >= 10**digits)
    for n in (2, *range(edge - 60, edge + 2)):  # the last printable n is edge - 16 (p=2)
        audit = audit_irreducible_counts(n, [p])
        try:
            json.dumps(audit, default=cli._json_value)
            expected = 0
        except ValueError:
            expected = 3
        try:
            code = cli.main(["fp-audit", "--degree", str(n), "--primes", str(p)])
        except SystemExit as exc:
            code = exc.code
        assert code == expected, n
        assert (capsys.readouterr().out != "") == (expected == 0)


# Each subcommand with small values for its integer flags (`sieve` with
# and without --z); the sweep sets one flag at a time to an edge value and
# keeps the others.
_SMALL_FLAGS = (
    ("count", {"--degree": 3, "--height": 6}),
    ("enumerate", {"--degree": 3, "--height": 6, "--limit": 4}),
    ("irr-count", {"--degree": 3, "--height": 6}),
    ("sieve", {"--degree": 3, "--height": 6}),
    ("sieve", {"--degree": 3, "--height": 6, "--z": 8}),
    ("fp-audit", {"--degree": 2, "--primes": 3}),
    ("primes", {"--below": 30}),
    ("chebyshev", {"--z-max": 30}),
    ("bounds-audit", {"--degree": 3, "--h-min": 0, "--h-max": 6}),
)
_EDGE_VALUES = {"0": 0, "1": 1, "-1": -1, "2": 2, "10^306": 10**306, "10^400": 10**400,
                "-10^400": -(10**400), "4299-digits": int("9" * 4299)}


@pytest.mark.parametrize("value", _EDGE_VALUES.values(), ids=_EDGE_VALUES.keys())
@pytest.mark.parametrize("command, flags, flag", [
    pytest.param(command, flags, flag, id=" ".join([command, *flags, "set", flag]))
    for command, flags in _SMALL_FLAGS for flag in flags
])
def test_every_integer_flag_ends_in_an_answer_or_one_json_error(capsys, command, flags, flag,
                                                                value):
    argv = [command, *(f"{k}={value if k == flag else v}" for k, v in flags.items())]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"kind", "message"}


@pytest.mark.parametrize("command, flags", [
    ("count", ["--degree", "--height", "--format"]),
    ("enumerate", ["--degree", "--height", "--limit", "--format"]),
    ("irr-count", ["--degree", "--height", "--format"]),
    ("sieve", ["--degree", "--height", "--z", "--format"]),
    ("fp-audit", ["--degree", "--primes", "--format"]),
    ("primes", ["--below", "--format"]),
    ("chebyshev", ["--z-max", "--format"]),
    ("bounds-audit", ["--degree", "--h-min", "--h-max", "--format"]),
])
def test_every_subcommand_has_help(run_cli, command, flags):
    out = run_cli(command, "--help").stdout.decode()
    assert out.startswith(f"usage: admissible {command} ")
    for flag in flags:
        assert flag in out


def test_repeated_runs_are_byte_identical(run_cli):
    argvs = [
        ["count", "--degree", "3", "--height", "6"],
        ["sieve", "--degree", "3", "--height", "6", "--z", "4"],
        ["enumerate", "--degree", "3", "--height", "6", "--limit", "4"],
    ]
    for argv in argvs:
        assert run_cli(*argv).stdout == run_cli(*argv).stdout
