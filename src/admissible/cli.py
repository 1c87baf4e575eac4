"""Command-line surface: every computation as a reproducible report.

All commands are batch-style and deterministic: identical flags produce
byte-identical output (stable key order, no timestamps).  JSON is the
default format; exact rationals serialize as {"num": ..., "den": ...}
objects so nothing ever passes through floating point on the exact
paths.  Each subcommand is declared once in `build_parser`, and a JSON
report's `parameters` are the parsed flags themselves, minus `--format`
and any optional flag left out.  Primality and every feasibility limit
are checked by the library, not here.  Exit codes: 0 success, 2 usage
error, 3 feasibility-limit hit.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter

from . import __version__
from .errors import FeasibilityError
from .finite_field import IrreducibleAuditRow, audit_irreducible_counts
from .integer_irreducibility import admissible_witnesses
from .polynomials import (
    BoundsAuditReport,
    audit_bounds,
    bounds_report,
    check_degree,
    count_admissible_exact,
    enumerate_admissible,
    target_sum,
)
from .sieve import ChebyshevSample, audit_chebyshev, pipeline_lower_bound, primes_below


# Python refuses to print integers past its int-to-str digit limit.
_TOO_LARGE = "report too large: an integer exceeds the int-to-str digit limit"

# Rows a streamed report joins into one write.  On (5, 36), 256-row blocks cost
# 9% more CPU, and larger blocks save none but raise peak memory (16,384
# rows cost 20% more RSS).
_BLOCK_ROWS = 1024


def _error(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"kind": kind, "message": message}, sort_keys=True) + "\n")
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    # Usage errors must land on stderr as machine-parsable objects.
    def error(self, message):
        _error(2, "usage", message)


def _fields(report, *drop: str) -> dict:
    """A report dataclass as a dict of its fields, minus `drop`."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name not in drop}


def _columns(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _json_value(value):
    # json.dumps hook for everything that is not already a JSON type.
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return _fields(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


@contextlib.contextmanager
def _rendering():
    # Rendering's one failure: an integer past the digit limit.
    try:
        yield
    except ValueError:
        raise FeasibilityError(_TOO_LARGE)


def _envelope(args, results, exact) -> str:
    """The JSON report: `results` inside the envelope of the flags given, as parsed."""
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "format", "run") and v is not None}
    envelope = dict(command=args.command, exact=exact, parameters=parameters,
                    results=results, toolkit_version=__version__)
    with _rendering():
        return json.dumps(envelope, indent=2, sort_keys=True, default=_json_value) + "\n"


def _emit(args, results, exact, rows, columns):
    """Write `results` as a JSON envelope, or the dataclass `rows` as CSV.

    The whole report is rendered before anything is written, so a failure
    leaves stdout empty.  No CSV cell holds a comma, a quote or a
    newline, so cells are joined with commas and none is quoted.
    `enumerate`, `irr-count` and `primes` stream their rows through
    `_stream` instead.
    """
    if args.format == "csv":
        with _rendering():
            text = "".join(",".join(_csv_cell(getattr(row, c)) for c in columns) + "\n"
                           for row in rows)
        text = ",".join(columns) + "\n" + text
    else:
        text = _envelope(args, results, exact)
    sys.stdout.write(text)


def _stream(head, lines, sep="", tail=""):
    """Write `head`, the iterator `lines` joined by `sep` in blocks, then `tail`."""
    blocks = iter(lambda: sep.join(itertools.islice(lines, _BLOCK_ROWS)), "")
    sys.stdout.write(head)
    sys.stdout.write(next(blocks, ""))
    for block in blocks:
        sys.stdout.write(sep)
        sys.stdout.write(block)
    sys.stdout.write(tail)


def _listed(args, results, rows):
    """Stream the JSON report of exact `results` with `rows` as its last list.

    That list is a field of `results`, left empty there; `rows` is an
    iterator of its items, each rendered as json.dumps(indent=2) prints it
    in that place.
    """
    before, after = _envelope(args, results, True).rsplit("[]", 1)
    first = next(rows, None)
    if first is None:
        sys.stdout.write(before + "[]" + after)
    else:
        _stream(before + "[\n", itertools.chain((first,), rows), ",\n", "\n    ]" + after)


# --- commands --------------------------------------------------------------


def cmd_count(args):
    report = bounds_report(args.degree, args.height)
    results = {**_fields(report, "degree", "height"), "target_sum": target_sum(args.degree)}
    _emit(args, results, True, [report], _columns(BoundsAuditReport))


def cmd_enumerate(args):
    # Every row has the same shape, so each line is one %-template filled
    # from the coefficients: byte for byte what json.dumps(sort_keys=True)
    # and csv.writer print for integers.  The exact count N is known up
    # front, so the stream is drawn min(limit, N) times and the marker is
    # written only when N > limit.
    n = args.degree
    stream = enumerate_admissible(n, args.height)
    total = count_admissible_exact(n, args.height)
    cells = ["%d"] * n
    if args.format == "csv":
        head = ",".join(["degree"] + [f"a{i}" for i in range(n)]) + "\n"
        template = f"{n}," + ",".join(cells) + "\n"
        marker = "# truncated\n"
    else:
        head = ""
        template = '{"coeffs": [' + ", ".join(cells) + f'], "degree": {n}}}\n'
        marker = json.dumps({"emitted": args.limit, "truncated": True}, sort_keys=True) + "\n"
    shown = total if args.limit is None else min(args.limit, total)
    lines = map(template.__mod__, map(attrgetter("coeffs"), itertools.islice(stream, shown)))
    _stream(head, lines, tail=marker if shown < total else "")


def cmd_irr_count(args):
    # Two passes over the census.  The verdict pass decides every
    # polynomial before anything is written, so ENUM_LIMIT, SEARCH_LIMIT
    # and "report too large" all leave stdout empty.  It keeps one byte per
    # polynomial (1 if irreducible) and the rendered factor pair of each
    # reducible one.  The render pass writes the envelope, re-walks the
    # enumeration and fills one %-template per (format, status) per row.
    n, height = args.degree, args.height
    irreducible, factors = bytearray(), []
    for _, w in admissible_witnesses(n, height):
        irreducible.append(w.irreducible)
        if w.factors:
            with _rendering():
                factors.append(tuple(g.text() for g in w.factors))
    with _rendering():
        str(min(height, target_sum(n)))  # the largest coefficient of any f
    # poly_text prints no comma, quote, backslash or newline, so no text
    # needs CSV quoting or JSON escaping.
    if args.format == "csv":
        templates = ("%(f)s,reducible,(%(g)s)(%(h)s)\n", "%(f)s,irreducible,\n")
    else:
        def template(witness):
            # One witness as json.dumps prints it inside the envelope's list.
            text = json.dumps(dict(witness, polynomial="%(f)s"), indent=2, sort_keys=True)
            return "      " + text.replace("\n", "\n      ")

        templates = (template({"factors": ["%(g)s", "%(h)s"], "status": "reducible"}),
                     template({"factors": None, "status": "irreducible"}))
    pending = iter(factors)

    def row(f, status):
        cells = {"f": f.text()}
        if not status:
            cells["g"], cells["h"] = next(pending)
        return templates[status] % cells

    lines = map(row, enumerate_admissible(n, height), irreducible)
    if args.format == "csv":
        _stream("polynomial,status,factors\n", lines)
    else:
        results = dict(ambient_count=len(irreducible), irreducible_count=sum(irreducible),
                       witnesses=[])
        _listed(args, results, lines)


def cmd_sieve(args):
    report = pipeline_lower_bound(args.degree, args.height, args.z)
    columns = ["degree", "height", "z", "ambient_count", "sifted_exact", "turan_bound",
               "irreducible_count", "turan_inequality_holds", "chain_inequality_holds"]
    _emit(args, _fields(report, "degree", "height"), False, [report], columns)


def cmd_fp_audit(args):
    n, digits = args.degree, sys.get_int_max_str_digits()
    check_degree(n)
    if digits and n > 1:
        # Every format prints main_term, whose numerator is at least p^n/n, so
        # refuse before the audit's Fraction arithmetic when p^n // n >= 10^digits.
        # The bit-length test settles large p^n without computing it.
        floor = n * 10**digits
        if any((p.bit_length() - 1) * n >= floor.bit_length() or p**n >= floor
               for p in args.primes):
            raise FeasibilityError(_TOO_LARGE)
    audit = audit_irreducible_counts(n, args.primes)
    _emit(args, audit, True, audit.rows, _columns(IrreducibleAuditRow))


def cmd_primes(args):
    ps = primes_below(args.below)
    if args.format == "csv":
        _stream("p\n", map("%d\n".__mod__, ps))
    else:
        _listed(args, {"below": args.below, "count": len(ps), "primes": []},
                map("      %d".__mod__, ps))


def cmd_chebyshev(args):
    audit = audit_chebyshev(args.z_max)
    _emit(args, audit, False, audit.samples, _columns(ChebyshevSample))


def cmd_bounds_audit(args):
    reports = audit_bounds(args.degree, (args.h_min, args.h_max))
    results = {"reports": [_fields(r, "degree") for r in reports]}
    _emit(args, results, True, reports, _columns(BoundsAuditReport))


# --- parser ----------------------------------------------------------------


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not primes:
        raise argparse.ArgumentTypeError("expected at least one prime")
    return primes


def _row_limit(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {limit}")
    return limit


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="admissible",
                     description="Exact census and bound audits for admissible polynomials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help, run, *int_flags, formats=("json", "csv")):
        # One subcommand: its required integer flags, --format and its handler.
        p = sub.add_parser(name, help=help)
        for flag in int_flags:
            p.add_argument(flag, type=int, required=True)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(run=run)
        return p

    command("count", "exact admissible count and claimed bounds", cmd_count,
            "--degree", "--height")
    p = command("enumerate", "stream the admissible polynomials in lex order", cmd_enumerate,
                "--degree", "--height", formats=("jsonl", "csv"))
    p.add_argument("--limit", type=_row_limit, help="stop after this many rows")
    command("irr-count", "irreducibility census with witnesses", cmd_irr_count,
            "--degree", "--height")
    p = command("sieve", "run the sifting pipeline report", cmd_sieve, "--degree", "--height")
    p.add_argument("--z", type=int, help="override the sieve level")
    p = command("fp-audit", "irreducible counts over F_p vs p^n/n", cmd_fp_audit, "--degree")
    p.add_argument("--primes", type=_parse_primes, required=True,
                   help="comma-separated primes, e.g. 2,3,5,7")
    command("primes", "primes strictly below a bound", cmd_primes, "--below")
    command("chebyshev", "prime-count ratio audit", cmd_chebyshev, "--z-max")
    command("bounds-audit", "claimed bounds vs exact counts over a height range",
            cmd_bounds_audit, "--degree", "--h-min", "--h-max")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except FeasibilityError as exc:
        _error(3, "feasibility", str(exc))
    except (ValueError, ZeroDivisionError) as exc:
        _error(2, "usage", str(exc))
    return 0
