"""Command-line surface: every computation as a reproducible report.

All commands are batch-style and deterministic: identical flags produce
byte-identical output (stable key order, no timestamps).  JSON is the
default format; exact rationals serialize as {"num": ..., "den": ...}
objects so nothing ever passes through floating point on the exact
paths.  Exit codes: 0 success, 2 usage error, 3 feasibility-limit hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from fractions import Fraction

from . import __version__
from .errors import FeasibilityError
from .finite_field import IrreducibleAuditRow, audit_irreducible_counts, is_prime
from .integer_irreducibility import DEFAULT_SEARCH_LIMIT, admissible_witnesses
from .polynomials import (
    DEFAULT_ENUM_LIMIT,
    BoundsAuditReport,
    MonicIntPolynomial,
    audit_bounds,
    bounds_report,
    count_admissible_exact,
    enumerate_admissible,
    target_sum,
)
from .sieve import ChebyshevSample, audit_chebyshev, pipeline_lower_bound, primes_below


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
    if isinstance(value, MonicIntPolynomial):
        return value.text()
    return _fields(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, MonicIntPolynomial):
        return value.text()
    if isinstance(value, tuple):  # a factor pair renders as its product
        return "".join(f"({_csv_cell(v)})" for v in value)
    return str(value)


def _emit(args, command, parameters, results, exact, rows, columns):
    """Write `results` as a JSON envelope, or `rows` (dataclasses or dicts) as CSV.

    The whole report is rendered before anything is written, so a failure
    leaves stdout empty.
    """
    try:
        if args.format == "csv":
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                record = row if isinstance(row, dict) else _fields(row)
                writer.writerow([_csv_cell(record[c]) for c in columns])
            text = out.getvalue()
        else:
            envelope = dict(command=command, exact=exact, parameters=parameters,
                            results=results, toolkit_version=__version__)
            text = json.dumps(envelope, indent=2, sort_keys=True, default=_json_value) + "\n"
    except ValueError:
        # Python refuses to print integers past its int-to-str digit limit.
        raise FeasibilityError("report too large: an integer exceeds the int-to-str digit limit")
    sys.stdout.write(text)


# --- commands --------------------------------------------------------------


def cmd_count(args):
    n, h = args.degree, args.height
    report = bounds_report(n, h)
    results = {**_fields(report, "degree", "height"), "target_sum": target_sum(n)}
    _emit(args, "count", {"degree": n, "height": h}, results, True,
          [report], _columns(BoundsAuditReport))


def cmd_enumerate(args):
    n, h = args.degree, args.height
    stream = enumerate_admissible(n, h, args.max_enum)
    limit = args.limit
    emitted = 0
    writer = None
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["degree"] + [f"a{i}" for i in range(n)])
    truncated = False
    for f in stream:
        if limit is not None and emitted >= limit:
            truncated = True
            break
        if writer is not None:
            writer.writerow([f.degree, *f.coeffs])
        else:
            sys.stdout.write(json.dumps(f.as_json_dict(), sort_keys=True) + "\n")
        emitted += 1
    if truncated:
        if writer is not None:
            sys.stdout.write("# truncated\n")
        else:
            sys.stdout.write(json.dumps({"emitted": emitted, "truncated": True},
                                        sort_keys=True) + "\n")


def cmd_irr_count(args):
    n, h = args.degree, args.height
    pairs = list(admissible_witnesses(n, h, args.max_enum, args.max_search))
    witnesses = [{"polynomial": f, **_fields(w)} for f, w in pairs]
    results = {
        "ambient_count": count_admissible_exact(n, h),
        "irreducible_count": sum(w.irreducible for _, w in pairs),
        "witnesses": witnesses,
    }
    _emit(args, "irr-count", {"degree": n, "height": h}, results, True,
          witnesses, ["polynomial", "status", "factors"])


def cmd_sieve(args):
    report = pipeline_lower_bound(args.degree, args.height, args.z,
                                  args.max_enum, args.max_search)
    params = {"degree": args.degree, "height": args.height}
    if args.z is not None:
        params["z"] = args.z
    columns = ["degree", "height", "z", "ambient_count", "sifted_exact", "turan_bound",
               "irreducible_count", "turan_inequality_holds", "chain_inequality_holds"]
    _emit(args, "sieve", params, _fields(report, "degree", "height"), False, [report], columns)


def cmd_fp_audit(args):
    audit = audit_irreducible_counts(args.degree, args.primes)
    _emit(args, "fp-audit", {"degree": args.degree, "primes": args.primes}, audit, True,
          audit.rows, _columns(IrreducibleAuditRow))


def cmd_primes(args):
    ps = primes_below(args.below)
    results = {"below": args.below, "count": len(ps), "primes": ps}
    _emit(args, "primes", {"below": args.below}, results, True, [{"p": p} for p in ps], ["p"])


def cmd_chebyshev(args):
    audit = audit_chebyshev(args.z_max)
    _emit(args, "chebyshev", {"z_max": args.z_max}, audit, False,
          audit.samples, _columns(ChebyshevSample))


def cmd_bounds_audit(args):
    reports = audit_bounds(args.degree, (args.h_min, args.h_max))
    results = {"reports": [_fields(r, "degree") for r in reports]}
    _emit(args, "bounds-audit", {"degree": args.degree, "h_max": args.h_max, "h_min": args.h_min},
          results, True, reports, _columns(BoundsAuditReport))


# --- parser ----------------------------------------------------------------


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not primes:
        raise argparse.ArgumentTypeError("expected at least one prime")
    for p in primes:
        if not is_prime(p):
            raise argparse.ArgumentTypeError(f"not prime: {p}")
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

    def add_format(p, choices=("json", "csv"), default="json"):
        p.add_argument("--format", choices=choices, default=default)

    def add_limits(p, enum=False, search=False):
        if enum:
            p.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_LIMIT,
                           help=f"enumeration feasibility limit (default {DEFAULT_ENUM_LIMIT})")
        if search:
            p.add_argument("--max-search", type=int, default=DEFAULT_SEARCH_LIMIT,
                           help=f"factor-search candidate limit (default {DEFAULT_SEARCH_LIMIT})")

    p = sub.add_parser("count", help="exact admissible count and claimed bounds")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    add_format(p)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("enumerate", help="stream the admissible polynomials in lex order")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--limit", type=_row_limit, default=None, help="stop after this many rows")
    add_format(p, choices=("jsonl", "csv"), default="jsonl")
    add_limits(p, enum=True)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("irr-count", help="irreducibility census with witnesses")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    add_format(p)
    add_limits(p, enum=True, search=True)
    p.set_defaults(run=cmd_irr_count)

    p = sub.add_parser("sieve", help="run the sifting pipeline report")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--z", type=int, default=None, help="override the sieve level")
    add_format(p)
    add_limits(p, enum=True, search=True)
    p.set_defaults(run=cmd_sieve)

    p = sub.add_parser("fp-audit", help="irreducible counts over F_p vs p^n/n")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--primes", type=_parse_primes, required=True,
                   help="comma-separated primes, e.g. 2,3,5,7")
    add_format(p)
    p.set_defaults(run=cmd_fp_audit)

    p = sub.add_parser("primes", help="primes strictly below a bound")
    p.add_argument("--below", type=int, required=True)
    add_format(p)
    p.set_defaults(run=cmd_primes)

    p = sub.add_parser("chebyshev", help="prime-count ratio audit")
    p.add_argument("--z-max", type=int, required=True)
    add_format(p)
    p.set_defaults(run=cmd_chebyshev)

    p = sub.add_parser("bounds-audit", help="claimed bounds vs exact counts over a height range")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--h-min", type=int, required=True)
    p.add_argument("--h-max", type=int, required=True)
    add_format(p)
    p.set_defaults(run=cmd_bounds_audit)

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
