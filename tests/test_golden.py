"""Golden CLI outputs: stdout, stderr and exit code, compared byte for byte.

`tests/golden/cli.json` maps each command line below to the bytes it
produced when it was recorded.  Any change to a report's shape, key
order, number rendering or error text fails here.  After an intended
output change, re-record and review the diff of the JSON file:

    PYTHONPATH=src python tests/test_golden.py --record

To re-record only some cases, name their command lines; every other
entry is kept byte for byte:

    PYTHONPATH=src python tests/test_golden.py --record "primes --below 2" ...
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = REPO_ROOT / "tests" / "golden" / "cli.json"


def _both(line: str, fmt: str = "csv") -> list[str]:
    return [line, f"{line} --format {fmt}"]


CASES = [
    "--version",
    *_both("count --degree 3 --height 6"),
    *_both("count --degree 3 --height 0"),
    *_both("count --degree 1 --height 3"),
    *_both("count --degree 2 --height 1"),
    "count --degree 4 --height 5",
    *_both("enumerate --degree 3 --height 2"),
    *_both("enumerate --degree 3 --height 6 --limit 5"),
    *_both("enumerate --degree 3 --height 6 --limit 0"),
    # N = 21: a limit of N or more writes no truncation marker
    *_both("enumerate --degree 3 --height 6 --limit 21"),
    *_both("enumerate --degree 3 --height 6 --limit 22"),
    "enumerate --degree 3 --height 1",
    "enumerate --degree 1 --height 0 --format jsonl",
    *_both("irr-count --degree 3 --height 2"),
    *_both("irr-count --degree 3 --height 6"),
    *_both("irr-count --degree 3 --height 1"),
    *_both("sieve --degree 3 --height 6 --z 4"),
    *_both("sieve --degree 3 --height 6"),
    *_both("sieve --degree 3 --height 8 --z 8"),
    *_both("sieve --degree 3 --height 1"),
    # primes 17, 19 and 23 get no table: membership by the direct test
    *_both("sieve --degree 4 --height 24 --z 24"),
    *_both("fp-audit --degree 2 --primes 2,3,5,7"),
    "fp-audit --degree 3 --primes 2,3",
    *_both("primes --below 30"),
    *_both("primes --below 2"),
    *_both("chebyshev --z-max 1000"),
    *_both("chebyshev --z-max 3"),
    *_both("bounds-audit --degree 4 --h-min 5 --h-max 6"),
    *_both("bounds-audit --degree 3 --h-min 0 --h-max 2"),
    # usage errors: exit 2
    "",
    "count --degree 3",
    "count --degree 3 --height x",
    "count --degree 0 --height 6",
    "count --degree 3 --height -1",
    "enumerate --degree 0 --height 1",
    "fp-audit --degree 2 --primes 2,4",
    "fp-audit --degree 2 --primes ,",
    "fp-audit --degree 1 --primes 2",
    "sieve --degree 2 --height 5",
    "sieve --degree 3 --height 6 --z 0",
    "primes --below 0",
    "chebyshev --z-max 2",
    "bounds-audit --degree 2 --h-min 0 --h-max 1",
    "bounds-audit --degree 3 --h-min 0 --h-max 7",
    "irr-count --degree 3 --height 2 --max-search 1",  # limits are constants, not flags
    # feasibility limits: exit 3
    "enumerate --degree 6 --height 200",
    "irr-count --degree 6 --height 200",
    "sieve --degree 6 --height 200 --z 4",
    "irr-count --degree 7 --height 720",
    "count --degree 100001 --height 1",
    "enumerate --degree 100001 --height 1",
    "irr-count --degree 100001 --height 1",
    "sieve --degree 100001 --height 1",
    "fp-audit --degree 100001 --primes 2",
    "bounds-audit --degree 100001 --h-min 0 --h-max 1",
    "sieve --degree 3 --height 6 --z 100000",
    "sieve --degree 3 --height 1000000000000",
    "sieve --degree 4 --height 24 --z 3572",
    "bounds-audit --degree 9 --h-min 0 --h-max 362880",
    "fp-audit --degree 2 --primes 1000000000000000003",
]


def run(line: str) -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (os.pathsep + extra if extra else "")
    proc = subprocess.run(
        [sys.executable, "-m", "admissible", *line.split()], capture_output=True, env=env
    )
    return {
        "exit": proc.returncode,
        "stderr": proc.stderr.decode(),
        "stdout": proc.stdout.decode(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("line", CASES)
def test_cli_output_matches_golden(golden, line):
    expected = golden[line]
    got = run(line)
    assert got["exit"] == expected["exit"]
    assert got["stdout"].encode() == expected["stdout"].encode()
    assert got["stderr"].encode() == expected["stderr"].encode()


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not set(sys.argv[2:]) <= set(CASES):
        sys.exit(__doc__)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    lines = sys.argv[2:] or CASES
    recorded = json.loads(GOLDEN_FILE.read_text()) if sys.argv[2:] else {}
    recorded.update({line: run(line) for line in lines})
    GOLDEN_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
