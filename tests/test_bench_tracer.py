"""The benchmark's tracer still installs over the package and changes no result.

`bench/tracer.py` rebinds package names by value at run time, with the
signatures it expects; a renamed or re-signed entry point breaks traced
benchmark runs only.  This runs a few library calls and `enumerate` and
`irr-count` commands under the tracer in a subprocess and compares them with the
same calls untraced.
"""

import json
import subprocess
import sys
from pathlib import Path

from admissible import (
    build_admissible_instance,
    cli,
    count_admissible_irreducible,
    enumerate_admissible,
    exact_sifted_count,
    pipeline_lower_bound,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

TRACED = f"""
import json, sys
sys.path[:0] = [{str(REPO_ROOT / "bench")!r}, {str(REPO_ROOT / "src")!r}]
from tracer import Tracer
tracer = Tracer().install()
import admissible
print(json.dumps({{
    "instance": repr(admissible.build_admissible_instance(4, 10, 8)),
    "sifted": admissible.exact_sifted_count(admissible.enumerate_admissible(4, 10), 8),
    "irreducible": admissible.count_admissible_irreducible(3, 6),
    "pipeline": repr(admissible.pipeline_lower_bound(4, 24)),
    "enumerated_pipeline": repr(admissible.pipeline_lower_bound(4, 10, 8)),
    "summary": tracer.summary(),
}}))
"""


def test_traced_calls_match_untraced_ones():
    proc = subprocess.run([sys.executable, "-c", TRACED], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["instance"] == repr(build_admissible_instance(4, 10, 8))
    assert traced["sifted"] == exact_sifted_count(enumerate_admissible(4, 10), 8)
    assert traced["irreducible"] == count_admissible_irreducible(3, 6)
    # The sieve of cli-quartic (residue route), then one that enumerates.
    assert traced["pipeline"] == repr(pipeline_lower_bound(4, 24))
    assert traced["enumerated_pipeline"] == repr(pipeline_lower_bound(4, 10, 8))
    assert {"sieve.instance", "sieve.sift", "sieve.pipeline",
            "integer_irreducibility.decide"} <= set(traced["summary"]["spans"])


TRACED_ENUMERATE = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(REPO_ROOT / "bench")!r}, {str(REPO_ROOT / "src")!r}]
from admissible import cli
from tracer import Tracer
tracer = Tracer().install()

def run(*flags):
    out, before = io.StringIO(), tracer.counts["polynomials.enumerated"]
    with contextlib.redirect_stdout(out):
        code = cli.main(["enumerate", "--degree", "4", "--height", "10", *flags])
    return [code, out.getvalue(), tracer.counts["polynomials.enumerated"] - before]

print(json.dumps([run(), run("--limit", "5")]))
"""


def test_traced_enumerate_prints_the_untraced_bytes_and_draws_each_row(capsys):
    # `enumerate` must draw its rows from enumerate_admissible, one per row
    # and none past the limit: the tracer counts the stream-quintic
    # workload's polynomials.enumerated there.
    proc = subprocess.run([sys.executable, "-c", TRACED_ENUMERATE], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (code, out, drawn), (limited_code, limited_out, limited_drawn) = json.loads(proc.stdout)
    assert cli.main(["enumerate", "--degree", "4", "--height", "10"]) == 0
    assert (code, out, drawn) == (0, capsys.readouterr().out, 804)
    assert cli.main(["enumerate", "--degree", "4", "--height", "10", "--limit", "5"]) == 0
    assert (limited_code, limited_out, limited_drawn) == (0, capsys.readouterr().out, 5)


TRACED_IRR_COUNT = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(REPO_ROOT / "bench")!r}, {str(REPO_ROOT / "src")!r}]
from admissible import cli
from tracer import Tracer
tracer = Tracer().install()

def run(fmt):
    out, before = io.StringIO(), tracer.counts["polynomials.enumerated"]
    with contextlib.redirect_stdout(out):
        code = cli.main(["irr-count", "--degree", "4", "--height", "10", "--format", fmt])
    return [code, out.getvalue(), tracer.counts["polynomials.enumerated"] - before]

print(json.dumps([run("json"), run("csv")]))
"""


def test_traced_irr_count_prints_the_untraced_bytes(capsys):
    # The traced cli-quartic runs compare irr-count's stdout fingerprint.
    # Its verdict pass and its render pass each walk the 804 quartics.
    proc = subprocess.run([sys.executable, "-c", TRACED_IRR_COUNT], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for fmt, traced in zip(["json", "csv"], json.loads(proc.stdout)):
        argv = ["irr-count", "--degree", "4", "--height", "10", "--format", fmt]
        assert cli.main(argv) == 0
        assert traced == [0, capsys.readouterr().out, 2 * 804]
