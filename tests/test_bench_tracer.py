"""The benchmark's tracer still installs over the package and changes no result.

`bench/tracer.py` rebinds package names by value at run time, with the
signatures it expects; a renamed or re-signed entry point breaks traced
benchmark runs only.  This runs a few library calls under the tracer in
a subprocess and compares them with the same calls untraced.
"""

import json
import subprocess
import sys
from pathlib import Path

from admissible import (
    build_admissible_instance,
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
