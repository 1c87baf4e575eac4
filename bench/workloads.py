"""Workloads, their frozen golden values, and what every metric measures.

Inputs are exhaustive and deterministic: every workload handles the
whole admissible set of one (degree, height), so there is nothing to
sample.  The run's seed only permutes the order of its processes.  Each
step of a workload is one cold process, because the mod-p tables are
built per process and every CLI user pays for them.

Golden values were frozen from the seed version of the package
(0.1.0); every run compares against them and never skips a mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Step:
    """One cold process: a library call returning JSON, or a CLI command."""

    kind: str  # "library" or "cli"
    args: tuple | dict  # CLI argv, or the library call's keyword arguments
    golden: dict  # library: the exact result; cli: sha256 and length of stdout
    call: str = ""  # library call name in worker.run_library

    @property
    def entry(self) -> str:
        return "admissible" if self.kind == "library" else "admissible.cli"

    def spec(self, src: str, trace: bool) -> dict:
        args = self.args if self.kind == "library" else list(self.args)
        return {"entry": self.entry, "step": self.kind, "call": self.call, "args": args,
                "src": src, "trace": trace}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    polys: int  # admissible polynomials one execution handles (the input size)
    steps: tuple[Step, ...]


def _sift(degree, height, z, golden):
    return Step("library", {"degree": degree, "height": height, "z": z}, golden, "sift")


def _irr(degree, height, golden):
    return Step("library", {"degree": degree, "height": height}, golden, "irr")


def _cli(command, sha256, size):
    return Step("cli", tuple(command.split()), {"sha256": sha256, "bytes": size})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sift-quintic",
            "Library Turan sieve over all 574,665 quintics of height 36 at z=8: enumeration"
            " and mod-p table membership dominate, with no Z-irreducibility.",
            574_665,
            (
                _sift(5, 36, 8, {
                    "ambient": 574_665,
                    "members": {"2": 0, "3": 0, "5": 0, "7": 130_179},
                    "pairs": {"2,2": 0, "2,3": 0, "2,5": 0, "2,7": 0, "3,3": 0, "3,5": 0,
                              "3,7": 0, "5,5": 0, "5,7": 0, "7,7": 130_179},
                    "sifted": 444_486,
                    "bound": [37_194_885, 16],
                }),
            ),
        ),
        Workload(
            "irr-quintic",
            "Library census A(5,27) over 4,845 quintics: 2,260 reach the Mignotte factor"
            " search, which takes most of the time.",
            4_845,
            (_irr(5, 27, {"ambient": 4_845, "irreducible": 4_844}),),
        ),
        Workload(
            "cli-quartic",
            "Two cold CLI commands, sieve and irr-count at degree 4, height 24: per-process"
            " mod-p table builds dominate, then the pipeline and a 352 KB witness report.",
            2 * 2_600,
            (
                _cli("sieve --degree 4 --height 24",
                     "0311954869d0feb2a37f3c18e71cbb2e998d3462800582627bdddd3f4bf16852", 918),
                _cli("irr-count --degree 4 --height 24",
                     "52e82565489e6e600df055d61fa9cf963379af5886e95c670c732249a6d36821",
                     351_852),
            ),
        ),
        Workload(
            "stream-quintic",
            "Cold CLI enumerate of the same 574,665 quintics as sift-quintic, streamed as"
            " JSONL into a hashing sink: serialization dominates.",
            574_665,
            (
                _cli("enumerate --degree 5 --height 36",
                     "02ecf282f22c05e93d7a853f1bc16387745d6c0fc5976183c7a46cf3e3cf4c42",
                     26_167_890),
            ),
        ),
    )
}

# Tiny inputs with the same shape, for the harness's own tests.
SMOKE = {
    "sift-quintic": Workload("sift-quintic", "smoke", 804, (
        _sift(4, 10, 8, {
            "ambient": 804,
            "members": {"2": 0, "3": 0, "5": 227, "7": 228},
            "pairs": {"2,2": 0, "2,3": 0, "2,5": 0, "2,7": 0, "3,3": 0, "3,5": 0,
                      "3,7": 0, "5,5": 227, "5,7": 70, "7,7": 228},
            "sifted": 419,
            "bound": [2711, 1],
        }),
    )),
    "irr-quintic": Workload("irr-quintic", "smoke", 21, (
        _irr(3, 6, {"ambient": 21, "irreducible": 10}),
    )),
    "cli-quartic": Workload("cli-quartic", "smoke", 2 * 21, (
        _cli("sieve --degree 3 --height 6",
             "a916ab87bc236c59ea94416068a69e633fbd9f65d426f745bf9bef5788cc9536", 519),
        _cli("irr-count --degree 3 --height 6",
             "c34898f6e872bf1af3bdf6ff8094f2d6e04f99033a2ca80f624299cf7e34240d", 3115),
    )),
    "stream-quintic": Workload("stream-quintic", "smoke", 804, (
        _cli("enumerate --degree 4 --height 10",
             "0b4ae89e6b3a85463413513b8dd7e4024c203ebbbba87f99fdf362fdada6f746", 30_900),
    )),
}


def check(step: Step, stdout: bytes) -> str | None:
    """Why the step's output is wrong, or None when it matches its golden value."""
    if step.kind == "cli":
        digest = hashlib.sha256(stdout).hexdigest()
        if len(stdout) != step.golden["bytes"] or digest != step.golden["sha256"]:
            return f"stdout is {len(stdout)} bytes, sha256 {digest}; golden {step.golden}"
        return None
    try:
        result = json.loads(stdout)
    except ValueError:
        return f"library step printed no JSON result: {stdout[:200]!r}"
    if result != step.golden:
        return f"result {result} differs from golden {step.golden}"
    if step.call == "sift" and Fraction(result["sifted"]) > Fraction(*result["bound"]):
        return "theorem check failed: S_exact exceeds the Turan bound"
    return None


# End-to-end metrics, measured with tracing off.
END_TO_END = {
    "cpu_s": ("s", "CPU seconds at reference speed from 'package imported' to exit, summed"
                   " over an execution's processes; median over executions"),
    "polys_per_s": ("1/s", "Workload.polys divided by cpu_s"),
    "setup_s": ("s", "CPU seconds at reference speed from spawn to 'package imported', times"
                     " the processes per execution; median over every process of the run"),
    "peak_rss_mb": ("MB", "largest peak resident set size (VmHWM) over the run's processes"),
}

# Per-layer metrics from the traced run: (unit, the end-to-end metric and
# workload each one should move).  Times are self times (span minus child
# spans), converted to the reference CPU seconds of cpu_s, summed over an
# execution's processes; median over traced executions.
PER_LAYER = {
    "combinatorics.count_calls": ("count", "control: near zero work everywhere"),
    "combinatorics.count_s": ("s", "control: near zero everywhere"),
    "polynomials.enumerated": ("count", "input size seen by the enumeration"),
    "polynomials.enumerate_s": ("s", "cpu_s, polys_per_s on sift-quintic, stream-quintic"),
    "finite_field.table_builds": ("count", "tables built from scratch (cache misses)"),
    "finite_field.table_entries": ("count", "Rabin tests run inside table builds"),
    "finite_field.table_build_s": ("s", "cpu_s on cli-quartic, partly sift-quintic;"
                                        " setup_s if builds move to import time"),
    "finite_field.table_lookups": ("count", "irreducible_table calls answered by its cache"),
    "finite_field.rabin_tests": ("count", "direct Rabin tests by sieve and"
                                          " integer_irreducibility (p^n above the table limit)"),
    "finite_field.rabin_s": ("s", "cpu_s on irr-quintic"),
    "integer_irreducibility.decisions": ("count", "is_irreducible_over_z calls"),
    "integer_irreducibility.decide_s": ("s", "cpu_s on irr-quintic"),
    "integer_irreducibility.probe_s": ("s", "cpu_s on irr-quintic"),
    "integer_irreducibility.search_entries": ("count", "polynomials reaching the factor search"),
    "integer_irreducibility.search_s": ("s", "cpu_s on irr-quintic; ~0 on sift, stream"),
    "integer_irreducibility.search_yield": ("ratio", "reducible witnesses / search entries"),
    "sieve.instance_s": ("s", "cpu_s, peak_rss_mb on sift-quintic"),
    "sieve.sift_s": ("s", "cpu_s on sift-quintic"),
    "sieve.turan_s": ("s", "cpu_s on sift-quintic; negligible on cli-quartic"),
    "sieve.pipeline_s": ("s", "cpu_s on cli-quartic (the sieve command)"),
    "sieve.survivor_ratio": ("ratio", "S_exact / N over everything exact_sifted_count saw"),
    "cli.main_s": ("s", "cpu_s on stream-quintic and cli-quartic (inclusive)"),
    "cli.serialize_s": ("s", "self time of cli.main: cpu_s on stream-quintic"),
    "cli.bytes_out": ("bytes", "stdout size of the CLI steps"),
    "trace.overhead": ("ratio", "traced cpu_s / untraced cpu_s - 1 in the same run"),
}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the trace summaries of one execution's processes."""
    spans: dict = {}
    counts: dict = {}
    for trace in traces:
        for name, values in trace["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), values)]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, bytes_out: int) -> dict:
    """Per-layer metric values (all but trace.overhead) of one traced execution."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    search = "integer_irreducibility.search"
    return {
        "combinatorics.count_calls": calls("combinatorics.count"),
        "combinatorics.count_s": self_s("combinatorics.count"),
        "polynomials.enumerated": counts.get("polynomials.enumerated", 0),
        "polynomials.enumerate_s": self_s("polynomials.enumerate"),
        "finite_field.table_builds": counts["finite_field.table_builds"],
        "finite_field.table_entries": counts.get("finite_field.table_entries", 0),
        "finite_field.table_build_s": self_s("finite_field.build"),
        "finite_field.table_lookups": counts["finite_field.table_lookups"],
        "finite_field.rabin_tests": calls("finite_field.rabin"),
        "finite_field.rabin_s": self_s("finite_field.rabin"),
        "integer_irreducibility.decisions": calls("integer_irreducibility.decide"),
        "integer_irreducibility.decide_s": self_s("integer_irreducibility.decide"),
        "integer_irreducibility.probe_s": self_s("integer_irreducibility.probe"),
        "integer_irreducibility.search_entries": calls(search),
        "integer_irreducibility.search_s": self_s(search),
        "integer_irreducibility.search_yield": ratio(
            counts.get("integer_irreducibility.witnesses", 0), calls(search)),
        "sieve.instance_s": self_s("sieve.instance"),
        "sieve.sift_s": self_s("sieve.sift"),
        "sieve.turan_s": self_s("sieve.turan"),
        "sieve.pipeline_s": self_s("sieve.pipeline"),
        "sieve.survivor_ratio": ratio(
            counts.get("sieve.sifted", 0), counts.get("sieve.ambient", 0)),
        "cli.main_s": spans.get("cli.main", [0, 0.0, 0.0])[1],
        "cli.serialize_s": self_s("cli.main"),
        "cli.bytes_out": bytes_out,
    }
