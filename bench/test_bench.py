"""Tests of the benchmark harness itself, on the smoke inputs.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import REFERENCE_RATE, Speed
from tracer import Tracer
from worker import METRONOME_CHUNK
from workloads import END_TO_END, PER_LAYER, SMOKE, WORKLOADS, Step, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["polynomials.enumerated"] >= SMOKE[workload].polys
    else:
        assert all(v > 0 for v in values.values())


def test_check_rejects_wrong_outputs():
    cli = SMOKE["stream-quintic"].steps[0]
    assert check(cli, b"x" * cli.golden["bytes"]) is not None
    sift = SMOKE["sift-quintic"].steps[0]
    assert check(sift, json.dumps(sift.golden).encode()) is None
    assert check(sift, json.dumps(dict(sift.golden, sifted=418)).encode()) is not None
    assert check(sift, b"Traceback") is not None
    broken = dict(sift.golden, sifted=3000)  # above the bound 2711
    theorem = Step("library", sift.args, broken, "sift")
    assert "theorem" in check(theorem, json.dumps(broken).encode())


def test_missing_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "irr-quintic", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 2
    assert self_s == pytest.approx(total - tracer.spans["inner"][1])
    assert list(tracer.iterate("gen", range(5), "items")) == list(range(5))
    assert tracer.counts["items"] == 5 and tracer.spans["gen"][0] == 6


def test_speed_scales_cpu_time_by_the_metronome_rate():
    # One chunk per second of clock time, each taking twice the reference CPU time.
    chunk_cpu = 2 * METRONOME_CHUNK / REFERENCE_RATE
    speed = Speed([(t, t * chunk_cpu) for t in range(10)])
    assert speed.scaled(4.0, 2.5, 6.5) == pytest.approx(2.0)


def test_benchmark_json_matches_the_harness():
    assert CONFIG["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in CONFIG["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert sorted(SMOKE) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == [
        (name, unit) for name, (unit, _) in END_TO_END.items()]
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == [
        (name, unit) for name, (unit, _) in PER_LAYER.items()]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in CONFIG["workloads"])
