"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Closed loop, one client: executions of the workload run one after
another, each step in a fresh worker process (bench/worker.py), until
--seconds have passed.  Every execution's output is checked against the
frozen golden values in bench/workloads.py.  Before the loop, a few
set-up probes start a worker that only imports the package.

Times are CPU seconds at reference speed.  The CPUs of a small shared
host drift in speed by tens of percent within a minute, each on its
own, so wall time spreads too widely between runs to bound a change.
Every worker therefore runs on one CPU, next to a metronome process
that shares that CPU for the whole run.  A worker's CPU time over an
interval is scaled by the metronome's speed over the same interval,
relative to REFERENCE_RATE.  The driver keeps the other CPUs.

--trace 0 reports the end-to-end metrics of untraced executions.
--trace 1 alternates untraced and traced executions, checks that both
give the same output, and reports the per-layer metrics of the traced
ones plus the tracing overhead between the two.  --smoke swaps in tiny
inputs for the harness's own tests.

A summary goes to stderr; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0
when every execution was correct, 1 when one failed, and 2 when the
package source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from worker import METRONOME_CHUNK, REPORT_PREFIX
from workloads import END_TO_END, PER_LAYER, SMOKE, WORKLOADS, check, layer_metrics, merge_traces

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# Wall-clock budget of one run; a worker still running at its end is killed.
RUN_LIMIT_S = 170.0
# Metronome loop iterations per CPU second that count as reference speed.
REFERENCE_RATE = 1e7


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so worker stamps compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StepFailure(Exception):
    pass


def start_worker(spec: dict, cpus: set[int]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(dict(spec, cpus=sorted(cpus)))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def spawn(spec: dict, cpus: set[int], deadline: float) -> tuple[float, bytes, dict]:
    """Run one worker on `cpus`; return its spawn stamp, stdout and report."""
    started = clock()
    proc = start_worker(spec, cpus)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise StepFailure(f"worker killed after the run's {RUN_LIMIT_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = err.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(REPORT_PREFIX):
        raise StepFailure(f"worker exited {proc.returncode}: {' | '.join(lines[-5:])}")
    return started, out, json.loads(lines[-1][len(REPORT_PREFIX):])


class Speed:
    """The metronome's samples: scales CPU time to reference speed."""

    def __init__(self, samples: list):
        if len(samples) < 2:
            raise StepFailure("the metronome recorded no speed samples")
        self.times = [t for t, _ in samples]
        self.cpu = [c for _, c in samples]

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        """`cpu_s` spent between clock stamps `start` and `end`, at reference speed."""
        # The samples just outside the interval bound it on both sides.
        i = max(0, bisect.bisect_left(self.times, start) - 1)
        j = min(len(self.times) - 1, bisect.bisect_right(self.times, end))
        rate = (j - i) * METRONOME_CHUNK / (self.cpu[j] - self.cpu[i])
        return cpu_s * rate / REFERENCE_RATE


@dataclass
class Execution:
    traced: bool
    steps: list = field(default_factory=list)  # (spawn stamp, report) per process
    fingerprint: list = field(default_factory=list)
    bytes_out: int = 0

    def cpu_s(self, speed: Speed) -> float:
        return sum(speed.scaled(r["cpu_end"] - r["cpu_imported"], r["imported"], r["end"])
                   for _, r in self.steps)

    def setups(self, speed: Speed) -> list[float]:
        return [speed.scaled(r["cpu_imported"], started, r["imported"])
                for started, r in self.steps]

    def trace(self, speed: Speed) -> dict:
        """Merged trace, with span times converted to reference CPU seconds."""
        traces = []
        for _, r in self.steps:
            cpu = speed.scaled(r["cpu_end"] - r["cpu_imported"], r["imported"], r["end"])
            f = cpu / (r["end"] - r["imported"])
            spans = {k: [n, total * f, own * f]
                     for k, (n, total, own) in r["trace"]["spans"].items()}
            traces.append({"spans": spans, "counts": r["trace"]["counts"]})
        return merge_traces(traces)


def execute(steps, traced: bool, cpus: set[int], deadline: float) -> Execution:
    """One execution of the workload: every step in its own cold process."""
    ex = Execution(traced)
    for step in steps:
        started, out, report = spawn(step.spec(str(SRC), traced), cpus, deadline)
        reason = check(step, out)
        if reason:
            raise StepFailure(reason)
        ex.steps.append((started, report))
        ex.fingerprint.append(hashlib.sha256(out).hexdigest())
        if step.kind == "cli":
            ex.bytes_out += len(out)
    return ex


def _median(values):
    # Counts stay whole numbers: they repeat exactly across executions.
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    steps = list(workload.steps)
    rng.shuffle(steps)
    plan = [False, True] if trace else [False]
    rng.shuffle(plan)
    deadline = clock() + RUN_LIMIT_S

    cpus = sorted(os.sched_getaffinity(0))
    work = {cpus[-1]}
    os.sched_setaffinity(0, set(cpus[:-1]) or work)
    metronome = start_worker({"step": "metronome"}, work)
    try:
        # Every interval to scale must start after the first speed sample.
        metronome.stdout.readline()
        probe = {"entry": steps[0].entry, "step": "setup", "src": str(SRC), "trace": False}
        probes = [spawn(probe, work, deadline) for _ in range(SETUP_PROBES)]

        done: list[Execution] = []
        attempted = failed = 0
        took = {}  # seconds the last execution of each kind (traced or not) took
        stop = clock() + seconds
        while True:
            traced = plan[attempted % len(plan)]
            attempted += 1
            t0 = clock()
            try:
                done.append(execute(steps, traced, work, deadline))
            except StepFailure as exc:
                failed += 1
                print(f"execution {attempted} failed: {exc}", file=sys.stderr)
            now = clock()
            took[traced] = now - t0
            # Start another execution only if it should end within --seconds;
            # a trace run needs one of each kind.
            following = plan[attempted % len(plan)]
            if attempted >= len(plan) and now + took.get(following, now - t0) > stop:
                break
    finally:
        metronome.send_signal(signal.SIGTERM)
        try:
            samples, _ = metronome.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            metronome.kill()
            samples, _ = metronome.communicate()
    speed = Speed(json.loads(samples or b"[]"))

    untraced = [ex for ex in done if not ex.traced]
    traced_runs = [ex for ex in done if ex.traced]
    for ex in traced_runs:
        if untraced and ex.fingerprint != untraced[0].fingerprint:
            failed += 1
            print("traced output differs from the untraced output", file=sys.stderr)
    if failed or not untraced or (trace and not traced_runs):
        return {"correct": False, "attempted": attempted, "failed": max(failed, 1),
                "metrics": {}}

    cpu_s = statistics.median(ex.cpu_s(speed) for ex in untraced)
    walls = [sum(r["end"] - r["imported"] for _, r in ex.steps) for ex in untraced]
    print(f"unscaled wall time, import to exit, with the metronome: median"
          f" {statistics.median(walls):.4f} s", file=sys.stderr)
    if trace:
        values = [layer_metrics(ex.trace(speed), ex.bytes_out) for ex in traced_runs]
        raw = {name: _median([v[name] for v in values]) for name in values[0]}
        traced_cpu_s = statistics.median(ex.cpu_s(speed) for ex in traced_runs)
        raw["trace.overhead"] = traced_cpu_s / cpu_s - 1
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        setups = [speed.scaled(r["cpu_imported"], started, r["imported"])
                  for started, _, r in probes]
        setups += [s for ex in done for s in ex.setups(speed)]
        reports = [r for _, _, r in probes] + [r for ex in done for _, r in ex.steps]
        raw = {
            "cpu_s": cpu_s,
            "polys_per_s": workload.polys / cpu_s,
            "setup_s": len(steps) * statistics.median(setups),
            "peak_rss_mb": max(r["peak_kb"] for r in reports) / 1024,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {name: {"value": raw[name], "unit": units[name]} for name in units}
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so running workers are still killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "admissible" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'admissible'}", file=sys.stderr)
        return 2

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except StepFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for name, metric in result["metrics"].items():
        print(f"{args.workload:15} {name:40} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
