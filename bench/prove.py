"""Repeat benchmark runs over seeds, report their spread, record a baseline.

    python3 bench/prove.py [--runs 10] [--first-seed 1] [--workloads a,b]
                           [--trace-runs 1] [--out FILE] [--compare FILE]

Each round runs every workload once through bench/run.py, with the
round's seed, in an order the seed shuffles; one run at a time.  For
every end-to-end metric it prints the median of the runs and the spread
(q3 - q1) / median, with the quartiles from statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json.  --trace-runs adds that
many traced runs per workload for the per-layer medians.  --out writes
everything, with a description of the machine, as JSON (this is how
bench/baseline.json was made); --compare prints each median against
such a file and flags a metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform()}


def summarize(values: list[float], bound: float | None = None) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    e2e = {m["name"]: m for m in CONFIG["end_to_end"]}

    runs = {name: [] for name in names}
    traced = {name: [] for name in names}
    for r in range(args.runs + args.trace_runs):
        seed = args.first_seed + r
        order = list(names)
        random.Random(seed).shuffle(order)
        for name in order:
            result = run_once(name, seed, int(r >= args.runs))
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            (traced if r >= args.runs else runs)[name].append(result["metrics"])
            print(f"seed {seed} {name} done", file=sys.stderr, flush=True)

    report = {"machine": machine(), "run_seconds": CONFIG["run_seconds"],
              "first_seed": args.first_seed, "workloads": {}}
    for name in names:
        entry = {}
        for metric, spec in e2e.items():
            entry[metric] = summarize([m[metric]["value"] for m in runs[name]], spec["bound"])
        if traced[name]:
            entry["per_layer"] = {
                metric: statistics.median(m[metric]["value"] for m in traced[name])
                for metric in traced[name][0]
            }
        report["workloads"][name] = entry

    base = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    for name, entry in report["workloads"].items():
        for metric, spec in e2e.items():
            s = entry[metric]
            line = (f"{name:15} {metric:12} median {s['median']:<12.6g}"
                    f" spread {s.get('spread', 0):6.2%} (bound {spec['bound']:.0%})")
            if s.get("spread", 0) > spec["bound"] / 3:
                line += "  SPREAD ABOVE BOUND/3"
            old = base.get(name, {}).get(metric)
            if old:
                worse = s["median"] / old["median"] - 1
                if spec["better"] == "higher":
                    worse = old["median"] / s["median"] - 1
                line += f"  vs baseline {old['median']:.6g}: {worse:+.2%} worse"
                if worse > spec["bound"]:
                    line += "  REGRESSION"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
