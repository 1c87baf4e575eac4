"""One cold process of a benchmark workload, or the run's metronome.

Usage: python3 bench/worker.py '<json spec>'

The spec names the CPUs to run on, the module to import first
("admissible" or "admissible.cli"), the step ("setup", "library", "cli"
or "metronome"), its arguments, the source directory the package must come from, and
whether to trace.  The worker imports the module, stamps the clock and
its own CPU time, runs the step (a setup step only imports) and writes
its output to stdout: the CLI's own bytes, or the library result as one
JSON line.  Its last stderr line is a report, prefixed by REPORT_PREFIX,
with the stamps, the peak resident set size, the exit code and the trace
summary.

The metronome runs a fixed pure-Python loop on the workers' CPU.  It
prints "ready" after its first chunk of METRONOME_CHUNK iterations; on
SIGTERM it prints when each chunk ended, in clock time and in its own
CPU time.  The CPU's speed over any interval
follows from those samples.
"""

import importlib
import json
import os
import signal
import sys
import time

REPORT_PREFIX = "#bench-report "


def run_library(admissible, call, args):
    if call == "sift":
        n, h, z = args["degree"], args["height"], args["z"]
        instance = admissible.build_admissible_instance(n, h, z)
        sifted = admissible.exact_sifted_count(admissible.enumerate_admissible(n, h), z)
        bound = admissible.turan_upper_bound(instance)
        return {
            "ambient": instance.ambient_size,
            "members": {str(p): c for p, c in instance.member_counts.items()},
            "pairs": {f"{p},{q}": c for (p, q), c in sorted(instance.pair_counts.items())},
            "sifted": sifted,
            "bound": [bound.numerator, bound.denominator],
        }
    if call == "irr":
        n, h = args["degree"], args["height"]
        return {
            "ambient": admissible.count_admissible_exact(n, h),
            "irreducible": admissible.count_admissible_irreducible(n, h),
        }
    raise ValueError(f"unknown library call: {call!r}")


METRONOME_CHUNK = 100_000


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def metronome():
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    samples = []
    acc = 0
    while not stop:
        for i in range(METRONOME_CHUNK):
            acc += i * i % 7
        samples.append((clock(), time.process_time()))
        if len(samples) == 1:
            print("ready", flush=True)
    sys.stdout.write(json.dumps(samples))


def peak_rss_kb() -> int:
    # VmHWM, not ru_maxrss: ru_maxrss survives exec and so starts from the
    # driver's own peak, while VmHWM belongs to this process image alone.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, spec["cpus"])
    if spec["step"] == "metronome":
        return metronome()
    entry = importlib.import_module(spec["entry"])
    imported, cpu_imported = clock(), time.process_time()
    origin = os.path.realpath(entry.__file__)
    if not origin.startswith(os.path.realpath(spec["src"]) + os.sep):
        sys.stderr.write(f"admissible imported from {origin}, not from {spec['src']}\n")
        return 4

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    code = 0
    if spec["step"] == "library":
        result = run_library(entry, spec["call"], spec["args"])
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    elif spec["step"] == "cli":
        cli_main = entry.main if tracer is None else tracer.wrap("cli.main", entry.main)
        try:
            code = cli_main(spec["args"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    report = {
        "imported": imported,
        "cpu_imported": cpu_imported,
        "end": clock(),
        "cpu_end": time.process_time(),
        "peak_kb": peak_rss_kb(),
        "exit": code,
        "trace": None if tracer is None else tracer.summary(),
    }
    sys.stderr.write(REPORT_PREFIX + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
