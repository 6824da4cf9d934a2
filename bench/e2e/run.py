#!/usr/bin/env python3
"""Runs the end-to-end benchmark (README.md).

    python3 bench/e2e/run.py --workload NAME [--seed N]
                             (--seconds S | --samples N) [--trace 0|1]

Builds bench_e2e and uld3d_cli from source into .bench_build/e2e (Release),
runs the workload in child processes, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0   the end-to-end metrics of NAME.  Set-up is timed in
            SETUP_REPEATS fresh processes, half of them before the measuring
            one and half after, and reported as their median.
--trace 1   the per-layer metrics: every workload is traced in a child of
            its own for a quarter of the time, whichever NAME is given.

The metric names and units must match BENCHMARK.json at the repository
root.  Per-run reports (provenance, samples, stage trees) are written to
.bench_build/e2e/reports/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("paper_repro", "cli_cold", "dse_search", "phys_scale")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring bench_e2e (and the CLI) up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no uld3d sources under {ROOT}; the benchmark builds the library")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    commands = [["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *generator])
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")
    return BUILD / "bench_e2e"


def child(exe, args):
    """Run bench_e2e once; its last stdout line is its result."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([str(exe), *args, "--spawn-ns", str(spawn_ns)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"bench_e2e {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(exe, workload, seed, seconds=None, samples=None, trace=False,
            setup_repeats=SETUP_REPEATS, report_dir=BUILD / "reports"):
    """One benchmark run; returns the result object run.py prints."""
    report_dir.mkdir(parents=True, exist_ok=True)

    def args(name, budget):
        mode = "traced" if trace else "untraced"
        return ["--workload", name, "--seed", str(seed),
                *(["--samples", str(samples)] if samples else ["--seconds", str(budget)]),
                *(["--traced"] if trace else []),
                "--report", str(report_dir / f"{name}-seed{seed}-{mode}.json")]

    if trace:
        results = [child(exe, args(name, seconds / len(WORKLOADS) if seconds else None))
                   for name in WORKLOADS]
    else:
        def setups(n):
            return [child(exe, ["--workload", workload, "--seed", str(seed),
                                "--setup-only"])["setup_s"] for _ in range(n)]
        # Spread over the run, so that a slow phase of the host that is
        # shorter than the run moves at most a minority of them.
        before = setups(setup_repeats // 2)
        results = [child(exe, args(workload, seconds))]
        after = setups((setup_repeats - 1) // 2)
        setup = results[0]["metrics"]["setup_s"]
        setup["value"] = statistics.median([*before, setup["value"], *after])

    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
    units = {name: m["unit"] for name, m in metrics.items()}
    if units != expected_units(trace):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(units.items()) ^ set(expected_units(trace).items()))}")
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--samples", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args()
    if a.seed < 0 or (a.seconds is not None and a.seconds <= 0) or \
            (a.samples is not None and a.samples <= 0):
        parser.error("--seed must be >= 0 and the budget positive")
    exe = build()
    result = measure(exe, a.workload, a.seed, a.seconds, a.samples, bool(a.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
