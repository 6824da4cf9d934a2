#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    tools/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed S]
                       [--pairs N] [--seconds S] [--trace 0|1] [--out FILE]

Runs each checkout's own, unmodified bench/e2e/run.py N times, alternating
which side goes first in each pair, so that a slow phase of a shared host
hits both sides alike.  Prints, per metric, each side's median and
quartiles, the pairs the change won, and whether the claim rule holds: the
change is better in at least 9 of every 10 pairs, and its median beats the
parent's by more than the parent's interquartile range.  The direction of
"better" is each metric's `better` field in the change's BENCHMARK.json.
Each end-to-end metric also gets a no-regression verdict against its
relative `bound` there:
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's interquartile range, relative to its median, is
              wider than the bound, and not every change run beats every
              parent run;
  ok          otherwise.
Also prints the `correct` and `failed` totals of each side.  --out writes
every run's raw result as JSON.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, args):
    """One run of CHECKOUT/bench/e2e/run.py; returns its JSON result."""
    command = [sys.executable, str(checkout / "bench" / "e2e" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"e2e_pairs: {' '.join(command)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(direction, a, b):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def relative_iqr(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


def regression_verdict(direction, bound, parent, change):
    """`worse`, `unresolved` or `ok` for one end-to-end metric."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    excess = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if excess > bound * abs(p_med):
        return "worse"
    separated = all(better(direction, c, p) for c in change for p in parent)
    if max(relative_iqr(parent), relative_iqr(change)) > bound and not separated:
        return "unresolved"
    return "ok"


def summarize(name, unit, direction, bound, parent, change):
    """One table row: the claim rule, then (for an end-to-end metric, whose
    `bound` is not None) the no-regression verdict."""
    pairs = [(p, c) for p, c in zip(parent, change) if finite(p) and finite(c)]
    if not pairs:
        return None
    ps = [p for p, _ in pairs]
    cs = [c for _, c in pairs]
    wins = sum(better(direction, c, p) for p, c in pairs)
    p_med, c_med = statistics.median(ps), statistics.median(cs)
    p_q1, p_q3 = quartiles(ps)
    c_q1, c_q3 = quartiles(cs)
    gap = (p_med - c_med) if direction == "lower" else (c_med - p_med)
    claim = wins * 10 >= 9 * len(pairs) and gap > p_q3 - p_q1
    ratio = p_med / c_med if c_med else float("nan")
    verdict = "-" if bound is None else regression_verdict(direction, bound,
                                                           ps, cs)
    row = (f"{name:<40} {unit:<8} {p_med:.6g} [{p_q1:.6g}-{p_q3:.6g}]  "
           f"{c_med:.6g} [{c_q1:.6g}-{c_q3:.6g}]  {ratio:.3g}x  "
           f"{wins}/{len(pairs)}  {'yes' if claim else 'no'}  {verdict}")
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True,
                        choices=("paper_repro", "cli_cold", "dse_search",
                                 "phys_scale"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write raw runs as JSON")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}, --trace {args.trace}")
    for side in ("parent", "change"):
        results = runs[side]
        print(f"{side}: correct {sum(r['correct'] for r in results)}"
              f"/{len(results)} runs, failed {sum(r['failed'] for r in results)}"
              f" of {sum(r['attempted'] for r in results)} attempted")
    print(f"{'metric':<40} {'unit':<8} parent median [q1-q3]  "
          f"change median [q1-q3]  parent/change  change wins  claim  "
          f"no-regression")
    names = sorted(set(runs["parent"][0]["metrics"]) &
                   set(runs["change"][0]["metrics"]))
    for name in names:
        if name not in directions:
            continue
        unit = runs["change"][0]["metrics"][name]["unit"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        row = summarize(name, unit, directions[name], bounds.get(name),
                        values["parent"], values["change"])
        if row:
            print(row)


if __name__ == "__main__":
    main()
