#!/usr/bin/env python3
"""ctest bench_e2e_smoke: every workload at 2 samples, untraced and traced.

    python3 smoke_test.py path/to/bench_e2e

Asserts that every metric BENCHMARK.json names is present (run.measure
checks names and units), that no op failed, that in every stage tree the
children plus `unattributed` add up to the node, and that each workload's
tree leaves at most 5% unattributed and drops no span.
"""
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check_tree(node, path):
    children = node.get("children", [])
    if not children:
        return
    total = sum(c["ms"] for c in children) + node["unattributed_ms"]
    assert math.isclose(total, node["ms"], rel_tol=1e-9, abs_tol=1e-9), \
        f"{path}: children + unattributed = {total} ms != {node['ms']} ms"
    for c in children:
        check_tree(c, f"{path}/{c['name']}")


def main():
    exe = Path(sys.argv[1])
    reports = exe.parent / "e2e_smoke_reports"
    for trace in (False, True):
        # A traced run covers all four workloads.
        for workload in run.WORKLOADS[:1] if trace else run.WORKLOADS:
            result = run.measure(exe, workload, seed=0, samples=2, trace=trace,
                                 setup_repeats=1, report_dir=reports)
            assert result["correct"] and result["failed"] == 0, result
            metrics = result["metrics"]
    for workload in run.WORKLOADS:
        report = json.loads((reports / f"{workload}-seed0-traced.json").read_text())
        for tree in report["trees"]:
            check_tree(tree, f"{workload}:{tree['name']}")
        assert metrics[f"{workload}.unattributed_frac"]["value"] <= 0.05, workload
        assert metrics[f"{workload}.trace_dropped"]["value"] == 0, workload
    print("bench_e2e_smoke: ok")


if __name__ == "__main__":
    main()
