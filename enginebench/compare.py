#!/usr/bin/env python3
"""Compares two sets of enginebench runs, metric by metric.

Each argument is a file holding the standard output of one or more runs
(append them: `cargo run ... -- --workload tree_warm --seed 3 >> base.txt`).
The JSON record line of every run is read; runs are grouped by workload and
trace mode, and each metric is summarised per side by its median and
quartiles, with the change's median over the base's.

The record of each run carries its provenance: commit, core count, CPU
model and rustc version. Numbers taken on different machines or toolchains
are not comparable, and the comparison says so before any number.

    python3 enginebench/compare.py base.txt change.txt
"""

import json
import statistics
import sys


def records(path):
    with open(path) as f:
        for line in f:
            if line.startswith('{"record"'):
                yield json.loads(line)["record"]


def fingerprint(rec):
    p = rec["provenance"]
    return (p["cores"], p["cpu"], p["rustc"])


def spread(values):
    """(median, first quartile, third quartile) of the values, the
    quartiles as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(base_path, change_path):
    sides = [list(records(base_path)), list(records(change_path))]
    for path, recs in zip((base_path, change_path), sides):
        if not recs:
            sys.exit(f"{path}: no enginebench record lines")
    prints = [{fingerprint(r) for r in recs} for recs in sides]
    if len(prints[0] | prints[1]) > 1:
        print("WARNING: the runs differ in machine or toolchain; the numbers are not comparable:")
        for name, fps in zip(("base", "change"), prints):
            for cores, cpu, rustc in sorted(fps):
                print(f"  {name}: cores={cores} cpu={cpu!r} rustc={rustc!r}")
    for name, recs in zip(("base", "change"), sides):
        commits = sorted({r["provenance"]["commit"] for r in recs})
        print(f"{name}: {len(recs)} runs, commit {', '.join(commits)}")
    groups = sorted({(r["workload"], r["trace"]) for recs in sides for r in recs})
    for workload, trace in groups:
        runs = [[r for r in recs if (r["workload"], r["trace"]) == (workload, trace)] for recs in sides]
        print(f"\n{workload} (trace={trace}): {len(runs[0])} base runs, {len(runs[1])} change runs")
        first = (runs[0] or runs[1])[0]["metrics"]
        for metric, meta in first.items():
            cols = []
            for side in runs:
                values = [r["metrics"][metric]["value"] for r in side if metric in r["metrics"]]
                cols.append(spread(values) if values else None)
            text = "  ".join(f"{c[0]:.4g} [{c[1]:.4g}, {c[2]:.4g}]" if c else "-" for c in cols)
            unit = meta["unit"]
            ratio = ""
            if all(cols) and cols[0][0]:
                ratio = f"  change/base {cols[1][0] / cols[0][0]:.3f}"
            print(f"  {metric:<30} {unit:<6} {text}{ratio}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
