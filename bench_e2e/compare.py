#!/usr/bin/env python3
"""Compares two sets of bench_e2e results under BENCHMARK.json's bounds.

    python3 bench_e2e/compare.py --a RESULTS... [--b RESULTS...]
                                 [--benchmark BENCHMARK.json]

A result is a file written by `bench_e2e --json FILE` (one run); a directory
stands for every *.json file in it. Set A is the baseline (the parent
commit), set B the change, both run with the same settings. For every
(workload, metric) the script prints each set's median and quartiles and a
verdict, following the rules for comparing noisy runs on a small machine:

  improved    B wins at least 9 in 10 of the runs paired by seed, and the
              medians differ by more than A's interquartile range
  ok          B's median is not worse than A's by more than the bound, or
              every B run is better than every A run
  unresolved  the run-to-run spread (interquartile range over median) of A
              or B is wider than the bound, and not every B run is better
  regressed   B's median is worse than A's by more than the bound

Per-layer metrics have no bound and get no verdict. With only --a, the
script prints each metric's spread against its bound instead, and calls it
steady when the spread is below a third of the bound.

Quartiles are statistics.quantiles(values, n=4). Only the standard library
is used.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    """{workload: [result, ...]} ordered by seed."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        result = json.loads(f.read_text())
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better(x, y, direction):
    """True when y reads better than x."""
    return y > x if direction == "higher" else y < x


def verdict(a, b, direction, bound):
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    pairs = list(zip(a, b))
    wins = sum(better(x, y, direction) for x, y in pairs)
    if (pairs and wins >= 0.9 * len(pairs) and better(ma, mb, direction)
            and abs(mb - ma) > qa[2] - qa[0]):
        return "improved"
    if all(better(x, y, direction) for x in a for y in b):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    worse = (ma - mb if direction == "higher" else mb - ma) / abs(ma)
    return "regressed" if worse > bound else "ok"


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def fmt(vals):
    q1, q2, q3 = quartiles(vals)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True)
    parser.add_argument("--b", nargs="+")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = [(m, True) for m in spec["end_to_end"]] + \
              [(m, False) for m in spec["per_layer"]]
    a = load(args.a)
    b = load(args.b) if args.b else None

    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs_a = a.get(workload, [])
        if not runs_a:
            continue
        print(f"== {workload}: A n={len(runs_a)}"
              + (f", B n={len(b.get(workload, []))}" if b else ""))
        for m, bounded in metrics:
            va = values(runs_a, m["name"])
            if not va:
                continue
            line = f"  {m['name']:<24} {m['unit']:<6} A {fmt(va):<40}"
            if b is None:
                if bounded:
                    s = spread(va)
                    line += (f" spread {s:.4f} bound {m['bound']:.4f} "
                             + ("steady" if s < m["bound"] / 3 else "NOISY"))
                print(line)
                continue
            vb = values(b.get(workload, []), m["name"])
            if not vb:
                print(line + " B missing")
                continue
            change = (statistics.median(vb) / statistics.median(va) - 1
                      if statistics.median(va) else float("nan"))
            line += f" B {fmt(vb):<40} {change:+.2%}"
            if bounded:
                v = verdict(va, vb, m["better"], m["bound"])
                status |= v == "regressed"
                line += f" {v}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
