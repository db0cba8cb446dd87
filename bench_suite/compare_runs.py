#!/usr/bin/env python3
"""Compare two sets of bench_suite runs metric by metric.

    python3 bench_suite/compare_runs.py BASE.jsonl CHANGE.jsonl [--bench FILE]

A set file holds one bench_suite artifact per line (run.py --record writes
them; a single artifact file also works). Each run contributes the median it
reported for every end-to-end metric; a set's value is the median over its
runs and its spread is the interquartile range over that median, both as
Python's statistics module computes them.

For every workload x end-to-end metric of BENCHMARK.json this prints both
medians, the relative difference, the metric's bound and a verdict:

  ok          CHANGE is no worse than BASE by more than the bound, or every
              CHANGE run reads better than every BASE run;
  unresolved  the spread of either set is wider than the bound, so a
              difference within it cannot be told from noise;
  over        CHANGE is worse than BASE by more than the bound.

Exits 1 if any pairing is over, 0 otherwise. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """{(workload, metric): [per-run medians]} over the timed runs."""
    values = {}
    with open(path) as f:
        text = f.read()
    try:
        artifacts = [json.loads(text)]
    except json.JSONDecodeError:
        artifacts = [json.loads(line) for line in text.splitlines()
                     if line.strip()]
    for artifact in artifacts:
        for run in artifact["runs"]:
            if run["traced"]:
                continue
            for name, m in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    m["median"])
    return values


def spread(values):
    """Interquartile range over the median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, change, better, bound):
    mb, mc = statistics.median(base), statistics.median(change)
    rel = (mc - mb) / mb
    worse = rel if better == "lower" else -rel
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if all_better:
        status = "ok"
    elif max(spread(base), spread(change)) > bound:
        status = "unresolved"
    elif worse > bound:
        status = "over"
    else:
        status = "ok"
    return mb, mc, rel, status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(HERE, "..",
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    base, change = load_set(args.base), load_set(args.change)

    print(f"{'workload':<16} {'metric':<12} {'base':>12} {'change':>12} "
          f"{'diff':>8} {'bound':>6}  verdict   runs")
    over = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in base or key not in change:
                continue
            mb, mc, rel, status = verdict(base[key], change[key], m["better"],
                                          m["bound"])
            over += status == "over"
            print(f"{w['name']:<16} {m['name']:<12} {mb:>12.6g} {mc:>12.6g} "
                  f"{rel:>+8.2%} {m['bound']:>6.0%}  {status:<10}"
                  f"{len(base[key])}/{len(change[key])}")
    if over:
        print(f"{over} metric(s) over their bound", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
