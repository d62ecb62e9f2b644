"""Compare two suite result files, parent first, and give a verdict per row.

    python3 bench/compare.py PARENT.json CHANGE.json

Prints one row per workload and end-to-end metric of ``BENCHMARK.json``
(plus ``failed_frac``): each side's median and quartiles, the share of
seed-matched pairs the change wins (ties count for neither) and a verdict:

- ``improved``: the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's interquartile distance;
- ``unresolved``: the parent's own spread (interquartile distance over
  median) exceeds the metric's bound, and not every run of the change beats
  every run of the parent;
- ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- ``no worse``: otherwise.

Make the two files on the same machine with the same seeds and seconds,
running the suites of the two commits alternately.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float):
    sign = 1 if better == "lower" else -1

    def gain(a, b):
        """Positive when b beats a."""
        return sign * (a - b)

    wins = sum(gain(a, b) > 0 for a, b in pairs) / len(pairs) if pairs else 0.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if wins >= 0.9 and gain(p_med, c_med) > q3 - q1:
        return wins, "improved"
    if (q3 - q1) / p_med > bound and not all(gain(a, b) > 0 for a in parent for b in change):
        return wins, "unresolved"
    if -gain(p_med, c_med) > bound * p_med:
        return wins, "worse"
    return wins, "no worse"


def side(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):>9.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parent = json.loads(args.parent.read_text())["workloads"]
    change = json.loads(args.change.read_text())["workloads"]

    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5}  verdict")
    for workload in parent:
        if workload not in change:
            print(f"{workload:<12} missing from {args.change}")
            continue
        p_runs = {r["seed"]: r for r in parent[workload]["runs"]}
        c_runs = {r["seed"]: r for r in change[workload]["runs"]}
        seeds = sorted(p_runs.keys() & c_runs.keys())
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs.values()]
            c = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"]) for s in seeds]
            wins, word = verdict(p, c, pairs, m["better"], m["bound"])
            print(f"{workload:<12} {name:<12} {side(p):>32} {side(c):>32} {wins:>5.2f}  {word} ({m['unit']})")
        p_fail, c_fail = parent[workload]["failed_frac"], change[workload]["failed_frac"]
        word = "worse" if c_fail > p_fail else "no worse"
        print(f"{workload:<12} {'failed_frac':<12} {p_fail:>32.4f} {c_fail:>32.4f} {'':>5}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
