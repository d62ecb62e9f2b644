"""Run every workload over several seeds and keep the results in one file.

    python3 bench/suite.py --out bench/results/mine.json [--seeds 0-9]

Run from the repository root.  Each run is a fresh ``bench/run.py`` process,
one after another, so set-up time and peak memory belong to its workload.
For each workload the suite makes one untraced run per seed, then two traced
runs of the first seed, whose work counters must agree exactly.  It prints
``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``failed_frac`` per workload
with units, each timing as median, quartiles, sample count and spread
(interquartile distance over median), and writes every run's metrics and
run record to ``--out``.  ``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
#: BENCHMARK.json lists sweep-n10 and oracle-n6 only: a run fits two or three
#: of solve-n200's 9 s passes, too few to keep its spread within any bound on
#: a shared host.  The suite still runs it.
WORKLOADS = ("sweep-n10", "solve-n200", "oracle-n6")


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["record"] = next(
        json.loads(line[len("# record "):]) for line in lines if line.startswith("# record ")
    )
    result["notes"] = [line for line in lines[:-1] if not line.startswith("# record ")]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / median}


def counters(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4f}" for k, m in runs[-1]["metrics"].items()), flush=True)
        traced = [run_once(workload, seeds[0], args.seconds, 1) for _ in range(2)]
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        entry = {
            "runs": runs,
            "traced": traced,
            "correct": all(r["correct"] for r in runs + traced),
            "failed_frac": failed / attempted,
            "counts_repeat": counters(traced[0]) == counters(traced[1]),
            "summary": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
        }
        report["workloads"][workload] = entry
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"\n{'workload':<12} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'spread':>7} unit")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:<12} {name:<12} {s['median']:>10.4f} {s['q1']:>10.4f} "
                  f"{s['q3']:>10.4f} {s['n']:>3} {s['spread']:>7.3f} {units[name]}")
        print(f"{workload:<12} {'failed_frac':<12} {entry['failed_frac']:>10.4f} "
              f"{'':>10} {'':>10} {len(entry['runs']) + 2:>3} {'':>7} failed/attempted")
    for workload, entry in report["workloads"].items():
        rec = entry["traced"][0]["record"]
        print(f"{workload}: correct {entry['correct']}, counters repeat {entry['counts_repeat']}, "
              f"largest layer {rec['largest_layer']}, coverage {rec['coverage']:.3f}, "
              f"tracing overhead x{rec['trace_overhead']:.3f}")
    ok = all(e["correct"] and e["counts_repeat"] for e in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
