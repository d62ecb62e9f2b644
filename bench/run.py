"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 bench/run.py --workload sweep-n10 --seed 0 --seconds 40 --trace 0

Run from the repository root: the program is imported from ``src/`` in
process and driven through ``platoonmatch.cli.main``, with every output sent
to files in a temporary directory under the root.  After a warm-up call,
whole passes of the workload repeat until they add up to ``--seconds``; every
pass's outputs are checked outside the timed interval (the first in full,
the rest for byte identity with it).

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the time of a
pass taken as each call's fastest time summed over the calls of the pass (a
shared host only ever slows a call down, so the minimum of repeats is the
steadiest estimate; the quartiles of whole passes go into the run record);
``setup_s``, the fastest of several fresh processes importing
``platoonmatch.cli`` and building the preset network, started one at a time
between passes so they sample the whole run; and ``peak_rss_mb`` of this
process.
``--trace 1`` first times the solvers at N = 10/50/100/200 (inside the
``--seconds`` budget), then alternates untraced and traced passes (see
``tracer.py``) and reports per-layer seconds (median over traced passes) and
exact work counters, which must repeat identically on every pass.  The
metrics printed are exactly those ``BENCHMARK.json`` declares for the mode,
so a layer the workload never calls reads 0; each solver's
``moves_per_eval`` ratio goes into the run record beside its base, and only
when that base is not 0.  Lines before the last one are for
people, plus one ``# record {...}`` line with the run record that
``suite.py`` keeps.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 10
SCALING_SIZES = (10, 50, 100, 200)

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import platoonmatch.cli as cli
cli.PRESETS["paper-fig3"]()
print(time.perf_counter() - t0, cli.__file__)
"""


def import_program():
    """Import the package from ./src and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import platoonmatch

    if Path(platoonmatch.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"platoonmatch imported from {platoonmatch.__file__}, not {SRC}")


def setup_seconds() -> float:
    """Import and preset build time of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, where = proc.stdout.strip().split(" ", 1)
    if Path(where).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"set-up process imported {where}")
    return float(seconds)


def invoke(call) -> int:
    """One CLI call with stdout sent to its file; a crash counts as a failure."""
    from platoonmatch import cli

    with open(call.stdout, "w") as out, contextlib.redirect_stdout(out):
        try:
            return cli.main(call.argv)
        except Exception:
            traceback.print_exc()
            return -1


def run_pass(calls) -> tuple[list[float], list[int]]:
    """Wall seconds and exit code of each call, in order."""
    walls, codes = [], []
    for c in calls:
        t0 = perf_counter()
        codes.append(invoke(c))
        walls.append(perf_counter() - t0)
    return walls, codes


def cpu_sample() -> dict | None:
    """Load average and the cumulative jiffies of /proc/stat's cpu line."""
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
        cpu = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return {"loadavg": [float(x) for x in load], "jiffies": cpu}


def host_record(start: dict | None, end: dict | None) -> dict:
    import numpy
    import scipy

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "platoonmatch").glob("*.py"))},
    }
    if start and end:
        delta = [b - a for a, b in zip(start["jiffies"], end["jiffies"])]
        record["loadavg_start"] = start["loadavg"]
        record["loadavg_end"] = end["loadavg"]
        # /proc/stat cpu fields: user nice system idle iowait irq softirq steal ...
        record["steal_share"] = delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0
    return record


def git_sha() -> str | None:
    """HEAD of ./.git read as files; no git process, nothing outside the root."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values), "samples": values}


def scaling_points(seed: int) -> dict[str, float]:
    """brd and coop self seconds on paper-fig3, alpha 300, at each N."""
    from platoonmatch import experiments, network, solvers
    from workloads import ALPHA, HALFWIDTH

    out = {}
    for n in SCALING_SIZES:
        config = experiments.ScenarioConfig(
            network.paper_fig3(), n, ALPHA, seed=seed, window_halfwidth=HALFWIDTH
        )
        inst = experiments.generate_scenario(config)
        t0 = perf_counter()
        ne = solvers.brd_solve(inst)
        t1 = perf_counter()
        solvers.coop_solve(inst, start=ne.final)
        t2 = perf_counter()
        out[f"solvers.brd_solve.self_s.n{n}"] = t1 - t0
        out[f"solvers.coop_solve.self_s.n{n}"] = t2 - t1
    return out


def layer_metrics(times: list[dict], counts: dict, scaling: dict) -> dict:
    out = {k: (statistics.median(t[k] for t in times), "s") for k in times[0]}
    out.update({k: (v, "count") for k, v in counts.items()})
    out.update({k: (v, "s") for k, v in scaling.items()})
    return out


def move_ratios(counts: dict) -> dict:
    """Useful-to-attempted ratio of each solver that evaluated candidates,
    with its base."""
    from tracer import SOLVER_SPANS

    out = {}
    for name in SOLVER_SPANS:
        moves, evals = counts[f"{name}.moves"], counts[f"{name}.candidate_evals"]
        if evals:
            out[f"{name}.moves_per_eval"] = {"value": moves / evals, "moves": moves, "candidate_evals": evals}
    return out


def explain(layers: dict, times: list[dict], traced_walls: list[float]) -> dict:
    """Largest self-time layer, and the median over traced passes of the
    share of the pass's wall time that the layers below ``cli.main`` cover."""
    def below_main(values):
        return {k: v for k, v in values.items() if k.endswith(".self_s") and k != "cli.main.self_s"}

    selfs = below_main({k: v for k, (v, _) in layers.items()})
    coverage = statistics.median(
        sum(below_main(t).values()) / wall for t, wall in zip(times, traced_walls)
    )
    return {"largest_layer": max(selfs, key=selfs.get), "coverage": coverage}


def metric(values: dict, declared: dict) -> dict:
    value, unit = values[declared["name"]]
    if unit != declared["unit"]:
        raise ValueError(f"{declared['name']} is measured in {unit}, declared {declared['unit']}")
    return {"value": value, "unit": unit}


class Measurement:
    """Pass walls, per-layer samples and output verdicts of one run."""

    def __init__(self):
        self.call_walls: list[list[float]] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.times: list[dict] = []
        self.counts: list[dict] = []
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fastest(self) -> float:
        """Each call's fastest untraced time, summed over the calls of a pass."""
        return sum(min(times) for times in zip(*self.call_walls))


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Warm up, then repeat whole passes until they add up to ``seconds``.

    The first pass's outputs are checked in full and every later pass must
    reproduce them byte for byte.  With ``trace`` untraced and traced passes
    alternate, untraced first, so the tracing overhead compares like with like.
    Without it, ``SETUP_SAMPLES`` set-up processes are spread evenly over the
    passes; their time does not count toward ``seconds``.
    """
    from tracer import Tracer

    m = Measurement()
    calls = workload.calls()
    run_pass([workload.warm_up_call()])
    reference = None
    while True:
        if not trace and len(m.setup) < 1 + (SETUP_SAMPLES - 1) * sum(m.walls) / seconds:
            m.setup.append(setup_seconds())
            continue
        tracer = Tracer() if trace and len(m.walls) > len(m.traced_walls) else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            call_walls, codes = run_pass(calls)
        wall = sum(call_walls)
        if tracer:
            m.traced_walls.append(wall)
            times, counts = tracer.summary()
            m.times.append(times)
            m.counts.append(counts)
        else:
            m.walls.append(wall)
            m.call_walls.append(call_walls)
        m.attempted += len(calls)
        outputs = [c.output() if code == 0 else None for c, code in zip(calls, codes)]
        if reference is None:
            m.problems = workload.check(codes, calls)
            reference = [None] * len(calls) if m.problems else outputs
        m.failed += sum(o is None or o != r for o, r in zip(outputs, reference))
        if sum(m.walls) + sum(m.traced_walls) >= seconds and (m.traced_walls or not trace):
            while not trace and len(m.setup) < SETUP_SAMPLES:
                m.setup.append(setup_seconds())
            return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    cpu_start = cpu_sample()
    t0 = perf_counter()
    scaling = scaling_points(args.seed) if args.trace else {}
    seconds = args.seconds - (perf_counter() - t0)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as work:
        m = measure(WORKLOADS[args.workload](Path(work), args.seed), seconds, bool(args.trace))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **host_record(cpu_start, cpu_sample()),
        "wall_s": quartiles(m.walls),
    }
    for p in m.problems[:5]:
        print(f"check failed: {p}")
    if len(m.problems) > 5:
        print(f"... and {len(m.problems) - 5} more failed checks")
    print(f"failed_frac: {m.failed / m.attempted:.4f} ({m.failed}/{m.attempted} CLI calls)")
    counts_repeat = all(c == m.counts[0] for c in m.counts)
    if args.trace:
        layers = layer_metrics(m.times, m.counts[0], scaling)
        record["ratios"] = move_ratios(m.counts[0])
        record["trace_overhead"] = statistics.median(m.traced_walls) / statistics.median(m.walls)
        record["counts_repeat"] = counts_repeat
        record.update(explain(layers, m.times, m.traced_walls))
        record["layers"] = {k: v for k, (v, _) in layers.items()}
        if not counts_repeat:
            print("work counters differ between passes of the same inputs")
        print(f"tracing overhead: x{record['trace_overhead']:.3f}; "
              f"largest layer {record['largest_layer']}; coverage {record['coverage']:.3f}")
        for name, r in record["ratios"].items():
            print(f"{name}: {r['value']:.4g} ({r['moves']} moves / {r['candidate_evals']} candidate evals)")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["setup_s"] = quartiles(m.setup)
        layers = {
            "wall_s": (m.fastest(), "s"),
            "setup_s": (min(m.setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        w = record["wall_s"]
        print(f"wall_s: {m.fastest():.4f} s, fastest calls of {w['n']} passes "
              f"(whole passes: median {w['median']:.4f}, q1 {w['q1']:.4f}, q3 {w['q3']:.4f})")
        print(f"setup_s: {layers['setup_s'][0]:.4f} s (fastest of {len(m.setup)} processes)")
        print(f"peak_rss_mb: {rss_mb:.1f} MB")
    print("# record " + json.dumps(record))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": m.failed == 0 and not m.problems and counts_repeat,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {d["name"]: metric(layers, d) for d in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
