"""Smoke test of the benchmark harness in ``bench/``, run without timing.

The harness drives the program from outside and its tracer swaps public
functions by name, so a rename it depends on should fail here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sweep-n10", "oracle-n6"])
def test_seed0_pass_meets_every_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](tmp_path, workloads.DEFAULT_SEED)
    calls = workload.calls()
    _, codes = run.run_pass(calls)
    assert workload.check(codes, calls) == []


def test_tracer_counters_repeat(tmp_path):
    call = workloads.Call(
        ["sweep", "--n", "8", "--reps", "4", "--alphas", "300,900", "--out", str(tmp_path / "s.csv")],
        tmp_path / "s.stdout",
    )
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            _, codes = run.run_pass([call])
        assert codes == [0]
        counts.append(t.summary()[1])
    assert counts[0] == counts[1]
    for name in tracer.SOLVER_SPANS:
        for counter in ("calls", "rounds", "moves", "candidate_evals"):
            assert counts[0][f"{name}.{counter}"] > 0
    for name in ("game.Instance", "game.metrics", "experiments.generate_scenario",
                 "experiments.sweep_alpha", "cli.main"):
        assert counts[0][f"{name}.calls"] > 0
