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

from platoonmatch import ScenarioConfig, default_alpha_grid, paper_fig3, sweep_alpha  # noqa: E402


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


def test_golden_sweep_solver_counters():
    # The golden sweep of test_golden.py.  A solver change that alters the
    # number of sweeps or moves shows up here, not only in a benchmark run.
    config = ScenarioConfig(network=paper_fig3(), n_vehicles=10, alpha=0.0, seed=42)
    t = tracer.Tracer()
    with t.installed():
        sweep_alpha(config, default_alpha_grid(), 20)
    counts = t.summary()[1]
    assert {
        f"{name}.{counter}": counts[f"{name}.{counter}"]
        for name in tracer.SOLVER_SPANS
        for counter in ("calls", "rounds", "moves", "candidate_evals")
    } == {
        "solvers.brd_solve.calls": 220,
        "solvers.brd_solve.rounds": 555,
        "solvers.brd_solve.moves": 1693,
        "solvers.brd_solve.candidate_evals": 45040,
        "solvers.coop_solve.calls": 220,
        "solvers.coop_solve.rounds": 284,
        "solvers.coop_solve.moves": 73,
        "solvers.coop_solve.candidate_evals": 21950,
    }
