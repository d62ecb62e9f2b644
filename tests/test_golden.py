"""Byte-for-byte pins of CLI output on fixed inputs.

The files under ``tests/golden/`` were written by the full-recompute
evaluation code that preceded the incremental platoon-state kernel.  Any
change to solver decisions, round counts or the summation order of the
reported numbers shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from platoonmatch.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"

SOLVE_INPUTS = [
    SCENARIOS / "two-vehicles.scn",
    SCENARIOS / "coop-merge.scn",
    SCENARIOS / "fig3-network.scn",
    GOLDEN / "generated-n60.scn",
]


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "10", "--reps", "20", "--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_n10_r20_seed42.csv").read_bytes()


@pytest.mark.parametrize("mode", ["ne", "coop"])
@pytest.mark.parametrize("scenario", SOLVE_INPUTS, ids=lambda p: p.stem)
def test_solve_matches_golden(tmp_path, scenario, mode):
    out = tmp_path / "solve.json"
    assert main(["solve", str(scenario), "--mode", mode, "--out", str(out)]) == 0
    golden = GOLDEN / f"solve_{scenario.stem}_{mode}.json"
    assert out.read_bytes() == golden.read_bytes()
