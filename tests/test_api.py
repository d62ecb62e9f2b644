"""The public API: each module's ``__all__`` and the package's union of them."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platoonmatch
from platoonmatch import (
    Outcome, ReplicationMetrics, SWEEP_CSV_COLUMNS, SweepResult, SweepRow, experiments, game,
    network, solvers,
)

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    "PAPER_FIG3_EDGES", "PRESETS", "RoadNetwork", "paper_fig3",
    "Instance", "ModelParams", "Outcome", "Vehicle", "cooperative_utility", "evaluate",
    "feasible_actions", "nonplatooning_fraction", "potential", "total_fuel_saving",
    "vehicle_utility",
    "ConvergenceError", "SolveReport", "best_response", "brd_solve", "brute_force_nash",
    "coop_solve", "is_nash",
    "ReplicationMetrics", "ScenarioConfig", "SweepResult", "SweepRow", "SWEEP_CSV_COLUMNS",
    "default_alpha_grid", "generate_scenario", "replication_seed", "run_replication",
    "sweep_alpha", "trend_summary",
    "__version__",
]


def test_package_all_is_pinned():
    assert platoonmatch.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from platoonmatch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(platoonmatch, name) for name in PUBLIC)


def top_level_definitions(module) -> set[str]:
    """Names a module binds by ``def``, ``class`` or assignment, not by import."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", [network, game, solvers, experiments],
                         ids=lambda m: m.__name__)
def test_module_all_lists_only_names_it_defines(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= top_level_definitions(module) - {"__all__"}


def test_importing_the_package_loads_neither_the_cli_nor_numpy():
    code = ("import sys, platoonmatch\n"
            "print(sorted(m for m in sys.modules if m == 'platoonmatch.cli'"
            " or m.split('.')[0] == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_dataclasses_are_the_types_that_check_fields_or_keep_state():
    """Result records are NamedTuples; ``@dataclass`` marks the four other types."""
    found = [name for name in PUBLIC if dataclasses.is_dataclass(getattr(platoonmatch, name))]
    assert sorted(found) == ["ModelParams", "ScenarioConfig", "SolveReport", "Vehicle"]


def _records():
    """One fresh instance of each result record, built from fixed values."""
    row = SweepRow(300.0, *(float(k) for k in range(12)))
    return {
        "Outcome": Outcome(partition=((0.0, (1, 2)), (150.0, (3,))), utilities=(1.5, 2.5, 0.0),
                           potential=3.25, total_fuel_saving=4.0, nonplatooning_fraction=0.25),
        "ReplicationMetrics": ReplicationMetrics(fuel_saving=12.5, nonplatooning_fraction=0.25,
                                                 rounds=3),
        "SweepRow": row,
        "SweepResult": SweepResult((row,), 2),
    }


ROW_REPR = (
    "SweepRow(alpha=300.0, ne_saving_mean=0.0, ne_saving_std=1.0, ne_fraction_mean=2.0, "
    "ne_fraction_std=3.0, coop_saving_mean=4.0, coop_saving_std=5.0, coop_fraction_mean=6.0, "
    "coop_fraction_std=7.0, ne_rounds_mean=8.0, ne_rounds_std=9.0, coop_rounds_mean=10.0, "
    "coop_rounds_std=11.0)"
)
RECORD_REPRS = {
    "Outcome": "Outcome(partition=((0.0, (1, 2)), (150.0, (3,))), utilities=(1.5, 2.5, 0.0), "
               "potential=3.25, total_fuel_saving=4.0, nonplatooning_fraction=0.25)",
    "ReplicationMetrics": "ReplicationMetrics(fuel_saving=12.5, nonplatooning_fraction=0.25, "
                          "rounds=3)",
    "SweepRow": ROW_REPR,
    "SweepResult": f"SweepResult(rows=({ROW_REPR},), replications=2)",
}


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_repr_equality_hash_and_immutability(name):
    record, twin = _records()[name], _records()[name]
    assert repr(record) == RECORD_REPRS[name]
    assert twin is not record and twin == record and hash(twin) == hash(record)
    field = RECORD_REPRS[name].split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_sweep_csv_columns_are_pinned():
    assert SWEEP_CSV_COLUMNS == (
        "alpha", "replications", "ne_saving_mean", "ne_saving_std", "ne_fraction_mean",
        "ne_fraction_std", "coop_saving_mean", "coop_saving_std", "coop_fraction_mean",
        "coop_fraction_std", "ne_rounds_mean", "ne_rounds_std", "coop_rounds_mean",
        "coop_rounds_std",
    )
