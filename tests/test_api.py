"""The public API: each module's ``__all__`` and the package's union of them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platoonmatch
from platoonmatch import experiments, game, network, solvers

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
