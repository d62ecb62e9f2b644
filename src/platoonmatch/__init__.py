"""Departure-time platoon matching as a finite exact potential game.

Trucks share an origin on a directed-tree road network, pick departure
times, and platoon with whoever departs at the same moment.  The package
models the strategic (per-vehicle utility) and cooperative (summed
utility) variants, finds pure Nash equilibria by best-response sweeps,
verifies them against a brute-force oracle, and runs Monte-Carlo sweeps
over the spread of preferred departure times.
"""

from .network import (
    PAPER_FIG3_EDGES,
    PRESETS,
    RoadNetwork,
    paper_fig3,
)
from .game import (
    Instance,
    ModelParams,
    Outcome,
    Vehicle,
    cooperative_utility,
    evaluate,
    feasible_actions,
    nonplatooning_fraction,
    potential,
    total_fuel_saving,
    vehicle_utility,
)
from .solvers import (
    ConvergenceError,
    SolveReport,
    best_response,
    brd_solve,
    brute_force_nash,
    coop_solve,
    is_nash,
)
from .experiments import (
    ReplicationMetrics,
    ScenarioConfig,
    SweepResult,
    SweepRow,
    SWEEP_CSV_COLUMNS,
    default_alpha_grid,
    generate_scenario,
    replication_seed,
    run_replication,
    sweep_alpha,
    trend_summary,
)

__version__ = "0.1.0"

__all__ = [
    "PAPER_FIG3_EDGES",
    "PRESETS",
    "RoadNetwork",
    "paper_fig3",
    "Instance",
    "ModelParams",
    "Outcome",
    "Vehicle",
    "cooperative_utility",
    "evaluate",
    "feasible_actions",
    "nonplatooning_fraction",
    "potential",
    "total_fuel_saving",
    "vehicle_utility",
    "ConvergenceError",
    "SolveReport",
    "best_response",
    "brd_solve",
    "brute_force_nash",
    "coop_solve",
    "is_nash",
    "ReplicationMetrics",
    "ScenarioConfig",
    "SweepResult",
    "SweepRow",
    "SWEEP_CSV_COLUMNS",
    "default_alpha_grid",
    "generate_scenario",
    "replication_seed",
    "run_replication",
    "sweep_alpha",
    "trend_summary",
    "__version__",
]
