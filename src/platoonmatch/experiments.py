"""Random scenario generation and Monte-Carlo sweeps over the time spread.

A scenario draws each vehicle's destination uniformly from a pool and its
preferred departure time uniformly from ``[0, alpha]``; the departure
window is the preferred time plus/minus a halfwidth.  ``sweep_alpha`` runs
the selfish and cooperative solvers on independent replications for each
``alpha`` value and aggregates the fuel-saving and non-platooning metrics.

Reproducibility: every replication derives its own seed from
``replication_seed(root_seed, alpha, rep)``, which mixes the root seed, the
bit pattern of ``alpha``, and the replication index.  Replications are
therefore independent of evaluation order, and repeated sweeps with the
same arguments produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import struct
import warnings
from dataclasses import dataclass, replace
from math import isfinite

import numpy as np
from scipy import stats

from . import game, solvers
from .game import Instance, ModelParams, Vehicle
from .network import InputError, RoadNetwork

_SEED_MASK = (1 << 64) - 1

#: Frozen column order of the sweep CSV.
SWEEP_CSV_COLUMNS = (
    "alpha",
    "replications",
    "ne_saving_mean",
    "ne_saving_std",
    "ne_fraction_mean",
    "ne_fraction_std",
    "coop_saving_mean",
    "coop_saving_std",
    "coop_fraction_mean",
    "coop_fraction_std",
    "ne_rounds_mean",
    "ne_rounds_std",
    "coop_rounds_mean",
    "coop_rounds_std",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of the random scenario generator.

    An empty ``destination_pool`` means every non-root node, in sorted id
    order.
    """

    network: RoadNetwork
    n_vehicles: int
    alpha: float
    destination_pool: tuple[str, ...] = ()
    seed: int = 0
    window_halfwidth: float = 500.0
    params: ModelParams = ModelParams()

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise InputError("n_vehicles", f"n_vehicles must be >= 1, got {self.n_vehicles}")
        for name in ("alpha", "window_halfwidth"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise InputError(name, f"{name} must be finite and >= 0, got {value}")
        if self.seed < 0:
            raise InputError("seed", f"seed must be a nonnegative integer, got {self.seed}")
        pool = tuple(self.destination_pool)
        if not pool:
            pool = tuple(sorted(self.network.nodes - {self.network.root}))
        for node in pool:
            if node not in self.network.nodes:
                raise InputError(
                    "destination_pool", f"destination pool references unknown node {node!r}"
                )
            if node == self.network.root:
                raise InputError("destination_pool", "destination pool must not contain the root")
        if not pool:
            raise InputError("destination_pool", "destination pool is empty")
        object.__setattr__(self, "destination_pool", pool)


def generate_scenario(config: ScenarioConfig) -> Instance:
    """Draw one random instance; deterministic for a given config (incl. seed).

    Draw order: all destinations first, then all preferred times.
    """
    rng = np.random.default_rng(config.seed)
    pool = config.destination_pool
    picks = rng.integers(0, len(pool), size=config.n_vehicles)
    times = rng.uniform(0.0, config.alpha, size=config.n_vehicles)
    h = float(config.window_halfwidth)
    vehicles = []
    for i in range(config.n_vehicles):
        t = float(times[i])
        vehicles.append(
            Vehicle(
                id=i + 1,
                destination=pool[int(picks[i])],
                preferred_time=t,
                window=(t - h, t + h),
            )
        )
    return Instance(config.network, vehicles, config.params)


@dataclass(frozen=True)
class ReplicationMetrics:
    """Per-solver outcome of a single replication."""

    fuel_saving: float
    nonplatooning_fraction: float
    rounds: int


def run_replication(instance: Instance) -> tuple[ReplicationMetrics, ReplicationMetrics]:
    """Run both solvers on one instance; returns (selfish NE, cooperative) metrics."""
    ne = solvers.brd_solve(instance)
    # identical to coop_solve(instance), just reusing the equilibrium we have
    coop = solvers.coop_solve(instance, start=ne.final)
    return _metrics(instance, ne), _metrics(instance, coop)


def _metrics(instance: Instance, report: solvers.SolveReport) -> ReplicationMetrics:
    return ReplicationMetrics(
        fuel_saving=game.total_fuel_saving(instance, report.final),
        nonplatooning_fraction=game.nonplatooning_fraction(instance, report.final),
        rounds=report.rounds,
    )


def replication_seed(root_seed: int, alpha: float, rep: int) -> int:
    """Per-replication generator seed: root seed mixed with alpha's bit pattern
    and the replication index, so any single replication can be reproduced."""
    alpha_bits = struct.unpack("<Q", struct.pack("<d", float(alpha)))[0]
    ss = np.random.SeedSequence([root_seed & _SEED_MASK, alpha_bits, rep])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SweepRow:
    """Aggregated metrics for one alpha value."""

    alpha: float
    ne_saving_mean: float
    ne_saving_std: float
    ne_fraction_mean: float
    ne_fraction_std: float
    coop_saving_mean: float
    coop_saving_std: float
    coop_fraction_mean: float
    coop_fraction_std: float
    ne_rounds_mean: float
    ne_rounds_std: float
    coop_rounds_mean: float
    coop_rounds_std: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    replications: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(
                [_fmt(row.alpha), str(self.replications)]
                + [_fmt(getattr(row, col)) for col in SWEEP_CSV_COLUMNS[2:]]
            )
        return buf.getvalue()


def _fmt(x: float) -> str:
    return repr(float(x))


def _mean_std(xs: list[float]) -> tuple[float, float]:
    arr = np.asarray(xs, dtype=float)
    return float(arr.mean()), float(arr.std())


def sweep_alpha(config: ScenarioConfig, alphas, replications: int) -> SweepResult:
    """Monte-Carlo sweep: for each alpha, aggregate `replications` independent runs.

    Rows come out in ascending alpha; duplicates in ``alphas`` collapse.
    Deterministic for a given (config, alphas, replications).
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    alphas = sorted({float(a) for a in alphas})
    if not alphas:
        raise ValueError("alphas must hold at least one value")
    rows = []
    for alpha in alphas:
        ne_sav, ne_frac, ne_rounds = [], [], []
        co_sav, co_frac, co_rounds = [], [], []
        for rep in range(replications):
            seed = replication_seed(config.seed, alpha, rep)
            instance = generate_scenario(replace(config, alpha=alpha, seed=seed))
            ne, coop = run_replication(instance)
            ne_sav.append(ne.fuel_saving)
            ne_frac.append(ne.nonplatooning_fraction)
            ne_rounds.append(float(ne.rounds))
            co_sav.append(coop.fuel_saving)
            co_frac.append(coop.nonplatooning_fraction)
            co_rounds.append(float(coop.rounds))
        stats_flat = []
        for xs in (ne_sav, ne_frac, co_sav, co_frac, ne_rounds, co_rounds):
            stats_flat.extend(_mean_std(xs))
        rows.append(SweepRow(alpha, *stats_flat))
    return SweepResult(tuple(rows), replications)


def trend_summary(result: SweepResult) -> dict[str, float]:
    """Spearman rank correlation of each mean curve against alpha."""
    alphas = [row.alpha for row in result.rows]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant inputs yield nan, which is fine
        for key in ("ne_saving", "ne_fraction", "coop_saving", "coop_fraction"):
            values = [getattr(row, key + "_mean") for row in result.rows]
            rho = stats.spearmanr(alphas, values).statistic
            out[key] = float(rho)
    return out


def default_alpha_grid() -> tuple[float, ...]:
    """0 to 1500 seconds in steps of 150."""
    return tuple(float(a) for a in range(0, 1501, 150))
