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

numpy (the generator, the sweep's mean/std and the Spearman trend) is
imported only inside the functions that use it, so importing this module,
as the CLI does at start-up, does not load it.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, fields, replace

from . import game, solvers
from .game import Instance, ModelParams, Vehicle
from .network import InputError, RoadNetwork, is_count, nonnegative_float


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of the random scenario generator.

    ``n_vehicles`` and ``seed`` are integers (Python or numpy, not bool),
    ``alpha`` and ``window_halfwidth`` finite real numbers >= 0 whose
    ``alpha + 2 * window_halfwidth`` is finite (so is every window's width), and
    ``destination_pool`` a sequence of keys of ``network.routes`` (an empty
    one means all of them, in sorted id order).
    """

    network: RoadNetwork
    n_vehicles: int
    alpha: float
    destination_pool: tuple[str, ...] = ()
    seed: int = 0
    window_halfwidth: float = 500.0
    params: ModelParams = ModelParams()

    def __post_init__(self):
        if not is_count(self.n_vehicles):
            raise InputError(
                "n_vehicles", f"n_vehicles must be an integer, got {self.n_vehicles!r}"
            )
        if self.n_vehicles < 1:
            raise InputError("n_vehicles", f"n_vehicles must be >= 1, got {self.n_vehicles}")
        alpha, h = (nonnegative_float(name, getattr(self, name))
                    for name in ("alpha", "window_halfwidth"))
        # bounds every window (t - h, t + h) and its width, for t in [0, alpha]
        if not math.isfinite((alpha + h) + h):
            raise InputError("window_halfwidth", f"window_halfwidth {h!r} is too large for "
                             f"alpha {alpha!r}: alpha + 2 * window_halfwidth is not finite")
        if not (is_count(self.seed) and 0 <= self.seed < 1 << 64):
            raise InputError("seed", f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if isinstance(self.destination_pool, str):
            raise InputError(
                "destination_pool", "a destination pool is a sequence of node ids, "
                f"not the string {self.destination_pool!r}"
            )
        pool = tuple(self.destination_pool) or tuple(sorted(self.network.routes))
        for node in pool:  # every key of ``routes`` is a string
            if not (isinstance(node, str) and node in self.network.routes):
                why = ("must not contain the root" if node == self.network.root
                       else f"references unknown node {node!r}")
                raise InputError("destination_pool", f"destination pool {why}")
        object.__setattr__(self, "destination_pool", pool)


def generate_scenario(config: ScenarioConfig) -> Instance:
    """Draw one random instance; deterministic for a given config (incl. seed).

    Draw order: all destinations first, then all preferred times.
    """
    import numpy as np
    rng = np.random.default_rng(config.seed)
    pool = config.destination_pool
    picks = rng.integers(0, len(pool), size=config.n_vehicles)
    times = rng.uniform(0.0, config.alpha, size=config.n_vehicles)
    h = float(config.window_halfwidth)
    vehicles = [
        Vehicle(id=i, destination=pool[k], preferred_time=t, window=(t - h, t + h))
        for i, (k, t) in enumerate(zip(picks.tolist(), times.tolist()), start=1)
    ]
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
    ne_metrics = _metrics(instance, ne)
    if coop.final == ne.final:  # the ascent found no move: same profile, same numbers
        return ne_metrics, replace(ne_metrics, rounds=coop.rounds)
    return ne_metrics, _metrics(instance, coop)


def _metrics(instance: Instance, report: solvers.SolveReport) -> ReplicationMetrics:
    return ReplicationMetrics(
        fuel_saving=game.total_fuel_saving(instance, report.final),
        nonplatooning_fraction=game._lone_share(report.final),
        rounds=report.rounds,
    )


def replication_seed(root_seed: int, alpha: float, rep: int) -> int:
    """Per-replication generator seed: root seed mixed with alpha's bit pattern
    and the replication index, so any single replication can be reproduced."""
    import numpy as np
    alpha_bits = struct.unpack("<Q", struct.pack("<d", float(alpha)))[0]
    ss = np.random.SeedSequence([root_seed, alpha_bits, rep])
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


#: Frozen column order of the sweep CSV: alpha, the replication count, then
#: the metrics in SweepRow's field order.
SWEEP_CSV_COLUMNS = ("alpha", "replications") + tuple(f.name for f in fields(SweepRow)[1:])


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
    import numpy as np
    arr = np.asarray(xs, dtype=float)
    return float(arr.mean()), float(arr.std())


def sweep_alpha(config: ScenarioConfig, alphas, replications: int) -> SweepResult:
    """Monte-Carlo sweep: for each alpha, aggregate `replications` independent runs.

    Rows come out in ascending alpha; duplicates in ``alphas`` collapse.
    Deterministic for a given (config, alphas, replications).
    """
    if not (is_count(replications) and replications >= 1):
        raise ValueError(f"replications must be an integer >= 1, got {replications!r}")
    # every alpha, and its config, is checked before the first replication runs
    alphas = sorted({nonnegative_float("alpha", a) for a in alphas})
    if not alphas:
        raise ValueError("alphas must hold at least one value")
    configs = [replace(config, alpha=alpha) for alpha in alphas]
    rows = []
    for alpha, alpha_config in zip(alphas, configs):
        samples = []
        for rep in range(replications):
            seed = replication_seed(config.seed, alpha, rep)
            instance = generate_scenario(replace(alpha_config, seed=seed))
            ne, coop = run_replication(instance)
            samples.append((ne.fuel_saving, ne.nonplatooning_fraction, coop.fuel_saving,
                            coop.nonplatooning_fraction, ne.rounds, coop.rounds))
        # one column per metric, in SweepRow's field order
        stats_flat = [x for column in zip(*samples) for x in _mean_std(column)]
        rows.append(SweepRow(alpha, *stats_flat))
    return SweepResult(tuple(rows), replications)


def _spearman(a, b) -> float:
    """``scipy.stats.spearmanr(a, b).statistic`` bit for bit: average 1-based ranks,
    then the stacked-column ``np.corrcoef`` that spearmanr calls.  NaN with fewer
    than two observations, a constant input or any NaN value."""
    import numpy as np
    x = np.column_stack((a, b))
    if len(x) <= 1 or np.isnan(x).any() or (x == x[0]).all(axis=0).any():
        return float("nan")
    ranks = np.empty(x.shape)
    for k, col in enumerate(x.T):
        ordered = np.sort(col)
        lo, hi = (np.searchsorted(ordered, col, side) for side in ("left", "right"))
        ranks[:, k] = (lo + hi + 1) / 2  # ties share the mean of their positions
    return float(np.corrcoef(ranks, rowvar=0)[1, 0])


def trend_summary(result: SweepResult) -> dict[str, float]:
    """Spearman rank correlation of each mean curve against alpha."""
    alphas = [row.alpha for row in result.rows]
    return {
        key: _spearman(alphas, [getattr(row, key + "_mean") for row in result.rows])
        for key in ("ne_saving", "ne_fraction", "coop_saving", "coop_fraction")
    }


def default_alpha_grid() -> tuple[float, ...]:
    """0 to 1500 seconds in steps of 150."""
    return tuple(float(a) for a in range(0, 1501, 150))
