"""Spans and work counters taken from outside the program.

``Tracer.installed()`` swaps the public functions of ``network``, ``game``,
``solvers``, ``experiments`` and ``cli`` for timing wrappers, in every module
namespace (and preset table) that holds a reference to them, and puts the
originals back on exit.  Nothing under ``src/`` changes.  Calls nest strictly
in this single-threaded program, so a span's self time is its duration minus
the durations of the spans it directly encloses.

Solver results are kept until ``summary`` so the work counters are derived
after the traced pass, not inside it.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import defaultdict
from time import perf_counter

from platoonmatch import cli, experiments, game, network, solvers

_MODULES = (network, game, solvers, experiments, cli)

#: (module, attribute, span name, keep the result for counters)
_TARGETS = (
    (network, "paper_fig3", "network.paper_fig3", False),
    (game, "evaluate", "game.evaluate", False),
    (game, "total_fuel_saving", "game.metrics", False),
    (game, "nonplatooning_fraction", "game.metrics", False),
    (solvers, "brd_solve", "solvers.brd_solve", True),
    (solvers, "coop_solve", "solvers.coop_solve", True),
    (solvers, "brute_force_nash", "solvers.brute_force_nash", True),
    (experiments, "generate_scenario", "experiments.generate_scenario", False),
    (experiments, "sweep_alpha", "experiments.sweep_alpha", False),
    (experiments, "trend_summary", "experiments.trend_summary", False),
    (cli, "load_scenario", "cli.load_scenario", False),
    (cli, "main", "cli.main", False),
)

SOLVER_SPANS = ("solvers.brd_solve", "solvers.coop_solve")
SPANS = tuple(dict.fromkeys(name for _, _, name, _ in _TARGETS)) + ("game.Instance",)


class Tracer:
    """Aggregated spans (calls, inclusive and self seconds) of one traced pass."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._kept: list[tuple[str, tuple, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn, keep: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - children[0]
            if keep:
                self._kept.append((name, args, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        undo = []
        for module, attr, name, keep in _TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
            for key, value in network.PRESETS.items():
                if value is original:
                    network.PRESETS[key] = wrapper
                    undo.append((network.PRESETS, key, original))
        init = game.Instance.__init__
        game.Instance.__init__ = self._wrap("game.Instance", init, False)
        undo.append((game.Instance, "__init__", init))
        try:
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer seconds and exact work counters of everything traced."""
        times = {}
        for name in SPANS:
            times[f"{name}.s"] = self.total.get(name, 0.0)
            times[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        counts = {f"{name}.calls": self.calls.get(name, 0) for name in SPANS}
        for name in SOLVER_SPANS:
            counts.update({f"{name}.rounds": 0, f"{name}.moves": 0, f"{name}.candidate_evals": 0})
        counts.update({"solvers.brute_force_nash.profiles": 0, "solvers.brute_force_nash.equilibria": 0})
        for name, args, out in self._kept:
            instance = args[0]
            sizes = [len(game.feasible_actions(instance, v.id)) for v in instance.vehicles]
            if name in SOLVER_SPANS:
                counts[f"{name}.rounds"] += out.rounds
                counts[f"{name}.moves"] += solve_moves(out)
                counts[f"{name}.candidate_evals"] += out.rounds * sum(sizes)
            else:
                counts[f"{name}.profiles"] += math.prod(sizes)
                counts[f"{name}.equilibria"] += len(out)
        return times, counts


def solve_moves(report) -> int:
    """Coordinates changed across the sweeps of one solver run."""
    return sum(
        a != b
        for before, after in zip(report.history, report.history[1:])
        for a, b in zip(before, after)
    )
