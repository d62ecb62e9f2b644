"""The three benchmark workloads: inputs made from a seed, CLI calls, output checks.

Each workload writes its scenario files into a work directory and exposes
one *pass* as a list of ``platoonmatch`` argument vectors.  The program sees
only those files and flags.  ``check`` judges the outputs of one pass without
any timing around it.

- ``sweep-n10``: the paper's own experiment, ``sweep --n 10`` on the default
  11-point alpha grid.  Many tiny instances: ``coop_solve`` dominates and
  per-instance overhead (generation, ``Instance``, metrics) is visible.
- ``solve-n200``: one ``solve --mode coop`` on a generated N=200,
  alpha=300 scenario.  alpha < halfwidth, so every vehicle has 200 actions;
  the single large instance of the north star.
- ``oracle-n6``: a batch of 12 ``oracle`` calls on generated N=6, alpha=300
  scenarios, 6^6 profiles each.  Cold full evaluations of unrelated
  profiles in ``brute_force_nash``; no cooperative solve at all.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from platoonmatch import cli, experiments, game, network, solvers

#: Seed whose outputs are pinned byte for byte below.
DEFAULT_SEED = 0

SWEEP_REPS = 100
ORACLE_BATCH = 12
HALFWIDTH = 500.0
ALPHA = 300.0

#: sha256 of the pass output at DEFAULT_SEED: the sweep CSV, the solve JSON,
#: and the concatenated stdout of the oracle batch.
PINNED_SHA256 = {
    "sweep-n10": "5d9c9bfcbbac8b346eaedf800dbc859f75ee85b4832a2dabf25e9687b405fdd4",
    "solve-n200": "88f298f71281f9c23bc42ca3e57de1c0c7708015c898fea3f248590391a127b6",
    "oracle-n6": "356f67314854ebe645163d44f503dd02b9d93979f8a2c02b5628bf5140b0b3f3",
}


def scenario_text(n: int, alpha: float, seed: int) -> str:
    return (
        "network preset paper-fig3\n"
        f"generate n {n}\n"
        f"generate alpha {alpha!r}\n"
        f"generate halfwidth {HALFWIDTH!r}\n"
        f"generate seed {seed}\n"
    )


@dataclass
class Call:
    """One CLI invocation: its arguments and the files its output goes to."""

    argv: list[str]
    stdout: Path
    out: Path | None = None

    def output(self) -> bytes:
        """The bytes this call is judged on: its --out file, else its stdout."""
        return (self.out or self.stdout).read_bytes()


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def warm_up_call(self) -> Call:
        raise NotImplementedError

    def check(self, codes: list[int], calls: list[Call]) -> list[str]:
        """Problems found in one pass's outputs; empty when all hold."""
        problems = [f"{c.argv[0]} exited {code}" for c, code in zip(calls, codes) if code != 0]
        if problems:
            return problems
        pin = PINNED_SHA256[self.name]
        if self.seed == DEFAULT_SEED:
            digest = hashlib.sha256(b"".join(c.output() for c in calls)).hexdigest()
            if digest != pin:
                problems.append(f"output sha256 {digest} differs from the pinned {pin}")
        return problems + self.check_outputs(calls)

    def check_outputs(self, calls: list[Call]) -> list[str]:
        raise NotImplementedError


class SweepN10(Workload):
    name = "sweep-n10"

    def _argv(self, reps: int, tag: str) -> Call:
        out = self.work / f"sweep-{tag}.csv"
        argv = [
            "sweep", "--preset", "paper-fig3", "--n", "10", "--reps", str(reps),
            "--alphas", "0:1500:150", "--seed", str(self.seed),
            "--halfwidth", repr(HALFWIDTH), "--out", str(out),
        ]
        return Call(argv, self.work / f"sweep-{tag}.stdout", out)

    def calls(self):
        return [self._argv(SWEEP_REPS, "pass")]

    def warm_up_call(self):
        return self._argv(1, "warm")

    def check_outputs(self, calls):
        """Re-solve every replication: NE soundness, coop feasibility and
        dominance, and every CSV cell reproduced from the solved profiles."""
        rows = list(csv.reader(io.StringIO(calls[0].output().decode())))
        if tuple(rows[0]) != experiments.SWEEP_CSV_COLUMNS:
            return [f"sweep CSV header is {rows[0]}"]
        config = experiments.ScenarioConfig(
            network=network.paper_fig3(), n_vehicles=10, alpha=0.0,
            seed=self.seed, window_halfwidth=HALFWIDTH,
        )
        alphas = experiments.default_alpha_grid()
        if len(rows) != 1 + len(alphas):
            return [f"sweep CSV has {len(rows) - 1} rows for {len(alphas)} alphas"]
        problems = []
        for alpha, row in zip(alphas, rows[1:]):
            ne_m, co_m = [], []
            for rep in range(SWEEP_REPS):
                seed = experiments.replication_seed(self.seed, alpha, rep)
                inst = experiments.generate_scenario(replace(config, alpha=alpha, seed=seed))
                ne = solvers.brd_solve(inst)
                coop = solvers.coop_solve(inst, start=ne.final)
                problems += check_ne_and_coop(inst, ne.final, coop.final, f"alpha {alpha} rep {rep}")
                for report, out in ((ne, ne_m), (coop, co_m)):
                    out.append((
                        game.total_fuel_saving(inst, report.final),
                        game.nonplatooning_fraction(inst, report.final),
                        float(report.rounds),
                    ))
            want = [alpha, float(SWEEP_REPS)]
            for k, series in ((0, ne_m), (1, ne_m), (0, co_m), (1, co_m), (2, ne_m), (2, co_m)):
                values = np.array([m[k] for m in series])
                want += [float(values.mean()), float(values.std())]
            got = [float(x) for x in row]
            if got != want:
                problems.append(f"sweep CSV row for alpha {alpha} is {got}, re-solving gives {want}")
        return problems


class SolveN200(Workload):
    name = "solve-n200"

    def _call(self, n: int, tag: str) -> Call:
        scenario = self.work / f"solve-{tag}.scn"
        scenario.write_text(scenario_text(n, ALPHA, self.seed))
        out = self.work / f"solve-{tag}.json"
        argv = ["solve", str(scenario), "--mode", "coop", "--out", str(out)]
        return Call(argv, self.work / f"solve-{tag}.stdout", out)

    def calls(self):
        return [self._call(200, "pass")]

    def warm_up_call(self):
        return self._call(10, "warm")

    def check_outputs(self, calls):
        """NE soundness and coop dominance on the loaded instance, and the
        reported potential recomputed exactly."""
        payload = json.loads(calls[0].output())
        inst = cli.load_scenario(calls[0].argv[1])
        ne = solvers.brd_solve(inst)
        profile = tuple(payload["profile"])
        problems = check_ne_and_coop(inst, ne.final, profile, "solve")
        if not problems and game.potential(inst, profile) != payload["potential"]:
            problems.append(
                f"reported potential {payload['potential']!r} recomputes "
                f"as {game.potential(inst, profile)!r}"
            )
        return problems


class OracleN6(Workload):
    name = "oracle-n6"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self._calls = []
        for j in range(ORACLE_BATCH):
            scenario = work / f"oracle-{j}.scn"
            scenario.write_text(scenario_text(6, ALPHA, seed * ORACLE_BATCH + j))
            self._calls.append(Call(["oracle", str(scenario)], work / f"oracle-{j}.stdout"))

    def calls(self):
        return self._calls

    def warm_up_call(self):
        return self._calls[0]

    def check_outputs(self, calls):
        """Each call found the solver's answer among the equilibria."""
        verdict = "best-response answer is an equilibrium: True"
        return [
            f"{c.argv[1]}: no line {verdict!r}"
            for c in calls
            if verdict not in c.output().decode().splitlines()
        ]


def check_ne_and_coop(inst, ne_profile, coop_profile, where: str) -> list[str]:
    """The NE is one, the coop profile is feasible and no worse for everyone."""
    if not solvers.is_nash(inst, ne_profile):
        return [f"{where}: the best-response profile is not a Nash equilibrium"]
    try:
        coop_value = game.cooperative_utility(inst, coop_profile)
    except ValueError as exc:
        return [f"{where}: coop profile infeasible: {exc}"]
    ne_value = game.cooperative_utility(inst, ne_profile)
    if not coop_value >= ne_value:
        return [f"{where}: coop common utility {coop_value!r} below the NE's {ne_value!r}"]
    return []


WORKLOADS = {w.name: w for w in (SweepN10, SolveN200, OracleN6)}
