"""Command-line front end: scenario files, solves, oracle checks, sweeps.

Scenario files are flat text, one directive per line, ``#`` comments::

    network preset paper-fig3     # or explicit: root first, then edges
    network root v1
    network edge v1 v2 80000
    param k_p 5e-05
    param k_t 0.015
    vehicle v4 0 -500 500         # destination preferred window_lo window_hi
    generate n 10                 # generator section, alternative to vehicles
    generate alpha 300
    generate halfwidth 500
    generate pool v2 v3 v4
    generate seed 42

Exactly one of the vehicle lines or the generate section must be present;
a preset excludes explicit network lines; with explicit edges the root must
be declared first.  Vehicle ids are assigned 1..N in file order.  Units are
fixed: seconds, meters, dollars, liters.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from .experiments import (
    ScenarioConfig,
    _fmt,
    default_alpha_grid,
    generate_scenario,
    sweep_alpha,
    trend_summary,
)
from .game import Instance, ModelParams, Vehicle, evaluate
from .network import PRESETS, InputError, RoadNetwork
from .solvers import ConvergenceError, brd_solve, brute_force_nash, coop_solve, is_nash


class ScenarioError(ValueError):
    """Scenario file rejected; the message is anchored to the offending line."""


# ---------------------------------------------------------------------------
# scenario parsing


#: ``generate`` key -> (ScenarioConfig field, value type, usage argument)
_GENERATE_KEYS = {
    "n": ("n_vehicles", int, "<count>"),
    "alpha": ("alpha", float, "<seconds>"),
    "halfwidth": ("window_halfwidth", float, "<seconds>"),
    "seed": ("seed", int, "<int>"),
    "pool": ("destination_pool", tuple, "<node> [<node> ...]"),
}


class _Parser:
    """Syntax and declaration rules of a scenario file.

    The rules of the model itself belong to the types that hold the values
    (``RoadNetwork``, ``Vehicle``, ``ModelParams``, ``Instance``,
    ``ScenarioConfig``); ``lines`` maps the ``subject`` of their
    ``InputError`` to the line that declared it.
    """

    def __init__(self):
        self.preset = None
        self.root = None
        self.edges: list[tuple[str, str, float]] = []
        self.params: dict[str, float] = {}
        self.vehicles: list[Vehicle] = []
        self.gen: dict[str, object] = {}  # ScenarioConfig keyword arguments
        # Subject ``None`` (a property of the whole network) anchors at the
        # first network line; a repeated edge maps to its last declaration.
        self.lines: dict[object, int] = {}

    def fail(self, lineno: int, msg: str):
        raise ScenarioError(f"line {lineno}: {msg}")

    def feed(self, lineno: int, line: str):
        text = line.split("#", 1)[0].strip()
        if not text:
            return
        tokens = text.split()
        head = tokens[0]
        if head == "network":
            self._network(lineno, tokens[1:])
        elif head == "param":
            self._param(lineno, tokens[1:])
        elif head == "vehicle":
            self._vehicle(lineno, tokens[1:])
        elif head == "generate":
            self._generate(lineno, tokens[1:])
        else:
            self.fail(lineno, f"unknown directive {head!r}")

    def _network(self, lineno, rest):
        self.lines.setdefault(None, lineno)
        if not rest:
            self.fail(lineno, "incomplete network directive")
        kind = rest[0]
        if kind == "preset":
            if len(rest) != 2:
                self.fail(lineno, "usage: network preset <name>")
            if self.preset is not None:
                self.fail(lineno, "preset already declared")
            if self.root is not None:
                self.fail(lineno, "a preset cannot be combined with explicit network lines")
            if rest[1] not in PRESETS:
                known = ", ".join(sorted(PRESETS))
                self.fail(lineno, f"unknown preset {rest[1]!r} (known: {known})")
            self.preset = rest[1]
        elif kind == "root":
            if len(rest) != 2:
                self.fail(lineno, "usage: network root <node>")
            if self.preset is not None:
                self.fail(lineno, "explicit root cannot be combined with a preset")
            if self.root is not None:
                self.fail(lineno, "root already declared")
            self.root = rest[1]
        elif kind == "edge":
            if len(rest) != 4:
                self.fail(lineno, "usage: network edge <tail> <head> <length_m>")
            if self.preset is not None:
                self.fail(lineno, "explicit edges cannot be combined with a preset")
            if self.root is None:
                self.fail(lineno, "declare 'network root' before edges")
            tail, head = rest[1], rest[2]
            self.edges.append((tail, head, self._number(lineno, rest[3], float, "edge length")))
            self.lines[(tail, head)] = lineno
        else:
            self.fail(lineno, f"unknown network directive {kind!r}")

    def _param(self, lineno, rest):
        if len(rest) != 2 or rest[0] not in ("k_p", "k_t"):
            self.fail(lineno, "usage: param k_p|k_t <value>")
        if rest[0] in self.params:
            self.fail(lineno, f"{rest[0]} already declared")
        self.params[rest[0]] = self._number(lineno, rest[1], float, rest[0])
        self.lines[rest[0]] = lineno

    def _vehicle(self, lineno, rest):
        if self.gen:
            self.fail(lineno, "explicit vehicles cannot be combined with a generate section")
        if len(rest) != 4:
            self.fail(lineno, "usage: vehicle <destination> <preferred> <window_lo> <window_hi>")
        pref, lo, hi = (
            self._number(lineno, token, float, what)
            for token, what in zip(rest[1:], ("preferred time", "window_lo", "window_hi"))
        )
        vid = len(self.vehicles) + 1
        self.lines[vid] = lineno
        self.vehicles.append(Vehicle(id=vid, destination=rest[0], preferred_time=pref, window=(lo, hi)))

    def _generate(self, lineno, rest):
        if self.vehicles:
            self.fail(lineno, "a generate section cannot be combined with explicit vehicles")
        if not rest:
            self.fail(lineno, "incomplete generate directive")
        key = rest[0]
        if key not in _GENERATE_KEYS:
            self.fail(lineno, f"unknown generate directive {key!r}")
        field, kind, arg = _GENERATE_KEYS[key]
        if field in self.gen:
            self.fail(lineno, f"generate {key} already declared")
        if len(rest) < 2 or (kind is not tuple and len(rest) != 2):
            self.fail(lineno, f"usage: generate {key} {arg}")
        if kind is tuple:
            self.gen[field] = tuple(rest[1:])
        else:
            self.gen[field] = self._number(lineno, rest[1], kind, f"generate {key}")
        self.lines[field] = lineno

    def _number(self, lineno, token, kind, what):
        try:
            return kind(token)
        except ValueError:
            article = "an integer" if kind is int else "a number"
            self.fail(lineno, f"{what} must be {article}, got {token!r}")

    def instance(self, seed_override: int | None) -> Instance:
        if self.preset is not None:
            network = PRESETS[self.preset]()
        elif self.edges:
            network = RoadNetwork(self.edges, self.root)
        else:
            raise ScenarioError("scenario has no network section (preset or root+edges)")
        params = ModelParams(**self.params)
        if self.vehicles:
            return Instance(network, self.vehicles, params)
        if not self.gen:
            raise ScenarioError("scenario defines neither vehicles nor a generate section")
        for key in ("n", "alpha"):
            if _GENERATE_KEYS[key][0] not in self.gen:
                raise ScenarioError(f"generate section is missing 'generate {key}'")
        if seed_override is not None:
            self.gen["seed"] = seed_override
            self.lines.pop("seed", None)  # the override has no line
        return generate_scenario(ScenarioConfig(network=network, params=params, **self.gen))


def load_scenario(path: str | Path, seed_override: int | None = None) -> Instance:
    """Parse a scenario file into an Instance, resolving any generator section.

    ``seed_override`` replaces the file's generator seed (explicit-vehicle
    files ignore it: they contain no randomness).  The file is UTF-8, may
    start with a byte-order mark, and its lines end at ``\n`` alone.  Every
    rejection of a declared value names the line that declared it, and a
    byte that is not UTF-8 names its line.
    """
    # the mark is cut off the bytes, not decoded as "utf-8-sig", whose error
    # offsets skip it: so an offset indexes ``data`` and counts its lines
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
    parser = _Parser()
    try:
        for lineno, line in enumerate(text.split("\n"), start=1):
            parser.feed(lineno, line)
        return parser.instance(seed_override)
    except InputError as exc:
        line = parser.lines.get(exc.subject)
        raise ScenarioError(f"line {line}: {exc}" if line else str(exc)) from exc


def dump_scenario(instance: Instance) -> str:
    """Serialize an instance as a scenario file that re-parses identically.

    ValueError for a custom saving or penalty, and for a node id that would
    not come back as one token: an empty id, or one holding whitespace or ``#``.
    """
    params = instance.params
    if params.saving is not None or params.penalty is not None:
        raise ValueError("custom saving/penalty functions cannot be serialized")
    net = instance.network
    for node in sorted(net.nodes):
        if node.split() != [node] or "#" in node:
            raise ValueError(
                f"node id {node!r} cannot be serialized: a scenario token holds no "
                "whitespace or '#'"
            )
    lines = ["# platoonmatch scenario"]
    lines.append(f"network root {net.root}")
    for tail, head, length in net.edges:
        lines.append(f"network edge {tail} {head} {_fmt(length)}")
    lines.append(f"param k_p {_fmt(params.k_p)}")
    lines.append(f"param k_t {_fmt(params.k_t)}")
    for v in instance.vehicles:
        lo, hi = v.window
        lines.append(
            f"vehicle {v.destination} {_fmt(v.preferred_time)} {_fmt(lo)} {_fmt(hi)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output rendering


def _solve_payload(instance: Instance, report, mode: str) -> dict:
    outcome = evaluate(instance, report.final)
    return {
        "mode": mode,
        "profile": list(report.final),
        "partition": [
            {"time": t, "vehicles": list(members)} for t, members in outcome.partition
        ],
        "utilities": list(outcome.utilities),
        "potential": outcome.potential,
        "total_fuel_saving": outcome.total_fuel_saving,
        "nonplatooning_fraction": outcome.nonplatooning_fraction,
        "rounds": report.rounds,
        "converged": True,  # non-convergence raises ConvergenceError
    }


def _solve_csv(instance: Instance, payload: dict) -> str:
    platoon_of = {}
    for k, entry in enumerate(payload["partition"], start=1):
        for vid in entry["vehicles"]:
            platoon_of[vid] = k
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ("vehicle", "destination", "preferred_time", "chosen_time", "platoon", "utility")
    )
    for v in instance.vehicles:
        writer.writerow((
            v.id,
            v.destination,
            _fmt(v.preferred_time),
            _fmt(payload["profile"][v.id - 1]),
            platoon_of[v.id],
            _fmt(payload["utilities"][v.id - 1]),
        ))
    for key in ("potential", "total_fuel_saving", "nonplatooning_fraction", "rounds"):
        buf.write(f"# {key}={payload[key]!r}\n")
    return buf.getvalue()


def _write_out(text: str, out: str | None):
    if out and out != "-":
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    instance = load_scenario(args.scenario, seed_override=args.seed)
    if args.dump_scenario:
        Path(args.dump_scenario).write_text(dump_scenario(instance), encoding="utf-8")
    report = brd_solve(instance) if args.mode == "ne" else coop_solve(instance)
    payload = _solve_payload(instance, report, args.mode)
    if args.format == "json":
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _write_out(_solve_csv(instance, payload), args.out)
    return 0


def cmd_oracle(args) -> int:
    instance = load_scenario(args.scenario, seed_override=args.seed)
    equilibria = brute_force_nash(instance, cap=args.cap)
    report = brd_solve(instance)
    print(f"pure Nash equilibria: {len(equilibria)}")
    for profile in sorted(equilibria):
        print("  " + " ".join(_fmt(t) for t in profile))
    print("best-response answer: " + " ".join(_fmt(t) for t in report.final))
    member = report.final in equilibria
    print(f"best-response answer is an equilibrium: {member}")
    return 0 if equilibria and member else 1


def _alpha(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"--alphas: {token.strip()!r} is not a number") from None


#: The most values an alpha range may expand to; a step too small to move its
#: start would otherwise never end it.
_MAX_ALPHAS = 10_000


def _parse_alphas(spec: str) -> list[float]:
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha range must be start:stop:step, got {spec!r}")
        start, stop, step = map(_alpha, parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"alpha range bounds must be finite, got {spec!r}")
        if step <= 0:
            raise ValueError(f"alpha step must be > 0, got {step}")
        out = []
        # a slack relative to the step, so a range means the same in any unit
        while start + len(out) * step <= stop + 1e-9 * step:
            if len(out) == _MAX_ALPHAS:
                raise ValueError(
                    f"--alphas: range {spec!r} expands to more than {_MAX_ALPHAS} values"
                )
            out.append(start + len(out) * step)
        return out
    return [_alpha(p) for p in spec.split(",") if p.strip()]


def cmd_sweep(args) -> int:
    # a sweep writes only at its end, so a path it cannot write fails first
    if args.out and args.out != "-" and not Path(args.out).parent.is_dir():
        raise ValueError(f"--out {args.out}: no directory {Path(args.out).parent}")
    network = PRESETS[args.preset]()
    config = ScenarioConfig(
        network=network,
        n_vehicles=args.n,
        alpha=0.0,
        seed=args.seed,
        window_halfwidth=args.halfwidth,
        params=ModelParams(k_p=args.kp, k_t=args.kt),
    )
    alphas = default_alpha_grid() if args.alphas is None else _parse_alphas(args.alphas)
    result = sweep_alpha(config, alphas, args.reps)
    _write_out(result.to_csv(), args.out)
    for key, rho in trend_summary(result).items():
        print(f"spearman {key} vs alpha: {rho:+.3f}")
    return 0


def cmd_demo_fig4(args) -> int:
    network = PRESETS["paper-fig3"]()
    config = ScenarioConfig(network=network, n_vehicles=5, alpha=15000.0, seed=args.seed)
    instance = generate_scenario(config)
    print("vehicles (id, destination, preferred time):")
    for v in instance.vehicles:
        print(f"  {v.id}  {v.destination:>4}  {v.preferred_time:12.3f}")
    report = brd_solve(instance)
    for k, profile in enumerate(report.history):
        print(f"sweep {k}: " + " ".join(f"{t:12.3f}" for t in profile))
    outcome = evaluate(instance, report.final)
    print("platoons:")
    for t, members in outcome.partition:
        print(f"  t={t:.3f}  vehicles {list(members)}")
    print(f"rounds: {report.rounds}")
    print(f"total fuel saving: {outcome.total_fuel_saving:.6f} liters")
    print(f"nonplatooning fraction: {outcome.nonplatooning_fraction:.3f}")
    nash = is_nash(instance, report.final)
    print(f"is_nash: {nash}")
    return 0 if nash else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing reads it and returns a new namespace each time, so one call's
    flags never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="platoonmatch",
        description="Departure-time platoon matching: equilibrium and cooperative solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    p_solve.add_argument("scenario", help="path to a scenario file")
    p_solve.add_argument("--mode", choices=("ne", "coop"), default="ne")
    p_solve.add_argument("--out", default=None, help="output path (default stdout)")
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.add_argument("--seed", type=int, default=None, help="override the generator seed")
    p_solve.add_argument("--dump-scenario", default=None, metavar="PATH",
                         help="also write the resolved instance as a scenario file")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="enumerate all pure NE and check the solver")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--cap", type=int, default=1_000_000,
                          help="maximum profile-space size to enumerate; it also bounds "
                               "the check's memory, at up to about 24 bytes per profile, "
                               "but not the answer's: some 200-400 bytes per equilibrium")
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over alpha")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), default="paper-fig3")
    p_sweep.add_argument("--n", type=int, default=10, help="vehicles per replication")
    p_sweep.add_argument("--alphas", default=None,
                         help="comma list or start:stop:step (default 0:1500:150)")
    p_sweep.add_argument("--reps", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--halfwidth", type=float, default=ScenarioConfig.window_halfwidth)
    p_sweep.add_argument("--kp", type=float, default=ModelParams.k_p)
    p_sweep.add_argument("--kt", type=float, default=ModelParams.k_t)
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo-fig4", help="five-vehicle convergence demo with sweep trace")
    p_demo.add_argument("--seed", type=int, default=60)
    p_demo.set_defaults(func=cmd_demo_fig4)

    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
