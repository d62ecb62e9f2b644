"""Best-response dynamics, cooperative coordinate ascent, and NE oracles.

Both solvers sweep the vehicles in ascending id order, each updating its
coordinate immediately (Gauss-Seidel style).  A sweep that changes nothing
is a fixed point: for the selfish objective that is a pure Nash
equilibrium, for the cooperative objective a coordinate-wise local maximum
of the common utility.  The selfish solver starts from the preferred-time
profile; the cooperative solver starts from the selfish equilibrium and
refines it.  Because the game is a finite exact potential game and every
accepted move strictly improves the active objective, termination is
guaranteed; the iteration cap only exists to turn a bug into a loud error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import game
from .game import Instance, Profile

#: Gains at or below this threshold count as floating-point noise: a vehicle
#: keeps its current action unless some alternative beats it by more.
GAIN_EPS = 1e-12

_OBJECTIVES = ("self", "cooperative")


class ConvergenceError(RuntimeError):
    """A solve exceeded its sweep cap, which signals a bug, never truncation."""


@dataclass
class SolveReport:
    """Trace of one solver run.

    ``history[k]`` is the profile after sweep ``k`` (``history[0]`` is the
    initial profile); ``objective_trace`` matches it entry by entry, holding
    the potential for the selfish solver and the common utility for the
    cooperative one, and is computed on first access.  ``rounds`` counts
    executed sweeps, including the final one that confirmed the fixed point.
    """

    final: tuple[float, ...]
    history: list[tuple[float, ...]] = field(repr=False)
    rounds: int
    instance: Instance = field(repr=False, compare=False)
    objective: str = field(repr=False, compare=False)

    @cached_property
    def objective_trace(self) -> list[float]:
        metric = game.potential if self.objective == "self" else game.cooperative_utility
        return [metric(self.instance, s) for s in self.history]


def _values(state: game._PlatoonState, objective: str):
    """The kernel method scoring one vehicle's actions under ``objective``."""
    return state.selfish_values if objective == "self" else state.coop_values


def _pick(actions: tuple[float, ...], values: list[float], current: float) -> float:
    """Keep the current action unless something beats it by more than GAIN_EPS;
    otherwise move to the smallest action attaining the maximum."""
    vmax = max(values)
    if values[actions.index(current)] >= vmax - GAIN_EPS:
        return current
    for a, v in zip(actions, values):
        if v == vmax:
            return a
    raise AssertionError("unreachable: max not found among candidates")


def best_response(
    instance: Instance,
    profile: Profile,
    vehicle_id: int,
    objective: str = "self",
) -> float:
    """Best action for one vehicle with the rest of the profile held fixed.

    ``objective`` is ``"self"`` (the vehicle's own utility) or
    ``"cooperative"`` (the sum of all utilities).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    game._check_profile(instance, profile)
    idx = game._index_of(instance, vehicle_id)
    values = _values(game._PlatoonState(instance, profile), objective)
    return _pick(instance._actions[idx], values(idx, profile[idx]), profile[idx])


def _sweep_solve(
    instance: Instance,
    objective: str,
    max_sweeps: int | None,
    start: tuple[float, ...] | None = None,
) -> SolveReport:
    n = instance.n_vehicles
    if max_sweeps is None:
        max_sweeps = 10 * n * len(instance._all_times)
    s = list(instance._pref if start is None else start)
    state = game._PlatoonState(instance, s)
    values = _values(state, objective)
    history = [tuple(s)]
    rounds = 0
    last = n - 1  # the previous sweep's last mover; n - 1 runs the first sweep in full
    while True:
        mover = -1
        for idx in range(n):
            cur = s[idx]
            a = _pick(instance._actions[idx], values(idx, cur), cur)
            if a != cur:
                state.move(idx, cur, a)
                s[idx] = a
                mover = idx
            elif idx == last and mover < 0:
                # Nothing has moved since it did, so every later vehicle faces
                # the state it stayed in last sweep: this sweep is the fixed point.
                break
        rounds += 1
        history.append(tuple(s))
        if mover < 0:
            break
        last = mover
        if rounds >= max_sweeps:
            raise ConvergenceError(
                f"no fixed point after {rounds} sweeps (cap {max_sweeps}); "
                "this should be impossible for a finite exact potential game"
            )
    return SolveReport(tuple(s), history, rounds, instance, objective)


def brd_solve(instance: Instance, max_sweeps: int | None = None) -> SolveReport:
    """Sweep best responses from the preferred-time profile to a pure NE.

    The default sweep cap is ``10 * N * |distinct preferred times|``.
    """
    return _sweep_solve(instance, "self", max_sweeps)


def coop_solve(
    instance: Instance,
    max_sweeps: int | None = None,
    start: Profile | None = None,
) -> SolveReport:
    """Cooperative refinement: coordinate ascent on the common utility.

    Runs the same ascending-id sweeps as brd_solve but each vehicle moves to
    the action maximizing the sum of all utilities.  By default the ascent
    starts from the best-response equilibrium, so the result never falls
    below the equilibrium's common utility; greedy ascent from scattered
    preferred times tends to lock in low-value pairings, which is why the
    equilibrium is the better anchor.  Pass ``start`` to ascend from another
    profile instead.
    """
    if start is None:
        start = brd_solve(instance).final
    else:
        game._check_profile(instance, start)
    return _sweep_solve(instance, "cooperative", max_sweeps, start=tuple(start))


def is_nash(instance: Instance, profile: Profile, tol: float = GAIN_EPS) -> bool:
    """True iff no vehicle can gain more than ``tol`` (finite) by deviating alone.

    Each vehicle stops at its first profitable deviation.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    game._check_profile(instance, profile)
    state = game._PlatoonState(instance, profile)
    f = instance._f
    lengths = instance._lengths
    counts = state.counts
    for idx, cur in enumerate(profile):
        actions = instance._actions[idx]
        pens = instance._pen[idx]
        route = instance._routes[idx]
        alone = instance._alone[idx]
        bar = state.route_sum(idx, cur, f) - pens[actions.index(cur)] + tol
        for a, p in zip(actions, pens):
            if a == cur:
                continue
            c = counts.get(a)
            if c is None:
                value = alone - p
            else:
                value = 0.0
                for e in route:
                    value += f[c[e] + 1] * lengths[e]
                value -= p
            if value > bar:
                return False
    return True


class _SavingMemo(dict):
    """Route saving ``sum f[n(e)] * d(e)``, in route order, by packed head counts.

    A key holds the head count ``n(e)`` of each edge ``e`` of the route in
    bits ``[e * width, (e + 1) * width)``; a missing key runs the route walk
    of the platoon-state kernel once, so a value has the kernel's bits.
    """

    def __init__(self, instance: Instance, route: tuple[int, ...], width: int):
        super().__init__()
        self._f = instance._f
        self._legs = tuple((e * width, instance._lengths[e]) for e in route)
        self._field = (1 << width) - 1

    def __missing__(self, key: int) -> float:
        f = self._f
        field = self._field
        total = 0.0
        for shift, length in self._legs:
            total += f[key >> shift & field] * length
        self[key] = total
        return total


def _stable(current, packed: list[int]) -> bool:
    """No vehicle of ``current`` gains more than GAIN_EPS by deviating alone.

    ``current`` holds one ``(unit, mask, memo, pairs, k)`` record per
    vehicle: its route's unit counts, field mask and saving memo, the
    ``(slot, penalty)`` pair of each of its actions and the index of the
    action it plays.
    """
    for unit, mask, memo, pairs, k in current:
        slot, pen = pairs[k]
        bar = memo[packed[slot] & mask] - pen + GAIN_EPS
        for s, p in pairs:
            if s != slot and memo[(packed[s] + unit) & mask] - p > bar:
                return False
    return True


def brute_force_nash(instance: Instance, cap: int = 1_000_000) -> set[tuple[float, ...]]:
    """All pure Nash equilibria, by checking every profile of the space.

    Raises ValueError when the profile space exceeds ``cap``.  Never empty:
    a finite exact potential game always has a pure NE.

    Each departure time keeps one int packing the head count of every edge
    in a field ``N.bit_length()`` bits wide, so placing or removing a vehicle
    adds or subtracts its route's unit counts, and a saving is looked up in
    a memo shared by the vehicles of one route, keyed by the counts on that
    route.  Only the vehicles with more than one action are enumerated, by
    an odometer whose last digit turns fastest; a vehicle with one action
    cannot deviate, so it is placed once and never checked.  The last
    enumerated vehicle's utilities depend on the others only, so its best
    responses are found once per head, and only those profiles get the full
    check of the other vehicles.
    """
    actions = instance._actions
    size = math.prod(len(a) for a in actions)
    if size > cap:
        raise ValueError(f"profile space holds {size} profiles, exceeding the cap {cap}")
    width = instance.n_vehicles.bit_length()
    slot = {t: k for k, t in enumerate(instance._all_times)}
    packed = [0] * len(slot)  # every vehicle starts at its first action
    memos: dict[tuple[int, ...], _SavingMemo] = {}
    movers = []  # (idx, unit counts, field mask, memo, (slot, penalty) per action)
    for idx, (acts, route) in enumerate(zip(actions, instance._routes)):
        unit = sum(1 << e * width for e in route)
        packed[slot[acts[0]]] += unit
        if len(acts) == 1:
            continue
        if route not in memos:
            memos[route] = _SavingMemo(instance, route, width)
        pairs = tuple(zip([slot[a] for a in acts], instance._pen[idx]))
        movers.append((idx, unit, unit * ((1 << width) - 1), memos[route], pairs))
    profile = [a[0] for a in actions]
    if not movers:
        return {tuple(profile)}
    *head, (last, unit, mask, memo, pairs) = movers
    packed[pairs[0][0]] -= unit  # the last vehicle is placed per best response
    options = [[mover[1:] + (k,) for k in range(len(mover[4]))] for mover in head]
    current = [records[0] for records in options]  # the _stable record of each head vehicle
    out: set[tuple[float, ...]] = set()
    while True:
        values = []
        for s, p in pairs:
            values.append(memo[(packed[s] + unit) & mask] - p)
        top = max(values)
        for k, ((s, _), v) in enumerate(zip(pairs, values)):
            if top > v + GAIN_EPS:
                continue
            packed[s] += unit
            if _stable(current, packed):
                for (idx, *_), record in zip(head, current):
                    profile[idx] = actions[idx][record[4]]
                profile[last] = actions[last][k]
                out.add(tuple(profile))
            packed[s] -= unit
        # the next head: the last digit turns fastest, a wrapped digit carries
        for d in reversed(range(len(head))):
            step, _, _, choices, j = current[d]
            packed[choices[j][0]] -= step
            j = j + 1 if j + 1 < len(choices) else 0
            packed[choices[j][0]] += step
            current[d] = options[d][j]
            if j:
                break
        else:
            return out
