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

import itertools
import math
from dataclasses import dataclass, field

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
    cooperative one.  ``rounds`` counts executed sweeps, including the final
    one that confirmed the fixed point.
    """

    final: tuple[float, ...]
    history: list[tuple[float, ...]] = field(repr=False)
    rounds: int = 0
    converged: bool = True
    objective_trace: list[float] = field(default_factory=list)


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
    metric = game.potential if objective == "self" else game.cooperative_utility
    s = list(instance._pref if start is None else start)
    state = game._PlatoonState(instance, s)
    values = _values(state, objective)
    history = [tuple(s)]
    trace = [metric(instance, s)]
    rounds = 0
    while True:
        changed = False
        for idx in range(n):
            cur = s[idx]
            a = _pick(instance._actions[idx], values(idx, cur), cur)
            if a != cur:
                state.move(idx, cur, a)
                s[idx] = a
                changed = True
        rounds += 1
        history.append(tuple(s))
        trace.append(metric(instance, s))
        if not changed:
            break
        if rounds >= max_sweeps:
            raise ConvergenceError(
                f"no fixed point after {rounds} sweeps (cap {max_sweeps}); "
                "this should be impossible for a finite exact potential game"
            )
    return SolveReport(
        final=tuple(s),
        history=history,
        rounds=rounds,
        converged=True,
        objective_trace=trace,
    )


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


def _is_nash_state(instance: Instance, state: game._PlatoonState, profile, tol: float) -> bool:
    """No vehicle of ``profile`` gains more than ``tol`` by deviating alone.

    ``profile`` may be a prefix of the profile ``state`` holds; the vehicles
    after it are not checked.  Each vehicle stops at its first profitable
    deviation.
    """
    f = instance._f
    route_sum = state.route_sum
    for idx, cur in enumerate(profile):
        actions = instance._actions[idx]
        pens = instance._pen[idx]
        bar = route_sum(idx, cur, f, False) - pens[actions.index(cur)] + tol
        for a, p in zip(actions, pens):
            if a != cur and route_sum(idx, a, f, True) - p > bar:
                return False
    return True


def is_nash(instance: Instance, profile: Profile, tol: float = GAIN_EPS) -> bool:
    """True iff no vehicle can gain more than ``tol`` by deviating alone."""
    game._check_profile(instance, profile)
    return _is_nash_state(instance, game._PlatoonState(instance, profile), profile, tol)


def brute_force_nash(instance: Instance, cap: int = 1_000_000) -> set[tuple[float, ...]]:
    """All pure Nash equilibria, by checking every profile of the space.

    Raises ValueError when the profile space exceeds ``cap``.  Never empty:
    a finite exact potential game always has a pure NE.
    """
    size = math.prod(len(a) for a in instance._actions)
    if size > cap:
        raise ValueError(f"profile space holds {size} profiles, exceeding the cap {cap}")
    *head, tail = instance._actions
    last = len(head)
    profile = [a[0] for a in instance._actions]
    state = game._PlatoonState(instance, profile)
    out: set[tuple[float, ...]] = set()
    # One state follows the walk with a move per changed coordinate.  The
    # last vehicle's utilities depend on the others only, so its best
    # responses are found once per head, and only those profiles get the
    # full check of the other vehicles.
    for h in itertools.product(*head):
        for idx, t in enumerate(h):
            if t != profile[idx]:
                state.move(idx, profile[idx], t)
                profile[idx] = t
        values = state.selfish_values(last, profile[last])
        top = max(values)
        for t, v in zip(tail, values):
            if top > v + GAIN_EPS:
                continue
            if t != profile[last]:
                state.move(last, profile[last], t)
                profile[last] = t
            if _is_nash_state(instance, state, h, GAIN_EPS):
                out.add(h + (t,))
    return out
