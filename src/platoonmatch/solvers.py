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
The solvers are plain Python; numpy is imported only inside the oracle
``brute_force_nash``, so importing this module does not load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from . import game
from .game import Instance, Profile
from .network import is_count, is_real

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


def _decide(state: game._PlatoonState, idx: int, cur: float, objective: str) -> float:
    """Keep the current action unless another beats it by more than GAIN_EPS;
    otherwise move to the smallest action attaining the maximum."""
    vcur, vbest, abest = state.scan(idx, cur, objective)
    return cur if vcur >= vbest - GAIN_EPS else abest


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
    return _decide(game._PlatoonState(instance, profile), idx, profile[idx], objective)


def _sweep_solve(
    instance: Instance, objective: str, start: tuple[float, ...] | None = None
) -> SolveReport:
    n = instance.n_vehicles
    max_sweeps = 10 * n * len(instance._all_times)
    s = list(instance._pref if start is None else start)
    state = game._PlatoonState(instance, s)
    history = [tuple(s)]
    rounds = 0
    last = n - 1  # the previous sweep's last mover; n - 1 runs the first sweep in full
    while True:
        mover = -1
        for idx in range(n):
            cur = s[idx]
            a = _decide(state, idx, cur, objective)
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


def brd_solve(instance: Instance) -> SolveReport:
    """Sweep best responses from the preferred-time profile to a pure NE.

    The sweep cap is ``10 * N * |distinct preferred times|``.
    """
    return _sweep_solve(instance, "self")


def coop_solve(instance: Instance, start: Profile | None = None) -> SolveReport:
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
    return _sweep_solve(instance, "cooperative", start=tuple(start))


def is_nash(instance: Instance, profile: Profile, tol: float = GAIN_EPS) -> bool:
    """True iff no vehicle can gain more than ``tol`` (finite) by deviating alone.

    Each vehicle is scored by the best-response kernel (``_PlatoonState.scan``):
    only the best of its other actions is held against its current value plus
    ``tol``, so a vehicle with one action is stable under any ``tol``,
    negative ones included.
    """
    if not is_real(tol):
        raise ValueError(f"tol must be a finite number, got {tol!r}")
    game._check_profile(instance, profile)
    state = game._PlatoonState(instance, profile)
    for idx, t in enumerate(profile):
        vcur, vbest, _ = state.scan(idx, t, "self")
        if vbest > vcur + tol:
            return False
    return True


def brute_force_nash(instance: Instance, cap: int = 1_000_000) -> set[tuple[float, ...]]:
    """All pure Nash equilibria, by checking every profile of the space at once.

    Raises ValueError when ``cap`` is not an integer, when the profile space
    exceeds it, or when its arrays do not fit in memory or in numpy's index
    range.  Never empty: a finite exact potential game always has a pure NE.

    Each vehicle with more than one action gets one numpy axis, holding the
    slot in ``_all_times`` of each of its actions, so the axes together span
    the profile space.  A utility depends only on how many vehicles share
    each route edge.  A vehicle's mates are the other vehicles with a choice
    that share a time with it; a mate's depth is how many leading edges of
    the route it drives too.  At action ``k`` the route's m-th edge holds 1
    plus the one-action vehicles and the mates at that time deeper than m.
    So one table, over the vehicle's actions and the mate counts per depth
    (at most ``width * 2**mates`` entries, never more than the profiles),
    holds its every utility: the kernel's route walk, from 0.0 in route
    order adding ``f[n(e)] * d(e)``, minus the penalty.  Each profile's
    index into the table is summed from broadcast slot comparisons, and one
    lookup scores the vehicle; it is stable where no action beats that by
    more than GAIN_EPS.  Each product, sum and comparison is the IEEE
    operation the kernel makes, in the kernel's order, so the set has the
    kernel's bits.  The arrays peak at 11-24 bytes per profile, so the cap
    also bounds memory.  Time is worst with one mate per depth, two actions
    each, where a table is as large as the mates' space (nested routes on a
    path: 0.07 s for 2**18 profiles on a 2-vCPU VM).
    """
    if not is_count(cap):
        raise ValueError(f"cap must be an integer, got {cap!r}")
    actions = instance._actions
    size = math.prod(len(a) for a in actions)
    if size > cap:
        raise ValueError(f"profile space holds {size} profiles, exceeding the cap {cap}")
    movers = [idx for idx, acts in enumerate(actions) if len(acts) > 1]
    too_many = (
        f"profile space holds {size} profiles, within the cap {cap} but too "
        "many to check as arrays in this memory; lower the cap"
    )
    import numpy as np
    # numpy refuses such shapes with its own error.  A mover has two actions or
    # more, so this also refuses more movers than numpy 2's 64 axes can hold.
    if size > np.iinfo(np.intp).max:
        raise ValueError(too_many)
    slot = {t: k for k, t in enumerate(instance._all_times)}
    grid: dict[int, np.ndarray] = {}
    for axis, idx in enumerate(movers):
        shape = [1] * len(movers)
        shape[axis] = -1
        grid[idx] = np.array([slot[a] for a in actions[idx]]).reshape(shape)
    users: list[list[int]] = [[] for _ in instance._lengths]
    for j, route in enumerate(instance._routes):
        for e in route:
            users[e].append(j)
    # the walk's product f[n] * d(e), made once per head count and edge
    f = np.array(instance._f)
    saving = [f * d for d in instance._lengths]
    count = np.min_scalar_type(instance.n_vehicles)
    try:
        stable = np.ones([len(actions[idx]) for idx in movers], dtype=bool)
        for axis, idx in enumerate(movers):
            route = instance._routes[idx]
            width = len(actions[idx])
            at = {a: k for k, a in enumerate(actions[idx])}
            depth = [0] * len(actions)
            for e in route:
                for j in users[e]:
                    depth[j] += 1
            mates = [j for j in movers if j != idx and not at.keys().isdisjoint(actions[j])]
            at_depth = Counter(depth[j] for j in mates)
            deep = sorted(at_depth)
            ones = [1] * len(deep)
            fixed = np.zeros((len(route) + 1, width, *ones), count)
            for j, d in enumerate(depth):
                if len(actions[j]) == 1 and actions[j][0] in at:
                    fixed[d, at[actions[j][0]]] += 1
            # edge m counts everyone deeper than m: sum from the deepest edge up
            heads = 1
            walk = []
            for d in range(len(route), 0, -1):
                heads = heads + fixed[d]
                if d in at_depth:
                    shape = [1, *ones]
                    shape[1 + deep.index(d)] = -1
                    heads = heads + np.arange(at_depth[d] + 1, dtype=count).reshape(shape)
                walk.append(heads)
            table = np.zeros([width] + [at_depth[d] + 1 for d in deep])
            for e, h in zip(route, reversed(walk)):
                table += saving[e][h]
            table -= np.reshape(instance._pen[idx], [-1, *ones])
            # The codes get the vehicle's own action as a leading axis, and the
            # mates' axes are added last to first, so numpy's loops run long.
            code_type = np.min_scalar_type(table.size)
            stride = (np.array(table.strides) // table.itemsize).astype(code_type)
            own = grid[idx].reshape([-1] + [1] * len(movers))
            code = np.arange(width, dtype=code_type).reshape(own.shape) * stride[0]
            for j in reversed(mates):
                code = (grid[j] == own) * stride[1 + deep.index(depth[j])] + code
            u = table.ravel()[code]
            del table, code  # freed before the next arrays, so memory stays per profile
            best = u.max(axis=0)
            for k in range(width):
                stable[(slice(None),) * axis + (slice(k, k + 1),)] &= best <= u[k] + GAIN_EPS
            del u, best
    except MemoryError:  # numpy's own error would end the CLI in a traceback
        raise ValueError(too_many) from None
    profile = [acts[0] for acts in actions]
    out: set[tuple[float, ...]] = set()
    for ks in np.argwhere(stable).tolist():
        for idx, k in zip(movers, ks):
            profile[idx] = actions[idx][k]
        out.add(tuple(profile))
    return out
