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

__all__ = [
    "ConvergenceError", "SolveReport", "best_response", "brd_solve", "brute_force_nash",
    "coop_solve", "is_nash",
]

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from . import game
from .game import Instance, Profile
from .network import is_count

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


def _decide(state: game._PlatoonState, idx: int, objective: str, tol: float) -> int | None:
    """``None`` to keep the current action unless another beats it by more than
    ``tol``, that is ``vbest > vcur + tol``; otherwise the smallest action index
    attaining the maximum.  The one test of a gain against the tolerance, which
    every caller takes from the instance, ``Instance._tol``: the sweeps stop,
    and ``is_nash`` accepts, exactly where it keeps every vehicle;
    ``brute_force_nash`` makes the same comparison on arrays."""
    vcur, vbest, kbest = state.scan(idx, objective)
    return kbest if vbest > vcur + tol else None


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
    state = game._PlatoonState(instance, profile)
    idx = game._index_of(instance, vehicle_id)
    k = _decide(state, idx, objective, instance._tol)
    return instance._all_times[instance._first[idx] + (state.ks[idx] if k is None else k)]


def _sweep_solve(instance: Instance, objective: str, start: Profile | None = None) -> SolveReport:
    n = instance.n_vehicles
    max_sweeps = 10 * n * len(instance._all_times)
    state = game._PlatoonState(instance, instance._pref if start is None else start)
    tol = instance._tol
    history = [tuple(state.times)]
    rounds = 0
    last = n - 1  # the previous sweep's last mover; n - 1 runs the first sweep in full
    while True:
        mover = -1
        for idx in range(n):
            k = _decide(state, idx, objective, tol)
            if k is not None:
                state.move(idx, k)
                mover = idx
            elif idx == last and mover < 0:
                # Nothing has moved since it did, so every later vehicle faces
                # the state it stayed in last sweep: this sweep is the fixed point.
                break
        rounds += 1
        history.append(tuple(state.times))
        if mover < 0:
            break
        last = mover
        if rounds >= max_sweeps:
            raise ConvergenceError(
                f"no fixed point after {rounds} sweeps (cap {max_sweeps}); "
                "this should be impossible for a finite exact potential game"
            )
    return SolveReport(history[-1], history, rounds, instance, objective)


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
    return _sweep_solve(instance, "cooperative", start)


def is_nash(instance: Instance, profile: Profile) -> bool:
    """True iff no vehicle can gain more than the instance's tolerance by
    deviating alone.

    That is, ``_decide(..., "self", instance._tol)``, the sweeps' stop test,
    keeps every vehicle: only the best of its other actions is held against
    its current value plus the tolerance, so a vehicle with one action is
    always stable.
    """
    state = game._PlatoonState(instance, profile)
    n = instance.n_vehicles
    return all(_decide(state, idx, "self", instance._tol) is None for idx in range(n))


def brute_force_nash(instance: Instance, cap: int = 1_000_000) -> set[tuple[float, ...]]:
    """All pure Nash equilibria, by checking every profile of the space at once.

    Raises ValueError when ``cap`` is not an integer, when the profile space
    exceeds it, or when its arrays do not fit in memory or in numpy's index
    range.  Never empty: a finite exact potential game always has a pure NE.

    Each vehicle with more than one action, a mover, has one numpy axis
    over its action indices, so the axes together span the profile space.
    A utility depends only on how many vehicles share each route edge.  A
    vehicle's mates are the other movers that share a time with it, those
    whose runs of slots in ``Instance._all_times`` overlap its own; a
    mate's depth is how many leading edges of the route it drives too.  At
    action ``k`` the route's m-th edge holds 1 plus the one-action vehicles
    and the mates at that time deeper than m.  So one table, over the
    vehicle's actions and the mate counts per depth (at most
    ``width * 2**mates`` entries, never more than the profiles), holds its
    every utility: the kernel's route walk, from 0.0 in route order adding
    ``f[n(e)] * d(e)``, minus the penalty.  A profile's index into the table
    at each own action adds the stride of each mate whose action index is
    the one it has at that time, found by slot arithmetic; one gather
    scores the vehicle, and it is stable where no action beats that by more
    than the instance's tolerance: ``best <= u + Instance._tol`` is
    ``_decide``'s rule, ``vbest > vcur + tol`` negated, over every profile at
    once (``best`` may be the current action's own value, which never beats
    it).

    The vehicles are scored one after another, and few profiles stay stable
    for all of the first ones.  Once scoring a list of the profiles left
    (``width * (mates + 1)`` codes each, plus one action index per mover)
    costs less than the space, the action indices are listed, and every
    later vehicle is scored the same way on the list alone.  A listing reads
    each mover's indices off one array of the stable profiles' flat indices.
    Each product, sum and comparison is the IEEE operation the kernel makes,
    in the kernel's order, so the set has the kernel's bits.  The check's
    arrays peak at 3-24 bytes per profile (24 where ties keep every profile
    to the last vehicle), so the cap bounds them; listing the equilibria and
    their set come on top, about 200 bytes each for 7 vehicles (400 for 18).
    Time is worst with one mate per depth, two actions each, where a table
    is as large as the mates' space (nested routes on a path: 0.06 s for
    2**18 profiles on a 2-vCPU VM).
    """
    if not is_count(cap):
        raise ValueError(f"cap must be an integer, got {cap!r}")
    times, first = instance._all_times, instance._first
    widths = [len(pens) for pens in instance._pen]
    size = math.prod(widths)
    if size > cap:
        raise ValueError(f"profile space holds {size} profiles, exceeding the cap {cap}")
    movers = [idx for idx, width in enumerate(widths) if width > 1]
    too_many = (
        f"profile space holds {size} profiles, within the cap {cap} but too "
        "many to check as arrays in this memory; lower the cap"
    )
    import numpy as np
    # numpy refuses such shapes with its own error.  A mover has two actions or
    # more, so this also refuses more movers than numpy 2's 64 axes can hold.
    if size > np.iinfo(np.intp).max:
        raise ValueError(too_many)
    users: list[list[int]] = [[] for _ in instance._lengths]
    for j, route in enumerate(instance._routes):
        for e in route:
            users[e].append(j)
    # the walk's product f[n] * d(e), made once per head count and edge
    f = np.array(instance._f)
    saving = [f * d for d in instance._lengths]
    count = np.min_scalar_type(instance.n_vehicles)

    def narrow(columns):
        """Each mover's action indices, in the smallest dtype that fits."""
        return {j: ks.astype(np.min_scalar_type(widths[j] - 1)) for j, ks in zip(movers, columns)}

    def listing(stable):
        """Each mover's action index in every profile ``stable`` marks, one entry
        per profile, read off one array of flat indices one axis at a time."""
        flat = np.flatnonzero(stable)  # a 0-d mask holds one profile and lists no column
        # a bool array of its own, so its byte strides count elements
        return narrow(flat // step % w for step, w in zip(stable.strides, stable.shape))

    try:
        stable = np.ones([widths[idx] for idx in movers], dtype=bool)
        left = size  # profiles stable for every vehicle scored so far
        # each mover's action index in them: along its own axis of the space
        # while ``stable`` masks it, then one entry per listed profile
        cols = narrow(np.indices(stable.shape, sparse=True))
        for axis, idx in enumerate(movers):
            route = instance._routes[idx]
            lo, width = first[idx], widths[idx]
            depth = [0] * len(widths)
            for e in route:
                for j in users[e]:
                    depth[j] += 1
            # vehicle j's actions are the slots first[j] to first[j] + widths[j] - 1
            mates = [j for j in movers if j != idx and lo - widths[j] < first[j] < lo + width]
            at_depth = Counter(depth[j] for j in mates)
            deep = sorted(at_depth)
            ones = [1] * len(deep)
            fixed = np.zeros((len(route) + 1, width, *ones), count)
            for j, d in enumerate(depth):
                if widths[j] == 1 and lo <= first[j] < lo + width:
                    fixed[d, first[j] - lo] += 1
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
            code_type = np.min_scalar_type(table.size)
            stride = (np.array(table.strides) // table.itemsize).astype(code_type)
            if stable is not None and left * (width * (len(mates) + 1) + len(movers)) < size:
                # Few profiles are left: scoring a list of them costs less than the space.
                cols = listing(stable)
                stable = None
            # The codes get the vehicle's own action as a leading axis, and the
            # mates' axes are added last to first, so numpy's loops run long.
            lead = [-1] + [1] * cols[idx].ndim
            code = np.arange(width, dtype=code_type).reshape(lead) * stride[0]
            for j in reversed(mates):
                # the mate's index of the time of each own action, out of its range if none
                theirs = np.arange(lo - first[j], lo - first[j] + width).reshape(lead)
                code = (cols[j] == theirs) * stride[1 + deep.index(depth[j])] + code
            u = table.ravel()[code]
            del table, code  # freed before the next arrays, so memory stays per profile
            best = u.max(0)
            u += instance._tol
            ok = best <= u
            del u, best
            if stable is not None:
                stable &= np.swapaxes(ok, 0, 1 + axis)[0]
                left = int(np.count_nonzero(stable))
            else:
                keep = np.take_along_axis(ok, cols[idx][None], 0)[0]
                cols = {j: ks[keep] for j, ks in cols.items()}
                left = int(np.count_nonzero(keep))
            del ok
        if stable is not None:
            cols = listing(stable)
    except MemoryError:  # numpy's own error would end the CLI in a traceback
        raise ValueError(too_many) from None
    columns = [[times[lo]] * left for lo in first]
    for j, ks in cols.items():
        columns[j] = list(map(game.feasible_actions(instance, j + 1).__getitem__, ks.tolist()))
    return set(zip(*columns))
