"""Vehicles, departure-time strategies, utilities, and outcome metrics.

Each vehicle picks a departure time from the origin.  Vehicles that pick
the same time value travel together and split only where their routes
diverge, so on every edge a vehicle earns the per-meter saving rate for
the number of platoon members still on that edge.  Deviating from the
preferred departure time costs a penalty.

A strategy profile is a plain tuple of departure times, one entry per
vehicle in id order.  Feasible times for a vehicle are the preferred times
of all vehicles that fall inside its window, so profiles only ever hold
values copied from the preferred-time set and platoon grouping can use
exact equality.  The distinct preferred times, sorted, are the slots of
``Instance._all_times``; a vehicle's actions are a contiguous run of them,
so inside the library an action is an index into that run.

The game admits an exact potential: the per-edge saving rate ``f(n)`` is
replaced by its running sum ``r(n) = f(1) + ... + f(n)``, summed over the
edges of each platoon, minus all deviation penalties.  Any unilateral
change in one vehicle's time moves this potential by exactly that
vehicle's utility change.
"""

from __future__ import annotations

__all__ = [
    "Instance", "ModelParams", "Outcome", "Vehicle", "cooperative_utility", "evaluate",
    "feasible_actions", "nonplatooning_fraction", "potential", "total_fuel_saving",
    "vehicle_utility",
]

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Iterable, Sequence

from .network import InputError, RoadNetwork, is_count, is_real, nonnegative_float

Profile = Sequence[float]


@dataclass(frozen=True)
class Vehicle:
    """One truck: integer id >= 1, destination, preferred time in its finite window ``(lo, hi)``."""

    id: int
    destination: str
    preferred_time: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (is_count(self.id) and self.id >= 1):
            raise InputError(self.id, f"vehicle id must be an integer >= 1, got {self.id!r}")
        try:
            lo, hi = self.window
        except (TypeError, ValueError):
            raise InputError(self.id, f"vehicle {self.id}: window must be a (lo, hi) pair, "
                             f"got {self.window!r}") from None
        if not (is_real(lo) and is_real(hi) and is_real(self.preferred_time)):
            raise InputError(self.id, f"vehicle {self.id}: non-finite or non-number time bounds: "
                             f"preferred time {self.preferred_time!r}, window ({lo!r}, {hi!r})")
        if not lo <= self.preferred_time <= hi:
            raise InputError(
                self.id,
                f"vehicle {self.id}: preferred time {self.preferred_time} "
                f"outside window [{lo}, {hi}]"
            )
        if not isfinite(float(hi) - float(lo)):  # so no time gap in it overflows
            raise InputError(self.id, f"vehicle {self.id}: window [{lo}, {hi}] is too wide: "
                             "its width hi - lo is not finite")


@dataclass(frozen=True)
class ModelParams:
    """Saving and penalty model.

    ``saving(n)`` is the per-member, per-meter monetary saving of an
    n-vehicle platoon; by default ``k_p * (n - 1) / n``, which shares the
    followers' saving equally so a lone vehicle gains nothing.  Departing at
    ``chosen`` instead of ``preferred`` costs ``penalty(chosen, preferred)``,
    by default ``k_t * |chosen - preferred|``.  ``Instance`` evaluates the
    penalty once per feasible action and the saving once per platoon size up
    to N and model object, whose tables stay on the model outside its fields.
    A custom value must pass ``nonnegative_float``; a default one lies in
    ``[0, inf]``, as windows have a finite width.  Every sum must stay finite,
    which names ``k_p`` or ``k_t`` for an infinite default value; a saving sum
    is at most N * max f * road length.
    """

    k_p: float = 5e-5
    k_t: float = 1.5e-2
    saving: Callable[[int], float] | None = None
    penalty: Callable[[float, float], float] | None = None

    def __post_init__(self):
        for name in ("k_p", "k_t"):  # a float, so that numpy numbers give float sums
            object.__setattr__(self, name, nonnegative_float(name, getattr(self, name)))
        object.__setattr__(self, "_tables", {})  # n -> _saving_tables(self, n)


def _saving_tables(params: ModelParams, n: int) -> tuple[tuple[float, ...], ...]:
    """``(f, r, g, dg)`` up to ``n`` members, built once per model object and size
    into ``params._tables``; an error is not kept, so each instance of a bad model
    raises it again.  ``f`` is the saving rate and ``r`` its running sum; ``g[m] =
    m f(m)`` is the total rate of an edge carrying m platoon members and ``dg[m] =
    g(m) - g(m-1)`` the common-utility rate that an edge gains with its m-th member.
    Only a custom rate is checked here, by ``nonnegative_float``.
    """
    if n in params._tables:
        return params._tables[n]
    f = [0.0] * (n + 1)
    r = [0.0] * (n + 1)
    for m in range(1, n + 1):
        f[m] = (params.k_p * (m - 1) / m if params.saving is None
                else nonnegative_float(f"saving rate f({m})", params.saving(m)))
        r[m] = r[m - 1] + f[m]
    g = tuple(m * val for m, val in enumerate(f))
    dg = (0.0,) + tuple(b - a for a, b in zip(g, g[1:]))
    params._tables[n] = tables = tuple(f), tuple(r), g, dg
    return tables


class Instance:
    """An immutable problem instance: network, vehicles, model parameters.

    Vehicle ids must be 1..N in list order; profiles are indexed the same
    way.  Construction precomputes routes, feasible action sets with their
    deviation penalties, the saving-rate tables used by every evaluation and
    each vehicle's saving when it departs alone, so evaluation functions stay
    cheap inside solver loops.

    ``_tol`` is the instance's tolerance: a vehicle moves only when another
    action beats its current value by more than it (``solvers._decide``).  It
    is ``4 (depth + 2) u B``, with ``u = 2**-53`` the unit roundoff, ``depth``
    the longest route's edge count and ``B = savings + worst`` the bound on
    every value the solvers compare (below).  A value is a route walk of
    ``depth`` rounded products summed from 0.0, then one subtraction for the
    penalty and one for the cooperative delta: at most ``n = depth + 2``
    roundings of numbers bounded by ``B``, so its error is at most
    ``gamma_n B`` with ``gamma_n = n u / (1 - n u) <= 2 n u`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 4.2).  Two
    values are compared, so a gain within ``2 gamma_n B <= _tol`` may be
    rounding alone.  It scales with the money unit, so a change of unit by a
    power of two changes no decision.
    """

    def __init__(
        self,
        network: RoadNetwork,
        vehicles: Iterable[Vehicle],
        params: ModelParams | None = None,
    ):
        self.network = network
        self.vehicles: tuple[Vehicle, ...] = tuple(vehicles)
        self.params = params if params is not None else ModelParams()
        if not self.vehicles:
            raise ValueError("an instance needs at least one vehicle")
        ids = [v.id for v in self.vehicles]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"vehicle ids must be 1..N in order, got {ids}")
        self._lengths = lengths = network.edge_lengths
        self._pref: tuple[float, ...] = tuple(float(v.preferred_time) for v in self.vehicles)
        self._all_times: tuple[float, ...] = tuple(sorted(set(self._pref)))
        times = self._all_times
        self._f, self._r, self._g, self._dg = _saving_tables(self.params, len(self.vehicles))
        f1 = self._f[1]
        pen = self.params.penalty
        k_t = self.params.k_t
        routes, firsts, pens, alone = [], [], [], []
        worst = 0.0  # the sum of every vehicle's largest penalty
        for v, pref in zip(self.vehicles, self._pref):
            # every key of ``routes`` is a string, so no other value is a destination
            route = network.routes.get(v.destination) if isinstance(v.destination, str) else None
            if route is None:
                why = ("destination equals the origin" if v.destination == network.root
                       else "unknown destination")
                raise InputError(v.id, f"vehicle {v.id}: {why} {v.destination!r}")
            lo, hi = v.window
            first = bisect_left(times, lo)
            acts = times[first:bisect_right(times, hi)]
            # the default penalty's own expression, so the same bits
            row = tuple([k_t * abs(a - pref) for a in acts] if pen is None else [
                nonnegative_float(f"vehicle {v.id}: deviation penalty for action {a!r}",
                                  pen(a, pref)) for a in acts])
            total = 0.0
            for e in route:
                total += f1 * lengths[e]
            routes.append(route)
            firsts.append(first)
            pens.append(row)
            alone.append(total)
            worst += max(row)
        self._routes: tuple[tuple[int, ...], ...] = tuple(routes)
        #: Vehicle ``idx``'s actions are the slots ``_first[idx]`` to ``_first[idx] +
        #: len(_pen[idx]) - 1`` of ``_all_times``: its action ``k`` departs at
        #: ``_all_times[_first[idx] + k]`` and costs the penalty ``_pen[idx][k]``.
        self._first: tuple[int, ...] = tuple(firsts)
        self._pen: tuple[tuple[float, ...], ...] = tuple(pens)
        #: ``_alone[idx] = sum f(1) d(e)`` over vehicle ``idx``'s route in route
        #: order: the saving term of every departure time nobody occupies and,
        #: as ``dg(1) = f(1)`` holds bit for bit, the common-utility gain of
        #: joining one.
        self._alone: tuple[float, ...] = tuple(alone)
        # Every saving sum (a utility, the potential, the common utility) is
        # at most N * max(f) * (total edge length), and every penalty sum at
        # most ``worst``; their sum bounds every value the solvers compare.
        # Multiplying N * max(f) first also rejects an infinite g(N), and an
        # infinite default rate or penalty is rejected here as ``k_p`` or ``k_t``.
        top = max(self._f)
        road = network.road_length
        savings = len(self.vehicles) * top * road
        if not isfinite(savings):
            why = f"{len(self.vehicles)} vehicles x max f {top!r} x {road!r} m of road is not finite"
            if self.params.saving is None:
                raise InputError("k_p", f"k_p {self.params.k_p!r} overflows the saving sums: {why}")
            raise ValueError(f"the custom saving overflows the saving sums: {why}")
        if not isfinite(savings + worst):
            why = (
                f"the largest penalties of the {len(self.vehicles)} vehicles sum to "
                f"{worst!r}, which with saving sums up to {savings!r} is not finite"
            )
            if pen is None:
                raise InputError("k_t", f"k_t {k_t!r} overflows the penalty sums: {why}")
            raise ValueError(f"the custom deviation penalty overflows the penalty sums: {why}")
        depth = max(map(len, routes))
        self._tol = 4 * (depth + 2) * 2.0**-53 * (savings + worst)

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    @property
    def preferred_profile(self) -> tuple[float, ...]:
        """The profile where every vehicle departs at its preferred time."""
        return self._pref

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.network == other.network
            and self.vehicles == other.vehicles
            and self.params == other.params
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Instance({self.n_vehicles} vehicles on {self.network!r})"


@dataclass(frozen=True)
class Outcome:
    """Everything worth reporting about one strategy profile."""

    partition: tuple[tuple[float, tuple[int, ...]], ...]
    utilities: tuple[float, ...]
    potential: float
    total_fuel_saving: float
    nonplatooning_fraction: float


def _index_of(instance: Instance, vehicle_id: int) -> int:
    if not (is_count(vehicle_id) and 1 <= vehicle_id <= instance.n_vehicles):
        raise ValueError(f"no vehicle with id {vehicle_id!r}")
    return vehicle_id - 1


def _check_profile(instance: Instance, profile: Profile) -> list[int]:
    """Each entry's action index ``k``: it departs at slot ``_first[idx] + k`` of
    ``_all_times`` and costs ``_pen[idx][k]``.  ValueError for a wrong length or
    an entry equal to none of its vehicle's actions or not a real number (a
    bool is none, as ``is_real`` says).  The one place a time is
    mapped: a bisect in ``_all_times`` bounded to the vehicle's slots.  Every
    entry point calls it once per profile, directly or by building a
    ``_PlatoonState``, which keeps the indices for the scoring after it.
    """
    if len(profile) != instance.n_vehicles:
        raise ValueError(f"profile has {len(profile)} entries for {instance.n_vehicles} vehicles")
    times = instance._all_times
    ks = []
    for idx, (t, lo, pens) in enumerate(zip(profile, instance._first, instance._pen)):
        hi = lo + len(pens)
        # no bool or non-number is a time; a float skips the call, as inf and nan match none
        slot = bisect_left(times, t, lo, hi) if type(t) is float or is_real(t) else hi
        if slot == hi or times[slot] != t:
            raise ValueError(f"vehicle {idx + 1}: departure time {t!r} is not a feasible action")
        ks.append(slot - lo)
    return ks


def _groups(profile: Profile) -> dict[float, list[int]]:
    out: dict[float, list[int]] = {}
    for idx, t in enumerate(profile):
        out.setdefault(t, []).append(idx)
    return out


def _lone_share(profile: Profile) -> float:
    """Share of the profile's vehicles whose time nobody else picked."""
    return sum(1 for n in Counter(profile).values() if n == 1) / len(profile)


class _PlatoonState:
    """One profile and the per-edge head counts of its occupied departure times.

    Built from a profile, which it maps once through ``_check_profile``; it
    owns what it scores: ``ks``, each vehicle's action index, ``times``, its
    departure time (the entries as given until the vehicle moves), and
    ``counts``.  Its methods take and return action indices and read each
    vehicle's current action from ``ks``; no caller keeps one beside it.
    ``counts[slot][e]`` is the number of vehicles departing at
    ``_all_times[slot]`` whose route uses edge ``e``, and ``counts[slot]`` is
    ``None`` where nobody departs.  A move touches two count lists in
    O(|route|).  One walk, ``scan``, scores every action of a vehicle from
    them, in O(|route|) when the time is occupied and in O(1) when it is
    not, for its utilities and for the cooperative deltas alike.  The
    solvers, the equilibrium check and the reported utilities score vehicles
    here and nowhere else; the reported sums over whole platoons come from
    ``_edge_sum``.  Every route starts on the root's single outgoing edge, so
    ``counts[slot][route[0]]`` is the platoon size and a list is dropped once
    that reaches zero.
    """

    def __init__(self, instance: Instance, profile: Profile):
        self._instance = instance
        self.ks = _check_profile(instance, profile)
        self.times = list(profile)
        self._empty = [0] * len(instance._lengths)
        self.counts: list[list[int] | None] = [None] * len(instance._all_times)
        for idx, k in enumerate(self.ks):
            self._add(idx, k, 1)

    def _add(self, idx: int, k: int, step: int) -> None:
        """Add ``step`` to the head counts of vehicle ``idx``'s route at its action ``k``."""
        slot = self._instance._first[idx] + k
        c = self.counts[slot]
        if c is None:
            c = self.counts[slot] = list(self._empty)
        route = self._instance._routes[idx]
        for e in route:
            c[e] += step
        if not c[route[0]]:
            self.counts[slot] = None

    def move(self, idx: int, k: int) -> None:
        """Vehicle ``idx`` switches to its action ``k``, departing at its slot's time."""
        inst = self._instance
        self._add(idx, self.ks[idx], -1)
        self._add(idx, k, 1)
        self.ks[idx] = k
        self.times[idx] = inst._all_times[inst._first[idx] + k]

    def route_sum(self, idx: int, table: Sequence[float]) -> float:
        """``sum table[n(e)] * d(e)`` over vehicle ``idx``'s route, in route order,
        where ``n(e)`` is the head count of its current action on edge ``e``
        (never 0 on the route, the vehicle itself departs there)."""
        inst = self._instance
        lengths = inst._lengths
        c = self.counts[inst._first[idx] + self.ks[idx]]
        total = 0.0
        for e in inst._routes[idx]:
            total += table[c[e]] * lengths[e]
        return total

    def utility(self, idx: int) -> float:
        """Vehicle ``idx``'s saving along its route minus its penalty, at its current action."""
        return self.route_sum(idx, self._instance._f) - self._instance._pen[idx][self.ks[idx]]

    def scan(self, idx: int, objective: str) -> tuple[float, float, int | None]:
        """``(vcur, vbest, kbest)``: vehicle ``idx``'s value at its current action
        under ``objective``, the largest value over its other actions (``-inf``
        if none) and the smallest action index reaching that (``None`` if none).

        An action's value is ``(s - leave) - (p - pen_cur)``, with ``s`` the walk
        ``sum table[n(e)] * d(e)`` over the route counting the vehicle in that
        action's platoon and ``p`` its penalty.  For ``"self"``, ``table`` is
        ``f`` and ``leave = pen_cur = 0.0``: the utility, bit for bit.  Else it
        is ``dg`` and ``leave, pen_cur`` are ``s, p`` at the current action: the
        change in the sum of all utilities, since in a platoon the vehicle adds
        ``dg[n(e)] * d(e)`` on each edge of its route.  An unoccupied action reads
        ``Instance._alone`` in O(1): ``table[1]`` is ``f(1)`` bit for bit for both.
        The loop walks the vehicle's slots of ``counts`` and its penalty row together.
        """
        inst = self._instance
        table = inst._f if objective == "self" else inst._dg
        first = inst._first[idx]
        pens = inst._pen[idx]
        cur = self.ks[idx]
        s_cur = self.route_sum(idx, table)
        p_cur = pens[cur]
        leave, pen_cur = (0.0, 0.0) if objective == "self" else (s_cur, p_cur)
        vcur = (s_cur - leave) - (p_cur - pen_cur)
        lengths = inst._lengths
        route = inst._routes[idx]
        alone = inst._alone[idx]
        counts = self.counts
        here = first + cur
        vbest, best = -inf, None
        for slot, p in enumerate(pens, first):
            if slot == here:
                continue
            c = counts[slot]
            if c is None:
                s = alone
            else:
                s = 0.0
                for e in route:
                    s += table[c[e] + 1] * lengths[e]
            v = (s - leave) - (p - pen_cur)
            if v > vbest:
                vbest, best = v, slot
        return vcur, vbest, None if best is None else best - first


def feasible_actions(instance: Instance, vehicle_id: int) -> tuple[float, ...]:
    """Preferred times of all vehicles that fall inside this vehicle's window.

    Returned in ascending order; always contains the vehicle's own
    preferred time.  Duplicate preferred times collapse to one action.  The
    result is the vehicle's slots of ``Instance._all_times``, so its ``k``-th
    entry is the time of action index ``k``.
    """
    idx = _index_of(instance, vehicle_id)
    first = instance._first[idx]
    return instance._all_times[first:first + len(instance._pen[idx])]


def vehicle_utility(instance: Instance, profile: Profile, vehicle_id: int) -> float:
    """Platooning saving along the vehicle's route minus its deviation penalty."""
    return _PlatoonState(instance, profile).utility(_index_of(instance, vehicle_id))


def _edge_sum(instance: Instance, groups: dict[float, list[int]], table: Sequence[float]) -> float:
    """``sum table[n(e, C)] * d(e)`` over the edges of every platoon ``C``.

    Reported numbers keep this summation order (groups in first-seen order,
    each platoon's edges in first-use order): it fixes their bits.
    """
    lengths = instance._lengths
    total = 0.0
    for members in groups.values():
        counts: dict[int, int] = {}
        for j in members:
            for e in instance._routes[j]:
                counts[e] = counts.get(e, 0) + 1
        for e, n in counts.items():
            total += table[n] * lengths[e]
    return total


def potential(instance: Instance, profile: Profile) -> float:
    """Exact potential of the profile.

    Sums ``r(n(e, C)) * d(e)`` over each platoon's edges, where ``r`` is the
    running sum of the saving rate (``r(0) = 0``, ``r(n) - r(n-1) = f(n)``),
    minus every vehicle's deviation penalty.  A unilateral deviation changes
    this by exactly the deviating vehicle's utility change.
    """
    ks = _check_profile(instance, profile)
    return _potential(instance, _groups(profile), ks)


def _potential(instance: Instance, groups: dict[float, list[int]], ks: Sequence[int]) -> float:
    """``potential`` of the profile with these groups and action indices."""
    total = _edge_sum(instance, groups, instance._r)
    for pens, k in zip(instance._pen, ks):
        total -= pens[k]
    return total


def cooperative_utility(instance: Instance, profile: Profile) -> float:
    """Common objective of the cooperative variant: the sum of all utilities."""
    ks = _check_profile(instance, profile)
    penalties = 0.0
    for pens, k in zip(instance._pen, ks):
        penalties += pens[k]
    return _edge_sum(instance, _groups(profile), instance._g) - penalties


def total_fuel_saving(instance: Instance, profile: Profile) -> float:
    """Total platooning saving in liters (penalties excluded, 1 dollar = 1 liter)."""
    _check_profile(instance, profile)
    return _edge_sum(instance, _groups(profile), instance._g)


def nonplatooning_fraction(instance: Instance, profile: Profile) -> float:
    """Share of vehicles whose chosen time nobody else picked."""
    _check_profile(instance, profile)
    return _lone_share(profile)


def evaluate(instance: Instance, profile: Profile) -> Outcome:
    """Partition, per-vehicle utilities, potential, and summary metrics."""
    state = _PlatoonState(instance, profile)
    groups = _groups(profile)
    partition = tuple(
        (t, tuple(j + 1 for j in members)) for t, members in sorted(groups.items())
    )
    return Outcome(
        partition=partition,
        utilities=tuple(state.utility(idx) for idx in range(instance.n_vehicles)),
        potential=_potential(instance, groups, state.ks),
        total_fuel_saving=_edge_sum(instance, groups, instance._g),
        nonplatooning_fraction=_lone_share(profile),
    )
