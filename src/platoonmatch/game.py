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
exact equality.

The game admits an exact potential: the per-edge saving rate ``f(n)`` is
replaced by its running sum ``r(n) = f(1) + ... + f(n)``, summed over the
edges of each platoon, minus all deviation penalties.  Any unilateral
change in one vehicle's time moves this potential by exactly that
vehicle's utility change.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Iterable, Sequence

from .network import InputError, RoadNetwork, is_count, is_real, nonnegative_float

Profile = Sequence[float]


@dataclass(frozen=True)
class Vehicle:
    """One truck: integer id >= 1, destination, preferred time in its window ``(lo, hi)``."""

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
    It checks that each value is finite and nonnegative and that every sum
    stays finite; a saving sum is at most N * max f * road length.
    """

    k_p: float = 5e-5
    k_t: float = 1.5e-2
    saving: Callable[[int], float] | None = None
    penalty: Callable[[float, float], float] | None = None

    def __post_init__(self):
        for name in ("k_p", "k_t"):  # a float, so that numpy numbers give float sums
            object.__setattr__(self, name, nonnegative_float(name, getattr(self, name)))
        object.__setattr__(self, "_tables", {})  # n -> _saving_tables(self, n)


def _number(value):
    """``float(value)`` for a number under ``is_real``, else ``value`` for the caller to reject."""
    return float(value) if is_real(value) else value


def _saving_tables(params: ModelParams, n: int) -> tuple[tuple[float, ...], ...]:
    """``(f, r, g, dg)`` up to ``n`` members, built once per model object and size
    into ``params._tables``; an error is not kept, so each instance of a bad model
    raises it again.  ``f`` is the saving rate and ``r`` its running sum; ``g[m] =
    m f(m)`` is the total rate of an edge carrying m platoon members and ``dg[m] =
    g(m) - g(m-1)`` the common-utility rate that an edge gains with its m-th member.
    """
    if n in params._tables:
        return params._tables[n]
    f = [0.0] * (n + 1)
    r = [0.0] * (n + 1)
    for m in range(1, n + 1):
        val = params.k_p * (m - 1) / m if params.saving is None else _number(params.saving(m))
        if not (isinstance(val, float) and isfinite(val) and val >= -1e-12):
            raise ValueError(f"saving rate f({m})={val!r} must be finite and >= 0")
        f[m] = val
        r[m] = r[m - 1] + val
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
        for v in self.vehicles:
            if v.destination not in network.routes:
                why = ("destination equals the origin" if v.destination == network.root
                       else "unknown destination")
                raise InputError(v.id, f"vehicle {v.id}: {why} {v.destination!r}")

        self._routes: tuple[tuple[int, ...], ...] = tuple(
            network.routes[v.destination] for v in self.vehicles
        )
        self._lengths = network.edge_lengths
        self._pref: tuple[float, ...] = tuple(float(v.preferred_time) for v in self.vehicles)
        self._all_times: tuple[float, ...] = tuple(sorted(set(self._pref)))
        times = self._all_times
        pen = self.params.penalty
        k_t = self.params.k_t
        actions = []
        pens = []
        worst = 0.0  # the sum of every vehicle's largest penalty
        for v, pref in zip(self.vehicles, self._pref):
            lo, hi = v.window
            acts = times[bisect_left(times, lo):bisect_right(times, hi)]
            # the default penalty's own expression, so the same bits
            row = tuple([k_t * abs(a - pref) for a in acts] if pen is None else
                        [_number(pen(a, pref)) for a in acts])
            for a, p in zip(acts, row):
                if not (isinstance(p, float) and 0.0 <= p < inf):
                    raise ValueError(
                        f"vehicle {v.id}: deviation penalty {p!r} for action {a!r} "
                        "must be finite and >= 0"
                    )
            actions.append(acts)
            pens.append(row)
            worst += max(row)
        self._actions: tuple[tuple[float, ...], ...] = tuple(actions)
        #: ``_pen[idx][k]`` is the deviation penalty of action ``_actions[idx][k]``.
        self._pen: tuple[tuple[float, ...], ...] = tuple(pens)
        self._f, self._r, self._g, self._dg = _saving_tables(self.params, len(self.vehicles))
        # Every saving sum (a utility, the potential, the common utility) is
        # at most N * max(f) * (total edge length), and every penalty sum at
        # most ``worst``; their sum bounds every value the solvers compare.
        # Multiplying N * max(f) first also rejects an infinite g(N).
        top = max(self._f)
        road = sum(self._lengths)
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
        #: ``_alone[idx] = sum f(1) d(e)`` over vehicle ``idx``'s route in route
        #: order: the saving term of every departure time nobody occupies and,
        #: as ``dg(1) = f(1)`` holds bit for bit, the common-utility gain of
        #: joining one.
        f1 = self._f[1]
        lengths = self._lengths
        alone = []
        for route in self._routes:
            total = 0.0
            for e in route:
                total += f1 * lengths[e]
            alone.append(total)
        self._alone: tuple[float, ...] = tuple(alone)

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
    if not 1 <= vehicle_id <= instance.n_vehicles:
        raise ValueError(f"no vehicle with id {vehicle_id}")
    return vehicle_id - 1


def _check_profile(instance: Instance, profile: Profile) -> list[int]:
    """Each entry's index ``k`` in its vehicle's actions, so ``_pen[idx][k]`` is
    its penalty; ValueError for a wrong length or an infeasible entry."""
    if len(profile) != instance.n_vehicles:
        raise ValueError(
            f"profile has {len(profile)} entries for {instance.n_vehicles} vehicles"
        )
    ks = []
    for idx, (t, acts) in enumerate(zip(profile, instance._actions)):
        try:
            k = bisect_left(acts, t)
        except TypeError:  # not orderable against a float, so not an action
            k = len(acts)
        if k == len(acts) or acts[k] != t:
            raise ValueError(
                f"vehicle {idx + 1}: departure time {t!r} is not a feasible action"
            )
        ks.append(k)
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
    """Per-edge head counts of every occupied departure time of one profile.

    ``counts[t][e]`` is the number of vehicles departing at ``t`` whose route
    uses edge ``e``.  A move touches two count lists in O(|route|).  One walk,
    ``scan``, scores every action of a vehicle from them, in O(|route|)
    when the time is occupied and in O(1) when it is not, for its utilities
    and for the cooperative deltas alike.  The solvers, the equilibrium check
    and the reported utilities score vehicles here and nowhere else; the
    reported sums over whole platoons come from ``_edge_sum``.  Every route
    starts on the root's single outgoing edge, so ``counts[t][route[0]]`` is
    the platoon size and a list is dropped once that reaches zero.
    """

    def __init__(self, instance: Instance, profile: Profile):
        self._instance = instance
        self._empty = [0] * len(instance._lengths)
        self.counts: dict[float, list[int]] = {}
        for idx, t in enumerate(profile):
            self._join(idx, t)

    def _join(self, idx: int, t: float) -> None:
        c = self.counts.get(t)
        if c is None:
            c = self.counts[t] = list(self._empty)
        for e in self._instance._routes[idx]:
            c[e] += 1

    def move(self, idx: int, old: float, new: float) -> None:
        """Vehicle ``idx`` switches its departure time from ``old`` to ``new``."""
        route = self._instance._routes[idx]
        c = self.counts[old]
        for e in route:
            c[e] -= 1
        if not c[route[0]]:
            del self.counts[old]
        self._join(idx, new)

    def route_sum(self, idx: int, t: float, table: Sequence[float]) -> float:
        """``sum table[n(e)] * d(e)`` over vehicle ``idx``'s route, in route order,
        where ``n(e)`` is the head count of time ``t`` on edge ``e``."""
        inst = self._instance
        lengths = inst._lengths
        c = self.counts.get(t, self._empty)
        total = 0.0
        for e in inst._routes[idx]:
            total += table[c[e]] * lengths[e]
        return total

    def scan(self, idx: int, cur: float, objective: str) -> tuple[float, float, float | None]:
        """``(vcur, vbest, abest)``: vehicle ``idx``'s value at ``cur`` (its time)
        under ``objective``, the largest value over its other actions (``-inf``
        if none) and the smallest action reaching that.

        An action's value is ``(s - leave) - (p - pen_cur)``, with ``s`` the walk
        ``sum table[n(e)] * d(e)`` over the route counting the vehicle in that
        action's platoon and ``p`` its penalty.  For ``"self"``, ``table`` is
        ``f`` and ``leave = pen_cur = 0.0``: the utility, bit for bit.  Else it
        is ``dg`` and ``leave, pen_cur`` are ``s, p`` at ``cur``: the change in
        the sum of all utilities, since in a platoon the vehicle adds ``dg[n(e)]
        * d(e)`` on each edge of its route.  An unoccupied action reads
        ``Instance._alone`` in O(1): ``table[1]`` is ``f(1)`` bit for bit for both.
        """
        inst = self._instance
        table = inst._f if objective == "self" else inst._dg
        acts = inst._actions[idx]
        pens = inst._pen[idx]
        s_cur = self.route_sum(idx, cur, table)
        p_cur = pens[acts.index(cur)]
        leave, pen_cur = (0.0, 0.0) if objective == "self" else (s_cur, p_cur)
        vcur = (s_cur - leave) - (p_cur - pen_cur)
        lengths = inst._lengths
        route = inst._routes[idx]
        alone = inst._alone[idx]
        counts = self.counts
        vbest, abest = -inf, None
        for a, p in zip(acts, pens):
            if a == cur:
                continue
            c = counts.get(a)
            if c is None:
                s = alone
            else:
                s = 0.0
                for e in route:
                    s += table[c[e] + 1] * lengths[e]
            v = (s - leave) - (p - pen_cur)
            if v > vbest:
                vbest, abest = v, a
        return vcur, vbest, abest


def feasible_actions(instance: Instance, vehicle_id: int) -> tuple[float, ...]:
    """Preferred times of all vehicles that fall inside this vehicle's window.

    Returned in ascending order; always contains the vehicle's own
    preferred time.  Duplicate preferred times collapse to one action.
    """
    return instance._actions[_index_of(instance, vehicle_id)]


def vehicle_utility(instance: Instance, profile: Profile, vehicle_id: int) -> float:
    """Platooning saving along the vehicle's route minus its deviation penalty."""
    ks = _check_profile(instance, profile)
    idx = _index_of(instance, vehicle_id)
    saving = _PlatoonState(instance, profile).route_sum(idx, profile[idx], instance._f)
    return saving - instance._pen[idx][ks[idx]]


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
    total = _edge_sum(instance, _groups(profile), instance._r)
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
    ks = _check_profile(instance, profile)
    groups = _groups(profile)
    state = _PlatoonState(instance, profile)
    f = instance._f
    utilities = tuple(
        state.route_sum(idx, t, f) - pens[k]
        for idx, (t, pens, k) in enumerate(zip(profile, instance._pen, ks))
    )
    partition = tuple(
        (t, tuple(j + 1 for j in members)) for t, members in sorted(groups.items())
    )
    return Outcome(
        partition=partition,
        utilities=utilities,
        potential=potential(instance, profile),
        total_fuel_saving=_edge_sum(instance, groups, instance._g),
        nonplatooning_fraction=_lone_share(profile),
    )
