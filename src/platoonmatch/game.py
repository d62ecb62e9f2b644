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

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Iterable, Sequence

from .network import RoadNetwork

Profile = Sequence[float]


@dataclass(frozen=True)
class Vehicle:
    """One truck: destination, preferred departure time, departure window."""

    id: int
    destination: str
    preferred_time: float
    window: tuple[float, float]

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"vehicle id must be >= 1, got {self.id}")
        lo, hi = self.window
        if not (isfinite(lo) and isfinite(hi) and isfinite(self.preferred_time)):
            raise ValueError(f"vehicle {self.id}: non-finite time bounds")
        if not lo <= self.preferred_time <= hi:
            raise ValueError(
                f"vehicle {self.id}: preferred time {self.preferred_time} "
                f"outside window [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class ModelParams:
    """Saving and penalty model.

    ``saving_rate(n)`` is the per-member, per-meter monetary saving of an
    n-vehicle platoon; by default ``k_p * (n - 1) / n``, which shares the
    followers' saving equally so a lone vehicle gains nothing.
    ``deviation_penalty(chosen, preferred)`` is the cost of departing at
    ``chosen`` instead of ``preferred``; by default ``k_t * |chosen - preferred|``.
    Custom callables may replace either; a custom saving function must come
    with an explicit ``f_max`` bound, and a custom penalty must be finite and
    nonnegative on every feasible action (``Instance`` checks).
    """

    k_p: float = 5e-5
    k_t: float = 1.5e-2
    saving: Callable[[int], float] | None = None
    penalty: Callable[[float, float], float] | None = None
    f_max: float | None = None

    def __post_init__(self):
        if not (isfinite(self.k_p) and self.k_p >= 0):
            raise ValueError(f"k_p must be finite and >= 0, got {self.k_p}")
        if not (isfinite(self.k_t) and self.k_t >= 0):
            raise ValueError(f"k_t must be finite and >= 0, got {self.k_t}")
        if self.saving is not None and self.f_max is None:
            raise ValueError("a custom saving function requires an explicit f_max")
        if self.f_max is not None and not (isfinite(self.f_max) and self.f_max >= 0):
            raise ValueError(f"f_max must be finite and >= 0, got {self.f_max}")

    def saving_rate(self, n: int) -> float:
        if self.saving is not None:
            return float(self.saving(n))
        return self.k_p * (n - 1) / n if n > 0 else 0.0

    def deviation_penalty(self, chosen: float, preferred: float) -> float:
        if self.penalty is not None:
            return float(self.penalty(chosen, preferred))
        return self.k_t * abs(chosen - preferred)

    def saving_bound(self) -> float:
        return self.k_p if self.f_max is None else self.f_max


class Instance:
    """An immutable problem instance: network, vehicles, model parameters.

    Vehicle ids must be 1..N in list order; profiles are indexed the same
    way.  Construction precomputes routes, feasible action sets with their
    deviation penalties, and the saving-rate tables used by every
    evaluation, so evaluation functions stay cheap inside solver loops.
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
            if v.destination not in network.nodes:
                raise ValueError(f"vehicle {v.id}: unknown destination {v.destination!r}")
            if v.destination == network.root:
                raise ValueError(
                    f"vehicle {v.id}: destination equals the origin {network.root!r}"
                )

        self._routes: tuple[tuple[int, ...], ...] = tuple(
            network.route_indices(v.destination) for v in self.vehicles
        )
        self._lengths = network.edge_lengths
        self._pref: tuple[float, ...] = tuple(float(v.preferred_time) for v in self.vehicles)
        self._all_times: tuple[float, ...] = tuple(sorted(set(self._pref)))
        actions = []
        pens = []
        for v, pref in zip(self.vehicles, self._pref):
            lo, hi = v.window
            acts = tuple(t for t in self._all_times if lo <= t <= hi)
            row = tuple(self.params.deviation_penalty(a, pref) for a in acts)
            for a, p in zip(acts, row):
                if not (isfinite(p) and p >= 0):
                    raise ValueError(
                        f"vehicle {v.id}: deviation penalty {p!r} for action {a!r} "
                        "must be finite and >= 0"
                    )
            actions.append(acts)
            pens.append(row)
        self._actions: tuple[tuple[float, ...], ...] = tuple(actions)
        self._action_sets = tuple(frozenset(a) for a in actions)
        #: ``_pen[idx][k]`` is the deviation penalty of action ``_actions[idx][k]``.
        self._pen: tuple[tuple[float, ...], ...] = tuple(pens)

        n = len(self.vehicles)
        bound = self.params.saving_bound()
        f_tab = [0.0] * (n + 1)
        for m in range(1, n + 1):
            val = self.params.saving_rate(m)
            if not (isfinite(val) and -1e-12 <= val <= bound + 1e-12):
                raise ValueError(
                    f"saving rate f({m})={val!r} outside [0, f_max={bound}]"
                )
            f_tab[m] = val
        r_tab = [0.0] * (n + 1)
        dg_tab = [0.0] * (n + 1)
        for m in range(1, n + 1):
            r_tab[m] = r_tab[m - 1] + f_tab[m]
            dg_tab[m] = m * f_tab[m] - (m - 1) * f_tab[m - 1]
        self._f: tuple[float, ...] = tuple(f_tab)
        self._r: tuple[float, ...] = tuple(r_tab)
        #: ``_dg[m] = g(m) - g(m-1)``, where ``g(m) = m f(m)`` is the total
        #: saving rate of an edge carrying m platoon members: ``_dg[m] * d(e)``
        #: is the common-utility change when edge ``e`` gains its m-th member.
        self._dg: tuple[float, ...] = tuple(dg_tab)

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


def _check_profile(instance: Instance, profile: Profile) -> None:
    if len(profile) != instance.n_vehicles:
        raise ValueError(
            f"profile has {len(profile)} entries for {instance.n_vehicles} vehicles"
        )
    for idx, (t, allowed) in enumerate(zip(profile, instance._action_sets)):
        if t not in allowed:
            raise ValueError(
                f"vehicle {idx + 1}: departure time {t!r} is not a feasible action"
            )


def _groups(profile: Profile) -> dict[float, list[int]]:
    out: dict[float, list[int]] = {}
    for idx, t in enumerate(profile):
        out.setdefault(t, []).append(idx)
    return out


def _platoon_edge_counts(instance: Instance, members: Iterable[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for j in members:
        for e in instance._routes[j]:
            counts[e] = counts.get(e, 0) + 1
    return counts


class _PlatoonState:
    """Per-edge head counts of every occupied departure time of one profile.

    ``counts[t][e]`` is the number of vehicles departing at ``t`` whose route
    uses edge ``e``.  A move touches two count lists in O(|route|), and each
    candidate action of a vehicle is scored in O(|route|) from them: this is
    the one evaluation path of the solvers and the equilibrium check.  Every
    route starts on the root's single outgoing edge, so ``counts[t][route[0]]``
    is the platoon size and a list is dropped once that reaches zero.
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

    def route_sum(self, idx: int, t: float, table: Sequence[float], joining: bool) -> float:
        """``sum table[n(e)] * d(e)`` over vehicle ``idx``'s route, in route order.

        ``n(e)`` is the head count of time ``t`` on edge ``e``, plus one when
        the vehicle is ``joining`` that time rather than already in it.
        """
        inst = self._instance
        lengths = inst._lengths
        c = self.counts.get(t, self._empty)
        total = 0.0
        for e in inst._routes[idx]:
            total += table[c[e] + joining] * lengths[e]
        return total

    def selfish_values(self, idx: int, cur: float) -> list[float]:
        """Utility of vehicle ``idx`` (now at ``cur``) for each of its actions."""
        inst = self._instance
        f = inst._f
        return [
            self.route_sum(idx, a, f, a != cur) - p
            for a, p in zip(inst._actions[idx], inst._pen[idx])
        ]

    def coop_values(self, idx: int, cur: float) -> list[float]:
        """Change in the sum of all utilities if vehicle ``idx`` moved from
        ``cur`` to each of its actions; exactly 0.0 at ``cur``."""
        inst = self._instance
        dg = inst._dg
        actions = inst._actions[idx]
        pens = inst._pen[idx]
        leave = self.route_sum(idx, cur, dg, False)
        pen_cur = pens[actions.index(cur)]
        return [
            0.0 if a == cur else self.route_sum(idx, a, dg, True) - leave - (p - pen_cur)
            for a, p in zip(actions, pens)
        ]


def feasible_actions(instance: Instance, vehicle_id: int) -> tuple[float, ...]:
    """Preferred times of all vehicles that fall inside this vehicle's window.

    Returned in ascending order; always contains the vehicle's own
    preferred time.  Duplicate preferred times collapse to one action.
    """
    return instance._actions[_index_of(instance, vehicle_id)]


def platoon_partition(
    instance: Instance, profile: Profile
) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Group vehicles by identical chosen time; singletons travel alone."""
    _check_profile(instance, profile)
    groups = _groups(profile)
    return tuple(
        (t, tuple(j + 1 for j in members)) for t, members in sorted(groups.items())
    )


def vehicle_utility(instance: Instance, profile: Profile, vehicle_id: int) -> float:
    """Platooning saving along the vehicle's route minus its deviation penalty."""
    _check_profile(instance, profile)
    idx = _index_of(instance, vehicle_id)
    t = profile[idx]
    values = _PlatoonState(instance, profile).selfish_values(idx, t)
    return values[instance._actions[idx].index(t)]


def potential(instance: Instance, profile: Profile) -> float:
    """Exact potential of the profile.

    Sums ``r(n(e, C)) * d(e)`` over each platoon's edges, where ``r`` is the
    running sum of the saving rate (``r(0) = 0``, ``r(n) - r(n-1) = f(n)``),
    minus every vehicle's deviation penalty.  A unilateral deviation changes
    this by exactly the deviating vehicle's utility change.
    """
    _check_profile(instance, profile)
    r = instance._r
    lengths = instance._lengths
    total = 0.0
    for members in _groups(profile).values():
        for e, n in _platoon_edge_counts(instance, members).items():
            total += r[n] * lengths[e]
    pen = instance.params.deviation_penalty
    pref = instance._pref
    for idx, t in enumerate(profile):
        total -= pen(t, pref[idx])
    return total


def _total_saving_unchecked(instance: Instance, profile: Profile) -> float:
    f = instance._f
    lengths = instance._lengths
    total = 0.0
    for members in _groups(profile).values():
        for e, n in _platoon_edge_counts(instance, members).items():
            total += n * f[n] * lengths[e]
    return total


def cooperative_utility(instance: Instance, profile: Profile) -> float:
    """Common objective of the cooperative variant: the sum of all utilities."""
    _check_profile(instance, profile)
    pen = instance.params.deviation_penalty
    pref = instance._pref
    penalties = 0.0
    for idx, t in enumerate(profile):
        penalties += pen(t, pref[idx])
    return _total_saving_unchecked(instance, profile) - penalties


def total_fuel_saving(instance: Instance, profile: Profile) -> float:
    """Total platooning saving in liters (penalties excluded, 1 dollar = 1 liter)."""
    _check_profile(instance, profile)
    return _total_saving_unchecked(instance, profile)


def nonplatooning_fraction(instance: Instance, profile: Profile) -> float:
    """Share of vehicles whose chosen time nobody else picked."""
    _check_profile(instance, profile)
    singles = sum(1 for members in _groups(profile).values() if len(members) == 1)
    return singles / instance.n_vehicles


def evaluate(instance: Instance, profile: Profile) -> Outcome:
    """Partition, per-vehicle utilities, potential, and summary metrics."""
    _check_profile(instance, profile)
    groups = _groups(profile)
    f = instance._f
    r = instance._r
    lengths = instance._lengths
    pen = instance.params.deviation_penalty
    pref = instance._pref

    utilities = [0.0] * instance.n_vehicles
    pot = 0.0
    saving_total = 0.0
    singles = 0
    for members in groups.values():
        counts = _platoon_edge_counts(instance, members)
        for e, n in counts.items():
            pot += r[n] * lengths[e]
            saving_total += n * f[n] * lengths[e]
        for j in members:
            utilities[j] = sum(f[counts[e]] * lengths[e] for e in instance._routes[j])
        if len(members) == 1:
            singles += 1
    for idx, t in enumerate(profile):
        p = pen(t, pref[idx])
        utilities[idx] -= p
        pot -= p

    partition = tuple(
        (t, tuple(j + 1 for j in members)) for t, members in sorted(groups.items())
    )
    return Outcome(
        partition=partition,
        utilities=tuple(utilities),
        potential=pot,
        total_fuel_saving=saving_total,
        nonplatooning_fraction=singles / instance.n_vehicles,
    )
