"""Independent reference computations used as oracles by the test modules.

Everything here works from raw edge lists and vehicle tuples, recomputing
paths and per-edge head counts from scratch on every call.  Nothing is
shared with the library's evaluation code, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math

from platoonmatch import Instance, ModelParams, RoadNetwork, Vehicle, feasible_actions


def ref_path(edges, root, dest):
    """Root-to-dest edge list recovered by walking parent links."""
    parents = {h: t for t, h, _ in edges}
    out = []
    node = dest
    while node != root:
        out.append((parents[node], node))
        node = parents[node]
    out.reverse()
    return out


def ref_utility(edges, root, vehicles, profile, i, k_p=5e-5, k_t=1.5e-2):
    """Direct evaluation: per edge of i's path, count same-time vehicles on it."""
    lengths = {(t, h): d for t, h, d in edges}
    dest_i, pref_i = vehicles[i]
    saving = 0.0
    for e in ref_path(edges, root, dest_i):
        n = sum(
            1
            for j, (dest_j, _) in enumerate(vehicles)
            if profile[j] == profile[i] and e in ref_path(edges, root, dest_j)
        )
        saving += k_p * (n - 1) / n * lengths[e]
    return saving - k_t * abs(profile[i] - pref_i)


def ref_penalty(params, chosen, preferred):
    """Cost of departing at ``chosen`` instead of ``preferred``: the model's
    custom penalty when it has one, else ``k_t * |chosen - preferred|``."""
    if params.penalty is not None:
        return float(params.penalty(chosen, preferred))
    return params.k_t * abs(chosen - preferred)


def ref_coop(edges, root, vehicles, profile, k_p=5e-5, k_t=1.5e-2):
    return sum(
        ref_utility(edges, root, vehicles, profile, i, k_p, k_t)
        for i in range(len(vehicles))
    )


def ref_action_sets(vehicles, halfwidths):
    """Feasible sets from first principles: preferred times inside each window."""
    times = sorted({pref for _, pref in vehicles})
    out = []
    for (_, pref), h in zip(vehicles, halfwidths):
        out.append(tuple(t for t in times if pref - h <= t <= pref + h))
    return out


def ref_coop_argmax(edges, root, vehicles, action_sets, k_p=5e-5, k_t=1.5e-2):
    """Brute-force maximum of the summed utility over the whole profile space."""
    best_val, best_profiles = None, []
    for s in itertools.product(*action_sets):
        v = ref_coop(edges, root, vehicles, s, k_p, k_t)
        if best_val is None or v > best_val + 1e-12:
            best_val, best_profiles = v, [s]
        elif abs(v - best_val) <= 1e-12:
            best_profiles.append(s)
    return best_val, best_profiles


def ref_coop_dp(edges, root, vehicles, action_sets, k_p=5e-5, k_t=1.5e-2):
    """Exact maximum of the summed utility by the coalition DP (Yeh 1986).

    A block ``S`` of vehicles departing together is worth ``v(S)``: the sum of
    ``g(n_S(e)) d(e)`` over the edges its members use, where ``g(n) = k_p (n - 1)``
    is the total saving rate of an edge carrying n of them, minus the least
    summed penalty over the times feasible for every member (-inf if there is
    none).  ``best[m]`` is the best split of the vehicle set ``m`` into blocks,
    over the blocks holding m's lowest vehicle: 3^N / 2 steps.  Two blocks may
    take the same time, which is no profile; but ``g`` is superadditive, so
    merging them never lowers the value, and the optimum is a profile's.
    """
    lengths = {(t, h): d for t, h, d in edges}
    paths = [set(ref_path(edges, root, dest)) for dest, _ in vehicles]
    n = len(vehicles)
    value = [-math.inf] * (1 << n)
    for block in range(1, 1 << n):
        members = [i for i in range(n) if block >> i & 1]
        times = set.intersection(*(set(action_sets[i]) for i in members))
        if not times:
            continue
        saving = 0.0
        for e, d in lengths.items():
            heads = sum(1 for i in members if e in paths[i])
            if heads:
                saving += k_p * (heads - 1) * d
        penalty = min(sum(k_t * abs(t - vehicles[i][1]) for i in members) for t in times)
        value[block] = saving - penalty
    best = [0.0] + [-math.inf] * ((1 << n) - 1)
    for m in range(1, 1 << n):
        low = m & -m
        rest = m ^ low
        sub = rest
        while True:  # every subset of the rest, each with the lowest vehicle
            block = sub | low
            best[m] = max(best[m], value[block] + best[m ^ block])
            if not sub:
                break
            sub = (sub - 1) & rest
    return best[-1]


def random_tree_edges(rng, max_nodes=10):
    """Random rooted tree with a degree-one root: v2 hangs off v1, the rest
    attach uniformly to any non-root node already present."""
    n_nodes = int(rng.integers(2, max_nodes + 1))
    edges = [("v1", "v2", float(rng.integers(1_000, 200_000)))]
    for k in range(3, n_nodes + 1):
        parent = f"v{int(rng.integers(2, k))}"
        edges.append((parent, f"v{k}", float(rng.integers(1_000, 200_000))))
    return edges


def random_instance(
    rng, max_nodes=10, max_vehicles=8, alpha_hi=2000.0, params=None, max_halfwidth=1000.0
):
    """Random tree, destinations, preferred times, and windows.

    Window half-widths are drawn from ``[50, max_halfwidth]`` seconds.
    """
    edges = random_tree_edges(rng, max_nodes)
    net = RoadNetwork(edges, "v1")
    pool = sorted(net.nodes - {"v1"})
    n = int(rng.integers(1, max_vehicles + 1))
    alpha = float(rng.uniform(0.0, alpha_hi))
    h = float(rng.uniform(50.0, max_halfwidth))
    vehicles = []
    for i in range(n):
        t = float(rng.uniform(0.0, alpha))
        vehicles.append(
            Vehicle(
                id=i + 1,
                destination=pool[int(rng.integers(0, len(pool)))],
                preferred_time=t,
                window=(t - h, t + h),
            )
        )
    return Instance(net, vehicles, params or ModelParams())


def all_actions(instance):
    """Every vehicle's feasible actions, in id order."""
    return [feasible_actions(instance, v.id) for v in instance.vehicles]


def random_profile(instance, rng):
    return tuple(
        acts[int(rng.integers(0, len(acts)))] for acts in all_actions(instance)
    )


def custom_params():
    """The asymmetric-penalty, saturating-saving model of test_game.py."""
    return ModelParams(
        k_p=5e-5,
        k_t=1.5e-2,
        saving=lambda n: 0.01 * (1 - 1 / (n + 1)) if n > 1 else 0.0,
        penalty=lambda chosen, pref: 0.02 * (chosen - pref)
        if chosen >= pref
        else 0.005 * (pref - chosen),
    )


def lone_saving_params():
    """A model where a lone truck saves too (``f(1) > 0``), so every departure
    time nobody occupies has a nonzero saving term."""
    return ModelParams(saving=lambda n: 0.002 + 0.003 * (n - 1) / n)


# ---------------------------------------------------------------------------
# Full-recompute solvers: the evaluation code the library used before its
# incremental platoon-state kernel, kept as a differential oracle.  Every
# candidate action is scored by re-evaluating the whole profile, and the
# objective trace sums in the library's reported order (platoons by first
# appearance, edges by first appearance within a platoon, then penalties).
# A gain counts when it exceeds the instance's tolerance, ``Instance._tol``.


def _groups(profile):
    out = {}
    for idx, t in enumerate(profile):
        out.setdefault(t, []).append(idx)
    return out


def _platoon_edge_counts(instance, members):
    counts = {}
    for j in members:
        for e in instance._routes[j]:
            counts[e] = counts.get(e, 0) + 1
    return counts


def _saving_for_member(instance, idx, members):
    f = instance._f
    lengths = instance._lengths
    total = 0.0
    for e in instance._routes[idx]:
        n = 0
        for j in members:
            if e in instance._routes[j]:
                n += 1
        total += f[n] * lengths[e]
    return total


def ref_potential(instance, profile):
    r = instance._r
    lengths = instance._lengths
    total = 0.0
    for members in _groups(profile).values():
        for e, n in _platoon_edge_counts(instance, members).items():
            total += r[n] * lengths[e]
    pen = functools.partial(ref_penalty, instance.params)
    for idx, t in enumerate(profile):
        total -= pen(t, instance._pref[idx])
    return total


def ref_cooperative(instance, profile):
    f = instance._f
    lengths = instance._lengths
    total = 0.0
    for members in _groups(profile).values():
        for e, n in _platoon_edge_counts(instance, members).items():
            total += n * f[n] * lengths[e]
    pen = functools.partial(ref_penalty, instance.params)
    penalties = 0.0
    for idx, t in enumerate(profile):
        penalties += pen(t, instance._pref[idx])
    return total - penalties


def ref_candidate_values(instance, profile, idx, objective):
    """Objective value for each feasible action of vehicle ``idx``, in action order."""
    actions = feasible_actions(instance, idx + 1)
    if objective == "self":
        others = {}
        for j, t in enumerate(profile):
            if j != idx:
                others.setdefault(t, []).append(j)
        pen = functools.partial(ref_penalty, instance.params)
        pref = instance._pref[idx]
        vals = []
        for a in actions:
            members = others.get(a)
            members = members + [idx] if members else [idx]
            vals.append(_saving_for_member(instance, idx, members) - pen(a, pref))
        return vals
    trial = list(profile)
    vals = []
    for a in actions:
        trial[idx] = a
        vals.append(ref_cooperative(instance, trial))
    return vals


def ref_pick(actions, values, current, tol):
    """Keep the current action unless beaten by more than ``tol``, else the
    smallest action attaining the maximum; the comparison is ``ref_is_nash``'s."""
    vmax = max(values)
    if vmax > values[actions.index(current)] + tol:
        return next(a for a, v in zip(actions, values) if v == vmax)
    return current


def ref_sweep_solve(instance, objective, start=None):
    """(final, rounds, history, objective_trace) of ascending-id sweeps."""
    metric = ref_potential if objective == "self" else ref_cooperative
    s = list(instance._pref if start is None else start)
    history = [tuple(s)]
    trace = [metric(instance, s)]
    rounds = 0
    while True:
        changed = False
        for idx in range(instance.n_vehicles):
            a = ref_pick(
                feasible_actions(instance, idx + 1),
                ref_candidate_values(instance, s, idx, objective),
                s[idx],
                instance._tol,
            )
            if a != s[idx]:
                s[idx] = a
                changed = True
        rounds += 1
        history.append(tuple(s))
        trace.append(metric(instance, s))
        if not changed:
            return tuple(s), rounds, history, trace


def ref_is_nash(instance, profile, tol=None):
    """No vehicle gains more than ``tol``, by default the instance's tolerance."""
    tol = instance._tol if tol is None else tol
    groups = _groups(profile)
    pen = functools.partial(ref_penalty, instance.params)
    for idx in range(instance.n_vehicles):
        cur = profile[idx]
        pref = instance._pref[idx]
        cur_val = _saving_for_member(instance, idx, groups[cur]) - pen(cur, pref)
        for a in feasible_actions(instance, idx + 1):
            if a == cur:
                continue
            members = groups.get(a)
            members = members + [idx] if members else [idx]
            val = _saving_for_member(instance, idx, members) - pen(a, pref)
            if val > cur_val + tol:
                return False
    return True


def ref_brute_force_nash(instance):
    return {
        s for s in itertools.product(*all_actions(instance)) if ref_is_nash(instance, s)
    }
