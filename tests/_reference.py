"""Independent reference computations used as oracles by the test modules.

Everything here works from raw edge lists and vehicle tuples, recomputing
paths and per-edge head counts from scratch on every call.  Nothing is
shared with the library's evaluation code, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import itertools

from platoonmatch import Instance, ModelParams, Vehicle, build_network


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


def random_tree_edges(rng, max_nodes=10):
    """Random rooted tree with a degree-one root: v2 hangs off v1, the rest
    attach uniformly to any non-root node already present."""
    n_nodes = int(rng.integers(2, max_nodes + 1))
    edges = [("v1", "v2", float(rng.integers(1_000, 200_000)))]
    for k in range(3, n_nodes + 1):
        parent = f"v{int(rng.integers(2, k))}"
        edges.append((parent, f"v{k}", float(rng.integers(1_000, 200_000))))
    return edges


def random_instance(rng, max_nodes=10, max_vehicles=8, alpha_hi=2000.0, params=None):
    """Random tree, destinations, preferred times, and windows."""
    edges = random_tree_edges(rng, max_nodes)
    nodes = {t for t, _, _ in edges} | {h for _, h, _ in edges}
    net = build_network(nodes, edges, "v1")
    pool = sorted(nodes - {"v1"})
    n = int(rng.integers(1, max_vehicles + 1))
    alpha = float(rng.uniform(0.0, alpha_hi))
    h = float(rng.uniform(50.0, 1000.0))
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


def random_profile(instance, rng):
    return tuple(
        acts[int(rng.integers(0, len(acts)))] for acts in instance._actions
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
        f_max=0.01,
    )


# ---------------------------------------------------------------------------
# Full-recompute solvers: the evaluation code the library used before its
# incremental platoon-state kernel, kept as a differential oracle.  Every
# candidate action is scored by re-evaluating the whole profile, and the
# objective trace sums in the library's reported order (platoons by first
# appearance, edges by first appearance within a platoon, then penalties).

GAIN_EPS = 1e-12


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
    pen = instance.params.deviation_penalty
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
    pen = instance.params.deviation_penalty
    penalties = 0.0
    for idx, t in enumerate(profile):
        penalties += pen(t, instance._pref[idx])
    return total - penalties


def ref_candidate_values(instance, profile, idx, objective):
    """Objective value for each feasible action of vehicle ``idx``, in action order."""
    actions = instance._actions[idx]
    if objective == "self":
        others = {}
        for j, t in enumerate(profile):
            if j != idx:
                others.setdefault(t, []).append(j)
        pen = instance.params.deviation_penalty
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


def ref_pick(actions, values, current):
    """Keep the current action unless beaten by more than GAIN_EPS, else the
    smallest action attaining the maximum."""
    vmax = max(values)
    if values[actions.index(current)] >= vmax - GAIN_EPS:
        return current
    return next(a for a, v in zip(actions, values) if v == vmax)


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
                instance._actions[idx],
                ref_candidate_values(instance, s, idx, objective),
                s[idx],
            )
            if a != s[idx]:
                s[idx] = a
                changed = True
        rounds += 1
        history.append(tuple(s))
        trace.append(metric(instance, s))
        if not changed:
            return tuple(s), rounds, history, trace


def ref_is_nash(instance, profile, tol=GAIN_EPS):
    groups = _groups(profile)
    pen = instance.params.deviation_penalty
    for idx in range(instance.n_vehicles):
        cur = profile[idx]
        pref = instance._pref[idx]
        cur_val = _saving_for_member(instance, idx, groups[cur]) - pen(cur, pref)
        for a in instance._actions[idx]:
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
        s for s in itertools.product(*instance._actions) if ref_is_nash(instance, s)
    }
