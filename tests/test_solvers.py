import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import platoonmatch as pm
from platoonmatch import game, solvers
from platoonmatch import (
    ConvergenceError,
    Instance,
    ModelParams,
    Vehicle,
    best_response,
    brd_solve,
    brute_force_nash,
    cooperative_utility,
    coop_solve,
    evaluate,
    feasible_actions,
    is_nash,
    nonplatooning_fraction,
    paper_fig3,
    potential,
    total_fuel_saving,
    vehicle_utility,
)
from _reference import (
    all_actions,
    custom_params,
    lone_saving_params,
    random_instance,
    ref_action_sets,
    ref_brute_force_nash,
    ref_coop_argmax,
    ref_coop_dp,
    ref_sweep_solve,
    ref_utility,
)
from test_golden import stable_at


@pytest.fixture(scope="module")
def fig3():
    return paper_fig3()


def same_dest_pair(fig3, k_t=1.5e-2):
    return Instance(
        fig3,
        [
            Vehicle(1, "v5", 0.0, (-500.0, 500.0)),
            Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
        ],
        ModelParams(k_t=k_t),
    )


@pytest.fixture(scope="module")
def merge_trio(fig3):
    """Three trucks to v5 preferring 0/400/800 with +-500 windows."""
    return Instance(
        fig3,
        [
            Vehicle(1, "v5", 0.0, (-500.0, 500.0)),
            Vehicle(2, "v5", 400.0, (-100.0, 900.0)),
            Vehicle(3, "v5", 800.0, (300.0, 1300.0)),
        ],
    )


# ---------------------------------------------------------------------------
# best_response


def test_best_response_isolated_vehicle(fig3):
    inst = Instance(
        fig3,
        [
            Vehicle(1, "v4", 0.0, (-10.0, 10.0)),
            Vehicle(2, "v5", 5000.0, (4990.0, 5010.0)),
        ],
    )
    assert best_response(inst, (0.0, 5000.0), 1) == 0.0
    assert best_response(inst, (0.0, 5000.0), 2) == 5000.0


def test_best_response_joins_when_saving_dominates(fig3):
    # sharing 320 km at half rate beats a 100 s shift: 8.0 - 1.5 > 0
    inst = same_dest_pair(fig3)
    assert best_response(inst, (0.0, 100.0), 2) == 0.0


def test_best_response_stays_when_penalty_dominates(fig3):
    # with a tenfold penalty rate the shift costs 10 > 8
    inst = same_dest_pair(fig3, k_t=1e-1)
    assert best_response(inst, (0.0, 100.0), 2) == 100.0


def test_best_response_keeps_current_on_tie(fig3):
    # zero rates make every action worth exactly 0: no strict gain, stay put
    inst = Instance(
        fig3,
        [
            Vehicle(1, "v2", 0.0, (-200.0, 200.0)),
            Vehicle(2, "v2", 100.0, (-100.0, 300.0)),
        ],
        ModelParams(k_p=0.0, k_t=0.0),
    )
    assert best_response(inst, (0.0, 100.0), 1) == 0.0
    assert best_response(inst, (100.0, 100.0), 1) == 100.0


def tied_alternatives(fig3):
    # Vehicle 1 departs alone at 0; joining the truck at -50 or the one at 50
    # is worth the same under both objectives, bit for bit.
    return Instance(
        fig3,
        [
            Vehicle(1, "v5", 0.0, (-100.0, 100.0)),
            Vehicle(2, "v5", -50.0, (-50.0, -50.0)),
            Vehicle(3, "v5", 50.0, (50.0, 50.0)),
        ],
    )


def test_best_response_takes_smallest_of_tied_alternatives(fig3):
    inst = tied_alternatives(fig3)
    for objective in ("self", "cooperative"):
        assert best_response(inst, (0.0, -50.0, 50.0), 1, objective) == -50.0


def test_is_nash_holds_a_gain_equal_to_tol_stable(fig3):
    inst = tied_alternatives(fig3)
    s = (0.0, -50.0, 50.0)
    assert vehicle_utility(inst, s, 1) == 0.0
    gain = vehicle_utility(inst, (-50.0, -50.0, 50.0), 1)
    assert gain > 0.0
    assert stable_at(inst, s, gain)
    assert not stable_at(inst, s, math.nextafter(gain, 0.0))


def test_best_response_cooperative_objective(merge_trio):
    # from (400, 400, 800) vehicle 3 joining at 400 lifts the sum most
    assert best_response(merge_trio, (400.0, 400.0, 800.0), 3, "cooperative") == 400.0


def test_best_response_rejects_unknown_objective(merge_trio):
    with pytest.raises(ValueError, match="objective"):
        best_response(merge_trio, (0.0, 400.0, 800.0), 1, "both")


# ---------------------------------------------------------------------------
# brd_solve


def test_brd_single_vehicle(fig3):
    inst = Instance(fig3, [Vehicle(1, "v9", 3.0, (0.0, 10.0))])
    report = brd_solve(inst)
    assert report.final == (3.0,)
    assert report.rounds == 1


def test_brd_pair_reaches_nash(fig3):
    inst = same_dest_pair(fig3)
    report = brd_solve(inst)
    assert is_nash(inst, report.final)
    assert report.history[0] == (0.0, 100.0)
    assert report.final in {(0.0, 0.0), (100.0, 100.0)}


def test_brd_trace_monotone_and_strict(fig3):
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = random_instance(rng, max_vehicles=6)
        report = brd_solve(inst)
        for k in range(report.rounds):
            changed = report.history[k] != report.history[k + 1]
            if changed:
                assert report.objective_trace[k + 1] > report.objective_trace[k]
            else:
                assert report.objective_trace[k + 1] >= report.objective_trace[k] - 1e-12


def test_brd_trace_is_potential(fig3):
    inst = same_dest_pair(fig3)
    report = brd_solve(inst)
    for prof, val in zip(report.history, report.objective_trace):
        assert val == pytest.approx(potential(inst, prof), abs=1e-12)


def test_objective_trace_is_the_metric_of_each_history_entry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng, max_nodes=8, max_vehicles=6)
        for report, metric in ((brd_solve(inst), potential), (coop_solve(inst), cooperative_utility)):
            assert report.objective_trace == [metric(inst, p) for p in report.history]


def test_confirming_sweep_stops_after_last_mover(fig3, monkeypatch):
    # Vehicle 2 joins vehicle 3 at 130 in the first sweep under either
    # objective and is its last mover.  Nothing moves before it in the second
    # sweep, so vehicles 3 and 4 would face the state they stayed in: the
    # sweep ends after vehicle 2.
    inst = Instance(
        fig3,
        [
            Vehicle(1, "v4", 0.0, (-50.0, 50.0)),
            Vehicle(2, "v5", 100.0, (-500.0, 500.0)),
            Vehicle(3, "v4", 130.0, (80.0, 180.0)),
            Vehicle(4, "v7", 5000.0, (4950.0, 5050.0)),
        ],
    )
    scored = []
    original = game._PlatoonState.scan

    def counted(self, idx, objective):
        scored.append(idx)
        return original(self, idx, objective)

    monkeypatch.setattr(game._PlatoonState, "scan", counted)
    pref = inst.preferred_profile
    merged = (0.0, 130.0, 130.0, 5000.0)
    for objective, solve in (
        ("self", lambda: brd_solve(inst)),
        ("cooperative", lambda: coop_solve(inst, start=pref)),
    ):
        scored.clear()
        report = solve()
        assert scored == [0, 1, 2, 3, 0, 1]
        final, rounds, history, _ = ref_sweep_solve(inst, objective, start=pref)
        assert history == [pref, merged, merged]
        assert (report.final, report.rounds, report.history) == (final, rounds, history)


def test_brd_cap_raises(fig3, monkeypatch):
    # a scan that always proposes another action never settles, so the sweeps
    # run into the cap
    inst = same_dest_pair(fig3)
    cap = 10 * inst.n_vehicles * len(inst._all_times)

    def restless(self, idx, objective):
        return 0.0, 1.0, (self.ks[idx] - 1) % len(feasible_actions(inst, idx + 1))

    monkeypatch.setattr(game._PlatoonState, "scan", restless)
    with pytest.raises(ConvergenceError, match=rf"after {cap} sweeps \(cap {cap}\)"):
        brd_solve(inst)


# ---------------------------------------------------------------------------
# coop_solve


def test_coop_single_vehicle(fig3):
    inst = Instance(fig3, [Vehicle(1, "v9", 3.0, (0.0, 10.0))])
    assert coop_solve(inst).final == (3.0,)


def test_coop_merges_trio_at_middle_time(merge_trio):
    report = coop_solve(merge_trio)
    assert report.final == (400.0, 400.0, 400.0)
    assert cooperative_utility(merge_trio, report.final) == pytest.approx(20.0, abs=1e-9)
    # enumeration oracle over the full profile space, built from raw data
    raw = [("v5", 0.0), ("v5", 400.0), ("v5", 800.0)]
    sets = ref_action_sets(raw, [500.0, 500.0, 500.0])
    assert sets == [(0.0, 400.0), (0.0, 400.0, 800.0), (400.0, 800.0)]
    best_val, best_profiles = ref_coop_argmax(pm.PAPER_FIG3_EDGES, "v1", raw, sets)
    assert best_val == pytest.approx(20.0, abs=1e-9)
    assert report.final in best_profiles


def test_coop_pair_merges_despite_heavy_penalty(fig3):
    # k_t = 0.1: one vehicle's share (8.0) loses to the 10.0 shift cost, but
    # the summed objective still gains 16.0 - 10.0 = 6.0, so the pair merges
    inst = same_dest_pair(fig3, k_t=1e-1)
    report = coop_solve(inst)
    raw = [("v5", 0.0), ("v5", 100.0)]
    value = cooperative_utility(inst, report.final)
    assert value == pytest.approx(6.0, abs=1e-9)
    best_val, best_profiles = ref_coop_argmax(
        pm.PAPER_FIG3_EDGES, "v1", raw, [(0.0, 100.0), (0.0, 100.0)], k_t=1e-1
    )
    assert value == pytest.approx(best_val, abs=1e-9)
    assert report.final in best_profiles


def test_coop_never_below_equilibrium_objective():
    rng = np.random.default_rng(22)
    for _ in range(40):
        inst = random_instance(rng, max_vehicles=6)
        ne = brd_solve(inst)
        co = coop_solve(inst)
        assert co.objective_trace[-1] >= co.objective_trace[0] - 1e-12
        assert cooperative_utility(inst, co.final) >= cooperative_utility(
            inst, ne.final
        ) - 1e-9


def _raw(inst):
    return inst.network.edges, inst.network.root, [
        (v.destination, v.preferred_time) for v in inst.vehicles
    ]


def test_coalition_dp_matches_enumeration():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        inst = random_instance(rng, max_vehicles=6)
        if math.prod(len(a) for a in all_actions(inst)) > 5_000:
            continue
        best_val, _ = ref_coop_argmax(*_raw(inst), all_actions(inst))
        assert ref_coop_dp(*_raw(inst), all_actions(inst)) == pytest.approx(best_val, rel=1e-12)
        checked += 1


def _one_action_instance(rng):
    # a few shared times, so platoons form, and windows that hold one time each
    inst = random_instance(rng)
    vehicles = [
        Vehicle(v.id, v.destination, t, (t, t))
        for v, t in zip(inst.vehicles, rng.choice([0.0, 100.0, 200.0], inst.n_vehicles).tolist())
    ]
    return Instance(inst.network, vehicles)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_coop_never_beats_the_coalition_optimum(seed, one_action):
    rng = np.random.default_rng(seed)
    inst = _one_action_instance(rng) if one_action else random_instance(rng, max_vehicles=8)
    best = ref_coop_dp(*_raw(inst), all_actions(inst))
    value = cooperative_utility(inst, coop_solve(inst).final)
    close = math.isclose(value, best, rel_tol=1e-9, abs_tol=1e-12)
    assert value <= best or close
    if one_action:
        assert close


def test_coop_start_override(merge_trio):
    report = coop_solve(merge_trio, start=(0.0, 0.0, 400.0))
    assert report.history[0] == (0.0, 0.0, 400.0)
    with pytest.raises(ValueError, match="feasible"):
        coop_solve(merge_trio, start=(7.0, 400.0, 800.0))


# ---------------------------------------------------------------------------
# profile entries: every entry point maps a time to an action index in one place


def _profile_answers(inst, s):
    """What each entry point that takes a profile makes of ``s``."""
    report = coop_solve(inst, start=s)
    return (
        is_nash(inst, s),
        [best_response(inst, s, v.id, objective)
         for v in inst.vehicles for objective in ("self", "cooperative")],
        (report, report.objective_trace),
        [vehicle_utility(inst, s, v.id) for v in inst.vehicles],
        evaluate(inst, s),
    )


@pytest.mark.parametrize("kind", [int, np.float64, np.float32])
def test_profile_entries_equal_to_actions_act_as_the_floats(merge_trio, kind):
    # every action of merge_trio is a whole number, exact as a float32 too
    for s in itertools.product(*all_actions(merge_trio)):
        expected = _profile_answers(merge_trio, s)
        assert _profile_answers(merge_trio, tuple(kind(t) for t in s)) == expected


@pytest.mark.parametrize("bad", [50.0, float("nan"), None, [400.0], False])
def test_profile_entries_not_actions_rejected_everywhere(merge_trio, bad):
    # vehicle 2's actions are 0, 400 and 800: 50.0 lies between two of them
    s = (0.0, bad, 800.0)
    message = re.escape(f"vehicle 2: departure time {bad!r} is not a feasible action")
    for call in (
        lambda: is_nash(merge_trio, s),
        lambda: best_response(merge_trio, s, 1),
        lambda: coop_solve(merge_trio, start=s),
        lambda: vehicle_utility(merge_trio, s, 1),
        lambda: evaluate(merge_trio, s),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize(
    "make, kind",
    [
        # a set iterates as (0.5, 100.0), though (100.0, 0.5) is another profile
        (lambda: {100.0, 0.5}, "set"),
        (lambda: frozenset((100.0, 0.5)), "frozenset"),
        (lambda: {100.0: 1, 0.5: 2}, "dict"),
        (lambda: None, "NoneType"),
        (lambda: (t for t in (100.0, 0.5)), "generator"),
        (lambda: 2, "int"),
    ],
    ids=["set", "frozenset", "dict", "None", "generator", "int"],
)
def test_a_profile_that_is_no_sequence_is_rejected_everywhere(fig3, make, kind):
    inst = Instance(
        fig3,
        [Vehicle(1, "v4", 0.5, (-500.0, 500.0)), Vehicle(2, "v5", 100.0, (-400.0, 600.0))],
    )
    assert potential(inst, (0.5, 100.0)) != potential(inst, (100.0, 0.5))
    for sequence in ([100.0, 0.5], np.array([100.0, 0.5])):  # still read in vehicle order
        assert potential(inst, sequence) == potential(inst, (100.0, 0.5))
    message = re.escape(
        f"profile must be a sequence of departure times in vehicle order, not {kind}")
    calls = [potential, cooperative_utility, total_fuel_saving, nonplatooning_fraction,
             evaluate, is_nash,
             lambda inst, s: vehicle_utility(inst, s, 1),
             lambda inst, s: best_response(inst, s, 1)]
    if make() is not None:  # coop_solve's start=None means "from the equilibrium"
        calls.append(lambda inst, s: coop_solve(inst, start=s))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call(inst, make())


# ---------------------------------------------------------------------------
# is_nash


def test_is_nash_isolated_times(fig3):
    inst = Instance(
        fig3,
        [
            Vehicle(1, "v4", 0.0, (-10.0, 10.0)),
            Vehicle(2, "v5", 5000.0, (4990.0, 5010.0)),
        ],
    )
    assert is_nash(inst, (0.0, 5000.0))


def test_is_nash_detects_profitable_deviation(fig3):
    inst = same_dest_pair(fig3)
    assert not is_nash(inst, (0.0, 100.0))
    assert is_nash(inst, (0.0, 0.0))


def test_a_vehicle_with_one_action_is_stable_at_any_tol(fig3):
    # it has no deviation to weigh, even against a negative tolerance
    lone = Instance(fig3, [Vehicle(1, "v9", 3.0, (0.0, 10.0))])
    assert is_nash(lone, (3.0,))
    assert stable_at(lone, (3.0,), -1.0)


def test_brd_output_is_nash_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_instance(rng, max_vehicles=8)
        assert is_nash(inst, brd_solve(inst).final)


def _penalty_instance(penalties):
    """Vehicles on one 1000 m edge with no saving (``k_p = 0``): vehicle ``idx``
    prefers time ``idx``, may depart at any vehicle's, and pays
    ``penalties[idx][t]`` at time ``t``."""
    network = pm.RoadNetwork([("o", "a", 1000.0)], "o")
    n = len(penalties)
    vehicles = [Vehicle(i + 1, "a", float(i), (0.0, n - 1.0)) for i in range(n)]
    params = ModelParams(k_p=0.0, penalty=lambda chosen, pref: penalties[int(pref)][int(chosen)])
    return Instance(network, vehicles, params)


def test_sweeps_stop_only_where_is_nash_and_the_oracle_see_an_equilibrium():
    # Vehicle 1 gains 1.3322676295501938e-15 by moving to time 1.0, two ulps
    # above the instance's tolerance, yet its value at 0.0 is not below the
    # other's minus the tolerance: a stop test of that form keeps it, where
    # is_nash and the oracle see the gain and move it.
    inst = _penalty_instance([[4.213188938095903e-15, 2.8809213085457093e-15], [1.0, 0.0]])
    assert inst._tol == 1.3322676295501934e-15
    final = brd_solve(inst).final
    assert final == (1.0, 1.0)
    assert is_nash(inst, final)
    assert brute_force_nash(inst) == {(1.0, 1.0)}


@st.composite
def near_tie_penalties(draw):
    """Penalty rows whose entries step down from the row's largest by the
    instance's tolerance give or take a few ulps, so that gains fall on either
    side of it by rounding alone.  The tolerance grows with the largest
    entries, so they are drawn first and fix it.  Each lies a few ulps above a
    power of two, so the steps cross into the binade below, where the two
    forms of the stop test round differently."""
    n = draw(st.integers(2, 4))
    tops = []
    for _ in range(n):
        top = math.ldexp(1.0, draw(st.integers(-60, 0)))
        for _ in range(draw(st.integers(0, 8))):
            top = math.nextafter(top, math.inf)
        tops.append(top)
    tol = _penalty_instance([[top] * n for top in tops])._tol
    rows = []
    for top in tops:
        row = []
        for _ in range(n):
            value = top - draw(st.integers(0, 4)) * tol
            for _ in range(draw(st.integers(0, 3))):
                value = math.nextafter(value, draw(st.sampled_from([-math.inf, math.inf])))
            row.append(min(max(value, 0.0), top))
        row[draw(st.integers(0, n - 1))] = top
        rows.append(row)
    assert _penalty_instance(rows)._tol == tol
    return rows


@settings(max_examples=200, deadline=None)
@given(near_tie_penalties())
def test_one_stability_rule_on_near_ties(penalties):
    inst = _penalty_instance(penalties)
    equilibria = brute_force_nash(inst)
    assert equilibria == {s for s in itertools.product(*all_actions(inst)) if is_nash(inst, s)}
    ne = brd_solve(inst).final
    assert is_nash(inst, ne)
    assert ne in equilibria
    state = game._PlatoonState(inst, coop_solve(inst).final)
    for idx in range(inst.n_vehicles):
        assert solvers._decide(state, idx, "cooperative", inst._tol) is None


# ---------------------------------------------------------------------------
# brute_force_nash


def test_brute_force_single_vehicle(fig3):
    inst = Instance(fig3, [Vehicle(1, "v9", 3.0, (0.0, 10.0))])
    assert brute_force_nash(inst) == {(3.0,)}


def test_brute_force_pair(fig3):
    inst = same_dest_pair(fig3)
    equilibria = brute_force_nash(inst)
    assert (0.0, 0.0) in equilibria
    assert (0.0, 100.0) not in equilibria
    assert equilibria == {(0.0, 0.0), (100.0, 100.0)}


def test_brute_force_cap(fig3):
    inst = same_dest_pair(fig3)
    with pytest.raises(ValueError, match="cap"):
        brute_force_nash(inst, cap=1)
    for bad in ("x", None, 2.5, True):
        with pytest.raises(ValueError, match=re.escape(f"cap must be an integer, got {bad!r}")):
            brute_force_nash(inst, cap=bad)


def test_brute_force_rejects_more_axes_than_numpy_has(fig3):
    # 65 vehicles with two actions each fit a raised cap, but not 64 array axes;
    # their 2^65 profiles exceed numpy's index range, so the oracle says so
    # before it allocates anything.
    vehicles = [Vehicle(i + 1, "v9", 100.0 * (i % 2), (-500.0, 600.0)) for i in range(65)]
    inst = Instance(fig3, vehicles)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match=rf"holds {2**65} profiles, within the cap {2**65} but too many"
        ):
            brute_force_nash(inst, cap=2**65)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_brute_force_names_a_space_too_large_to_index(fig3):
    # 2^63 profiles fit a raised cap and 64 axes, but exceed the largest array
    # numpy can index: the oracle says so before it allocates anything.
    vehicles = [Vehicle(i + 1, "v9", 100.0 * (i % 2), (-500.0, 600.0)) for i in range(63)]
    inst = Instance(fig3, vehicles)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match=rf"holds {2**63} profiles, within the cap {2**70} but too many"
        ):
            brute_force_nash(inst, cap=2**70)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_brute_force_names_a_space_too_large_to_allocate(fig3):
    # 2^60 profiles fit a raised cap and 64 axes, but their arrays (an EiB of
    # bools) exceed any address space, so the allocation fails at once.
    vehicles = [Vehicle(i + 1, "v9", 100.0 * (i % 2), (-500.0, 600.0)) for i in range(60)]
    inst = Instance(fig3, vehicles)
    with pytest.raises(ValueError, match=rf"holds {2**60} profiles, within the cap {2**61}"):
        brute_force_nash(inst, cap=2**61)


def test_brute_force_agrees_with_solver_and_potential_argmax():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 30:
        inst = random_instance(rng, max_nodes=8, max_vehicles=5)
        space = 1
        for a in all_actions(inst):
            space *= len(a)
        if space > 10_000:
            continue
        checked += 1
        equilibria = brute_force_nash(inst)
        assert equilibria
        assert brd_solve(inst).final in equilibria
        # the global potential maximizer is always an equilibrium
        best = max(
            itertools.product(*all_actions(inst)), key=lambda s: potential(inst, s)
        )
        assert best in equilibria


def test_brute_force_matches_reference_enumeration(fig3):
    # cross-check the oracle itself against a from-scratch utility evaluation
    inst = same_dest_pair(fig3)
    raw = [("v5", 0.0), ("v5", 100.0)]
    sets = [(0.0, 100.0), (0.0, 100.0)]
    by_hand = set()
    for s in itertools.product(*sets):
        nash = True
        for i in range(2):
            u_cur = ref_utility(pm.PAPER_FIG3_EDGES, "v1", raw, s, i)
            for a in sets[i]:
                trial = list(s)
                trial[i] = a
                if ref_utility(pm.PAPER_FIG3_EDGES, "v1", raw, tuple(trial), i) > u_cur + 1e-12:
                    nash = False
        if nash:
            by_hand.add(s)
    assert brute_force_nash(inst) == by_hand


MODELS = [ModelParams, custom_params, lone_saving_params]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("n", [7, 8])
def test_brute_force_full_head_counts(fig3, n, model):
    # One route and two shared times: the profile with everyone at one time
    # puts the largest head count, N, on every edge.
    vehicles = [Vehicle(i + 1, "v9", 100.0 * (i % 2), (-500.0, 600.0)) for i in range(n)]
    inst = Instance(fig3, vehicles, model())
    equilibria = brute_force_nash(inst)
    assert (0.0,) * n in equilibria
    assert equilibria == ref_brute_force_nash(inst)


def test_brute_force_every_vehicle_has_one_action(fig3):
    dests = ["v2", "v4", "v5", "v9", "v4"]
    vehicles = [
        Vehicle(i + 1, d, 10.0 * i, (10.0 * i - 5, 10.0 * i + 5)) for i, d in enumerate(dests)
    ]
    inst = Instance(fig3, vehicles)
    assert brute_force_nash(inst) == ref_brute_force_nash(inst) == {inst.preferred_profile}


def test_brute_force_many_one_action_vehicles(fig3):
    # 1,200 vehicles that cannot deviate and two that can: no recursion per vehicle.
    vehicles = [Vehicle(i + 1, "v9", 10.0 * i, (10.0 * i, 10.0 * i)) for i in range(1200)]
    vehicles += [
        Vehicle(1201, "v4", 0.0, (0.0, 10.0)),
        Vehicle(1202, "v5", 10.0, (0.0, 10.0)),
    ]
    inst = Instance(fig3, vehicles)
    equilibria = brute_force_nash(inst)
    assert equilibria == ref_brute_force_nash(inst)
    assert len(equilibria) == 2


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_brute_force_many_one_action_vehicles_at_one_time(fig3, model):
    # 40 vehicles that cannot deviate share time 0 with both movers' windows: a
    # table with one axis per vehicle at that time would need 2^40 entries.
    vehicles = [Vehicle(i + 1, "v9", 0.0, (0.0, 0.0)) for i in range(40)]
    vehicles += [
        Vehicle(41, "v4", 0.0, (0.0, 10.0)),
        Vehicle(42, "v12", 10.0, (0.0, 10.0)),
    ]
    inst = Instance(fig3, vehicles, model())
    assert brute_force_nash(inst) == ref_brute_force_nash(inst)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_brute_force_mover_without_mates(fig3, model):
    # Vehicle 1 shares no time with the other movers, so only its own actions
    # and the one-action vehicle at time 10 decide its utility.
    vehicles = [
        Vehicle(1, "v5", 0.0, (0.0, 10.0)),
        Vehicle(2, "v4", 10.0, (10.0, 10.0)),
        Vehicle(3, "v9", 100.0, (100.0, 110.0)),
        Vehicle(4, "v12", 110.0, (110.0, 110.0)),
        Vehicle(5, "v13", 100.0, (100.0, 110.0)),
    ]
    inst = Instance(fig3, vehicles, model())
    assert brute_force_nash(inst) == ref_brute_force_nash(inst)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_brute_force_late_mover_without_mates(fig3, model):
    # Vehicles 1-4 share times 0 and 100, and few profiles stay stable for
    # them, so vehicle 5, whose times 1000 and 1100 no other mover shares, is
    # scored on the list of the profiles left.
    vehicles = [Vehicle(i + 1, "v9", 100.0 * (i % 2), (-500.0, 600.0)) for i in range(4)]
    vehicles += [
        Vehicle(5, "v12", 1000.0, (1000.0, 1100.0)),
        Vehicle(6, "v5", 1100.0, (1100.0, 1100.0)),
    ]
    inst = Instance(fig3, vehicles, model())
    assert [len(a) for a in all_actions(inst)] == [2] * 5 + [1]
    assert brute_force_nash(inst) == ref_brute_force_nash(inst)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_brute_force_mates_at_every_depth(fig3, model):
    # The route to v12 has 5 edges; v2, v6, v8, v10/v13 and v12 end after 1..5
    # of them, so the v12 vehicles see mates at every depth, two at some.
    dests = ["v12", "v2", "v6", "v8", "v10", "v13", "v12", "v8"]
    vehicles = [
        Vehicle(i + 1, d, 100.0 * (i % 3), (-500.0, 600.0)) for i, d in enumerate(dests)
    ]
    vehicles.append(Vehicle(9, "v10", 100.0, (100.0, 100.0)))
    inst = Instance(fig3, vehicles, model())
    assert [len(a) for a in all_actions(inst)] == [3] * 8 + [1]
    assert brute_force_nash(inst) == ref_brute_force_nash(inst)


def test_brute_force_all_ties_keeps_every_profile(fig3):
    # With no saving and no penalty every utility is 0.0, so no profile ever
    # drops out and the whole-space scoring runs to the last vehicle.
    config = pm.ScenarioConfig(network=fig3, n_vehicles=6, alpha=300.0, seed=0,
                               params=ModelParams(k_p=0.0, k_t=0.0))
    inst = pm.generate_scenario(config)
    assert [len(a) for a in all_actions(inst)] == [6] * 6
    equilibria = brute_force_nash(inst)
    assert len(equilibria) == 46_656
    assert equilibria == set(itertools.product(*all_actions(inst)))


@pytest.mark.parametrize("penalty, equilibria", [
    (5.099999999998998, {(0.0, 0.0)}),
    (5.099999999999866, {(0.0, 0.0)}),
    (5.099999999999937, {(0.0, 0.0), (100.0, 0.0)}),
])
def test_brute_force_breaks_near_ties_as_is_nash(penalty, equilibria):
    # Vehicle 1 leaves its preferred time 100 to platoon with vehicle 2 over
    # two of its four edges.  Its route-order saving sums (17.900000000000002
    # and 12.799999999999999) differ from the reverse order's in the last bit.
    # The penalty puts joining's gain well above the instance's tolerance
    # (about 1.33e-13), then a few ulps above it, then at half of it: only the
    # kernel's summation order and tolerance give the last two sets.
    nodes = [f"p{i}" for i in range(5)]
    lengths = [1700.0, 1700.0, 1700.0, 1300.0]
    network = pm.RoadNetwork(list(zip(nodes, nodes[1:], lengths)), "p0")
    params = ModelParams(
        saving=lambda n: 0.002 + 0.003 * (n - 1) / n,
        penalty=lambda chosen, pref: 0.0 if chosen == pref else penalty,
    )
    inst = Instance(network, [
        Vehicle(1, "p4", 100.0, (0.0, 100.0)),
        Vehicle(2, "p2", 0.0, (0.0, 0.0)),
    ], params)
    assert {s for s in itertools.product(*all_actions(inst)) if is_nash(inst, s)} == equilibria
    assert brute_force_nash(inst) == ref_brute_force_nash(inst) == equilibria
