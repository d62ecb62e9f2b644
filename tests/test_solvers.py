import itertools

import numpy as np
import pytest

import platoonmatch as pm
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
    is_nash,
    paper_fig3,
    potential,
)
from _reference import (
    random_instance,
    ref_action_sets,
    ref_coop_argmax,
    ref_utility,
)


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


def test_brd_cap_raises(fig3):
    inst = same_dest_pair(fig3)
    with pytest.raises(ConvergenceError, match="sweeps"):
        brd_solve(inst, max_sweeps=0)


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


def test_coop_start_override(merge_trio):
    report = coop_solve(merge_trio, start=(0.0, 0.0, 400.0))
    assert report.history[0] == (0.0, 0.0, 400.0)
    with pytest.raises(ValueError, match="feasible"):
        coop_solve(merge_trio, start=(7.0, 400.0, 800.0))


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_is_nash_rejects_nonfinite_tol(fig3, tol):
    # The README's two-truck instance; (0.0, 100.0) is not an equilibrium.
    inst = Instance(
        fig3,
        [
            Vehicle(1, "v4", 0.0, (-500.0, 500.0)),
            Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
        ],
    )
    assert not is_nash(inst, (0.0, 100.0))
    assert not is_nash(inst, (0.0, 100.0), tol=-1.0)
    with pytest.raises(ValueError, match="tol"):
        is_nash(inst, (0.0, 100.0), tol=tol)


def test_brd_output_is_nash_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_instance(rng, max_vehicles=8)
        assert is_nash(inst, brd_solve(inst).final)


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


def test_brute_force_agrees_with_solver_and_potential_argmax():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 30:
        inst = random_instance(rng, max_nodes=8, max_vehicles=5)
        space = 1
        for a in inst._actions:
            space *= len(a)
        if space > 10_000:
            continue
        checked += 1
        equilibria = brute_force_nash(inst)
        assert equilibria
        assert brd_solve(inst).final in equilibria
        # the global potential maximizer is always an equilibrium
        best = max(
            itertools.product(*inst._actions), key=lambda s: potential(inst, s)
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
