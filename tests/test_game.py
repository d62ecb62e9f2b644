import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import platoonmatch as pm
from platoonmatch import (
    Instance,
    ModelParams,
    Vehicle,
    cooperative_utility,
    evaluate,
    feasible_actions,
    nonplatooning_fraction,
    paper_fig3,
    potential,
    total_fuel_saving,
    vehicle_utility,
)
from _reference import random_instance, random_profile, ref_utility


@pytest.fixture(scope="module")
def fig3():
    return paper_fig3()


@pytest.fixture(scope="module")
def pair(fig3):
    """Two trucks to v4/v5; vehicle 2 prefers 100 s later."""
    return Instance(
        fig3,
        [
            Vehicle(1, "v4", 0.0, (-500.0, 500.0)),
            Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
        ],
    )


# ---------------------------------------------------------------------------
# types and validation


def test_vehicle_window_must_contain_preferred():
    with pytest.raises(ValueError, match="outside window"):
        Vehicle(1, "v2", 10.0, (20.0, 30.0))


def test_params_validation():
    with pytest.raises(ValueError, match="k_p"):
        ModelParams(k_p=-1.0)
    with pytest.raises(ValueError, match="f_max"):
        ModelParams(saving=lambda n: 0.0)


def test_instance_rejects_bad_ids(fig3):
    with pytest.raises(ValueError, match="ids must be 1..N"):
        Instance(fig3, [Vehicle(2, "v2", 0.0, (-1.0, 1.0))])


def test_instance_rejects_root_destination(fig3):
    with pytest.raises(ValueError, match="origin"):
        Instance(fig3, [Vehicle(1, "v1", 0.0, (-1.0, 1.0))])


def test_instance_rejects_unknown_destination(fig3):
    with pytest.raises(ValueError, match="unknown destination"):
        Instance(fig3, [Vehicle(1, "v99", 0.0, (-1.0, 1.0))])


def test_profile_validation(pair):
    with pytest.raises(ValueError, match="not a feasible action"):
        vehicle_utility(pair, (0.0, 50.0), 1)
    with pytest.raises(ValueError, match="entries"):
        vehicle_utility(pair, (0.0,), 1)


def test_saving_rate_bound_enforced(fig3):
    params = ModelParams(saving=lambda n: 0.5 * n, f_max=0.4)
    with pytest.raises(ValueError, match="outside"):
        Instance(fig3, [Vehicle(1, "v2", 0.0, (0.0, 0.0))] , params)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_penalty_rejected_naming_vehicle_and_action(fig3, bad):
    # a NaN penalty used to reach an AssertionError inside the solvers
    params = ModelParams(penalty=lambda chosen, pref: 0.0 if chosen == pref else bad)
    vehicles = [
        Vehicle(1, "v4", 0.0, (-500.0, 500.0)),
        Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
    ]
    with pytest.raises(ValueError, match=rf"vehicle 1: deviation penalty {bad!r} for action 100\.0"):
        Instance(fig3, vehicles, params)


# ---------------------------------------------------------------------------
# feasible actions


def test_window_selects_neighbor_times(fig3):
    """Five spread-out preferred times; vehicle 3's window covers only 2..4."""
    times = [0.0, 100.0, 200.0, 300.0, 400.0]
    vehicles = [
        Vehicle(i + 1, "v5", t, (t - 150.0, t + 150.0) if i != 2 else (50.0, 350.0))
        for i, t in enumerate(times)
    ]
    inst = Instance(fig3, vehicles)
    assert feasible_actions(inst, 3) == (100.0, 200.0, 300.0)


def test_single_vehicle_actions(fig3):
    inst = Instance(fig3, [Vehicle(1, "v7", 42.0, (0.0, 100.0))])
    assert feasible_actions(inst, 1) == (42.0,)


def test_duplicate_preferred_times_collapse(fig3):
    vehicles = [Vehicle(i + 1, "v5", 0.0, (-500.0, 500.0)) for i in range(3)]
    inst = Instance(fig3, vehicles)
    for i in (1, 2, 3):
        assert feasible_actions(inst, i) == (0.0,)


def test_actions_always_contain_own_time(fig3):
    rng = np.random.default_rng(5)
    for _ in range(25):
        inst = random_instance(rng)
        for v in inst.vehicles:
            assert v.preferred_time in feasible_actions(inst, v.id)


# ---------------------------------------------------------------------------
# partition


def test_partition_groups_by_value(fig3):
    vehicles = [
        Vehicle(1, "v4", 7.0, (0.0, 10.0)),
        Vehicle(2, "v5", 7.0, (0.0, 10.0)),
        Vehicle(3, "v7", 7.0, (0.0, 10.0)),
    ]
    inst = Instance(fig3, vehicles)
    assert evaluate(inst, (7.0, 7.0, 7.0)).partition == ((7.0, (1, 2, 3)),)


def test_partition_mixed(pair):
    assert evaluate(pair, (0.0, 100.0)).partition == ((0.0, (1,)), (100.0, (2,)))
    assert evaluate(pair, (0.0, 0.0)).partition == ((0.0, (1, 2)),)


# ---------------------------------------------------------------------------
# utilities, potential, metrics: worked values


def test_pair_utilities(pair):
    s = (0.0, 0.0)
    assert vehicle_utility(pair, s, 1) == pytest.approx(4.0, abs=1e-12)
    assert vehicle_utility(pair, s, 2) == pytest.approx(2.5, abs=1e-12)
    # independent per-edge accumulation oracle
    raw = [("v4", 0.0), ("v5", 100.0)]
    assert vehicle_utility(pair, s, 1) == pytest.approx(
        ref_utility(pm.PAPER_FIG3_EDGES, "v1", raw, s, 0), abs=1e-12
    )
    assert vehicle_utility(pair, s, 2) == pytest.approx(
        ref_utility(pm.PAPER_FIG3_EDGES, "v1", raw, s, 1), abs=1e-12
    )


def test_pair_potential_and_sums(pair):
    s = (0.0, 0.0)
    assert potential(pair, s) == pytest.approx(2.5, abs=1e-12)
    assert cooperative_utility(pair, s) == pytest.approx(6.5, abs=1e-12)
    assert total_fuel_saving(pair, s) == pytest.approx(8.0, abs=1e-12)
    assert nonplatooning_fraction(pair, s) == 0.0
    assert nonplatooning_fraction(pair, (0.0, 100.0)) == 1.0


def test_three_to_v2_share(fig3):
    vehicles = [Vehicle(i + 1, "v2", 0.0, (-10.0, 10.0)) for i in range(3)]
    inst = Instance(fig3, vehicles)
    for i in (1, 2, 3):
        assert vehicle_utility(inst, (0.0, 0.0, 0.0), i) == pytest.approx(8.0 / 3.0)


def test_singleton_at_preferred_time_is_zero(fig3):
    inst = Instance(fig3, [Vehicle(1, "v13", 5.0, (0.0, 10.0))])
    assert vehicle_utility(inst, (5.0,), 1) == 0.0
    assert potential(inst, (5.0,)) == 0.0


def test_all_singletons_zero_potential(fig3):
    vehicles = [
        Vehicle(1, "v4", 0.0, (-50.0, 50.0)),
        Vehicle(2, "v5", 1000.0, (950.0, 1050.0)),
        Vehicle(3, "v9", 2000.0, (1950.0, 2050.0)),
    ]
    inst = Instance(fig3, vehicles)
    s = inst.preferred_profile
    assert potential(inst, s) == 0.0
    assert total_fuel_saving(inst, s) == 0.0
    assert nonplatooning_fraction(inst, s) == 1.0


def test_evaluate_matches_pieces(pair):
    for s in [(0.0, 0.0), (0.0, 100.0), (100.0, 100.0)]:
        out = evaluate(pair, s)
        assert out.utilities == pytest.approx(
            tuple(vehicle_utility(pair, s, i) for i in (1, 2))
        )
        assert out.potential == pytest.approx(potential(pair, s))
        assert out.total_fuel_saving == pytest.approx(total_fuel_saving(pair, s))
        assert out.nonplatooning_fraction == nonplatooning_fraction(pair, s)


# ---------------------------------------------------------------------------
# invariants


def test_saving_tables_telescope():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng)
        assert inst._r[0] == 0.0
        for n in range(inst.n_vehicles):
            assert inst._r[n + 1] - inst._r[n] == pytest.approx(inst._f[n + 1], abs=1e-15)


def test_cooperative_equals_sum_of_utilities():
    rng = np.random.default_rng(12)
    for _ in range(50):
        inst = random_instance(rng)
        s = random_profile(inst, rng)
        total = sum(vehicle_utility(inst, s, i + 1) for i in range(inst.n_vehicles))
        assert cooperative_utility(inst, s) == pytest.approx(total, abs=1e-9)


def test_saving_invariant_under_id_permutation(fig3):
    vehicles = [
        Vehicle(1, "v4", 0.0, (-500.0, 500.0)),
        Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
        Vehicle(3, "v5", 100.0, (-400.0, 600.0)),
    ]
    swapped = [
        Vehicle(1, "v5", 100.0, (-400.0, 600.0)),
        Vehicle(2, "v4", 0.0, (-500.0, 500.0)),
        Vehicle(3, "v5", 100.0, (-400.0, 600.0)),
    ]
    a = Instance(fig3, vehicles)
    b = Instance(fig3, swapped)
    assert total_fuel_saving(a, (0.0, 0.0, 100.0)) == pytest.approx(
        total_fuel_saving(b, (0.0, 0.0, 100.0))
    )


def test_utility_bound():
    rng = np.random.default_rng(13)
    for _ in range(40):
        inst = random_instance(rng)
        s = random_profile(inst, rng)
        for v in inst.vehicles:
            route_len = sum(inst._lengths[e] for e in inst._routes[v.id - 1])
            max_pen = max(
                inst.params.deviation_penalty(a, v.preferred_time)
                for a in feasible_actions(inst, v.id)
            )
            bound = inst.params.saving_bound() * route_len + max_pen
            assert abs(vehicle_utility(inst, s, v.id)) <= bound + 1e-9


def _potential_identity_spread(inst, s):
    """Max over vehicles of the spread of potential-minus-utility across actions."""
    worst = 0.0
    for i in range(inst.n_vehicles):
        trial = list(s)
        gaps = []
        for a in feasible_actions(inst, i + 1):
            trial[i] = a
            gaps.append(potential(inst, trial) - vehicle_utility(inst, trial, i + 1))
        worst = max(worst, max(gaps) - min(gaps))
    return worst


def test_exact_potential_identity_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(60):
        inst = random_instance(rng)
        s = random_profile(inst, rng)
        assert _potential_identity_spread(inst, s) <= 1e-9


def test_exact_potential_identity_custom_model(fig3):
    # asymmetric penalty and a saturating saving curve still admit the potential
    params = ModelParams(
        k_p=5e-5,
        k_t=1.5e-2,
        saving=lambda n: 0.01 * (1 - 1 / (n + 1)) if n > 1 else 0.0,
        penalty=lambda chosen, pref: 0.02 * (chosen - pref)
        if chosen >= pref
        else 0.005 * (pref - chosen),
        f_max=0.01,
    )
    rng = np.random.default_rng(15)
    for _ in range(30):
        inst = random_instance(rng, max_nodes=8, max_vehicles=6, params=params)
        s = random_profile(inst, rng)
        assert _potential_identity_spread(inst, s) <= 1e-9


@st.composite
def small_instances_with_profiles(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_nodes=7, max_vehicles=5)
    idx = [draw(st.integers(0, len(a) - 1)) for a in inst._actions]
    return inst, tuple(a[i] for a, i in zip(inst._actions, idx))


@settings(max_examples=60, deadline=None)
@given(small_instances_with_profiles())
def test_exact_potential_identity_property(data):
    inst, s = data
    assert _potential_identity_spread(inst, s) <= 1e-9
