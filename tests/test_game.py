import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import platoonmatch as pm
from platoonmatch import (
    Instance,
    ModelParams,
    Vehicle,
    best_response,
    cooperative_utility,
    evaluate,
    feasible_actions,
    nonplatooning_fraction,
    paper_fig3,
    potential,
    total_fuel_saving,
    vehicle_utility,
)
from platoonmatch import game
from platoonmatch.cli import load_scenario
from platoonmatch.network import InputError
from _reference import all_actions, random_instance, random_profile, ref_penalty, ref_utility


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


@pytest.mark.parametrize(
    "vid, pref, window, pattern",
    [
        (0, 0.0, (0.0, 1.0), r"vehicle id must be an integer >= 1, got 0"),
        (True, 0.0, (0.0, 1.0), r"vehicle id must be an integer >= 1, got True"),
        (1.0, 0.0, (0.0, 1.0), r"vehicle id must be an integer >= 1, got 1\.0"),
        ("1", 0.0, (0.0, 1.0), r"vehicle id must be an integer >= 1, got '1'"),
        (1, "0", (0.0, 1.0),
         r"vehicle 1: non-finite or non-number time bounds: preferred time '0', window"),
        (1, None, (0.0, 1.0), r"vehicle 1: non-finite .* None, window \(0\.0, 1\.0\)"),
        (1, 0.0, (False, 1.0), r"vehicle 1: non-finite .* 0\.0, window \(False, 1\.0\)"),
        (1, 0.0, (0.0, 10**400), r"vehicle 1: non-finite or non-number time bounds"),
        (1, 0.0, None, r"vehicle 1: window must be a \(lo, hi\) pair, got None"),
        (1, 0.0, (0.0,), r"vehicle 1: window must be a \(lo, hi\) pair, got \(0\.0,\)"),
        # finite bounds, but a width of inf: its penalties could be NaN
        (1, 0.0, (-1.7e308, 1.7e308),
         r"vehicle 1: window \[-1\.7e\+308, 1\.7e\+308\] is too wide: its width hi - lo is not"),
    ],
    ids=["id-zero", "id-bool", "id-float", "id-str", "pref-str", "pref-none", "lo-bool",
         "hi-huge-int", "window-none", "window-single", "window-too-wide"],
)
def test_vehicle_rejects_non_numbers(vid, pref, window, pattern):
    with pytest.raises(InputError, match=pattern) as exc:
        Vehicle(vid, "v2", pref, window)
    assert exc.value.subject == vid


def test_params_validation():
    with pytest.raises(ValueError, match="k_p"):
        ModelParams(k_p=-1.0)
    for name, bad in (("k_p", None), ("k_t", "1"), ("k_p", True), ("k_t", 10**400)):
        pattern = rf"{name} must be finite and >= 0, got {bad!r}"
        with pytest.raises(InputError, match=pattern) as exc:
            ModelParams(**{name: bad})
        assert exc.value.subject == name


def test_numpy_numbers_are_numbers(fig3, pair):
    params = ModelParams(k_p=np.float32(5e-5), k_t=np.int64(0))
    assert (params.k_p, params.k_t) == (float(np.float32(5e-5)), 0.0)
    vehicles = [Vehicle(np.int64(1), "v4", np.float32(0.0), (np.float32(-500.0), 500))]
    assert evaluate(Instance(fig3, vehicles, params), (0.0,)).utilities == (0.0,)
    # the default model gives the bits of its float twin
    twin = ModelParams(k_p=np.float64(5e-5), k_t=np.float32(0.015))
    assert evaluate(Instance(fig3, pair.vehicles, twin), (0.0, 100.0)) == evaluate(
        Instance(fig3, pair.vehicles, ModelParams(k_t=float(np.float32(0.015)))), (0.0, 100.0)
    )


def test_instance_rejects_bad_ids(fig3):
    with pytest.raises(ValueError, match="ids must be 1..N"):
        Instance(fig3, [Vehicle(2, "v2", 0.0, (-1.0, 1.0))])
    with pytest.raises(ValueError, match="an instance needs at least one vehicle"):
        Instance(fig3, [])


def test_instance_rejects_root_destination(fig3):
    with pytest.raises(ValueError, match="origin"):
        Instance(fig3, [Vehicle(1, "v1", 0.0, (-1.0, 1.0))])


def test_instance_rejects_unknown_destination(fig3):
    for destination in ("v99", ["v2"]):  # a list cannot be a key of ``routes``
        message = f"vehicle 1: unknown destination {destination!r}"
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            Instance(fig3, [Vehicle(1, destination, 0.0, (-1.0, 1.0))])
        assert exc.value.subject == 1


def test_tolerance_of_two_vehicles_by_hand():
    # Both routes have 3 edges on 792 km of road; max f = k_p / 2 = 2.5e-5 and
    # each vehicle's largest penalty is k_t * 100 s = 1.5, so the bound on every
    # compared value is 2 * 2.5e-5 * 792000 + 1.5 + 1.5 = 42.6.
    inst = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "two-vehicles.scn")
    assert inst._tol == 4 * (3 + 2) * 2.0**-53 * 42.6 == 9.459100169806334e-14


def test_instance_repr_and_foreign_equality(fig3, pair):
    assert repr(pair) == "Instance(2 vehicles on RoadNetwork(13 nodes, 12 edges, root='v1'))"
    assert pair.__eq__(fig3) is NotImplemented
    assert pair != fig3


def test_profile_validation(pair):
    # both vehicles' actions are (0.0, 100.0): 50.0 lies between two of them
    for bad in (50.0, -1.0, 700.0, float("nan"), None, "x"):
        with pytest.raises(ValueError, match="vehicle 1: departure time .* not a feasible action"):
            vehicle_utility(pair, (bad, 100.0), 1)
        with pytest.raises(ValueError, match="vehicle 2: departure time .* not a feasible action"):
            vehicle_utility(pair, (0.0, bad), 1)
    with pytest.raises(ValueError, match="entries"):
        vehicle_utility(pair, (0.0,), 1)
    for vid in (0, 3, "1", 1.0, True, None):
        with pytest.raises(ValueError, match=re.escape(f"no vehicle with id {vid!r}")):
            vehicle_utility(pair, (0.0, 100.0), vid)
        with pytest.raises(ValueError, match=re.escape(f"no vehicle with id {vid!r}")):
            feasible_actions(pair, vid)
        with pytest.raises(ValueError, match=re.escape(f"no vehicle with id {vid!r}")):
            best_response(pair, (0.0, 100.0), vid)


def test_saving_rate_bound_enforced(fig3):
    params = ModelParams(saving=lambda n: -0.5 * n)
    pattern = r"saving rate f\(1\) must be finite and >= 0, got -0\.5"
    for _ in range(2):  # every instance built with the model raises, not only the first
        with pytest.raises(ValueError, match=pattern):
            Instance(fig3, [Vehicle(1, "v2", 0.0, (0.0, 0.0))] , params)


def test_unhashable_custom_saving_accepted(pair):
    @dataclasses.dataclass
    class Rate:  # compares by value, so it cannot be hashed
        k_p: float

        def __call__(self, n):
            return self.k_p * (n - 1) / n

    inst = Instance(pair.network, pair.vehicles, ModelParams(saving=Rate(5e-5)))
    assert (inst._f, inst._r, inst._g, inst._dg) == (pair._f, pair._r, pair._g, pair._dg)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0] + [10.0**e for e in range(-3, 10)]))
def test_default_penalty_rows_match_model(seed, k_t):
    inst = random_instance(np.random.default_rng(seed), params=ModelParams(k_t=k_t))
    for idx, (acts, row) in enumerate(zip(all_actions(inst), inst._pen)):
        pref = inst._pref[idx]
        assert [p.hex() for p in row] == [
            ref_penalty(inst.params, a, pref).hex() for a in acts
        ]


def test_default_penalty_overflow_rejected(fig3):
    # each window reaches the other's preferred time, 2e300 away: k_t * 2e300 is inf
    vehicles = [
        Vehicle(1, "v4", -1e300, (-1e300, 1e300)),
        Vehicle(2, "v5", 1e300, (-1e300, 1e300)),
    ]
    with pytest.raises(InputError, match=r"k_t 10000000000\.0 overflows the penalty sums") as exc:
        Instance(fig3, vehicles, ModelParams(k_t=1e10))
    assert exc.value.subject == "k_t"


@pytest.mark.parametrize(
    "model, error, message",
    [
        (lambda k: ModelParams(k_p=k), InputError, r"k_p 1e\+305 overflows the saving sums"),
        (lambda k: ModelParams(saving=lambda n: k), ValueError,
         r"the custom saving overflows the saving sums"),
    ],
    ids=["k_p", "custom"],
)
def test_saving_sum_overflow_rejected(fig3, model, error, message):
    # each rate is finite, but 3 vehicles x up to 1e305 x 792 km of road is not
    vehicles = [Vehicle(i + 1, "v9", 0.0, (0.0, 0.0)) for i in range(3)]
    with pytest.raises(ValueError, match=message) as exc:
        Instance(fig3, vehicles, model(1e305))
    assert type(exc.value) is error
    if error is InputError:
        assert exc.value.subject == "k_p"
    Instance(fig3, vehicles, model(1e295))


def test_penalty_sum_overflow_rejected(fig3):
    # each penalty is k_t * 1.5e8 = 1.5e308, finite, but two of them are not
    vehicles = [
        Vehicle(1, "v4", 0.0, (-1.5e8, 1.5e8)),
        Vehicle(2, "v5", 1.5e8, (0.0, 1.5e8)),
    ]
    with pytest.raises(InputError, match=r"k_t 1e\+300 overflows the penalty sums") as exc:
        Instance(fig3, vehicles, ModelParams(k_t=1e300))
    assert exc.value.subject == "k_t"
    custom = ModelParams(penalty=lambda chosen, pref: 0.0 if chosen == pref else 1e308)
    with pytest.raises(ValueError, match=r"custom deviation penalty overflows the penalty sums"):
        Instance(fig3, vehicles, custom)
    inst = Instance(fig3, vehicles, ModelParams(k_t=1e299))
    both_deviate = (1.5e8, 0.0)
    assert np.isfinite(potential(inst, both_deviate))
    assert np.isfinite(cooperative_utility(inst, both_deviate))


@pytest.mark.parametrize(
    "bad",
    [None, "x", 10**400, "0.5", True],
    ids=["None", "str", "int-overflow", "str-number", "bool"],
)
def test_saving_rejected_naming_the_rate(fig3, bad):
    calls = []

    def saving(n):
        calls.append(n)
        return bad

    pattern = rf"saving rate f\(1\) must be finite and >= 0, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=pattern):
        Instance(fig3, [Vehicle(1, "v2", 0.0, (0.0, 0.0))], ModelParams(saving=saving))
    assert calls == [1]


def test_saving_error_propagates_unchanged(fig3):
    calls = []

    def saving(n):
        calls.append(n)
        raise TypeError("inside the saving")

    with pytest.raises(TypeError, match="inside the saving"):
        Instance(fig3, [Vehicle(1, "v2", 0.0, (0.0, 0.0))], ModelParams(saving=saving))
    assert calls == [1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, None, "x", "1", True])
def test_penalty_rejected_naming_vehicle_and_action(fig3, bad):
    # a NaN penalty used to reach an AssertionError inside the solvers
    params = ModelParams(penalty=lambda chosen, pref: 0.0 if chosen == pref else bad)
    vehicles = [
        Vehicle(1, "v4", 0.0, (-500.0, 500.0)),
        Vehicle(2, "v5", 100.0, (-400.0, 600.0)),
    ]
    pattern = (r"vehicle 1: deviation penalty for action 100\.0 must be finite and >= 0, "
               rf"got {re.escape(repr(bad))}$")
    with pytest.raises(ValueError, match=pattern):
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


def test_evaluate_reads_its_profile_once(monkeypatch):
    # the partition, the utilities and the potential share one mapping of the profile
    inst = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "coop-merge.scn")
    calls = []
    check = game._check_profile

    def counted(instance, profile):
        calls.append(profile)
        return check(instance, profile)

    monkeypatch.setattr(game, "_check_profile", counted)
    evaluate(inst, inst.preferred_profile)
    assert calls == [inst.preferred_profile]


def test_reported_numbers_read_penalties_from_instance(fig3):
    # Instance calls the penalty once per action to check it; every reported
    # number then reads that row instead of calling it again.
    calls = []

    def penalty(chosen, pref):
        calls.append((chosen, pref))
        return 0.01 * abs(chosen - pref)

    inst = Instance(
        fig3,
        [Vehicle(1, "v4", 0.0, (-500.0, 500.0)), Vehicle(2, "v5", 100.0, (-400.0, 600.0))],
        ModelParams(penalty=penalty),
    )
    assert len(calls) == 4
    calls.clear()
    for s in [(0.0, 0.0), (0.0, 100.0), (100.0, 100.0)]:
        potential(inst, s)
        cooperative_utility(inst, s)
        evaluate(inst, s)
        vehicle_utility(inst, s, 2)
    assert calls == []


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
                ref_penalty(inst.params, a, v.preferred_time)
                for a in feasible_actions(inst, v.id)
            )
            bound = max(inst._f) * route_len + max_pen
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
    actions = all_actions(inst)
    idx = [draw(st.integers(0, len(a) - 1)) for a in actions]
    return inst, tuple(a[i] for a, i in zip(actions, idx))


@settings(max_examples=60, deadline=None)
@given(small_instances_with_profiles())
def test_exact_potential_identity_property(data):
    inst, s = data
    assert _potential_identity_spread(inst, s) <= 1e-9
