import dataclasses
import re

import numpy as np
import pytest

import platoonmatch as pm
from platoonmatch import (
    Instance,
    ScenarioConfig,
    SWEEP_CSV_COLUMNS,
    Vehicle,
    cooperative_utility,
    generate_scenario,
    is_nash,
    paper_fig3,
    replication_seed,
    run_replication,
    sweep_alpha,
    trend_summary,
)
from platoonmatch.network import InputError


@pytest.fixture(scope="module")
def fig3():
    return paper_fig3()


@pytest.fixture(scope="module")
def base_config(fig3):
    return ScenarioConfig(network=fig3, n_vehicles=5, alpha=300.0, seed=7)


# ---------------------------------------------------------------------------
# config and generation


def test_config_defaults_pool_to_nonroot_nodes(fig3):
    config = ScenarioConfig(network=fig3, n_vehicles=3, alpha=100.0)
    assert set(config.destination_pool) == fig3.nodes - {"v1"}


def test_config_validation(fig3):
    with pytest.raises(ValueError, match="alpha"):
        ScenarioConfig(network=fig3, n_vehicles=3, alpha=-1.0)
    for name, bad in (("alpha", "1"), ("alpha", True), ("window_halfwidth", None)):
        pattern = rf"{name} must be finite and >= 0, got {bad!r}"
        with pytest.raises(InputError, match=pattern) as exc:
            ScenarioConfig(**{"network": fig3, "n_vehicles": 3, "alpha": 1.0, name: bad})
        assert exc.value.subject == name
    # a window t +- h for t in [0, alpha] must have a finite width
    for alpha, h in ((0.0, 1e308), (1.7e308, 5e307)):
        message = f"window_halfwidth {h!r} is too large for alpha {alpha!r}"
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            ScenarioConfig(network=fig3, n_vehicles=3, alpha=alpha, window_halfwidth=h)
        assert exc.value.subject == "window_halfwidth"
    wide = ScenarioConfig(network=fig3, n_vehicles=3, alpha=1.7e308, window_halfwidth=4e306)
    assert generate_scenario(wide).n_vehicles == 3
    with pytest.raises(ValueError, match="n_vehicles"):
        ScenarioConfig(network=fig3, n_vehicles=0, alpha=1.0)
    with pytest.raises(ValueError, match="root"):
        ScenarioConfig(network=fig3, n_vehicles=3, alpha=1.0, destination_pool=("v1",))
    for bad in ("zz", ["v2"]):  # a list cannot be a key of ``routes``
        message = f"destination pool references unknown node {bad!r}"
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            ScenarioConfig(network=fig3, n_vehicles=3, alpha=1.0, destination_pool=(bad,))
        assert exc.value.subject == "destination_pool"
    with pytest.raises(InputError, match="a destination pool is a sequence of node ids") as exc:
        ScenarioConfig(network=fig3, n_vehicles=3, alpha=1.0, destination_pool="v4")
    assert exc.value.subject == "destination_pool"
    for name in ("n_vehicles", "seed"):
        for bad in (2.5, True, "3"):
            with pytest.raises(InputError, match=rf"{name} must be an integer") as exc:
                ScenarioConfig(**{"network": fig3, "n_vehicles": 3, "alpha": 1.0, name: bad})
            assert exc.value.subject == name
    config = ScenarioConfig(
        network=fig3, n_vehicles=np.int64(3), alpha=np.float32(1.0), seed=np.uint64(7)
    )
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match=r"replications must be an integer >= 1") as exc:
            sweep_alpha(config, [0.0], bad)
        assert exc.value.subject == "replications"
    assert sweep_alpha(config, [0.0], np.int64(2)).to_csv().splitlines()[1].startswith("0.0,2,")


@pytest.mark.parametrize("alpha", [-1.0, float("nan"), "300", True, None])
def test_sweep_rejects_bad_alpha(base_config, alpha):
    with pytest.raises(InputError, match=rf"alpha must be finite and >= 0, got {alpha!r}") as exc:
        sweep_alpha(base_config, [alpha], 1)
    assert exc.value.subject == "alpha"


@pytest.mark.parametrize("alphas", ["300", b"300", 300.0, None, np.array(300.0)])
def test_sweep_rejects_alphas_that_are_not_an_iterable(base_config, alphas):
    message = f"alphas must be an iterable of numbers, got {alphas!r}"
    with pytest.raises(InputError, match=re.escape(message)) as exc:
        sweep_alpha(base_config, alphas, 1)
    assert exc.value.subject == "alphas"


def test_sweep_rejects_empty_alphas(base_config):
    with pytest.raises(InputError, match="alphas must hold at least one value") as exc:
        sweep_alpha(base_config, [], 1)
    assert exc.value.subject == "alphas"


def test_sweep_takes_any_iterable_of_alphas(base_config):
    csv = sweep_alpha(base_config, [300.0, 0.0], 1).to_csv()
    for alphas in ((0.0, 300.0), range(0, 301, 300), (a for a in (300.0, 0.0)),
                   np.array([0.0, 300.0])):
        assert sweep_alpha(base_config, alphas, 1).to_csv() == csv


def test_generate_is_deterministic(base_config):
    a = generate_scenario(base_config)
    b = generate_scenario(base_config)
    assert a == b
    c = generate_scenario(dataclasses.replace(base_config, seed=8))
    assert a != c


def test_generate_respects_bounds(base_config):
    inst = generate_scenario(base_config)
    assert inst.n_vehicles == 5
    for v in inst.vehicles:
        assert 0.0 <= v.preferred_time <= 300.0
        assert v.window == (v.preferred_time - 500.0, v.preferred_time + 500.0)
        assert v.destination in base_config.destination_pool


def test_alpha_zero_degenerates_to_single_action(fig3):
    config = ScenarioConfig(network=fig3, n_vehicles=6, alpha=0.0, seed=3)
    inst = generate_scenario(config)
    for v in inst.vehicles:
        assert v.preferred_time == 0.0
        assert pm.feasible_actions(inst, v.id) == (0.0,)


# ---------------------------------------------------------------------------
# replication


def test_run_replication_single_vehicle(fig3):
    inst = Instance(fig3, [Vehicle(1, "v5", 10.0, (0.0, 20.0))])
    ne, coop = run_replication(inst)
    assert ne.fuel_saving == 0.0 and coop.fuel_saving == 0.0
    assert ne.nonplatooning_fraction == 1.0 and coop.nonplatooning_fraction == 1.0


def test_run_replication_alpha_zero(fig3):
    config = ScenarioConfig(network=fig3, n_vehicles=10, alpha=0.0, seed=5)
    inst = generate_scenario(config)
    ne, coop = run_replication(inst)
    assert ne.nonplatooning_fraction == 0.0
    assert coop.nonplatooning_fraction == 0.0
    assert ne.fuel_saving == pytest.approx(coop.fuel_saving)
    assert ne.fuel_saving > 0.0


def test_replication_outputs_verified_by_oracles(fig3):
    rng = np.random.default_rng(9)
    for _ in range(10):
        config = ScenarioConfig(
            network=fig3,
            n_vehicles=4,
            alpha=float(rng.uniform(0, 800)),
            seed=int(rng.integers(0, 2**32)),
        )
        inst = generate_scenario(config)
        ne_report = pm.brd_solve(inst)
        assert is_nash(inst, ne_report.final)
        assert ne_report.final in pm.brute_force_nash(inst)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_row_deterministic(base_config):
    res = sweep_alpha(base_config, [0.0], 1)
    row = res.rows[0]
    assert res.replications == 1
    assert row.alpha == 0.0
    assert row.ne_saving_std == 0.0
    assert row.ne_fraction_mean == 0.0
    assert row.coop_fraction_std == 0.0


def test_sweep_deterministic_and_sorted(base_config):
    a = sweep_alpha(base_config, [600.0, 0.0, 300.0], 3)
    b = sweep_alpha(base_config, [0.0, 300.0, 600.0], 3)
    assert a == b
    assert [r.alpha for r in a.rows] == [0.0, 300.0, 600.0]
    assert a.to_csv() == b.to_csv()


def test_sweep_means_bounded_by_replication_extremes(base_config):
    alphas = [0.0, 450.0]
    reps = 4
    res = sweep_alpha(base_config, alphas, reps)
    for row in res.rows:
        ne_sav, co_frac = [], []
        for rep in range(reps):
            seed = replication_seed(base_config.seed, row.alpha, rep)
            inst = generate_scenario(
                dataclasses.replace(base_config, alpha=row.alpha, seed=seed)
            )
            ne, coop = run_replication(inst)
            ne_sav.append(ne.fuel_saving)
            co_frac.append(coop.nonplatooning_fraction)
        assert min(ne_sav) - 1e-12 <= row.ne_saving_mean <= max(ne_sav) + 1e-12
        assert min(co_frac) - 1e-12 <= row.coop_fraction_mean <= max(co_frac) + 1e-12
        assert 0.0 <= row.ne_fraction_mean <= 1.0
        assert row.ne_saving_mean >= 0.0


def test_coop_objective_never_below_its_start(fig3):
    for rep in range(15):
        seed = replication_seed(11, 900.0, rep)
        config = ScenarioConfig(network=fig3, n_vehicles=6, alpha=900.0, seed=seed)
        inst = generate_scenario(config)
        report = pm.coop_solve(inst)
        assert report.objective_trace[-1] >= report.objective_trace[0] - 1e-12
        # and the refinement never loses to the plain preferred-time profile
        assert cooperative_utility(inst, report.final) >= cooperative_utility(
            inst, inst.preferred_profile
        ) - 1e-9


def test_sweep_never_computes_objective_traces(base_config, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep computed an objective trace")

    monkeypatch.setattr(pm.game, "potential", refuse)
    monkeypatch.setattr(pm.game, "cooperative_utility", refuse)
    result = sweep_alpha(base_config, [0.0, 300.0], replications=3)
    assert len(result.rows) == 2


def test_sweep_evaluates_each_saving_rate_once(fig3):
    @dataclasses.dataclass
    class Rate:  # compares by value, so it cannot be hashed
        calls: list

        def __call__(self, n):
            self.calls.append(n)
            return 5e-5 * (n - 1) / n

    rate = Rate([])
    config = ScenarioConfig(
        network=fig3, n_vehicles=10, alpha=0.0, params=pm.ModelParams(saving=rate)
    )
    sweep_alpha(config, pm.default_alpha_grid(), 20)
    # one model object and one size across all 220 replications
    assert rate.calls == list(range(1, 11))


def test_sweep_csv_layout(base_config):
    res = sweep_alpha(base_config, [0.0, 150.0], 2)
    lines = res.to_csv().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) == 2
    assert len(first) == len(SWEEP_CSV_COLUMNS)


def test_trend_summary_keys(base_config):
    res = sweep_alpha(base_config, [0.0, 300.0, 600.0], 2)
    trends = trend_summary(res)
    assert set(trends) == {"ne_saving", "ne_fraction", "coop_saving", "coop_fraction"}


def test_replication_seed_distinguishes_inputs():
    seen = {
        replication_seed(root, alpha, rep)
        for root in (0, 1)
        for alpha in (0.0, 150.0)
        for rep in (0, 1, 2)
    }
    assert len(seen) == 12
    assert replication_seed(5, 300.0, 2) == replication_seed(5, 300.0, 2)


#: Replications of the default sweep (alpha, rep) whose equilibrium, coop
#: answer or round counts changed under an absolute gain threshold of 1e-12
#: when k_p and k_t were scaled together: all 7 at 1e-10, the first 7 of 544
#: at 1e-12.
UNIT_SENSITIVE = {
    1e-10: [(300.0, 94), (450.0, 30), (450.0, 94), (600.0, 2), (600.0, 10), (750.0, 79),
            (1500.0, 16)],
    1e-12: [(150.0, 6), (150.0, 8), (150.0, 12), (150.0, 19), (150.0, 28), (150.0, 32),
            (150.0, 36)],
}


@pytest.mark.parametrize("scale", sorted(UNIT_SENSITIVE))
def test_sweep_replications_do_not_depend_on_the_money_unit(fig3, scale):
    def solved(inst):
        ne = pm.brd_solve(inst)
        coop = pm.coop_solve(inst, start=ne.final)
        return ne.final, ne.rounds, coop.final, coop.rounds

    config = ScenarioConfig(network=fig3, n_vehicles=10, alpha=0.0)
    params = pm.ModelParams(k_p=config.params.k_p * scale, k_t=config.params.k_t * scale)
    for alpha, rep in UNIT_SENSITIVE[scale]:
        seed = replication_seed(config.seed, alpha, rep)
        inst = generate_scenario(dataclasses.replace(config, alpha=alpha, seed=seed))
        assert solved(Instance(fig3, inst.vehicles, params)) == solved(inst), (alpha, rep)


def test_replication_seed_takes_a_checked_alpha():
    # alpha's sign bit is no input: -0.0 seeds as 0.0, and a negative alpha is refused
    assert replication_seed(0, -0.0, 0) == replication_seed(0, 0.0, 0)
    with pytest.raises(InputError, match="alpha") as err:
        replication_seed(0, -1.0, 0)
    assert err.value.subject == "alpha"


@pytest.mark.parametrize(
    "args, subject",
    [((-1, 0.0, 0), "root_seed"), ((0.5, 0.0, 0), "root_seed"), ((True, 0.0, 0), "root_seed"),
     ((2**64, 0.0, 0), "root_seed"), ((0, 0.0, -1), "rep"), ((0, 0.0, True), "rep")],
)
def test_replication_seed_checks_its_seed_and_index(args, subject):
    with pytest.raises(InputError, match=rf"{subject} must be an integer") as err:
        replication_seed(*args)
    assert err.value.subject == subject


def test_replication_seed_keeps_every_valid_seed():
    # values of the unchecked function, which passed its arguments straight to numpy
    assert replication_seed(0, 0.0, 0) == 15793235383387715774
    assert replication_seed(2**64 - 1, 1500.0, 99) == 16994569740568494167
    assert replication_seed(12345, 300.0, 10**20) == 6466770560373576743
    assert replication_seed(np.uint64(7), 0.0, np.int64(2)) == replication_seed(7, 0.0, 2)
