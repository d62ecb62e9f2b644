"""Byte-for-byte pins of CLI output on fixed inputs.

The sweep and solve JSON files under ``tests/golden/`` were written by the
full-recompute evaluation code that preceded the incremental platoon-state
kernel, the solve CSV files and ``dump_generated-n60.scn`` by the command
line before its file flags shared one writer, the ``oracle_*.txt`` files by the enumeration that followed the
profiles with that kernel's state, and ``demo-fig4_seed60.txt`` by the
kernel before the solvers and ``is_nash`` shared one stability rule.  Any
change to solver decisions, round counts, the equilibrium set or the
summation order of the reported numbers shows up here as a byte difference.  Four hash pins extend this to a
generated N=200 solve, to a few thousand random profiles, to what the
kernel's scan returns for each vehicle of those kinds of profiles under
both objectives and to the equilibrium sets of a few hundred random
instances.  The last test holds the oracle's memory on its four large
pinned spaces to 40 bytes per profile.
"""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from platoonmatch import (
    Instance,
    ModelParams,
    RoadNetwork,
    ScenarioConfig,
    Vehicle,
    brd_solve,
    brute_force_nash,
    cooperative_utility,
    default_alpha_grid,
    evaluate,
    generate_scenario,
    nonplatooning_fraction,
    paper_fig3,
    potential,
    sweep_alpha,
    total_fuel_saving,
    trend_summary,
    vehicle_utility,
)
from platoonmatch.cli import main
from platoonmatch.game import _PlatoonState, feasible_actions
from platoonmatch.solvers import _decide
from _reference import (
    all_actions,
    custom_params,
    lone_saving_params,
    random_instance,
    random_profile,
)

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"

SOLVE_INPUTS = [
    SCENARIOS / "two-vehicles.scn",
    SCENARIOS / "coop-merge.scn",
    SCENARIOS / "fig3-network.scn",
    GOLDEN / "generated-n60.scn",
]


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "10", "--reps", "20", "--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_n10_r20_seed42.csv").read_bytes()


def test_demo_fig4_matches_golden(capsys):
    assert main(["demo-fig4"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "demo-fig4_seed60.txt").read_bytes()


def test_sweep_trends_match_pins():
    # The sweep's printed Spearman lines come from these values; the CSV
    # golden file does not cover them.
    config = ScenarioConfig(network=paper_fig3(), n_vehicles=10, alpha=0.0, seed=42)
    result = sweep_alpha(config, default_alpha_grid(), 20)
    assert result.to_csv().encode() == (GOLDEN / "sweep_n10_r20_seed42.csv").read_bytes()
    assert trend_summary(result) == {
        "ne_saving": -0.9636363636363637,
        "ne_fraction": 0.9425910042369909,
        "coop_saving": -0.9476106589626668,
        "coop_fraction": 0.8001520746183626,
    }


@pytest.mark.parametrize("mode", ["ne", "coop"])
@pytest.mark.parametrize("scenario", SOLVE_INPUTS, ids=lambda p: p.stem)
def test_solve_matches_golden(tmp_path, scenario, mode):
    out = tmp_path / "solve.json"
    assert main(["solve", str(scenario), "--mode", mode, "--out", str(out)]) == 0
    golden = GOLDEN / f"solve_{scenario.stem}_{mode}.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "scenario, mode",
    [(SCENARIOS / "fig3-network.scn", "ne"), (SCENARIOS / "coop-merge.scn", "coop")],
    ids=["fig3-network-ne", "coop-merge-coop"],
)
def test_solve_csv_matches_golden(tmp_path, scenario, mode):
    out = tmp_path / "solve.csv"
    assert main(["solve", str(scenario), "--mode", mode, "--format", "csv", "--out", str(out)]) == 0
    golden = GOLDEN / f"solve_{scenario.stem}_{mode}.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_dump_scenario_matches_golden(tmp_path):
    dump = tmp_path / "dump.scn"
    argv = ["solve", str(GOLDEN / "generated-n60.scn"), "--out", str(tmp_path / "solve.json")]
    assert main([*argv, "--dump-scenario", str(dump)]) == 0
    assert dump.read_bytes() == (GOLDEN / "dump_generated-n60.scn").read_bytes()


SOLVE_N200 = (
    "network preset paper-fig3\n"
    "generate n 200\ngenerate alpha 300\ngenerate halfwidth 500\ngenerate seed 0\n"
)

#: sha256 of the solve JSON on a generated N=200 instance, too large to keep
#: as a golden file.  Reported numbers summed in another order (say, by edge
#: id) change the potential's last bits here while every small golden holds.
SOLVE_N200_SHA256 = {
    "ne": "7dffef744fcb3be7ef4ac36db6b5852fe3fbe10016239ecb1119bb7fea3409c8",
    "coop": "88f298f71281f9c23bc42ca3e57de1c0c7708015c898fea3f248590391a127b6",
}


@pytest.mark.parametrize("mode", SOLVE_N200_SHA256)
def test_solve_n200_matches_pinned_hash(tmp_path, mode):
    scenario = tmp_path / "n200.scn"
    scenario.write_text(SOLVE_N200)
    out = tmp_path / "solve.json"
    assert main(["solve", str(scenario), "--mode", mode, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SOLVE_N200_SHA256[mode]


NASH_TOLS = (1e-12, 0.0, -1e-9, -1.0, 1.0, 1e9)


def stable_at(inst, profile, tol):
    """``is_nash`` with ``tol`` in place of the instance's tolerance: ``_decide``
    keeps every vehicle."""
    state = _PlatoonState(inst, profile)
    return all(_decide(state, idx, "self", tol) is None for idx in range(inst.n_vehicles))


def test_reported_numbers_match_pinned_hash():
    """Every reported number and equilibrium verdict, bit for bit.

    150 random instances under each of the default, the custom and the
    lone-saving model, each at its preferred profile, its best-response
    equilibrium and three random profiles.  Floats enter the hash as
    ``float.hex``; the equilibrium verdict is taken at fixed tolerances,
    negative ones too, where a vehicle with one action must still count as
    stable.
    """
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()

    def put(*xs):
        for x in xs:
            h.update((x.hex() if isinstance(x, float) else repr(x)).encode() + b"\n")

    for _ in range(150):
        for params in (None, custom_params(), lone_saving_params()):
            inst = random_instance(rng, params=params)
            profiles = [inst.preferred_profile, brd_solve(inst).final]
            profiles += [random_profile(inst, rng) for _ in range(3)]
            for s in profiles:
                put(potential(inst, s), cooperative_utility(inst, s),
                    total_fuel_saving(inst, s), nonplatooning_fraction(inst, s))
                out = evaluate(inst, s)
                put(out.partition, *out.utilities, out.potential, out.total_fuel_saving,
                    out.nonplatooning_fraction)
                put(*(vehicle_utility(inst, s, v.id) for v in inst.vehicles))
                put(*(stable_at(inst, s, tol) for tol in NASH_TOLS))
    assert h.hexdigest() == "7b06fedee3b9052172411464e884b27cbb1c0fe3e642c5b4da085759921de9ad"


def test_kernel_decisions_match_pinned_hash():
    """Every score the solvers and the equilibrium check decide from, bit for bit.

    100 random instances under each of the default, the custom and the
    lone-saving model, each at its preferred profile, its best-response
    equilibrium and three random profiles.  For every vehicle and both
    objectives, ``_PlatoonState.scan``'s value at the current action, best
    value over the other actions and the time of the smallest action reaching
    it enter the hash as ``float.hex``, with ``-inf`` and ``None`` for a
    vehicle with one action.  The cooperative deltas decide near-tie moves without showing in
    any reported number.
    """
    rng = np.random.default_rng(2027)
    h = hashlib.sha256()
    for _ in range(100):
        for params in (None, custom_params(), lone_saving_params()):
            inst = random_instance(rng, params=params)
            profiles = [inst.preferred_profile, brd_solve(inst).final]
            profiles += [random_profile(inst, rng) for _ in range(3)]
            for s in profiles:
                state = _PlatoonState(inst, s)
                for idx in range(inst.n_vehicles):
                    acts = feasible_actions(inst, idx + 1)
                    for objective in ("self", "cooperative"):
                        vcur, vbest, kbest = state.scan(idx, objective)
                        best = "None" if kbest is None else acts[kbest].hex()
                        h.update(f"{vcur.hex()} {vbest.hex()} {best}\n".encode())
    assert h.hexdigest() == "d37751788c43df44d74d293b398128350b3f11a36e1eaeaa3f4019aef6215947"


def test_oracle_random_instances_match_pinned_hash():
    """The equilibrium sets of 306 random instances, bit for bit.

    34 draws under each pair of model (default, custom, no platoon saving)
    and window half-width cap (1000, 300, 60 s); the 38 draws whose spaces
    hold more than 20,000 profiles are skipped.  Each equilibrium enters the
    hash as one line of ``float.hex`` departure times, sorted per instance.
    """
    rng = np.random.default_rng(2026)
    h = hashlib.sha256()
    for _ in range(34):
        for params in (None, custom_params(), ModelParams(k_p=0.0)):
            for cap in (1000.0, 300.0, 60.0):
                inst = random_instance(rng, params=params, max_halfwidth=cap)
                if np.prod([len(a) for a in all_actions(inst)]) > 20_000:
                    h.update(b"skipped\n")
                    continue
                lines = sorted(" ".join(t.hex() for t in s) for s in brute_force_nash(inst))
                h.update(("\n".join(lines) + "\n--\n").encode())
    assert h.hexdigest() == "4f7e7b63730c33177ca71d8c756f5805fbc80286fb77aabf2aa29d1502fdfc04"


ORACLE_INPUTS = [
    ("two-vehicles", [SCENARIOS / "two-vehicles.scn"]),
    ("coop-merge", [SCENARIOS / "coop-merge.scn"]),
] + [
    (f"fig3-n6-seed{k}", [GOLDEN / "oracle-fig3-n6.scn", "--seed", str(k)])
    for k in range(4)
]


@pytest.mark.parametrize("name, args", ORACLE_INPUTS, ids=[n for n, _ in ORACLE_INPUTS])
def test_oracle_matches_golden(capsys, name, args):
    assert main(["oracle", *map(str, args)]) == 0
    golden = GOLDEN / f"oracle_{name}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def _generated_n7():
    # 7^7 = 823,543 profiles: every preferred time lies in every window.
    config = ScenarioConfig(
        network=paper_fig3(), n_vehicles=7, alpha=300.0, seed=3, window_halfwidth=500.0
    )
    return generate_scenario(config)


def _two_times(network, dests):
    return Instance(network, [
        Vehicle(i + 1, d, 100.0 * (i % 2), (-500.0, 600.0)) for i, d in enumerate(dests)
    ])


def _nested_path_n18():
    # Vehicle i drives to node i of a path, so the head counts on a route
    # tell which vehicles share it: 2^18 profiles.
    nodes = [f"p{i}" for i in range(19)]
    edges = [(a, b, 1000.0 * (i + 1)) for i, (a, b) in enumerate(zip(nodes, nodes[1:]))]
    return _two_times(RoadNetwork(edges, "p0"), nodes[1:])


def _fig3_n18():
    dests = [f"v{k}" for k in range(2, 14)]
    return _two_times(paper_fig3(), [dests[i % len(dests)] for i in range(18)])


def _one_mate_pairs():
    # Pair p shares the times 1000p and 1000p + 100 and no other, so each of
    # its two vehicles has one mate; the last vehicle holds time 0 alone in
    # its window and only adds a head to pair 0's routes: 2^18 profiles.
    dests = [f"v{k}" for k in range(2, 14)]
    vehicles = [
        Vehicle(i + 1, dests[i % len(dests)], 1000.0 * (i // 2) + 100.0 * (i % 2),
                (1000.0 * (i // 2) - 50.0, 1000.0 * (i // 2) + 150.0))
        for i in range(18)
    ]
    return Instance(paper_fig3(), vehicles + [Vehicle(19, "v13", 0.0, (-10.0, 10.0))])


LARGE_ORACLE_INPUTS = {
    "generated-n7": _generated_n7,
    "nested-path-n18": _nested_path_n18,
    "fig3-n18": _fig3_n18,
    "one-mate-pairs": _one_mate_pairs,
}


def _profile_lines(equilibria) -> str:
    return "".join(" ".join(map(repr, s)) + "\n" for s in sorted(equilibria))


@pytest.mark.parametrize("name", LARGE_ORACLE_INPUTS)
def test_oracle_large_spaces_match_golden(name):
    """Sorted equilibria of four large profile spaces, one per line."""
    equilibria = brute_force_nash(LARGE_ORACLE_INPUTS[name]())
    golden = GOLDEN / f"oracle_large_{name}.txt"
    assert _profile_lines(equilibria) == golden.read_text()


@pytest.mark.parametrize("name", LARGE_ORACLE_INPUTS)
def test_oracle_large_spaces_memory_per_profile(name):
    # The cap bounds memory only while the arrays stay linear in the space.
    inst = LARGE_ORACLE_INPUTS[name]()
    size = math.prod(len(a) for a in all_actions(inst))
    tracemalloc.start()
    try:
        brute_force_nash(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * size
