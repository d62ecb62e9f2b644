import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from platoonmatch import (
    Instance, ModelParams, RoadNetwork, Vehicle, default_alpha_grid, experiments, paper_fig3,
)
from platoonmatch.cli import ScenarioError, _parse_alphas, dump_scenario, load_scenario, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def two_vehicles(tmp_path):
    path = tmp_path / "two.scn"
    path.write_text(
        "network preset paper-fig3\n"
        "param k_p 5e-05\n"
        "param k_t 0.015\n"
        "vehicle v4 0 -500 500\n"
        "vehicle v5 100 -400 600\n"
    )
    return path


# ---------------------------------------------------------------------------
# scenario parsing


def test_shipped_fig3_file_matches_preset():
    inst = load_scenario(SCENARIOS / "fig3-network.scn")
    assert inst.network == paper_fig3()
    assert inst.n_vehicles == 10


def test_shipped_two_vehicle_file_loads():
    inst = load_scenario(SCENARIOS / "two-vehicles.scn")
    assert [v.destination for v in inst.vehicles] == ["v4", "v5"]


def test_parse_rejects_root_out_degree_two(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "network root v1\n"
        "network edge v1 v2 100\n"
        "network edge v1 v3 100\n"
        "vehicle v2 0 -10 10\n"
    )
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert "line 3" in err
    assert "v1->v3" in err


def test_parse_rejects_second_parent(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "network root v1\n"
        "network edge v1 v2 100\n"
        "network edge v2 v3 100\n"
        "network edge v2 v4 100\n"
        "network edge v3 v4 50\n"
    )
    with pytest.raises(ValueError, match="line 5.*more than one incoming"):
        load_scenario(bad)


def test_parse_rejects_nonpositive_length(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("network root v1\nnetwork edge v1 v2 -4\n")
    with pytest.raises(ValueError, match="line 2.*positive"):
        load_scenario(bad)


def test_parse_rejects_mixed_vehicle_and_generator(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "network preset paper-fig3\n"
        "vehicle v4 0 -10 10\n"
        "generate n 3\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        load_scenario(bad)


def test_parse_rejects_window_violation(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("network preset paper-fig3\nvehicle v4 50 -10 10\n")
    with pytest.raises(ValueError, match="line 2.*outside window"):
        load_scenario(bad)


def test_parse_rejects_unknown_directive(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("networks preset paper-fig3\n")
    with pytest.raises(ValueError, match="line 1.*unknown directive"):
        load_scenario(bad)


def test_parse_rejects_unknown_destination(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("network preset paper-fig3\nvehicle v4 0 -10 10\nvehicle v99 0 -10 10\n")
    with pytest.raises(ValueError, match="line 3.*unknown destination"):
        load_scenario(bad)


def test_parse_rejects_root_destination(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("network preset paper-fig3\nvehicle v1 0 -10 10\n")
    with pytest.raises(ValueError, match="line 2.*origin"):
        load_scenario(bad)


def test_parse_rejects_missing_network(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("vehicle v4 0 -10 10\n")
    with pytest.raises(ValueError, match="no network section"):
        load_scenario(bad)


@pytest.fixture()
def replications(monkeypatch):
    """The instances that ``experiments.run_replication`` is called with."""
    runs = []
    real = experiments.run_replication

    def counted(instance):
        runs.append(instance)
        return real(instance)

    monkeypatch.setattr(experiments, "run_replication", counted)
    return runs


def assert_rejected(tmp_path, capsys, scenario, argv, pattern):
    """The CLI exits 1 with one ``error:`` line matching ``pattern``; with a
    ``scenario`` text, ``argv`` follows ``solve <file>``."""
    if scenario is not None:
        path = tmp_path / "bad.scn"
        path.write_text(scenario)
        argv = ("solve", str(path), *argv)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert re.fullmatch(rf"error: {pattern}[^\n]*\n", err), err


NET = "network root v1\nnetwork edge v1 v2 100\n"
FIG3 = "network preset paper-fig3\n"
GEN = FIG3 + "generate n 3\n"


@pytest.mark.parametrize(
    "scenario, argv, pattern",
    [
        (NET + "network edge v2 v3 inf\nvehicle v3 0 -10 10\n", (),
         r"line 3: edge v2->v3 must have a positive finite length"),
        (FIG3 + "param k_p inf\nvehicle v4 0 -10 10\n", (), r"line 2: k_p must be finite"),
        (FIG3 + "param k_p 1e-4\nparam k_t nan\nvehicle v4 0 -10 10\n", (),
         r"line 3: k_t must be finite"),
        (FIG3 + "vehicle v4 0 -10 10\nvehicle v5 0 -inf inf\n", (),
         r"line 3: vehicle 2: non-finite"),
        (GEN + "generate alpha nan\n", (), r"line 3: alpha must be finite"),
        (GEN + "generate alpha inf\n", (), r"line 3: alpha must be finite"),
        (GEN + "generate alpha 100\ngenerate halfwidth inf\n", (),
         r"line 4: window_halfwidth must be finite"),
        (FIG3 + "generate n 0\ngenerate alpha 100\n", (), r"line 2: n_vehicles must be >= 1"),
        (None, ("sweep", "--n", "2", "--reps", "1", "--alphas", "inf"), r"alpha must be finite"),
        (None, ("sweep", "--n", "2", "--reps", "1", "--halfwidth", "inf"),
         r"window_halfwidth must be finite"),
        (None, ("sweep", "--kp", "1e305", "--reps", "3", "--alphas", "0,300"),
         r"k_p 1e\+305 overflows the saving sums"),
        (FIG3 + "param k_t 1e300\nvehicle v4 0 -1.5e8 1.5e8\nvehicle v5 1.5e8 0 1.5e8\n", (),
         r"line 2: k_t 1e\+300 overflows the penalty sums"),
        (None, ("sweep", "--alphas", ","), r"alphas must hold at least one value"),
        (None, ("sweep", "--alphas", "1:0:1"), r"alphas must hold at least one value"),
        (None, ("sweep", "--alphas", "x"), r"--alphas: 'x' is not a number"),
        (None, ("sweep", "--alphas", "0:x:1"), r"--alphas: 'x' is not a number"),
        (None, ("sweep", "--alphas", "0, 1e3y ,300"), r"--alphas: '1e3y' is not a number"),
        # a step below the start's resolution never moves it
        (None, ("sweep", "--alphas", "1e300:1e300:1"),
         r"--alphas: range '1e300:1e300:1' expands to more than 10000 values"),
        (None, ("sweep", "--alphas", "0:1e300:1"),
         r"--alphas: range '0:1e300:1' expands to more than 10000 values"),
        # a seed of 2**64 would alias seed 0
        (None, ("sweep", "--n", "2", "--reps", "1", "--alphas", "0", "--seed", str(2**64)),
         r"seed must be an integer in \[0, 2\*\*64\), got 18446744073709551616"),
        (GEN + "generate alpha 100\ngenerate seed 18446744073709551616\n", (),
         r"line 4: seed must be an integer in \[0, 2\*\*64\)"),
        (None, ("sweep", "--alphas", "0:10:0"), r"alpha step must be > 0, got 0\.0"),
        # an infinite default saving rate f(3) or penalty is named as its parameter
        (FIG3 + "param k_p 1e308\nvehicle v4 0 -10 10\nvehicle v5 0 -10 10\n"
         "vehicle v9 0 -10 10\n", (), r"line 2: k_p 1e\+308 overflows the saving sums"),
        (FIG3 + "param k_t 1e300\nvehicle v4 0 0 2e10\nvehicle v5 2e10 0 2e10\n", (),
         r"line 2: k_t 1e\+300 overflows the penalty sums"),
        # finite bounds whose width is not: its zero-rate penalties would be NaN
        (FIG3 + "param k_t 0\nvehicle v4 0 -1.7e308 1.7e308\n", (),
         r"line 3: vehicle 1: window \[-1\.7e\+308, 1\.7e\+308\] is too wide"),
        (GEN + "generate alpha 1.7e308\ngenerate halfwidth 1e308\n", (),
         r"line 4: window_halfwidth 1e\+308 is too large for alpha 1\.7e\+308"),
        (None, ("sweep", "--n", "10", "--alphas", "0,300,600,1.7e308", "--halfwidth", "1e308"),
         r"window_halfwidth 1e\+308 is too large for alpha 0\.0"),
        # the base config holds, the last alpha's does not
        (None, ("sweep", "--n", "10", "--alphas", "0,300,600,1.7e308", "--halfwidth", "5e307"),
         r"window_halfwidth 5e\+307 is too large for alpha 1\.7e\+308"),
    ],
    ids=["edge-inf", "k_p-inf", "k_t-nan", "window-inf", "alpha-nan", "alpha-inf",
         "halfwidth-inf", "n-zero", "sweep-alpha-inf", "sweep-halfwidth-inf",
         "sweep-k_p-overflow", "k_t-overflow", "sweep-alphas-empty", "sweep-alphas-empty-range",
         "sweep-alphas-word", "sweep-alphas-range-word", "sweep-alphas-list-word",
         "sweep-alphas-stuck-range", "sweep-alphas-huge-range", "sweep-seed-2**64",
         "generate-seed-2**64", "sweep-alphas-zero-step", "k_p-rate-inf", "k_t-penalty-inf",
         "window-too-wide", "generate-window-too-wide", "sweep-halfwidth-too-large",
         "sweep-halfwidth-too-large-last-alpha"],
)
def test_rejection_names_its_input_and_line(tmp_path, capsys, replications, scenario, argv,
                                            pattern):
    assert_rejected(tmp_path, capsys, scenario, argv, pattern)
    assert replications == []  # a sweep checks all of its input before the first replication


@pytest.mark.parametrize(
    "scenario, argv, pattern",
    [
        # a repeated edge is reported at the repeat, ahead of its other faults
        (NET + "network edge v2 v3 -1\nnetwork edge v2 v3 5\n", (), r"line 4: duplicate edge v2->v3"),
        (NET + "network edge v2 v1 5\n", (), r"line 3: root v1 must have no incoming edge"),
        # a fault of the whole network falls back to the first network line
        ("# comment\n" + NET + "network edge v3 v4 5\nnetwork edge v4 v3 5\n", (),
         r"line 2: edges form a cycle"),
        # a node without a parent is reported at the first edge leaving it
        (NET + "network edge v2 v3 5\nnetwork edge v7 v8 10\nvehicle v3 0 -10 10\n", (),
         r"line 4: node v7 of edge v7->v8 is unreachable"),
        (NET + "network node v9\n", (), r"line 3: unknown network directive 'node'"),
        (GEN + "generate alpha 100\ngenerate pool v2 v99\n", (),
         r"line 4: destination pool references unknown node 'v99'"),
        # a command-line seed has no line in the file
        (GEN + "generate alpha 100\ngenerate seed 3\n", ("--seed", "-1"),
         r"seed must be an integer in \[0, 2\*\*64\), got -1"),
        (None, ("sweep", "--alphas", "0:inf:150"), r"alpha range bounds must be finite"),
        # the edge that overflows the total road length, not the saving rate
        ("network root v1\nnetwork edge v1 v2 1e308\nnetwork edge v2 v3 1e308\n"
         "param k_p 0\nvehicle v3 0 -10 10\n", (),
         r"line 3: edge v2->v3 overflows the total road length"),
    ],
    ids=["duplicate-edge", "edge-into-root", "cycle", "unreachable-edge", "node-directive",
         "pool", "seed-override", "sweep-range-inf", "road-overflow"],
)
def test_rejection_anchors(tmp_path, capsys, scenario, argv, pattern):
    assert_rejected(tmp_path, capsys, scenario, argv, pattern)


#: zero, everyday magnitudes and the top of the float range
EXTREME = st.one_of(st.just(0.0), st.floats(1e-3, 1e4), st.floats(1e290, 1.7e308))
SIGNED = st.builds(lambda x, negative: -x if negative else x, EXTREME, st.booleans())


@st.composite
def extreme_scenarios(draw):
    """A scenario with both params declared and either vehicles whose window
    bounds and preferred time come from ``SIGNED``, or a generate section."""
    lines = [FIG3.strip(), f"param k_p {draw(EXTREME)!r}", f"param k_t {draw(EXTREME)!r}"]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            lo, pref, hi = sorted(draw(st.lists(SIGNED, min_size=3, max_size=3)))
            node = draw(st.sampled_from(["v4", "v5", "v7", "v9"]))
            lines.append(f"vehicle {node} {pref!r} {lo!r} {hi!r}")
    else:
        lines += [f"generate n {draw(st.integers(1, 4))}", f"generate alpha {draw(EXTREME)!r}",
                  f"generate halfwidth {draw(EXTREME)!r}",
                  f"generate seed {draw(st.integers(0, 2**16))}"]
    return "\n".join(lines) + "\n"


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=150, deadline=None)
@given(extreme_scenarios())
def test_extreme_numbers_solve_or_name_their_line(tmp_path_factory, text):
    """A scenario either solves to finite numbers or is rejected at a line it declares."""
    path = tmp_path_factory.getbasetemp() / "extreme.scn"
    path.write_text(text)
    n_lines = text.count("\n")
    for mode in ("ne", "coop"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path), "--mode", mode])
        if code == 0:
            assert err.getvalue() == ""
            assert all(math.isfinite(x) for x in _numbers(json.loads(out.getvalue())))
        else:
            match = re.fullmatch(r"error: line (\d+): [^\n]*\n", err.getvalue())
            assert (code, out.getvalue()) == (1, "") and match, err.getvalue()
            assert 1 <= int(match[1]) <= n_lines


ROOT_V1 = "network root v1\n"
#: (scenario text, its exact rejection message), one for each rejection of ``_Parser``
SCENARIO_REJECTIONS = [
    # every usage form
    ("network\n", "line 1: incomplete network directive"),
    ("network preset\n", "line 1: usage: network preset <name>"),
    ("network preset paper-fig3 x\n", "line 1: usage: network preset <name>"),
    ("network root\n", "line 1: usage: network root <node>"),
    ("network root v1 v2\n", "line 1: usage: network root <node>"),
    (ROOT_V1 + "network edge v1 v2\n", "line 2: usage: network edge <tail> <head> <length_m>"),
    (FIG3 + "param k_p\n", "line 2: usage: param k_p|k_t <value>"),
    (FIG3 + "param k_q 1\n", "line 2: usage: param k_p|k_t <value>"),
    (FIG3 + "vehicle v4 0 -10\n",
     "line 2: usage: vehicle <destination> <preferred> <window_lo> <window_hi>"),
    (FIG3 + "generate\n", "line 2: incomplete generate directive"),
    (FIG3 + "generate n\n", "line 2: usage: generate n <count>"),
    (FIG3 + "generate n 3 4\n", "line 2: usage: generate n <count>"),
    (FIG3 + "generate alpha\n", "line 2: usage: generate alpha <seconds>"),
    (FIG3 + "generate halfwidth 1 2\n", "line 2: usage: generate halfwidth <seconds>"),
    (FIG3 + "generate seed\n", "line 2: usage: generate seed <int>"),
    (FIG3 + "generate pool\n", "line 2: usage: generate pool <node> [<node> ...]"),
    # every "already declared"
    (FIG3 + FIG3, "line 2: preset already declared"),
    (ROOT_V1 + ROOT_V1, "line 2: root already declared"),
    (NET + "network root v2\n", "line 3: root already declared"),
    (FIG3 + "param k_t 1\nparam k_t 2\n", "line 3: k_t already declared"),
    (GEN + "generate n 4\n", "line 3: generate n already declared"),
    (FIG3 + "generate pool v2\ngenerate pool v3\n", "line 3: generate pool already declared"),
    # presets against explicit lines, and the root before edges
    (ROOT_V1 + FIG3, "line 2: a preset cannot be combined with explicit network lines"),
    (FIG3 + ROOT_V1, "line 2: explicit root cannot be combined with a preset"),
    (FIG3 + "network edge v1 v2 5\n", "line 2: explicit edges cannot be combined with a preset"),
    ("network edge v1 v2 5\n", "line 1: declare 'network root' before edges"),
    # unknown names
    ("network preset fig3\n", "line 1: unknown preset 'fig3' (known: paper-fig3)"),
    (ROOT_V1 + "network node v2\n", "line 2: unknown network directive 'node'"),
    (GEN + "generate count 3\n", "line 3: unknown generate directive 'count'"),
    # tokens that are not numbers
    (ROOT_V1 + "network edge v1 v2 far\n", "line 2: edge length must be a number, got 'far'"),
    (FIG3 + "param k_t 1e-2x\n", "line 2: k_t must be a number, got '1e-2x'"),
    (FIG3 + "vehicle v4 noon -10 10\n", "line 2: preferred time must be a number, got 'noon'"),
    (FIG3 + "vehicle v4 0 x 10\n", "line 2: window_lo must be a number, got 'x'"),
    (FIG3 + "vehicle v4 0 -10 y\n", "line 2: window_hi must be a number, got 'y'"),
    (GEN + "generate alpha soon\n", "line 3: generate alpha must be a number, got 'soon'"),
    (GEN + "generate halfwidth -\n", "line 3: generate halfwidth must be a number, got '-'"),
    (FIG3 + "generate n 2.5\n", "line 2: generate n must be an integer, got '2.5'"),
    (GEN + "generate seed 0x1\n", "line 3: generate seed must be an integer, got '0x1'"),
    # sections
    (GEN + "vehicle v4 0 -10 10\n",
     "line 3: explicit vehicles cannot be combined with a generate section"),
    (FIG3, "scenario defines neither vehicles nor a generate section"),
    (FIG3 + "generate alpha 100\n", "generate section is missing 'generate n'"),
    (GEN, "generate section is missing 'generate alpha'"),
]


@pytest.mark.parametrize(
    "scenario, message", SCENARIO_REJECTIONS, ids=[m for _, m in SCENARIO_REJECTIONS]
)
def test_scenario_rejection_message(tmp_path, scenario, message):
    path = tmp_path / "bad.scn"
    path.write_text(scenario)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_overflowing_saving_rejected_at_its_line(tmp_path, capsys, command):
    # at k_p 1e305 every rate is finite, but the route sums overflow
    path = tmp_path / "huge.scn"
    path.write_text(
        FIG3 + "param k_t 0.015\nparam k_p 1e305\n"
        "vehicle v4 0 -500 500\nvehicle v5 100 -400 600\nvehicle v6 50 -400 600\n"
    )
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: line 3: k_p 1e\+305 overflows the saving sums[^\n]*\n", err), err


def test_generator_seed_override(tmp_path):
    path = tmp_path / "gen.scn"
    path.write_text(
        "network preset paper-fig3\ngenerate n 4\ngenerate alpha 200\ngenerate seed 3\n"
    )
    a = load_scenario(path)
    b = load_scenario(path)
    c = load_scenario(path, seed_override=4)
    assert a == b
    assert a != c


def test_dump_scenario_round_trips(tmp_path, two_vehicles):
    inst = load_scenario(two_vehicles)
    dumped = tmp_path / "dumped.scn"
    dumped.write_text(dump_scenario(inst))
    again = load_scenario(dumped)
    assert again == inst
    assert dump_scenario(again) == dump_scenario(inst)
    custom = Instance(inst.network, inst.vehicles, ModelParams(saving=lambda n: 0.0))
    with pytest.raises(ValueError, match="custom saving/penalty functions cannot be serialized"):
        dump_scenario(custom)


@pytest.mark.parametrize("node", ["depot#2", "a b", ""])
def test_dump_scenario_rejects_node_ids_that_cannot_reparse(node):
    inst = Instance(RoadNetwork([("o", node, 1000.0)], "o"), [Vehicle(1, node, 0.0, (0.0, 0.0))])
    with pytest.raises(ValueError, match=rf"node id {re.escape(repr(node))} cannot be serialized"):
        dump_scenario(inst)


def test_dump_scenario_resolves_generator(tmp_path):
    path = tmp_path / "gen.scn"
    path.write_text(
        "network preset paper-fig3\ngenerate n 4\ngenerate alpha 200\ngenerate seed 3\n"
    )
    inst = load_scenario(path)
    dumped = tmp_path / "dumped.scn"
    dumped.write_text(dump_scenario(inst))
    assert load_scenario(dumped) == inst


# ---------------------------------------------------------------------------
# solve


def test_solve_json_reports_metrics(capsys, two_vehicles):
    code, out, _ = run_cli(capsys, "solve", str(two_vehicles))
    assert code == 0
    payload = json.loads(out)
    assert payload["total_fuel_saving"] == pytest.approx(8.0, abs=1e-9)
    assert payload["nonplatooning_fraction"] == 0.0
    assert sorted(payload["partition"][0]["vehicles"]) == [1, 2]
    assert payload["converged"] is True


def test_solve_single_vehicle(capsys, tmp_path):
    path = tmp_path / "one.scn"
    path.write_text("network preset paper-fig3\nvehicle v9 5 0 10\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["total_fuel_saving"] == 0.0
    assert payload["nonplatooning_fraction"] == 1.0


def test_solve_csv_format(capsys, two_vehicles):
    code, out, _ = run_cli(capsys, "solve", str(two_vehicles), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vehicle,destination,preferred_time,chosen_time,platoon,utility"
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert any(l.startswith("# total_fuel_saving=8.0") for l in lines)


def test_solve_csv_quotes_node_ids(capsys, tmp_path):
    # a comma is a legal token character, so the destination field needs quotes
    path = tmp_path / "comma.scn"
    path.write_text(
        "network root o\nnetwork edge o a,b 1000\nvehicle a,b 0 -10 10\nvehicle a,b 5 -10 10\n"
    )
    code, out, _ = run_cli(capsys, "solve", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[1] for row in rows[1:]] == ["a,b", "a,b"]


def test_solve_coop_mode(capsys):
    code, out, _ = run_cli(
        capsys, "solve", str(SCENARIOS / "coop-merge.scn"), "--mode", "coop"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["profile"] == [400.0, 400.0, 400.0]


def test_solve_writes_file_and_dump(capsys, tmp_path, two_vehicles):
    out_path = tmp_path / "result.json"
    dump_path = tmp_path / "resolved.scn"
    code, _, _ = run_cli(
        capsys,
        "solve",
        str(two_vehicles),
        "--out",
        str(out_path),
        "--dump-scenario",
        str(dump_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["total_fuel_saving"] == pytest.approx(8.0)
    assert load_scenario(dump_path) == load_scenario(two_vehicles)


def test_solve_missing_file_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.scn"))
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_pair(capsys, two_vehicles):
    code, out, _ = run_cli(capsys, "oracle", str(two_vehicles))
    assert code == 0
    assert "pure Nash equilibria: 2" in out
    assert "0.0 0.0" in out
    assert "is an equilibrium: True" in out


def test_oracle_single_vehicle(capsys, tmp_path):
    path = tmp_path / "one.scn"
    path.write_text("network preset paper-fig3\nvehicle v9 5 0 10\n")
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert "pure Nash equilibria: 1" in out


def test_oracle_space_too_large_to_allocate_is_an_error(capsys, tmp_path):
    # 2^60 profiles under the raised cap: their arrays exceed any address space.
    path = tmp_path / "sixty.scn"
    path.write_text("network preset paper-fig3\n" + "".join(
        f"vehicle v9 {100 * (i % 2)} -500 600\n" for i in range(60)
    ))
    code, _, err = run_cli(capsys, "oracle", str(path), "--cap", str(2 * 10**18))
    assert code == 1
    assert re.search(rf"^error: profile space holds {2**60} profiles, within the cap", err, re.M)


def test_repeated_calls_leave_no_cycles(capsys):
    # The parser is built once: each call used to leave about 270 objects in
    # reference cycles that only the cyclic collector frees.
    argv = ["oracle", str(SCENARIOS / "two-vehicles.scn")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert main(argv) == 0
        reclaimed = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert reclaimed < 100


def test_flags_do_not_leak_into_the_next_call(capsys):
    scenario = str(ROOT / "tests" / "golden" / "oracle-fig3-n6.scn")  # generate seed 0
    assert main(["oracle", scenario, "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["oracle", scenario]) == 0
    golden = ROOT / "tests" / "golden" / "oracle_fig3-n6-seed0.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_oracle_cap_exceeded(capsys, two_vehicles):
    code, _, err = run_cli(capsys, "oracle", str(two_vehicles), "--cap", "1")
    assert code == 1
    assert "cap" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_deterministic_csv(capsys, tmp_path):
    args = [
        "sweep",
        "--n",
        "4",
        "--reps",
        "2",
        "--alphas",
        "0:300:300",
        "--seed",
        "7",
        "--out",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1, out1, _ = run_cli(capsys, *args, str(first))
    code2, out2, _ = run_cli(capsys, *args, str(second))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert out1 == out2
    assert "spearman ne_saving vs alpha" in out1
    header = first.read_text().splitlines()[0]
    assert header.startswith("alpha,replications,ne_saving_mean")


def test_sweep_alpha_range_parsing(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--n", "3", "--reps", "1", "--alphas", "0,150", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "0.0"
    assert rows[2].split(",")[0] == "150.0"


def test_alpha_range_keeps_its_values_up_to_the_limit():
    # the longest range the limit accepts, and the default grid as a range
    assert _parse_alphas("0:9999:1") == [float(k) for k in range(10_000)]
    assert _parse_alphas("0:1500:150") == list(default_alpha_grid())


@pytest.mark.parametrize(
    "alphas, pattern",
    [("", r"alphas must hold at least one value"), ("0,300,inf", r"alpha must be finite")],
    ids=["empty", "inf-last"],
)
def test_sweep_rejects_alphas_before_any_replication(capsys, replications, alphas, pattern):
    code, out, err = run_cli(capsys, "sweep", "--n", "2", "--reps", "3", "--alphas", alphas)
    assert (code, out, len(replications)) == (1, "", 0)
    assert re.fullmatch(rf"error: {pattern}[^\n]*\n", err), err


def test_sweep_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--alphas", "0:100")
    assert code == 1
    assert "start:stop:step" in err


# ---------------------------------------------------------------------------
# demo


def test_demo_fig4(capsys):
    code, out, _ = run_cli(capsys, "demo-fig4")
    assert code == 0
    assert "sweep 0:" in out
    assert "is_nash: True" in out


def test_demo_fig4_seed_flag(capsys):
    code, out, _ = run_cli(capsys, "demo-fig4", "--seed", "3")
    assert code == 0
    assert "is_nash: True" in out


# ---------------------------------------------------------------------------
# fresh interpreters


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def test_module_entry_points_agree():
    outputs = []
    for module in ("platoonmatch.cli", "platoonmatch"):
        proc = run_python("-m", module, "solve", "scenarios/two-vehicles.scn")
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]


#: Prints, after the code before it, every numpy and scipy module it loaded.
LOADED_HEAVY = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')),"
    " file=sys.stderr)\n"
)


def test_startup_imports_neither_numpy_nor_scipy():
    proc = run_python(
        "-c",
        "from platoonmatch.cli import PRESETS\n"
        "PRESETS['paper-fig3']()\n" + LOADED_HEAVY,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_solving_a_written_scenario_never_loads_numpy():
    proc = run_python(
        "-c",
        "from platoonmatch import cli\n"
        "assert cli.main(['solve', 'scenarios/two-vehicles.scn']) == 0\n" + LOADED_HEAVY,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "solve_two-vehicles_ne.json").read_text()
    assert proc.stderr == "[]\n"
