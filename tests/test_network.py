import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from platoonmatch import PAPER_FIG3_EDGES, RoadNetwork, paper_fig3
from _reference import ref_path, random_tree_edges

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def fig3():
    return paper_fig3()


def test_fig3_preset_shape(fig3):
    assert len(fig3.nodes) == 13
    assert len(fig3.edges) == 12
    assert fig3.root == "v1"


def test_single_edge_network_is_valid():
    net = RoadNetwork([("v1", "v2", 100.0)], "v1")
    assert net.nodes == {"v1", "v2"}
    assert net.routes == {"v2": (0,)}


def test_root_out_degree_two_rejected():
    with pytest.raises(ValueError, match="exactly one outgoing edge"):
        RoadNetwork([("v1", "v2", 10.0), ("v1", "v3", 10.0)], "v1")
    with pytest.raises(ValueError, match="v1 must have exactly one outgoing edge, found none"):
        RoadNetwork([("v2", "v3", 10.0)], "v1")


def test_root_incoming_edge_rejected():
    with pytest.raises(ValueError, match="no incoming edge"):
        RoadNetwork([("v1", "v2", 10.0), ("v2", "v3", 10.0), ("v3", "v1", 10.0)], "v1")


def test_multiple_parents_rejected():
    with pytest.raises(ValueError, match="more than one incoming edge"):
        RoadNetwork(
            [("v1", "v2", 10.0), ("v2", "v3", 10.0), ("v2", "v4", 10.0), ("v3", "v4", 10.0)],
            "v1",
        )


CYCLE = [("v1", "v2", 10.0), ("v3", "v4", 10.0), ("v4", "v5", 10.0), ("v5", "v3", 10.0)]
# v7 and v9 both lack a parent; the first edge leaving one of them is reported
ORPHANS = [("v1", "v2", 10.0), ("v7", "v8", 10.0), ("v9", "v10", 10.0)]


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle through node v4$"):
        RoadNetwork(CYCLE, "v1")


@pytest.mark.parametrize(
    "length", [0.0, -5.0, float("inf"), float("nan"), "80000", True, "x", None]
)
def test_bad_length_rejected(length):
    pattern = rf"edge v1->v2 must have a positive finite length, got {length!r}"
    with pytest.raises(ValueError, match=pattern) as exc:
        RoadNetwork([("v1", "v2", length)], "v1")
    assert exc.value.subject == ("v1", "v2")


def test_overflowing_road_length_rejected():
    # each length is finite; their running sum stops being so at v2->v3
    edges = [("v1", "v2", 1e308), ("v2", "v3", 1e308), ("v2", "v4", 1.0)]
    with pytest.raises(ValueError, match=r"edge v2->v3 overflows the total road length") as info:
        RoadNetwork(edges, "v1")
    assert info.value.subject == ("v2", "v3")
    assert sum(RoadNetwork(edges[:1] + edges[2:], "v1").edge_lengths) == 1e308


def test_isolated_node_rejected():
    with pytest.raises(ValueError, match="node v7 of edge v7->v8 is unreachable") as info:
        RoadNetwork(ORPHANS, "v1")
    assert info.value.subject == ("v7", "v8")


@pytest.mark.parametrize("edges", [CYCLE, ORPHANS], ids=["cycle", "unreachable"])
def test_errors_do_not_depend_on_the_hash_seed(edges):
    code = (
        "from platoonmatch import RoadNetwork\n"
        "try:\n"
        f"    RoadNetwork({edges!r}, 'v1')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    messages = set()
    for seed in range(5):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout)
    assert len(messages) == 1
    assert messages.pop().strip()


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate edge"):
        RoadNetwork([("v1", "v2", 10.0), ("v1", "v2", 20.0)], "v1")


def route_pairs(net, node):
    return [net.edges[k][:2] for k in net.routes[node]]


def route_length(net, node):
    return sum(net.edge_lengths[k] for k in net.routes[node])


def test_route_v5(fig3):
    assert route_pairs(fig3, "v5") == [("v1", "v2"), ("v2", "v3"), ("v3", "v5")]
    assert route_pairs(fig3, "v5") == ref_path(PAPER_FIG3_EDGES, "v1", "v5")
    assert route_length(fig3, "v5") == 320000.0


def test_route_v2_one_hop(fig3):
    assert route_pairs(fig3, "v2") == [("v1", "v2")]
    assert route_pairs(fig3, "v2") == ref_path(PAPER_FIG3_EDGES, "v1", "v2")
    assert route_length(fig3, "v2") == 80000.0


def test_route_v13(fig3):
    assert route_pairs(fig3, "v13") == [
        ("v1", "v2"),
        ("v2", "v6"),
        ("v6", "v8"),
        ("v8", "v10"),
        ("v10", "v13"),
    ]
    assert route_pairs(fig3, "v13") == ref_path(PAPER_FIG3_EDGES, "v1", "v13")
    assert route_length(fig3, "v13") == 284000.0


def test_route_is_connected_and_acyclic(fig3):
    assert set(fig3.routes) == fig3.nodes - {"v1"}
    for node in sorted(fig3.routes):
        pairs = route_pairs(fig3, node)
        assert pairs[0][0] == "v1"
        assert pairs[-1][1] == node
        for k in range(len(pairs) - 1):
            assert pairs[k][1] == pairs[k + 1][0]
        visited = [e[0] for e in pairs] + [pairs[-1][1]]
        assert len(visited) == len(set(visited))


@given(st.integers(0, 2**32 - 1))
def test_routes_match_parent_walk_on_random_trees(seed):
    edges = random_tree_edges(np.random.default_rng(seed), max_nodes=12)
    net = RoadNetwork(edges, "v1")
    nodes = {t for t, _, _ in edges} | {h for _, h, _ in edges}
    assert net.nodes == nodes
    assert set(net.routes) == nodes - {"v1"}
    for node in nodes - {"v1"}:
        assert route_pairs(net, node) == ref_path(edges, "v1", node)
