"""Directed-tree road network: construction, validation, and route queries.

All trucks start at a single origin node (the tree root) and fan out toward
their destinations.  Because the network is a directed tree with a
degree-one root, the route from the origin to any node is unique, every
route starts on the same outgoing edge, and splits only happen at interior
nodes.  Networks are immutable after construction; every query here is a
pure function, so instances can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


class InputError(ValueError):
    """An input that breaks a rule of the model.

    ``subject`` names the rejected input: an ``(tail, head)`` edge, a
    vehicle id, a field name, or ``None`` for a property of the whole
    network (a cycle, an unreachable node).  Scenario files map it back to
    the line that declared it.
    """

    def __init__(self, subject, message: str):
        super().__init__(message)
        self.subject = subject


@dataclass(frozen=True)
class Route:
    """The unique path from the network root to one destination node."""

    destination: str
    edges: tuple[tuple[str, str], ...]
    length: float


class RoadNetwork:
    """A directed tree of road segments rooted at the common origin.

    Node ids are opaque strings.  Edges are ``(tail, head, length_meters)``
    triples and are identified by their ``(tail, head)`` pair.  The root
    has no incoming edge and exactly one outgoing edge; every other node
    has exactly one incoming edge.  Construction validates all of this and
    precomputes the route to every node.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str, float]],
        root: str,
    ):
        self.nodes: frozenset[str] = frozenset(str(n) for n in nodes)
        self.edges: tuple[tuple[str, str, float], ...] = tuple(
            (str(t), str(h), float(d)) for t, h, d in edges
        )
        self.root: str = str(root)
        self._parent = self._validate()
        self.edge_ids: dict[tuple[str, str], int] = {
            (t, h): k for k, (t, h, _) in enumerate(self.edges)
        }
        self.edge_lengths: tuple[float, ...] = tuple(d for _, _, d in self.edges)
        self._routes: dict[str, Route] = {
            node: self._trace(node) for node in self.nodes if node != self.root
        }
        self._route_ids: dict[str, tuple[int, ...]] = {
            node: tuple(self.edge_ids[e] for e in r.edges) for node, r in self._routes.items()
        }

    def _validate(self) -> dict[str, str]:
        if self.root not in self.nodes:
            raise InputError(None, f"root {self.root!r} is not among the nodes")
        # Duplicates go first: every later per-edge error then names an edge
        # that occurs once, so its subject identifies a single declaration.
        seen: set[tuple[str, str]] = set()
        for tail, head, _ in self.edges:
            if (tail, head) in seen:
                raise InputError((tail, head), f"duplicate edge {tail}->{head}")
            seen.add((tail, head))
        parent: dict[str, str] = {}
        root_out: tuple[str, str] | None = None
        for tail, head, length in self.edges:
            edge = (tail, head)
            if tail not in self.nodes or head not in self.nodes:
                raise InputError(edge, f"edge {tail}->{head} references an unknown node")
            if not (math.isfinite(length) and length > 0):
                raise InputError(
                    edge,
                    f"edge {tail}->{head} must have a positive finite length, got {length!r}",
                )
            if head == self.root:
                raise InputError(
                    edge, f"root {self.root} must have no incoming edge, got {tail}->{head}"
                )
            if head in parent:
                raise InputError(
                    edge,
                    f"node {head} has more than one incoming edge: "
                    f"{parent[head]}->{head} and {tail}->{head}",
                )
            parent[head] = tail
            if tail == self.root:
                if root_out is not None:
                    raise InputError(
                        edge,
                        f"root {self.root} must have exactly one outgoing edge, found "
                        f"{root_out[0]}->{root_out[1]} and {tail}->{head}",
                    )
                root_out = edge
        if root_out is None:
            raise InputError(
                None, f"root {self.root} must have exactly one outgoing edge, found none"
            )
        for node in self.nodes:
            if node != self.root and node not in parent:
                raise InputError(
                    None, f"node {node} is unreachable from the root (no incoming edge)"
                )
        # Each non-root node has one parent, so any walk that fails to reach
        # the root must loop.
        for node in self.nodes:
            visited: set[str] = set()
            cur = node
            while cur != self.root:
                if cur in visited:
                    raise InputError(None, f"edges form a cycle through node {cur}")
                visited.add(cur)
                cur = parent[cur]
        return parent

    def _trace(self, destination: str) -> Route:
        chain: list[tuple[str, str]] = []
        cur = destination
        while cur != self.root:
            p = self._parent[cur]
            chain.append((p, cur))
            cur = p
        chain.reverse()
        lengths = self.edge_lengths
        return Route(
            destination, tuple(chain), float(sum(lengths[self.edge_ids[e]] for e in chain))
        )

    def route_indices(self, destination: str) -> tuple[int, ...]:
        """Edge positions (into ``self.edges``) along the route to a node."""
        return self._route_ids[route_to(self, destination).destination]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.root == other.root
        )

    __hash__ = None  # mutable-by-convention container semantics

    def __repr__(self) -> str:
        return (
            f"RoadNetwork({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"root={self.root!r})"
        )


def build_network(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str, float]],
    root: str,
) -> RoadNetwork:
    """Validate and build a rooted directed-tree network."""
    return RoadNetwork(nodes, edges, root)


def route_to(network: RoadNetwork, destination: str) -> Route:
    """The unique route from the root to ``destination``."""
    destination = str(destination)
    if destination == network.root:
        raise ValueError(f"destination equals the root {network.root!r}; no route")
    try:
        return network._routes[destination]
    except KeyError:
        raise ValueError(f"unknown node {destination!r}") from None


def edges_of(network: RoadNetwork, destinations: Iterable[str]) -> set[tuple[str, str]]:
    """Edges traversed by at least one vehicle headed to the given destinations."""
    out: set[tuple[str, str]] = set()
    for d in destinations:
        out.update(route_to(network, d).edges)
    return out


def count_on_edge(
    network: RoadNetwork,
    edge: tuple[str, str],
    destinations: Iterable[str],
) -> int:
    """How many of the given vehicles (one per destination entry) traverse ``edge``.

    ``destinations`` is a multiset: repeat a node once per vehicle headed there.
    """
    e = (str(edge[0]), str(edge[1]))
    if e not in network.edge_ids:
        raise ValueError(f"unknown edge {e[0]}->{e[1]}")
    return sum(1 for d in destinations if e in route_to(network, d).edges)


#: 13-node / 12-edge benchmark tree used by the bundled scenarios and demos.
PAPER_FIG3_EDGES: tuple[tuple[str, str, float], ...] = (
    ("v1", "v2", 80000.0),
    ("v2", "v3", 80000.0),
    ("v3", "v4", 120000.0),
    ("v3", "v5", 160000.0),
    ("v2", "v6", 80000.0),
    ("v6", "v7", 80000.0),
    ("v6", "v8", 80000.0),
    ("v8", "v9", 20000.0),
    ("v8", "v10", 20000.0),
    ("v8", "v11", 24000.0),
    ("v10", "v12", 24000.0),
    ("v10", "v13", 24000.0),
)


def paper_fig3() -> RoadNetwork:
    """Build the benchmark network shipped under the preset name ``paper-fig3``."""
    nodes = {t for t, _, _ in PAPER_FIG3_EDGES} | {h for _, h, _ in PAPER_FIG3_EDGES}
    return build_network(nodes, PAPER_FIG3_EDGES, "v1")


PRESETS = {"paper-fig3": paper_fig3}
