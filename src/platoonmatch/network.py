"""Directed-tree road network: construction, validation, and routes.

All trucks start at a single origin node (the tree root) and fan out toward
their destinations.  Because the network is a directed tree with a
degree-one root, the route from the origin to any node is unique, every
route starts on the same outgoing edge, and splits only happen at interior
nodes.  Networks are immutable after construction, so instances can be
shared freely across workers.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Iterable


class InputError(ValueError):
    """An input that breaks a rule of the model.

    ``subject`` names the rejected input: an ``(tail, head)`` edge, a
    vehicle id, a field name, or ``None`` for a property of the whole
    network (a cycle, a root without an outgoing edge).  Scenario files map
    it back to the line that declared it.
    """

    def __init__(self, subject, message: str):
        super().__init__(message)
        self.subject = subject


def is_real(value) -> bool:
    """True for a Python or numpy real, not a bool, that is finite as a float."""
    if type(value) is float:  # the common case, without the cost of the ABC check
        return math.isfinite(value)
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_count(value) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def nonnegative_float(name: str, value) -> float:
    """``float(value)`` for a real number that is finite and >= 0, else ``InputError(name)``."""
    if not (is_real(value) and value >= 0):
        raise InputError(name, f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


class RoadNetwork:
    """A directed tree of road segments rooted at the common origin.

    Node ids are opaque strings.  Edges are ``(tail, head, length_meters)``
    triples and are identified by their ``(tail, head)`` pair; every length is
    a positive real number, kept as a float, their running sum in declaration
    order is finite, and the nodes are the root and every edge endpoint.  The
    root has no incoming edge and exactly one outgoing edge; every other node
    has exactly one incoming edge.  Construction validates all of this and
    precomputes the route to every node: ``routes[node]`` holds the positions
    into ``edges`` of the route from the root, in travel order, so its keys
    are exactly the nodes other than the root: the valid destinations.
    """

    def __init__(self, edges: Iterable[tuple[str, str, float]], root: str):
        # a length that is not a number stays as given, for ``_validate`` to name
        self.edges: tuple[tuple[str, str, float], ...] = tuple(
            (str(t), str(h), float(d) if is_real(d) else d) for t, h, d in edges
        )
        self.root: str = str(root)
        self.nodes: frozenset[str] = frozenset(
            (self.root, *(n for t, h, _ in self.edges for n in (t, h)))
        )
        self.edge_lengths: tuple[float, ...] = tuple(d for _, _, d in self.edges)
        self.routes: dict[str, tuple[int, ...]] = self._validate()

    def _validate(self) -> dict[str, tuple[int, ...]]:
        # Duplicates go first: every later per-edge error then names an edge
        # that occurs once, so its subject identifies a single declaration.
        seen: set[tuple[str, str]] = set()
        for tail, head, _ in self.edges:
            if (tail, head) in seen:
                raise InputError((tail, head), f"duplicate edge {tail}->{head}")
            seen.add((tail, head))
        in_edge: dict[str, int] = {}  # node -> position of its incoming edge
        root_out: tuple[str, str] | None = None
        road = 0.0
        for k, (tail, head, length) in enumerate(self.edges):
            edge = (tail, head)
            if not (is_real(length) and length > 0):
                raise InputError(
                    edge,
                    f"edge {tail}->{head} must have a positive finite length, got {length!r}",
                )
            if not math.isfinite(road + length):
                raise InputError(
                    edge,
                    f"edge {tail}->{head} overflows the total road length: "
                    f"{road!r} + {length!r} m is not finite",
                )
            road += length
            if head == self.root:
                raise InputError(
                    edge, f"root {self.root} must have no incoming edge, got {tail}->{head}"
                )
            if head in in_edge:
                raise InputError(
                    edge,
                    f"node {head} has more than one incoming edge: "
                    f"{self.edges[in_edge[head]][0]}->{head} and {tail}->{head}",
                )
            in_edge[head] = k
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
        # Every node but the root is an edge endpoint, so a node without a
        # parent is the tail of some edge: the first such edge is reported.
        for tail, head, _ in self.edges:
            if tail != self.root and tail not in in_edge:
                raise InputError(
                    (tail, head),
                    f"node {tail} of edge {tail}->{head} is unreachable from the root "
                    "(no incoming edge)",
                )
        # Each non-root node has one parent, so any walk that fails to reach
        # the root must loop.  The walk that rules this out also records the
        # node's route; heads go in declaration order, so every process
        # reports the same node.
        routes: dict[str, tuple[int, ...]] = {}
        for _, node, _ in self.edges:
            visited: set[str] = set()
            chain: list[int] = []
            cur = node
            while cur != self.root:
                if cur in visited:
                    raise InputError(None, f"edges form a cycle through node {cur}")
                visited.add(cur)
                k = in_edge[cur]
                chain.append(k)
                cur = self.edges[k][0]
            chain.reverse()
            routes[node] = tuple(chain)
        return routes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        return self.edges == other.edges and self.root == other.root

    __hash__ = None  # mutable-by-convention container semantics

    def __repr__(self) -> str:
        return (
            f"RoadNetwork({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"root={self.root!r})"
        )


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
    return RoadNetwork(PAPER_FIG3_EDGES, "v1")


PRESETS = {"paper-fig3": paper_fig3}
