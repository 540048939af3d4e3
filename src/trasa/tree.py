"""Bounded-degree data-gathering spanning trees rooted at the sink.

Construction follows minimum-hop parent selection under a per-node child
limit. The attachment order is fixed for reproducibility: nodes attach in
BFS order (smallest feasible depth first, ties by ascending node id), each
to the lowest-id non-full attached neighbor at that depth.

The builder attaches one depth layer at a time. For d = 1, 2, ... it walks
the unattached neighbors of the depth d-1 layer in ascending id and attaches
each to its lowest-id depth d-1 neighbor that is not yet full; a parent
leaves the open set once it fills. This is exactly the rule above: every
attachment at depth d comes before any at depth d+1, and a full parent stays
full, so a node left over at layer d has only full neighbors at depth <= d-1
and can attach only deeper, below a node of a later layer. A node's neighbor
list is read once when its layer expands and once per layer that still has
an open parent when the walk reaches the node. Connectivity is checked only
when some node stays unattached, to tell Disconnected from Infeasible; a
disconnected graph can never span, so the outcome is the one a check made
first would give.
"""

from __future__ import annotations

from collections.abc import Mapping

from .topology import SINK, NetworkGraph, _at_least, _integer, is_connected


class Disconnected(ValueError):
    """The graph does not reach every node from the sink."""


class Infeasible(ValueError):
    """The child limit blocks the deterministic attachment rule from spanning."""


class SpanningTree:
    """Parent/children structure with depth, descendant and generation-rate maps.

    The root `sink` is always `SINK`. gen_rate(u) is the number of packets u
    generates per cycle; the sink's rate is always 0. Immutable once built:
    the tree takes ownership of the four maps it is given, without copying
    them, and derives its descendant counts, subtree demands and node order
    from them once, so neither the tree's maps nor the caller's may change.
    """

    def __init__(
        self,
        parent: dict[int, int],
        children: dict[int, list[int]],
        depth: dict[int, int],
        gen_rate: dict[int, int],
    ):
        self.sink = SINK
        self.parent = parent
        self.children = children
        self.depth = depth
        self.gen_rate = gen_rate
        self._nodes = sorted(depth)
        self._non_sink = [u for u in self._nodes if u != SINK]
        self._bottom_up = sorted(depth, key=depth.__getitem__, reverse=True)  # children first
        self.descendants = dict.fromkeys(depth, 0)
        self._demand = {u: gen_rate.get(u, 0) for u in depth}
        for u in self._bottom_up:
            for c in children.get(u, ()):
                self.descendants[u] += 1 + self.descendants[c]
                self._demand[u] += self._demand[c]

    @property
    def n(self) -> int:
        return len(self.depth)

    def nodes(self) -> list[int]:
        return list(self._nodes)

    def non_sink_nodes(self) -> list[int]:
        return list(self._non_sink)

    def total_generated(self) -> int:
        return sum(self.gen_rate[u] for u in self._non_sink)

    def _check_non_sink(self, u) -> int:
        """u as a node id of this tree other than the sink, else ValueError."""
        u = _integer(u, "node id")
        if u == self.sink:
            raise ValueError("the sink never transmits and has no traffic demand")
        if u not in self.depth:
            raise ValueError(f"node {u} not in tree")
        return u


def _normalize_rates(nodes: list[int], gen_rate) -> dict[int, int]:
    if isinstance(gen_rate, Mapping):
        rates = {u: _integer(gen_rate.get(u, 1), "gen_rate") for u in nodes}
    else:
        rates = dict.fromkeys(nodes, _integer(gen_rate, "gen_rate"))
    rates[SINK] = 0
    for u, r in rates.items():
        if r < 0:
            raise ValueError(f"negative gen_rate for node {u}")
    return rates


def build_spanning_tree(
    graph: NetworkGraph,
    max_children: int,
    *,
    gen_rate: int | Mapping[int, int] = 1,
) -> SpanningTree:
    """Build the deterministic bounded-degree spanning tree rooted at the sink (`SINK`).

    Raises Disconnected when some node is unreachable from the sink, and
    Infeasible when the attachment rule dead-ends (every neighbor of some
    unattached node is full); callers typically resample the topology then.
    """
    max_children = _at_least(max_children, "max_children", 1)
    n = graph.n
    adjacency = graph._adjacency
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {u: [] for u in range(n)}
    depth: dict[int, int] = {SINK: 0}
    unattached = set(range(n)) - {SINK}
    layer, d = [SINK], 0
    while layer and unattached:
        d += 1
        open_parents = set(layer)
        waiting = unattached.intersection(set().union(*map(adjacency.__getitem__, layer)))
        layer = []
        for v in sorted(waiting):
            if not open_parents:
                break
            for p in adjacency[v]:  # ascending, so the first open parent is the lowest-id one
                if p in open_parents:
                    parent[v] = p
                    depth[v] = d
                    kids = children[p]
                    kids.append(v)
                    if len(kids) >= max_children:
                        open_parents.remove(p)
                    layer.append(v)
                    break
        unattached.difference_update(layer)

    if unattached:
        if not is_connected(graph):
            raise Disconnected("graph is not connected from the sink")
        raise Infeasible(
            f"child limit {max_children} blocks nodes {sorted(unattached)} from attaching"
        )

    rates = _normalize_rates(list(range(n)), gen_rate)
    return SpanningTree(parent, children, depth, rates)


def subtree_demand(tree: SpanningTree, u: int) -> int:
    """Packets u must forward per cycle: its own plus everything generated below it."""
    return tree._demand[tree._check_non_sink(u)]


def dump_tree(tree: SpanningTree) -> str:
    """One `<node_id> <parent_id> <depth> <descendants> <gen_rate>` line per node.

    The sink line uses parent_id -1. Lines are ordered by node id.
    """
    lines = []
    for u in tree.nodes():
        p = tree.parent.get(u, -1) if u != tree.sink else -1
        lines.append(
            f"{u} {p} {tree.depth[u]} {tree.descendants[u]} {tree.gen_rate[u]}"
        )
    return "\n".join(lines) + "\n"
