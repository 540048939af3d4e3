"""Bounded-degree data-gathering spanning trees rooted at the sink.

Construction follows minimum-hop parent selection under a per-node child
limit. The attachment order is fixed for reproducibility: nodes attach in
BFS order (smallest feasible depth first, ties by ascending node id), each
to the lowest-id non-full attached neighbor at that depth.

The builder realises that rule with a lazy min-heap of (depth + 1, node,
parent) offers. An attaching node offers itself to each unattached neighbor;
an offer is pushed only if it beats the one that neighbor already holds. A
popped offer is dropped if its node is attached or holds a better one. If
its parent has filled up since, the node's attached, non-full neighbors are
rescanned and the best of them is offered instead; with none, the node waits
for a new neighbor to attach. Attachment depths never decrease, so a filling
parent only raises a node's best feasible (depth, parent) key, and a new
neighbor offers itself directly: the offer a node holds is never above that
key, and one popped while its parent is still open is exactly the key. Pops
therefore follow the rule above. Offers cost O(E log E) for E edges; a node
rescans its neighbors only when the parent it holds fills up, so at most
once per neighbor.
"""

from __future__ import annotations

from collections.abc import Mapping
from heapq import heappop, heappush

from .topology import SINK, NetworkGraph, is_connected


class Disconnected(ValueError):
    """The graph does not reach every node from the sink."""


class Infeasible(ValueError):
    """The child limit blocks the deterministic attachment rule from spanning."""


class SpanningTree:
    """Parent/children structure with depth, descendant and generation-rate maps.

    gen_rate(u) is the number of packets u generates per cycle; the sink's
    rate is always 0. Immutable once built.
    """

    def __init__(
        self,
        sink: int,
        parent: dict[int, int],
        children: dict[int, list[int]],
        depth: dict[int, int],
        gen_rate: dict[int, int],
    ):
        self.sink = sink
        self.parent = dict(parent)
        self.children = {u: list(cs) for u, cs in children.items()}
        self.depth = dict(depth)
        self.gen_rate = dict(gen_rate)
        self.descendants = {u: 0 for u in self.depth}
        self._demand = {u: self.gen_rate.get(u, 0) for u in self.depth}
        for u in sorted(self.depth, key=self.depth.__getitem__, reverse=True):  # children first
            for c in self.children.get(u, []):
                self.descendants[u] += 1 + self.descendants[c]
                self._demand[u] += self._demand[c]

    @property
    def n(self) -> int:
        return len(self.depth)

    def nodes(self) -> list[int]:
        return sorted(self.depth)

    def non_sink_nodes(self) -> list[int]:
        return [u for u in self.nodes() if u != self.sink]

    def total_generated(self) -> int:
        return sum(self.gen_rate[u] for u in self.non_sink_nodes())


def _normalize_rates(nodes: list[int], sink: int, gen_rate) -> dict[int, int]:
    if isinstance(gen_rate, Mapping):
        rates = {u: int(gen_rate.get(u, 1)) for u in nodes}
    else:
        rates = {u: int(gen_rate) for u in nodes}
    rates[sink] = 0
    for u, r in rates.items():
        if r < 0:
            raise ValueError(f"negative gen_rate for node {u}")
    return rates


def build_spanning_tree(
    graph: NetworkGraph,
    max_children: int,
    sink: int = SINK,
    gen_rate: int | Mapping[int, int] = 1,
) -> SpanningTree:
    """Build the deterministic bounded-degree spanning tree rooted at sink.

    Raises Disconnected when some node is unreachable from the sink, and
    Infeasible when the attachment rule dead-ends (every neighbor of some
    unattached node is full); callers typically resample the topology then.
    """
    if max_children < 1:
        raise ValueError("max_children must be >= 1")
    graph._check_node(sink)
    if not is_connected(graph):
        raise Disconnected("graph is not connected from the sink")

    n = graph.n
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {u: [] for u in range(n)}
    depth: dict[int, int] = {sink: 0}
    best: dict[int, tuple[int, int]] = {}  # unattached node -> best (depth, parent) offered
    heap: list[tuple[int, int, int]] = []

    def offer(key: tuple[int, int], v: int) -> None:
        if v not in best or key < best[v]:
            best[v] = key
            heappush(heap, (key[0], v, key[1]))

    def attach(u: int) -> None:
        key = (depth[u] + 1, u)
        for v in graph.neighbors(u):
            if v not in depth:
                offer(key, v)

    attach(sink)
    while heap:
        d, v, p = heappop(heap)
        if best.get(v) != (d, p):  # beaten, or v attached (attaching clears best[v])
            continue
        del best[v]
        if len(children[p]) >= max_children:
            # p filled up since the push: re-offer v its best remaining parent, if any.
            options = [
                (depth[q] + 1, q)
                for q in graph.neighbors(v)
                if q in depth and len(children[q]) < max_children
            ]
            if options:
                offer(min(options), v)
            continue
        parent[v] = p
        children[p].append(v)
        depth[v] = d
        attach(v)

    if len(depth) < n:
        blocked = sorted(set(range(n)) - set(depth))
        raise Infeasible(
            f"child limit {max_children} blocks nodes {blocked} from attaching"
        )

    rates = _normalize_rates(list(range(n)), sink, gen_rate)
    return SpanningTree(sink, parent, children, depth, rates)


def subtree_demand(tree: SpanningTree, u: int) -> int:
    """Packets u must forward per cycle: its own plus everything generated below it."""
    if u == tree.sink:
        raise ValueError("the sink never transmits and has no traffic demand")
    if u not in tree.depth:
        raise ValueError(f"node {u} not in tree")
    return tree._demand[u]


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


def write_tree_file(tree: SpanningTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_tree(tree))
