"""Ground-truth machinery: exact minimum-length search and the two
constructive mappings between precedence colorings and schedules.

The exact search walks buffer-vector states best-first (A*): each slot fires
a maximal independent set of pending transmitters, and an admissible lower
bound on the slots left orders and prunes the frontier. A state is the tuple
of buffers in `tree.non_sink_nodes()` order. The maximal sets depend only on
which nodes hold packets, so each search enumerates them once per distinct
eligible set, with Bron–Kerbosch on the complement of the conflict graph,
and keeps them as buffer deltas. It is meant for tiny instances only
(`MAX_ORACLE_NODES`).

The bound is the conflict-clique bound. A node's funnel count f(u) is the
number of packets at or below it; u must still send each of them once. Two
members of a clique K of the conflict graph never share a slot, so at least
the sum of f(u) over K slots remain. The bound is the largest such sum over
the maximal cliques on the non-sink nodes, which Bron–Kerbosch enumerates
once per search. A packet buffered at v passes every node of path(v), v and
its ancestors below the sink, so the sum over K equals the sum of b_v times
|K ∩ path(v)| over the buffers b_v: one dot product per clique. Every node
lies in some maximal clique, and sink children that pairwise conflict lie in
one together, so the bound is never below a sink child's branch sum, nor
below the whole buffer sum in that case. A sender's own count drops by one
and no other count drops, and at most one member of a clique sends per slot,
so the bound drops by at most one per slot; the first goal popped is
therefore optimal. Among states with equal slots + bound the heap pops the
deepest first, so the search dives towards a goal instead of widening every
state of that estimate first.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import combinations
from operator import add, mul

from .scheduler import ConflictMap, Schedule, _bits
from .tree import SpanningTree, subtree_demand


class TooLarge(ValueError):
    """The instance exceeds the exact search's size guard."""


class InvalidColoring(ValueError):
    """The coloring violates an invariant required by the construction."""


MAX_ORACLE_NODES = 8


@dataclass
class Coloring:
    """Positive integer colors over non-sink nodes; zero-demand nodes may be uncolored."""

    colors: dict[int, int] = field(default_factory=dict)


def _maximal_cliques(candidates: int, neighbours: dict[int, int]) -> list[int]:
    """Every maximal clique of the graph induced on the candidates mask, each as a mask.

    Bron–Kerbosch with pivoting: neighbours[v] is v's neighbour mask, given
    for every candidate v, symmetric and without v's own bit; bits outside
    the candidates are ignored. The order of the cliques is unspecified, and
    no candidates give no cliques.
    """
    cliques = []

    def expand(clique: int, pool: int, excluded: int) -> None:
        if not pool:
            if not excluded:  # nothing can extend the clique: it is maximal
                cliques.append(clique)
            return
        # any maximal extension holds the pivot or one of its non-neighbours,
        # so branching on those alone misses none; the busiest pivot leaves the fewest
        pivot = max(_bits(pool | excluded), key=lambda u: (pool & neighbours[u]).bit_count())
        for v in _bits(pool & ~neighbours[pivot]):
            expand(clique | 1 << v, pool & neighbours[v], excluded & neighbours[v])
            pool &= ~(1 << v)
            excluded |= 1 << v

    if candidates:
        expand(0, candidates, 0)
    return cliques


def _maximal_independent_sets(eligible: Sequence[int], conflicts: ConflictMap) -> list[tuple[int, ...]]:
    """Maximal conflict-free subsets of eligible, each sorted, in unspecified order.

    They are the maximal cliques of the complement of the conflict graph on
    the eligible nodes.
    """
    everyone = sum(1 << v for v in eligible)
    compatible = {v: everyone & ~conflicts.masks.get(v, 0) & ~(1 << v) for v in eligible}
    return [tuple(_bits(s)) for s in _maximal_cliques(everyone, compatible)]


def _clique_bound(tree: SpanningTree, conflicts: ConflictMap) -> Callable[[Sequence[int]], int]:
    """The conflict-clique lower bound, as a function of the buffers.

    Buffers are given in `tree.non_sink_nodes()` order. The bound is the
    largest funnel sum over the maximal cliques of the conflict graph on the
    non-sink nodes, computed per clique K as the buffers weighted by the
    number of members of K on each node's path to the sink; 0 with no node.
    At the tree's own rates (`gen_rate`) it is a lower bound on the cycle
    length.
    """
    order = tree.non_sink_nodes()
    nodes = sum(1 << u for u in order)
    neighbours = {u: conflicts.masks.get(u, 0) & nodes for u in order}
    above = {tree.sink: 0}  # v and its ancestors below the sink, as a mask
    for v in sorted(order, key=tree.depth.__getitem__):
        above[v] = 1 << v | above[tree.parent[v]]
    weights = [[(k & above[v]).bit_count() for v in order] for k in _maximal_cliques(nodes, neighbours)]
    return lambda buffers: max((sum(map(mul, buffers, w)) for w in weights), default=0)


def optimal_schedule_length(tree: SpanningTree, conflicts: ConflictMap) -> int:
    """Exact minimum cycle length over all conflict-free delivering schedules.

    Rejects instances with more than `MAX_ORACLE_NODES` nodes. A best-first
    search over buffer tuples (see the module docstring): each slot fires
    one maximal independent set of the nodes holding packets, enumerated by
    Bron–Kerbosch once per distinct eligible set. The estimate is slots +
    `_clique_bound`, which never overestimates the slots left and drops by
    at most one per slot, so the first goal popped is optimal; equal
    estimates pop the deepest state first. A move that drives a buffer below
    zero raises AssertionError.
    """
    if tree.n > MAX_ORACLE_NODES:
        raise TooLarge(f"exact search is limited to {MAX_ORACLE_NODES} nodes, got {tree.n}")

    order = tree.non_sink_nodes()
    index = {u: i for i, u in enumerate(order)}
    bound = _clique_bound(tree, conflicts)
    moves_by_eligible: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    start = tuple(tree.gen_rate[u] for u in order)
    frontier = [(bound(start), 0, start)]
    seen = {start: 0}
    while frontier:
        _, neg_slots, state = heapq.heappop(frontier)
        slots = -neg_slots
        if not any(state):
            return slots
        if slots > seen.get(state, slots):
            continue
        eligible = tuple(u for u, packets in zip(order, state) if packets)
        moves = moves_by_eligible.get(eligible)
        if moves is None:
            moves = []
            for s in _maximal_independent_sets(eligible, conflicts):
                # each transmitter's packet leaves its buffer for its parent's (none for the sink)
                delta = [0] * len(order)
                for u in s:
                    delta[index[u]] -= 1
                    if tree.parent[u] != tree.sink:
                        delta[index[tree.parent[u]]] += 1
                moves.append(tuple(delta))
            moves_by_eligible[eligible] = moves
        cost = slots + 1
        for delta in moves:
            nxt = tuple(map(add, state, delta))
            if min(nxt) < 0:
                raise AssertionError(f"a move drives a buffer below zero from state {state}")
            if cost < seen.get(nxt, cost + 1):
                seen[nxt] = cost
                heapq.heappush(frontier, (cost + bound(nxt), -cost, nxt))
    raise AssertionError("search space exhausted without delivering all packets")


def validate_coloring(
    coloring: Coloring, conflicts: ConflictMap, tree: SpanningTree
) -> bool:
    """True iff colors are positive ints on non-sink tree nodes, distinct within h hops, and below the parent's.

    Uncolored nodes (legitimate for zero-demand nodes) are skipped; the sink
    never carries a color and sink children have no upper constraint.
    """
    colors = coloring.colors
    if tree.sink in colors:
        return False
    for u, c in colors.items():
        if type(c) is not int or c < 1:  # bool is an int subclass, not a color
            return False
    nodes = [u for u in colors if u in tree.depth]
    if len(nodes) != len(colors):
        return False
    for u, v in combinations(sorted(nodes), 2):
        if colors[u] == colors[v] and conflicts.conflicts(u, v):
            return False
    for u in nodes:
        p = tree.parent.get(u)
        if p is not None and p != tree.sink and p in colors and colors[u] >= colors[p]:
            return False
    return True


def coloring_to_schedule(
    coloring: Coloring, tree: SpanningTree, conflicts: ConflictMap
) -> Schedule:
    """Build a schedule from a precedence coloring, color classes in increasing order.

    Each color class gets a region as wide as its largest subtree demand, and
    every member transmits a contiguous block of its own demand at the region
    start, so the total length is the sum of the per-class maxima. The
    coloring must pass `validate_coloring` and color every node with traffic.
    """
    colors = coloring.colors
    demands = {u: subtree_demand(tree, u) for u in tree.non_sink_nodes()}
    for u in tree.non_sink_nodes():
        if demands[u] > 0 and u not in colors:
            raise InvalidColoring(f"node {u} has traffic but no color")
    if not validate_coloring(coloring, conflicts, tree):
        raise InvalidColoring("coloring fails the color, tree, h-hop or parent-order invariant")

    allocations: dict[int, list[tuple[int, int]]] = {}
    cursor = 0
    for color in sorted(set(colors.values())):
        members = [u for u in sorted(colors) if colors[u] == color and demands[u] > 0]
        if not members:
            continue
        region = max(demands[u] for u in members)
        for u in members:
            allocations[u] = [(cursor, demands[u])]
        cursor += region
    return Schedule(cursor, allocations)


def schedule_to_coloring(
    schedule: Schedule, tree: SpanningTree, conflicts: ConflictMap
) -> Coloring:
    """Color nodes by the rank of their final transmission slot.

    Walk the increasing sequence of slots in which some node transmits for
    the last time; the i-th such slot gives color i to every node finishing
    there. Nodes that never transmit stay uncolored.
    """
    last: dict[int, int] = {}
    for u in schedule.allocations:
        if u != tree.sink:
            last[u] = schedule.last_slot(u)
    closing_slots = sorted(set(last.values()))
    rank = {slot: i + 1 for i, slot in enumerate(closing_slots)}
    return Coloring({u: rank[slot] for u, slot in last.items()})
