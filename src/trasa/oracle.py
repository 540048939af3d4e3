"""Ground-truth machinery: exact minimum-length search and the two
constructive mappings between precedence colorings and schedules.

The exact search walks buffer-vector states best-first (A*): each slot fires
a maximal independent set of pending transmitters, and an admissible lower
bound on the slots left orders and prunes the frontier. A state is the tuple
of buffers in `tree.non_sink_nodes()` order, and buffer i is bit i of a
mask. Once per search the conflict masks in that order give one compatibility
mask (the buffers that may share a slot) and one parent index per buffer. The
maximal sets depend only on which buffers hold packets, so the search keys
them by that int mask and enumerates them once per distinct eligible mask,
with Bron–Kerbosch on the compatibility masks, keeping each as a buffer
delta. It is meant for tiny instances only (`MAX_ORACLE_NODES`).

The bound is the conflict-clique bound. A node's funnel count f(u) is the
number of packets at or below it; u must still send each of them once. Two
members of a clique K of the conflict graph never share a slot, so at least
the sum of f(u) over K slots remain. The bound is the largest such sum over
the maximal cliques on the non-sink nodes, which Bron–Kerbosch enumerates
once per search. A packet buffered at v passes every node of path(v), v and
its ancestors below the sink, so the sum over K equals the sum of b_v times
|K ∩ path(v)| over the buffers b_v: one dot product per clique, taken once
per popped state. A packet leaving v for its parent lowers the sum over K by
one if v is in K and leaves it unchanged otherwise, so each move keeps its
change to every clique sum next to its delta, and a push's estimate is the
popped sums plus those changes, at their largest. Every node lies in some
maximal clique, and sink children that pairwise conflict lie in one
together, so the bound is never below a sink child's branch sum, nor below
the whole buffer sum in that case. A sender's own count drops by one and no
other count drops, and at most one member of a clique sends per slot, so
the bound drops by at most one per slot; the first goal popped is therefore
optimal. Among states with equal slots + bound the heap pops the deepest
first, so the search dives towards a goal instead of widening every state
of that estimate first.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
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


def _maximal_cliques(candidates: int, neighbours: Mapping[int, int] | Sequence[int]) -> list[int]:
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
        pivot, most, rest = 0, -1, pool | excluded
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (pool & neighbours[u]).bit_count()
            if count > most:
                pivot, most = u, count
            rest ^= low
        branches = pool & ~neighbours[pivot]
        while branches:
            low = branches & -branches
            v = low.bit_length() - 1
            expand(clique | low, pool & neighbours[v], excluded & neighbours[v])
            pool ^= low
            excluded |= low
            branches ^= low

    if candidates:
        expand(0, candidates, 0)
    return cliques


def _maximal_independent_sets(eligible: int, compatible: Sequence[int]) -> list[int]:
    """Maximal sets of pairwise compatible buffer indices within the eligible mask, each as a mask.

    compatible[i] is the mask of the indices that may share a slot with i,
    without i's own bit; bits outside eligible are ignored. The sets are the
    maximal cliques of that compatibility graph on eligible (the complement
    of the conflict graph), in unspecified order.
    """
    return _maximal_cliques(eligible, compatible)


def _clique_weights(tree: SpanningTree, masks: Sequence[int]) -> list[list[int]]:
    """Per maximal clique K of the conflict graph on the non-sink nodes, |K ∩ path(v)| for each v.

    masks and the weights follow `tree.non_sink_nodes()` order, as
    `ConflictMap.in_order` gives them, and path(v) is v and its ancestors
    below the sink; no node gives no clique.
    """
    order = tree.non_sink_nodes()
    above = {tree.sink: 0}  # v and its ancestors below the sink, as a mask of indices
    for i, v in sorted(enumerate(order), key=lambda iv: tree.depth[iv[1]]):
        above[v] = 1 << i | above[tree.parent[v]]
    return [[(k & above[v]).bit_count() for v in order] for k in _maximal_cliques((1 << len(order)) - 1, masks)]


def optimal_schedule_length(tree: SpanningTree, conflicts: ConflictMap) -> int:
    """Exact minimum cycle length over all conflict-free delivering schedules.

    Rejects instances with more than `MAX_ORACLE_NODES` nodes. A best-first
    search over buffer tuples (see the module docstring): each slot fires
    one maximal independent set of the buffers holding packets, enumerated
    by Bron–Kerbosch once per distinct eligible mask. The estimate is slots +
    the clique bound, the largest buffer sum weighted per clique by
    `_clique_weights`, which never overestimates the slots left and drops by
    at most one per slot, so the first goal popped is optimal; equal
    estimates pop the deepest state first. A move whose sender holds no
    packet raises AssertionError.
    """
    if tree.n > MAX_ORACLE_NODES:
        raise TooLarge(f"exact search is limited to {MAX_ORACLE_NODES} nodes, got {tree.n}")

    order = tree.non_sink_nodes()
    index = {u: i for i, u in enumerate(order)}
    bits = [1 << i for i in range(len(order))]
    masks = conflicts.in_order(order)
    everyone = (1 << len(order)) - 1
    # per buffer: the buffers it may share a slot with, and its parent's buffer (None for the sink)
    compatible = [everyone & ~(mask | 1 << i) for i, mask in enumerate(masks)]
    parent = [index.get(tree.parent[u]) for u in order]
    weights = _clique_weights(tree, masks)
    moves_by_eligible: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}

    start = tuple(tree.gen_rate[u] for u in order)
    frontier = [(0, 0, start)]  # the only entry, so its estimate orders nothing
    seen = {start: 0}
    while frontier:
        _, neg_slots, state = heapq.heappop(frontier)
        slots = -neg_slots
        if not any(state):
            return slots
        if slots > seen.get(state, slots):
            continue
        eligible = sum(b for b, packets in zip(bits, state) if packets)
        moves = moves_by_eligible.get(eligible)
        if moves is None:
            moves = moves_by_eligible[eligible] = []
            for s in _maximal_independent_sets(eligible, compatible):
                if s & ~eligible:
                    raise AssertionError(f"a move drives a buffer below zero from state {state}")
                # each transmitter's packet leaves its buffer for its parent's (none for the sink)
                delta = [0] * len(order)
                for i in _bits(s):
                    delta[i] -= 1
                    if parent[i] is not None:
                        delta[parent[i]] += 1
                moves.append((tuple(delta), [sum(map(mul, delta, w)) for w in weights]))
        sums = [sum(map(mul, state, w)) for w in weights]  # the clique sums, changed by each move's dsums
        cost = slots + 1
        for delta, dsums in moves:
            nxt = tuple(map(add, state, delta))
            if cost < seen.get(nxt, cost + 1):
                seen[nxt] = cost
                heapq.heappush(frontier, (cost + max(map(add, sums, dsums)), -cost, nxt))
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

    classes: dict[int, list[int]] = {}  # the nodes with traffic of each color, by id
    for u in sorted(colors):
        if demands[u] > 0:
            classes.setdefault(colors[u], []).append(u)
    allocations: dict[int, list[tuple[int, int]]] = {}
    cursor = 0
    for color in sorted(classes):
        members = classes[color]
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
