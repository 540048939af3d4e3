"""Ground-truth machinery: exact minimum-length search and the two
constructive mappings between precedence colorings and schedules.

The exact search walks buffer-vector states with best-first branch and
bound: each slot fires a maximal independent set of pending transmitters,
and an admissible relaxation of the length bounds prunes the frontier. It
is meant for tiny instances only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations

from .scheduler import ConflictMap, Schedule
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


def _maximal_independent_sets(eligible: list[int], conflicts: ConflictMap) -> list[tuple[int, ...]]:
    """Maximal conflict-free subsets of eligible, by size, then in combination order."""
    masks = conflicts.masks
    bits = {v: 1 << v for v in eligible}
    everyone = sum(bits.values())
    maximal = []
    for r in range(1, len(eligible) + 1):
        for combo in combinations(eligible, r):
            members = blocked = 0
            for v in combo:
                members |= bits[v]
                blocked |= masks.get(v, 0)
            # independent, and every other eligible node conflicts with a member
            if not blocked & members and not everyone & ~members & ~blocked:
                maximal.append(tuple(sorted(combo)))
    return maximal


def optimal_schedule_length(tree: SpanningTree, conflicts: ConflictMap) -> int:
    """Exact minimum cycle length over all conflict-free delivering schedules.

    Rejects instances with more than 8 nodes. The pruning bound is the
    per-node funnel count (packets at or below a node, each needing one of
    its slots), plus the sink-children sum when they pairwise conflict; both
    relax true lower bounds, so the search never prunes the optimum.
    """
    if tree.n > MAX_ORACLE_NODES:
        raise TooLarge(f"exact search is limited to {MAX_ORACLE_NODES} nodes, got {tree.n}")

    order = tree.non_sink_nodes()
    index = {u: i for i, u in enumerate(order)}
    bottom_up = sorted(range(len(order)), key=lambda i: tree.depth[order[i]], reverse=True)
    child_slots = [[index[c] for c in tree.children.get(u, [])] for u in order]
    parents = tree.parent
    sink = tree.sink
    sink_children = tree.children.get(sink, [])
    children_clique = len(sink_children) >= 2 and all(
        conflicts.conflicts(a, b) for a, b in combinations(sink_children, 2)
    )

    start = tuple(tree.gen_rate[u] for u in order)
    if sum(start) == 0:
        return 0

    def bound(buffers: tuple[int, ...]) -> int:
        through = list(buffers)  # packets at or below each node, children summed first
        for i in bottom_up:
            for c in child_slots[i]:
                through[i] += through[c]
        best = max(through)
        if children_clique:
            best = max(best, sum(buffers))
        return best

    frontier = [(bound(start), 0, start)]
    seen = {start: 0}
    while frontier:
        estimate, slots, buffers = heapq.heappop(frontier)
        if sum(buffers) == 0:
            return slots
        if slots > seen.get(buffers, slots):
            continue
        eligible = [u for u in order if buffers[index[u]] > 0]
        for transmitters in _maximal_independent_sets(eligible, conflicts):
            nxt = list(buffers)
            for u in transmitters:
                nxt[index[u]] -= 1
                p = parents[u]
                if p != sink:
                    nxt[index[p]] += 1
            state = tuple(nxt)
            cost = slots + 1
            if cost < seen.get(state, cost + 1):
                seen[state] = cost
                heapq.heappush(frontier, (cost + bound(state), cost, state))
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
