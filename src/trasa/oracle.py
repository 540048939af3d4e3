"""Ground-truth machinery: exact minimum-length search and the two
constructive mappings between precedence colorings and schedules.

The exact search walks buffer-vector states with best-first branch and
bound: each slot fires a maximal independent set of pending transmitters,
and an admissible relaxation of the length bounds prunes the frontier. The
maximal sets depend only on which nodes hold packets, so each search
enumerates them once per distinct eligible set and keeps them as buffer
moves. It is meant for tiny instances only.

A buffer vector is packed into one int. With T packets in total, each
non-sink node owns a field of w = T.bit_length() + 1 bits, the first of
`tree.non_sink_nodes()` in the most significant field. No buffer exceeds T
< 2^(w-1), so every field keeps a spare top bit clear; with equal widths and
an equal field count, int order is therefore the lexicographic order of the
buffer tuples, and heap ties break as they would on tuples. With L the
lowest and H the top bit of every field:

- a move is one precomputed addition (-2^off(u) per transmitter u, plus
  2^off(parent) unless the parent is the sink); a move that drives a field
  below zero borrows into a top bit, so `state & H` catches it;
- `((state | H) - L) & H` keeps the top bit of exactly the nonempty fields,
  the key of the eligible set;
- `(state & mask) * L` sums the masked fields into the top field without
  carries, since no sum exceeds T.

The bound is the largest funnel count, the packets at or below a node.
Buffers are never negative, so a node's count never exceeds its ancestors',
and the largest is the branch sum of some sink child; when the sink children
pairwise conflict, every packet needs its own slot at the sink, so the bound
is the whole buffer sum.
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

    Rejects instances with more than 8 nodes. A state is the buffer vector
    packed into one int (see the module docstring): fields of
    w = total.bit_length() + 1 bits, the first non-sink node in the most
    significant one. Every field stays below 2^(w-1), so int order equals the
    buffer-tuple order and the heap pops states in tuple order. A move is one
    precomputed addition; a move that drives a buffer below zero borrows into
    a spare top bit and raises AssertionError. The pruning bound is the
    largest funnel count (packets at or below a node, each needing one of its
    slots). Buffers are never negative, so that is a sink child's branch sum,
    or the whole buffer sum when the sink children pairwise conflict. Both
    relax true lower bounds, so the search never prunes the optimum.
    """
    if tree.n > MAX_ORACLE_NODES:
        raise TooLarge(f"exact search is limited to {MAX_ORACLE_NODES} nodes, got {tree.n}")

    order = tree.non_sink_nodes()
    total = tree.total_generated()
    if total == 0:
        return 0

    w = total.bit_length() + 1
    top = (len(order) - 1) * w
    field = (1 << w) - 1
    bit = {u: 1 << (top - i * w) for i, u in enumerate(order)}  # lowest bit of u's field
    low = sum(bit.values())
    high = low << (w - 1)

    sink_children = tree.children.get(tree.sink, [])
    branches = dict.fromkeys(sink_children, 0)  # field mask of each sink child's subtree
    for u in order:
        a = u
        while tree.parent[a] != tree.sink:
            a = tree.parent[a]
        branches[a] |= field * bit[u]
    masks = list(branches.values())
    if len(sink_children) >= 2 and all(conflicts.conflicts(a, b) for a, b in combinations(sink_children, 2)):
        masks = [low * field]  # every field: the whole buffer sum

    def bound(state: int) -> int:
        # multiplying by low sums the masked fields into the top field, without carries
        return max((state & mask) * low >> top & field for mask in masks)

    moves_by_eligible: dict[int, list[int]] = {}

    start = sum(tree.gen_rate[u] * bit[u] for u in order)
    frontier = [(bound(start), 0, start)]
    seen = {start: 0}
    while frontier:
        _, slots, state = heapq.heappop(frontier)
        if state == 0:
            return slots
        if slots > seen.get(state, slots):
            continue
        eligible = ((state | high) - low) & high  # top bit of every nonempty field
        moves = moves_by_eligible.get(eligible)
        if moves is None:
            sets = _maximal_independent_sets([u for u in order if eligible & bit[u] << (w - 1)], conflicts)
            # each transmitter leaves its own field and enters its parent's (none for the sink)
            moves = [sum(bit.get(tree.parent[u], 0) - bit[u] for u in s) for s in sets]
            moves_by_eligible[eligible] = moves
        cost = slots + 1
        for delta in moves:
            nxt = state + delta
            if nxt & high:
                raise AssertionError(f"a move drives a buffer below zero from state {state:#x}")
            if cost < seen.get(nxt, cost + 1):
                seen[nxt] = cost
                heapq.heappush(frontier, (cost + bound(nxt), cost, nxt))
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
