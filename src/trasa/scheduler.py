"""Greedy traffic-aware slot assignment (TRASA) with h-hop interference.

The scheduler repeatedly opens a window of slots for the highest-priority
node with pending demand and packs every other non-interfering pending node
into the same window, so a slot is only appended to the cycle when pending
nodes cannot share the last one. Demand moves to the parent the moment a
node is scheduled, which is what makes the allocation traffic-proportional.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .topology import NetworkGraph
from .tree import SpanningTree, subtree_demand


class Variant(Enum):
    """Which links induce interference: every graph link, or tree links only."""

    ALL_LINKS = "all"
    TREE_ONLY = "tree"


@dataclass(frozen=True)
class ConflictMap:
    """Symmetric, irreflexive conflict relation: nodes within 1..h hops interfere."""

    variant: Variant
    h: int
    _relation: dict[int, frozenset[int]]

    def conflicts(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return v in self._relation.get(u, frozenset())

    def conflicting(self, u: int) -> frozenset[int]:
        return self._relation.get(u, frozenset())


def build_conflict_map(
    graph: NetworkGraph, tree: SpanningTree, variant: Variant, h: int
) -> ConflictMap:
    """Compute the h-hop interference relation over all node pairs.

    ALL_LINKS measures hop distance in the full graph; TREE_ONLY only walks
    parent/child links, so its relation is a subset of ALL_LINKS at equal h.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if variant is Variant.ALL_LINKS:
        adjacency = {u: graph.neighbors(u) for u in range(graph.n)}
    elif variant is Variant.TREE_ONLY:
        adjacency = {}
        for u in tree.nodes():
            links = set(tree.children.get(u, []))
            if u != tree.sink:
                links.add(tree.parent[u])
            adjacency[u] = links
    else:
        raise ValueError(f"unknown variant {variant!r}")

    relation = {}
    for u in adjacency:
        ball = set()
        frontier = deque([(u, 0)])
        seen = {u}
        while frontier:
            node, d = frontier.popleft()
            if d == h:
                continue
            for w in adjacency[node]:
                if w not in seen:
                    seen.add(w)
                    ball.add(w)
                    frontier.append((w, d + 1))
        relation[u] = frozenset(ball)
    return ConflictMap(variant, h, relation)


class Schedule:
    """A TDMA cycle: per-node allocation intervals plus the per-slot inverse map.

    Each (start, width) interval means the node transmits one packet in each
    of the `width` consecutive slots.
    """

    def __init__(self, length: int, allocations: dict[int, list[tuple[int, int]]]):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.length = length
        self.allocations: dict[int, list[tuple[int, int]]] = {}
        for u, intervals in allocations.items():
            ivs = sorted((int(s), int(w)) for s, w in intervals)
            prev_end = -1
            for s, w in ivs:
                if w < 1 or s < 0 or s + w > length:
                    raise ValueError(f"interval ({s},{w}) of node {u} out of bounds")
                if s < prev_end:
                    raise ValueError(f"overlapping intervals for node {u}")
                prev_end = s + w
            if ivs:
                self.allocations[u] = ivs
        self.transmitters: dict[int, frozenset[int]] = self._invert()

    def _invert(self) -> dict[int, frozenset[int]]:
        per_slot: dict[int, set[int]] = {}
        for u, intervals in self.allocations.items():
            for s, w in intervals:
                for slot in range(s, s + w):
                    per_slot.setdefault(slot, set()).add(u)
        return {slot: frozenset(nodes) for slot, nodes in per_slot.items()}

    def total_width(self, u: int) -> int:
        return sum(w for _, w in self.allocations.get(u, []))

    def last_slot(self, u: int) -> int | None:
        intervals = self.allocations.get(u)
        if not intervals:
            return None
        s, w = intervals[-1]
        return s + w - 1


@dataclass
class DemandState:
    """Per-node packets buffered and not yet forwarded; the sink entry only grows."""

    remaining: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_tree(cls, tree: SpanningTree) -> "DemandState":
        remaining = {u: tree.gen_rate[u] for u in tree.nodes()}
        remaining[tree.sink] = 0
        return cls(remaining)

    def delivered(self, tree: SpanningTree) -> int:
        return self.remaining[tree.sink]


def node_priority(tree: SpanningTree, u: int, heuristic: int) -> tuple[int, int, int]:
    """Sortable priority key; lower sorts first (= higher priority).

    Heuristic 1 favors many descendants, heuristic 2 few. Ties break by depth
    then node id in both, giving a total order.
    """
    if u == tree.sink:
        raise ValueError("the sink is never scheduled")
    if heuristic == 1:
        return (-tree.descendants[u], tree.depth[u], u)
    if heuristic == 2:
        return (tree.descendants[u], tree.depth[u], u)
    raise ValueError("heuristic must be 1 or 2")


def run_trasa(tree: SpanningTree, conflicts: ConflictMap, heuristic: int = 1) -> Schedule:
    """Produce the greedy traffic-aware schedule for one TDMA cycle.

    Loop until no node has pending demand: snapshot the pending nodes sorted
    by priority; give the head a window of slots equal to its whole demand,
    appended to the cycle; then walk the rest of the snapshot in priority
    order and pack each node whose demand is still nonzero and which does not
    interfere with any occupant of the window, extending the window when the
    packed demand exceeds its current width. Scheduled demand transfers to
    the parent immediately, so it competes in later windows.
    """
    state = DemandState.from_tree(tree)
    remaining = state.remaining
    sink = tree.sink
    allocations: dict[int, list[tuple[int, int]]] = {u: [] for u in tree.non_sink_nodes()}
    cycle_end = 0

    def pending() -> list[int]:
        nodes = [u for u in tree.non_sink_nodes() if remaining[u] > 0]
        nodes.sort(key=lambda u: node_priority(tree, u, heuristic))
        return nodes

    snapshot = pending()
    while snapshot:
        head = snapshot[0]
        window_start = cycle_end
        demand = remaining[head]
        cycle_end = window_start + demand
        allocations[head].append((window_start, demand))
        remaining[head] = 0
        remaining[tree.parent[head]] += demand
        occupants = [head]

        for v in snapshot[1:]:
            demand = remaining[v]  # read live; may differ from snapshot time
            if demand == 0:
                continue
            if any(conflicts.conflicts(v, w) for w in occupants):
                continue
            width = cycle_end - window_start
            if demand > width:
                cycle_end += demand - width
            allocations[v].append((window_start, demand))
            remaining[v] = 0
            remaining[tree.parent[v]] += demand
            occupants.append(v)

        snapshot = pending()

    assert remaining[sink] == tree.total_generated()
    return Schedule(cycle_end, allocations)


def schedule_length_bounds(tree: SpanningTree) -> tuple[int, int]:
    """Lower and upper bounds on any valid cycle length for this tree.

    Lower: everything must funnel through the sink's children one at a time,
    so it is the sum of their subtree demands (n-1 at uniform unit rate; at
    h=1 non-adjacent sink children may share slots and beat this, see tests).
    Upper: one slot per single-hop transmission, i.e. sum of rate * depth.
    """
    lower = sum(subtree_demand(tree, c) for c in tree.children.get(tree.sink, []))
    upper = sum(tree.gen_rate[u] * tree.depth[u] for u in tree.non_sink_nodes())
    return lower, upper


CONFLICT = "CONFLICT"
CAUSALITY = "CAUSALITY"
DELIVERY = "DELIVERY"


@dataclass(frozen=True)
class Violation:
    kind: str
    slot: int | None
    nodes: tuple[int, ...]
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def of_kind(self, kind: str) -> list[Violation]:
        return [v for v in self.violations if v.kind == kind]


def validate_schedule(
    schedule: Schedule, conflicts: ConflictMap, tree: SpanningTree
) -> ValidationReport:
    """Check a schedule for interference, causality and delivery violations.

    Violations are data, not exceptions: an empty report certifies the
    schedule. Causality and delivery are checked by a counting replay where
    every transmitter forwards one buffered packet per occupied slot. A
    schedule naming nodes outside the tree gets one causality violation per
    such node and no replay.
    """
    report = ValidationReport()
    strangers = [u for u in sorted(schedule.allocations) if u not in tree.depth]
    for u in strangers:
        first_slot = schedule.allocations[u][0][0]
        report.violations.append(
            Violation(CAUSALITY, first_slot, (u,), f"node {u} transmits but is not in the tree")
        )

    for slot in range(schedule.length):
        txs = sorted(schedule.transmitters.get(slot, frozenset()))
        for i, u in enumerate(txs):
            for v in txs[i + 1 :]:
                if conflicts.conflicts(u, v):
                    report.violations.append(
                        Violation(CONFLICT, slot, (u, v), f"nodes {u} and {v} interfere in slot {slot}")
                    )

    if strangers:
        return report  # a stranger has no parent, so the counting replay cannot route it
    buffers = {u: tree.gen_rate[u] for u in tree.non_sink_nodes()}
    delivered = 0
    for slot in range(schedule.length):
        arrivals: dict[int, int] = {}
        for u in sorted(schedule.transmitters.get(slot, frozenset())):
            if u == tree.sink:
                report.violations.append(
                    Violation(CAUSALITY, slot, (u,), "the sink must never transmit")
                )
                continue
            if buffers[u] < 1:
                # nothing to forward: flag it and let the delivery count expose the gap
                report.violations.append(
                    Violation(CAUSALITY, slot, (u,), f"node {u} transmits with an empty buffer in slot {slot}")
                )
                continue
            buffers[u] -= 1
            arrivals[tree.parent[u]] = arrivals.get(tree.parent[u], 0) + 1
        # Receive after the slot's transmissions resolve.
        for p, count in arrivals.items():
            if p == tree.sink:
                delivered += count
            else:
                buffers[p] += count

    expected = tree.total_generated()
    if delivered != expected:
        report.violations.append(
            Violation(DELIVERY, None, (), f"sink received {delivered} of {expected} packets")
        )
    return report


def dump_schedule(schedule: Schedule, tree: SpanningTree) -> str:
    """Header `schedule <length>`, then one `<node_id> <start:width> ...` line per non-sink node."""
    lines = [f"schedule {schedule.length}"]
    for u in tree.non_sink_nodes():
        parts = [str(u)] + [f"{s}:{w}" for s, w in schedule.allocations.get(u, [])]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty schedule file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "schedule":
        raise ValueError(f"bad schedule header: {lines[0]!r}")
    length = int(head[1])
    allocations: dict[int, list[tuple[int, int]]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        u = int(parts[0])
        intervals = []
        for token in parts[1:]:
            s, w = token.split(":")
            intervals.append((int(s), int(w)))
        allocations[u] = intervals
    return Schedule(length, allocations)


def write_schedule_file(schedule: Schedule, tree: SpanningTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_schedule(schedule, tree))


def read_schedule_file(path) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())
