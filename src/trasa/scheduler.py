"""Greedy traffic-aware slot assignment (TRASA) with h-hop interference.

The scheduler repeatedly opens a window of slots for the highest-priority
node with pending demand and packs every other non-interfering pending node
into the same window, so a slot is only appended to the cycle when pending
nodes cannot share the last one. Demand moves to the parent the moment a
node is scheduled, which is what makes the allocation traffic-proportional.

`run_trasa` sorts the nodes once by priority, takes the conflict masks in
that order (bit i for the i-th node) and keeps the pending nodes as one int
bitmask in the same order. A window closes as soon as no node of its
snapshot left to walk can join, so its cost follows the allocations it
makes, not the number of pending nodes. The conflict map keeps that
labelling, so validating the schedule on the same map builds no other.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .topology import NetworkGraph, _at_least, _integer, _parsed
from .tree import SpanningTree


class Variant(Enum):
    """Which links induce interference: every graph link, or tree links only."""

    ALL_LINKS = "all"
    TREE_ONLY = "tree"


class _Labelling(NamedTuple):
    """One bit per node, the caller's order first: bit i is `nodes[i]`, and `bit[u]` is u's bit.

    `near[u]`, for each key u of the links, holds the bits of the nodes
    within 1..h hops of u.
    """

    order: list[int]
    nodes: list[int]
    bit: dict[int, int]
    near: dict[int, int]


@dataclass(frozen=True)
class ConflictMap:
    """Symmetric, irreflexive conflict relation: nodes within 1..h hops interfere.

    `links[u]` holds u's neighbours (symmetric, each one a key too), so a
    relation given by hand is its own links at h=1; they are copied on
    construction into a read-only mapping of tuples. The map keeps one
    labelling of its nodes, one bit each: `in_order(order)` labels `order`
    first and every other key after it, and a later call with another order
    replaces it. `conflicts`, `conflicting` and `validate_schedule` read the
    kept labelling, built in key order if none is kept. `conflicts(u, v)` is
    the one pair rule, true iff either node's entry holds the other's bit;
    `conflicting(u)` lists the nodes whose bits u's entry holds. Node ids
    are non-negative ints. Links that are not such a mapping, a key that is
    not such an id, and a linked node that is not a key are reported as
    ValueError, the last two when a labelling is built.

    Hand-built links must be symmetric: `in_order`, `conflicting`,
    `run_trasa` and the oracle read them as given, so one-sided links can
    yield a schedule that `validate_schedule` rejects. The map neither checks
    nor symmetrizes them, as every `build_conflict_map` map is symmetric: on
    the default sweep's 200 ALL_LINKS maps (301,774 directed links) a set
    check takes 23–25 ms on a 2-vCPU Xeon, a tenth of the 0.24 s benchmark
    `sweep_default` pass; a mask check after the first ball round, 15–16 ms.
    """

    links: Mapping[int, tuple[int, ...]]
    h: int

    def __post_init__(self):
        _at_least(self.h, "h", 1)
        if not isinstance(self.links, Mapping):
            raise ValueError(f"links must map node ids to their neighbours, got {type(self.links).__name__}")
        try:
            links = dict(zip(self.links, map(tuple, self.links.values())))
        except TypeError:
            u, near = next((u, near) for u, near in self.links.items() if not isinstance(near, Iterable))
            raise ValueError(f"links of node {u} must be a collection of node ids, got {near!r}") from None
        object.__setattr__(self, "links", MappingProxyType(links))
        object.__setattr__(self, "_kept", None)

    def _label(self, order: Sequence[int]) -> _Labelling:
        """The labelling with `order` first, built and kept unless the kept one has this order."""
        order = list(order)
        kept = self._kept
        if kept is not None and kept.order == order:
            return kept
        keys = self.links.keys()
        for u in keys:
            if _integer(u, "node id") < 0:
                raise ValueError(f"node id must be >= 0, got {u}")
        placed = set(order)
        nodes = order + [u for u in keys if u not in placed]
        bit = {u: 1 << i for i, u in enumerate(nodes)}
        near = {u: ball ^ bit[u] for u, ball in self._balls(bit).items()}  # every ball holds its own bit
        kept = _Labelling(order, nodes, bit, near)
        object.__setattr__(self, "_kept", kept)
        return kept

    def _labelling(self) -> _Labelling:
        """The kept labelling, or a new one in key order when none is kept."""
        return self._kept or self._label(())

    def in_order(self, order: Sequence[int]) -> list[int]:
        """Per node of order, the mask of the nodes of order it conflicts with, bit i for `order[i]`."""
        near = self._label(order).near
        everyone = (1 << len(order)) - 1
        return [near.get(u, 0) & everyone for u in order]

    def _balls(self, bit: dict[int, int]) -> dict[int, int]:
        """Each key's ball within h hops, as the OR of its members' bits.

        The rounds stop after h, or at the first that changes no ball.
        """
        balls = {u: bit[u] for u in self.links}
        for _ in range(self.h):
            prev = balls
            balls = {}
            for u, near in self.links.items():
                ball = prev[u]
                try:
                    for w in near:
                        ball |= prev[w]
                except KeyError:
                    raise ValueError(f"node {w} is linked but not a key") from None
                except TypeError:
                    raise ValueError(f"links of node {u} must be a collection of node ids, got {near!r}") from None
                balls[u] = ball
            if balls == prev:
                break
        return balls

    def conflicts(self, u: int, v: int) -> bool:
        """The pair rule: True iff either node's entry holds the other's bit."""
        labelling = self._labelling()
        near, bit = labelling.near, labelling.bit
        return bool(near.get(u, 0) & bit.get(v, 0) or near.get(v, 0) & bit.get(u, 0))

    def conflicting(self, u: int) -> frozenset[int]:
        labelling = self._labelling()
        return frozenset(labelling.nodes[i] for i in _bits(labelling.near.get(u, 0)))


def _bits(mask: int) -> list[int]:
    """The set bits of mask as node ids, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def build_conflict_map(
    graph: NetworkGraph, tree: SpanningTree, variant: Variant, h: int
) -> ConflictMap:
    """The h-hop interference relation over all node pairs.

    ALL_LINKS measures hop distance in the full graph; TREE_ONLY only walks
    parent/child links, so its relation is a subset of ALL_LINKS at equal h.
    """
    if variant is Variant.ALL_LINKS:
        links = dict(enumerate(graph._adjacency))
    elif variant is Variant.TREE_ONLY:
        links = {u: tuple(tree.children.get(u, ())) for u in tree.nodes()}
        for u in tree.non_sink_nodes():
            links[u] += (tree.parent[u],)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ConflictMap(links, h)


class Schedule:
    """A TDMA cycle as per-node allocation intervals.

    Each (start, width) interval means the node transmits one packet in each
    of the `width` consecutive slots. Immutable once built: its runs, and
    the count walk against the last tree it was walked with, are computed
    once and kept, so neither `length` nor `allocations` may change.
    """

    def __init__(self, length: int, allocations: dict[int, list[tuple[int, int]]]):
        length = _at_least(length, "length", 0)
        self.length = length
        if not isinstance(allocations, Mapping):
            raise ValueError(f"allocations must map node ids to intervals, got {type(allocations).__name__}")
        self.allocations: dict[int, list[tuple[int, int]]] = {}
        for u, intervals in allocations.items():
            u = _integer(u, "node id")
            ivs = []
            try:
                for pair in intervals:
                    try:
                        s, w = pair
                    except ValueError:  # too few or too many values; _integer's errors pass through
                        raise TypeError from None
                    ivs.append((_integer(s, "interval start"), _integer(w, "interval width")))
            except TypeError:
                raise ValueError(f"intervals of node {u} must be (start, width) pairs") from None
            ivs.sort()
            prev_end = -1
            for s, w in ivs:
                if w < 1 or s < 0 or s + w > length:
                    raise ValueError(f"interval ({s},{w}) of node {u} out of bounds")
                if s < prev_end:
                    raise ValueError(f"overlapping intervals for node {u}")
                prev_end = s + w
            if ivs:
                self.allocations[u] = ivs
        self._walk: tuple[SpanningTree, tuple[dict, int, list]] | None = None  # (tree, its count walk)

    def runs(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Iterate (start, stop, transmitters sorted by node id) per occupied run, in slot order.

        A run is the span of slots between two consecutive interval start or
        stop points, so its transmitter set is constant. The runs are swept
        once, on the first call, and kept; the sweep drops finished nodes
        before adding new ones, so memory grows with the number of
        intervals, not with the cycle length.
        """
        return iter(self._runs)

    @cached_property
    def _runs(self) -> list[tuple[int, int, tuple[int, ...]]]:
        runs = []
        starts: dict[int, list[int]] = {}
        stops: dict[int, list[int]] = {}
        for u, intervals in self.allocations.items():
            for s, w in intervals:
                starts.setdefault(s, []).append(u)
                stops.setdefault(s + w, []).append(u)
        points = sorted(starts.keys() | stops.keys())
        active: set[int] = set()
        for point, next_point in zip(points, points[1:]):
            active.difference_update(stops.get(point, ()))
            active.update(starts.get(point, ()))
            if active:
                runs.append((point, next_point, tuple(sorted(active))))
        return runs

    def _counts(self, tree: SpanningTree) -> tuple[dict[int, int], int, list[tuple[int, int, int]]]:
        """`_count_walk(self, tree)`, walked again only for a tree other than the last one.

        The kept result holds its tree, so no later tree can reuse that
        tree's id; each call gets a fresh awake dict and fault list.
        """
        if self._walk is None or self._walk[0] is not tree:
            self._walk = (tree, _count_walk(self, tree))
        awake, peak, faults = self._walk[1]
        return dict(awake), peak, list(faults)

    def total_width(self, u: int) -> int:
        return sum(w for _, w in self.allocations.get(u, []))

    def last_slot(self, u: int) -> int | None:
        intervals = self.allocations.get(u)
        if not intervals:
            return None
        s, w = intervals[-1]
        return s + w - 1


def _check_heuristic(heuristic) -> int:
    heuristic = _integer(heuristic, "heuristic")
    if heuristic not in (1, 2):
        raise ValueError("heuristic must be 1 or 2")
    return heuristic


def node_priority(tree: SpanningTree, u: int, heuristic: int) -> tuple[int, int, int]:
    """Sortable priority key; lower sorts first (= higher priority).

    Heuristic 1 favors many descendants, heuristic 2 few. Ties break by depth
    then node id in both, giving a total order. `run_trasa` gets this order
    from builtin sorts: ids ascending, then stable by depth, then stable by
    descendants, reversed for heuristic 1 (a reverse sort keeps ties in place).
    """
    heuristic = _check_heuristic(heuristic)
    u = tree._check_non_sink(u)
    descendants = tree.descendants[u]
    return (-descendants if heuristic == 1 else descendants, tree.depth[u], u)


def run_trasa(tree: SpanningTree, conflicts: ConflictMap, heuristic: int = 1) -> Schedule:
    """Produce the greedy traffic-aware schedule for one TDMA cycle.

    Loop until no node has pending demand: snapshot the pending nodes in
    priority order; give the head a window of slots equal to its whole demand,
    appended to the cycle; then walk the rest of the snapshot in priority
    order and pack each node which does not interfere with any occupant of
    the window, with its live demand, extending the window when that demand
    exceeds its current width. Scheduled demand transfers to the parent
    immediately, so it competes in later windows (a parent outside the
    snapshot does not join the running walk).

    The priority key is static, so the nodes that ever carry demand are
    sorted once into `order`, in `node_priority` order, and bit i of
    `pending` (the nodes with demand) and of the conflict masks is
    `order[i]`, in the labelling the map then keeps for
    `validate_schedule`. The walk starts as `pending` and drops each
    allocated node and every node it conflicts with, so a window closes
    once no node left in it can join.
    """
    heuristic = _check_heuristic(heuristic)
    parent = tree.parent
    sink = tree.sink
    remaining = {u: tree.gen_rate[u] for u in tree.nodes()}
    remaining[sink] = 0
    allocations: dict[int, list[tuple[int, int]]] = {u: [] for u in tree.non_sink_nodes()}
    demand = tree._demand
    order = [u for u in allocations if demand[u] > 0]  # ascending ids
    order.sort(key=tree.depth.__getitem__)
    order.sort(key=tree.descendants.__getitem__, reverse=heuristic == 1)
    masks = conflicts.in_order(order)
    bit = conflicts._labelling().bit  # bit i for order[i], as in the masks
    pending = sum(bit[u] for u in order if remaining[u] > 0)
    cycle_end = 0

    while pending:
        walk = pending
        window_start = cycle_end
        while walk:
            low = walk & -walk
            i = low.bit_length() - 1
            v = order[i]
            demand = remaining[v]  # read live; may exceed the snapshot's
            if window_start + demand > cycle_end:
                cycle_end = window_start + demand
            allocations[v].append((window_start, demand))
            remaining[v] = 0
            pending ^= low
            p = parent[v]
            remaining[p] += demand
            if p != sink:
                pending |= bit[p]
            walk = (walk ^ low) & ~masks[i]

    assert remaining[sink] == tree.total_generated()
    return Schedule(cycle_end, allocations)


def schedule_length_bounds(tree: SpanningTree) -> tuple[int, int]:
    """Lower and upper bounds on any valid cycle length for this tree.

    Lower: everything must funnel through the sink's children one at a time,
    so it is the sum of their subtree demands, which on a spanning tree is
    every generated packet (n-1 at uniform unit rate; at h=1 non-adjacent
    sink children may share slots and beat this, see tests).
    Upper: one slot per single-hop transmission, i.e. sum of rate * depth.
    """
    lower = tree.total_generated()
    upper = sum(tree.gen_rate[u] * tree.depth[u] for u in tree.non_sink_nodes())
    return lower, upper


CONFLICT = "CONFLICT"
CAUSALITY = "CAUSALITY"
DELIVERY = "DELIVERY"


@dataclass(frozen=True)
class Violation:
    kind: str
    slot: int | None
    stop: int | None
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


def _count_walk(schedule: Schedule, tree: SpanningTree) -> tuple[dict, int, list]:
    """Each node's awake-interval count, the highest non-sink level and every fault range.

    The one count-level walk of the causality rule: a node forwards only
    packets it holds and sends before it receives in a slot. Nodes are
    visited children first, in decreasing depth; each sweeps the sorted
    events of its own and its children's intervals, so between two event
    slots it sends 0 or 1 and receives a fixed number of packets per slot.
    Holding `level` packets, it faults in [prev + level, slot) of a segment
    that receives nothing, and in the segment's first slot alone if it
    starts empty while receiving. A fault range (start, stop, node), one
    `validate_schedule` violation, moves nothing, so it comes off the
    parent's receives; the sink's own intervals are all fault ranges, and
    nodes outside the tree are not walked. A segment's highest
    level is after its first or last slot, so the start level counts only
    where a node is idle in slot 0; a run of segments with activity is one
    awake interval. No slot is visited.
    """
    allocations = schedule.allocations
    children = tree.children
    rate = tree.gen_rate
    sink = tree.sink
    length = schedule.length
    awake: dict[int, int] = {}
    peak = 0
    lost: dict[int, list[tuple[int, int]]] = {}  # node -> its fault ranges
    if sink in allocations:
        lost[sink] = [(start, start + width) for start, width in allocations[sink]]
    for u in tree._bottom_up:
        events = [(length, 0, 0)]  # (slot, change in sends, change in receives); closes the last segment
        if u != sink:
            for start, width in allocations.get(u, ()):
                events += ((start, 1, 0), (start + width, -1, 0))
        for v in children.get(u, ()):
            for start, width in allocations.get(v, ()):
                events += ((start, 0, 1), (start + width, 0, -1))
            if v in lost:
                for start, stop in lost[v]:
                    events += ((start, 0, -1), (stop, 0, 1))
        events.sort()
        level = rate.get(u, 0)
        top = sends = receives = runs = prev = 0
        active = False
        for slot, ds, dr in events:
            if slot != prev:  # the segment [prev, slot) at the current rates
                if sends or receives:
                    if not active:
                        runs += 1
                        active = True
                    d = receives - sends
                    if level + d > top:
                        top = level + d
                    if sends and (not level or not receives and level < slot - prev):
                        stop = prev + 1 if receives else slot
                        lost.setdefault(u, []).append((prev + level, stop))
                        level = stop - prev  # a fault sends nothing
                    level += (slot - prev) * d
                else:
                    active = False
                if level > top:
                    top = level
                prev = slot
            sends += ds
            receives += dr
        awake[u] = runs
        if u != sink and top > peak:
            peak = top
    return awake, peak, [(start, stop, u) for u, ranges in lost.items() for start, stop in ranges]


def validate_schedule(
    schedule: Schedule, conflicts: ConflictMap, tree: SpanningTree
) -> ValidationReport:
    """Check a schedule for interference, causality and delivery violations.

    Violations are data, not exceptions: an empty report certifies the
    schedule. A violation covers slots `slot` to `stop` - 1 (None for
    DELIVERY), so the report grows with the runs and fault ranges, not the
    slots. Conflicts are checked per run of `Schedule.runs()`, a span of
    slots with one transmitter set, in the labelling the map keeps (the
    one `run_trasa` made, if it ran on this map): its transmitters are
    tested pairwise with `ConflictMap.conflicts` only when the OR of their
    conflict masks hits one of them, and each conflicting pair is one
    violation for the run.

    Causality is one violation per `_count_walk` fault range, and the sink
    receives what its children send outside theirs. A schedule naming nodes
    outside the tree gets one causality violation per such node and no walk.
    Order: strangers, conflicts and causality each by (slot, nodes), delivery.
    """
    report = ValidationReport()
    strangers = sorted(schedule.allocations.keys() - tree.depth.keys())
    for u in strangers:
        first_slot = schedule.allocations[u][0][0]
        detail = f"node {u} transmits but is not in the tree"
        report.violations.append(Violation(CAUSALITY, first_slot, first_slot + 1, (u,), detail))

    labelling = conflicts._labelling()
    bit, near = labelling.bit, labelling.near
    for start, stop, txs in schedule.runs():
        present = blocked = 0
        for u in txs:
            if u in near:  # the keys of the links; other nodes never conflict
                present |= bit[u]
                blocked |= near[u]
        if blocked & present:
            pairs = [(u, v) for i, u in enumerate(txs) for v in txs[i + 1 :] if conflicts.conflicts(u, v)]
            for u, v in pairs:
                detail = f"nodes {u} and {v} interfere in slots {start}..{stop - 1}"
                report.violations.append(Violation(CONFLICT, start, stop, (u, v), detail))
    if strangers:
        return report  # a stranger has no parent, so the walk cannot route it

    sink = tree.sink
    faults = sorted((start, u, stop) for start, stop, u in schedule._counts(tree)[2])
    for start, u, stop in faults:
        if u == sink:
            detail = "the sink must never transmit"
        else:
            # nothing to forward: flag it and let the delivery count expose the gap
            detail = f"node {u} transmits with an empty buffer in slots {start}..{stop - 1}"
        report.violations.append(Violation(CAUSALITY, start, stop, (u,), detail))

    sent = sum(schedule.total_width(v) for v in tree.children.get(sink, ()))
    delivered = sent - sum(stop - start for start, u, stop in faults if tree.parent.get(u) == sink)
    expected = tree.total_generated()
    if delivered != expected:
        report.violations.append(
            Violation(DELIVERY, None, None, (), f"sink received {delivered} of {expected} packets")
        )
    return report


def dump_schedule(schedule: Schedule, tree: SpanningTree) -> str:
    """Header `schedule <length>`, then one `<node_id> <start:width> ...` line per node, in id order.

    Every non-sink node of the tree gets a line, and so does every other
    node with an allocation (the sink, or a node outside the tree), so
    `parse_schedule` gives the schedule back.
    """
    lines = [f"schedule {schedule.length}"]
    allocations = schedule.allocations
    for u in sorted(allocations.keys() | tree._non_sink):
        line = str(u)
        for s, w in allocations.get(u, ()):
            line += f" {s}:{w}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty schedule file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "schedule":
        raise ValueError(f"bad schedule header: {lines[0]!r}")
    length = _parsed(int, head[1], "schedule length", lines[0])
    allocations: dict[int, list[tuple[int, int]]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        u = _parsed(int, parts[0], "node id", ln)
        if u in allocations:
            raise ValueError(f"duplicate schedule line for node {u}")
        intervals = []
        for token in parts[1:]:
            try:
                s, w = token.split(":")
                intervals.append((int(s), int(w)))
            except ValueError:
                raise ValueError(f"bad interval {token!r} of node {u}") from None
        allocations[u] = intervals
    return Schedule(length, allocations)
