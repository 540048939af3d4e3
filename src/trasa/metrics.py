"""Event-driven replay of a schedule and the derived evaluation measures.

The replay tracks individual packets (tagged with their origin) through
per-node FIFO queues: a node's own packets are queued at cycle start, ahead
of anything it later receives, and each occupied slot forwards exactly one
packet to the parent. Only the occupied slots are visited, run by run of
`Schedule.runs()`, so a replay costs O(transmissions + n), not
O(slots × n). A buffer level is recorded as a (slot, level) change point
when a node's level after a slot resolves differs from its last one;
`SimTrace.buffer_series` expands the change points into per-slot levels only
when it is read. `scheduler.validate_schedule` needs no packet identities:
it checks causality and delivery with its own count-level walk over the
runs, whose faults and delivery count equal this replay's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tree import SpanningTree

if TYPE_CHECKING:
    from .scheduler import Schedule


class CausalityBreach(RuntimeError):
    """A node had to transmit with an empty buffer during replay."""


@dataclass
class SimTrace:
    """Raw replay record: buffer change points, sink arrivals, awake-interval counts.

    `buffer_changes[u]` holds (slot, level) points for each non-sink node
    u: u's level after that slot, kept until the next point's slot. The
    first point is at slot 0; each later one marks a slot after which the
    level differs. `length` is the cycle length the points span.
    """

    buffer_changes: dict[int, list[tuple[int, int]]]
    packet_arrivals: list[tuple[int, int]]  # (origin node, arrival slot at sink)
    awake_intervals: dict[int, int]
    length: int

    @property
    def buffer_series(self) -> dict[int, list[int]]:
        """Each non-sink node's buffer level after every slot of the cycle."""
        series: dict[int, list[int]] = {}
        for u, points in self.buffer_changes.items():
            levels: list[int] = []
            ends = [slot for slot, _ in points[1:]] + [self.length]
            for (start, level), end in zip(points, ends):
                levels.extend([level] * (end - start))
            series[u] = levels
        return series


@dataclass
class Metrics:
    cycle_length: int
    slot_reuse: float
    avg_delay: float
    max_buffer: int
    total_switches: int


def _replay(schedule: Schedule, tree: SpanningTree) -> tuple[dict, list, list]:
    """Replay one cycle over its occupied slots.

    Returns each non-sink node's buffer change points, the sink arrivals
    (origin, slot) and the faults. A fault (slot, node) is a transmission
    that moves nothing: one from an empty buffer. The one caller,
    `replay_schedule`, rejects a schedule in which the sink or a node
    outside the tree transmits before the replay, so every transmitter has
    a queue.
    """
    parent = tree.parent
    sink = tree.sink
    queues = {u: deque([u] * tree.gen_rate[u]) for u in tree.non_sink_nodes()}
    changes = {u: [(0, len(queue))] for u, queue in queues.items()}
    arrivals: list[tuple[int, int]] = []
    faults: list[tuple[int, int]] = []

    for start, stop, txs in schedule.runs():
        for slot in range(start, stop):
            moved: list[tuple[int, int]] = []  # (receiver, packet origin), in tx id order
            touched: list[int] = []
            for u in txs:
                queue = queues.get(u)
                if not queue:  # an empty buffer
                    faults.append((slot, u))
                    continue
                moved.append((parent[u], queue.popleft()))
                touched.append(u)
            for receiver, packet in moved:
                if receiver == sink:
                    arrivals.append((packet, slot))
                else:
                    queues[receiver].append(packet)
                    touched.append(receiver)
            for u in touched:  # levels once the slot has resolved
                points = changes[u]
                level = len(queues[u])
                if points[-1][0] == slot:  # the cycle-start point, or u seen twice
                    points[-1] = (slot, level)
                elif points[-1][1] != level:
                    points.append((slot, level))

    return changes, arrivals, faults


def _awake_intervals(schedule: Schedule, tree: SpanningTree) -> dict[int, int]:
    """Runs of consecutive slots in which each node or one of its children transmits."""
    counts = {}
    for u in tree.nodes():
        spans = sorted(
            iv for v in [u, *tree.children.get(u, [])] for iv in schedule.allocations.get(v, [])
        )
        runs, end = 0, -1
        for start, width in spans:
            if start > end:
                runs += 1
            end = max(end, start + width)
        counts[u] = runs
    return counts


def replay_schedule(schedule: Schedule, tree: SpanningTree) -> SimTrace:
    """Replay one cycle and record buffers, arrivals and awake intervals.

    A node is awake in a slot iff it transmits or one of its children does.
    Raises CausalityBreach on foreign schedules that transmit unheld packets
    or let the sink or a node outside the tree transmit; schedules produced
    by the greedy scheduler never do.
    """
    strangers = [u for u in sorted(schedule.allocations) if u == tree.sink or u not in tree.depth]
    if strangers:
        raise CausalityBreach(f"nodes {strangers} transmit but are the sink or not in the tree")
    changes, arrivals, faults = _replay(schedule, tree)
    if faults:
        slot, u = faults[0]
        raise CausalityBreach(f"node {u} has no packet to send in slot {slot}")
    return SimTrace(changes, arrivals, _awake_intervals(schedule, tree), schedule.length)


def compute_metrics(trace: SimTrace, schedule: Schedule, tree: SpanningTree) -> Metrics:
    """Aggregate a replay into the cycle-level evaluation measures.

    slot_reuse is the schedule's packet-transmissions (the sum of its
    interval widths) per slot; avg_delay counts slots from cycle start,
    1-based (a packet arriving in the first slot has delay 1). max_buffer is
    the highest level after any slot: every change point holds for at least
    one slot of a non-empty cycle. `tree` is not read; it stays in the
    signature for existing callers.
    """
    length = schedule.length
    total_tx = sum(width for intervals in schedule.allocations.values() for _, width in intervals)
    slot_reuse = total_tx / length if length else 0.0
    delays = [slot + 1 for _, slot in trace.packet_arrivals]
    avg_delay = sum(delays) / len(delays) if delays else 0.0
    levels = (lvl for points in trace.buffer_changes.values() for _, lvl in points)
    max_buffer = max(levels, default=0) if trace.length else 0
    return Metrics(
        cycle_length=length,
        slot_reuse=slot_reuse,
        avg_delay=avg_delay,
        max_buffer=max_buffer,
        total_switches=sum(trace.awake_intervals.values()),
    )
