"""Schedule metrics from per-node packet counts, and an event-driven packet replay.

The metrics need no packet identities. They read `scheduler._count_walk`,
the one count-level walk of the causality rule: per tree node, one sweep
over the segments between the events of its own and its children's
intervals, giving its awake runs, its highest level and its faults without
visiting a slot. The schedule keeps the walk for its tree, so
`validate_schedule`, `replay_schedule` and `schedule_metrics` on one
(schedule, tree) walk once between them. `_node_counts` raises the first
fault; delivery and the delay sum come from the sink's children's
intervals.

`replay_schedule` stores the count walk's awake counts and peak in a
`SimTrace`, so `compute_metrics` on its trace does not walk again. The one
thing the counts cannot give is which node each sink arrival came from:
for that, `_replay` tracks individual packets, tagged with their origin,
through per-node FIFO queues. A node's own packets are queued at cycle
start, ahead of anything it later receives, and a transmitter forwards one
packet to its parent in each of its slots. The replay moves packets per run
of `Schedule.runs()`, each transmitter's packets for the whole run in one
slice, children first, which FIFO order makes exact (see `_replay`), so
its Python work grows with the runs and its C work with the transmissions,
never with the idle slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tree import SpanningTree

if TYPE_CHECKING:
    from .scheduler import Schedule


class CausalityBreach(RuntimeError):
    """A node had to transmit with an empty buffer during replay."""


@dataclass
class SimTrace:
    """Raw replay record: sink arrivals, awake-interval counts, peak buffer level.

    `max_buffer` is the highest non-sink level after any slot of the cycle.
    """

    packet_arrivals: list[tuple[int, int]]  # (origin node, arrival slot at sink)
    awake_intervals: dict[int, int]
    max_buffer: int


@dataclass
class Metrics:
    cycle_length: int
    slot_reuse: float
    avg_delay: float
    max_buffer: int
    total_switches: int


def _node_counts(schedule: Schedule, tree: SpanningTree) -> tuple[dict[int, int], int]:
    """Each node's awake-interval count and the highest non-sink level, from `_count_walk`.

    Raises CausalityBreach where the sink or a node outside the tree
    transmits, or for the first (slot, node) that sends from an empty
    buffer.
    """
    strangers = sorted(schedule.allocations.keys() - tree._non_sink)
    if strangers:
        raise CausalityBreach(f"nodes {strangers} transmit but are the sink or not in the tree")
    awake, peak, faults = schedule._counts(tree)
    if faults:
        slot, u = min((start, u) for start, _, u in faults)
        raise CausalityBreach(f"node {u} has no packet to send in slot {slot}")
    return awake, peak


def _replay(schedule: Schedule, tree: SpanningTree) -> list[tuple[int, int]]:
    """The sink arrivals (origin, slot) of one cycle, replayed run by run of `Schedule.runs()`.

    A queue is a list read from a head index, and a run of L slots moves
    each transmitter's next L packets as one slice. A receiver appends its
    transmitting children's slices interleaved slot by slot, children in id
    order within a slot, as one packet per slot and transmitter would
    arrive. The transmitters are visited children first (by decreasing
    depth, ids ascending within a depth), and one that receives in the run
    appends that inflow before it takes its slice; the other receivers and
    the sink take theirs at the end of the run. This is exact by FIFO
    order: `replay_schedule` has `_node_counts` reject a schedule in which
    the sink or a node outside the tree transmits, or a node sends from an
    empty buffer in some slot, so a node's k-th send is the k-th packet of
    its queue (own packets, then receives by slot and child id) whatever
    the slot timing, and every slice of the append-only queue is full.
    """
    parent = tree.parent
    depth = tree.depth
    sink = tree.sink
    queues = {u: [u] * tree.gen_rate[u] for u in tree.non_sink_nodes()}
    heads = dict.fromkeys(queues, 0)
    arrivals: list[tuple[int, int]] = []

    for start, stop, txs in schedule.runs():
        width = stop - start
        inflow: dict[int, list[list[int]]] = {}  # receiver -> its children's slices, by child id
        for u in sorted(txs, key=depth.__getitem__, reverse=True):  # stable: siblings stay in id order
            if u in inflow:
                queues[u] += _interleave(inflow.pop(u))
            head = heads[u]
            heads[u] = head + width
            inflow.setdefault(parent[u], []).append(queues[u][head : head + width])
        for p, slices in inflow.items():
            if p == sink:
                arrivals += _interleave([list(zip(packets, range(start, stop))) for packets in slices])
            else:
                queues[p] += _interleave(slices)
    return arrivals


def _interleave(slices: list[list]) -> list:
    """Equal-length slices merged slot-major: every slice's first item, then every second, and so on."""
    if len(slices) == 1:
        return slices[0]
    k = len(slices)
    merged = [None] * (k * len(slices[0]))
    for i, items in enumerate(slices):
        merged[i::k] = items
    return merged


def replay_schedule(schedule: Schedule, tree: SpanningTree) -> SimTrace:
    """Replay one cycle and record its sink arrivals, awake intervals and peak buffer level.

    The awake counts and peak come from the count walk, and the sink
    arrivals from `_replay`, in the order a slot-by-slot packet walk gives.
    A node is awake in a slot iff it transmits or one of its children does.
    Raises CausalityBreach on foreign schedules that transmit unheld packets
    or let the sink or a node outside the tree transmit; schedules produced
    by the greedy scheduler never do.
    """
    awake, max_buffer = _node_counts(schedule, tree)
    return SimTrace(_replay(schedule, tree), awake, max_buffer)


def schedule_metrics(schedule: Schedule, tree: SpanningTree) -> Metrics:
    """The cycle-level evaluation measures of a schedule, from packet counts alone.

    slot_reuse is the schedule's packet-transmissions (the sum of its
    interval widths) per slot; avg_delay counts slots from cycle start,
    1-based (a packet arriving in the first slot has delay 1), so a sink
    child sending w packets from slot s adds w·s + w(w+1)/2 to the delay
    sum. max_buffer is the highest non-sink level after any slot of the
    cycle, and total_switches sums every node's awake intervals. Raises
    CausalityBreach where `replay_schedule` does, with the same message.
    """
    return _metrics(schedule, tree, *_node_counts(schedule, tree))


def compute_metrics(trace: SimTrace, schedule: Schedule, tree: SpanningTree) -> Metrics:
    """`schedule_metrics(schedule, tree)`, with the awake counts and peak level read from `trace`.

    `trace` must be `replay_schedule(schedule, tree)`, which has already run
    the count walk, so this runs no walk of its own.
    """
    return _metrics(schedule, tree, trace.awake_intervals, trace.max_buffer)


def _metrics(schedule: Schedule, tree: SpanningTree, awake: dict[int, int], max_buffer: int) -> Metrics:
    """The `Metrics` of a schedule given the count walk's awake counts and highest level."""
    delivered = delay_sum = 0
    for v in tree.children.get(tree.sink, ()):
        for start, width in schedule.allocations.get(v, ()):
            delivered += width
            delay_sum += width * start + width * (width + 1) // 2
    length = schedule.length
    total_tx = sum(width for intervals in schedule.allocations.values() for _, width in intervals)
    return Metrics(
        cycle_length=length,
        slot_reuse=total_tx / length if length else 0.0,
        avg_delay=delay_sum / delivered if delivered else 0.0,
        max_buffer=max_buffer,
        total_switches=sum(awake.values()),
    )
