"""Slot-by-slot replay of a schedule and the derived evaluation measures.

The replay tracks individual packets (tagged with their origin) through
per-node FIFO queues: a node's own packets are queued at cycle start, ahead
of anything it later receives, and each occupied slot forwards exactly one
packet to the parent. Buffers are sampled after each slot resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheduler import Schedule
from .tree import SpanningTree, subtree_demand


class CausalityBreach(RuntimeError):
    """A node had to transmit with an empty buffer during replay."""


@dataclass
class SimTrace:
    """Raw replay record: buffer levels, sink arrivals, awake-interval counts."""

    buffer_series: dict[int, list[int]]
    packet_arrivals: list[tuple[int, int]]  # (origin node, arrival slot at sink)
    awake_intervals: dict[int, int]


@dataclass
class Metrics:
    cycle_length: int
    slot_reuse: float
    avg_delay: float
    max_buffer: int
    total_switches: int


def _interval_count(slots: set[int]) -> int:
    return sum(1 for s in slots if s - 1 not in slots)


def replay_schedule(schedule: Schedule, tree: SpanningTree) -> SimTrace:
    """Replay one cycle and record buffers, arrivals and awake intervals.

    A node is awake in a slot iff it transmits or one of its children does.
    Raises CausalityBreach on foreign schedules that transmit unheld packets
    or let the sink or a node outside the tree transmit; schedules produced
    by the greedy scheduler never do.
    """
    non_sink = tree.non_sink_nodes()
    queues: dict[int, list[int]] = {u: [u] * tree.gen_rate[u] for u in non_sink}
    strangers = [u for u in sorted(schedule.allocations) if u not in queues]
    if strangers:
        raise CausalityBreach(f"nodes {strangers} transmit but are the sink or not in the tree")
    buffer_series: dict[int, list[int]] = {u: [] for u in non_sink}
    arrivals: list[tuple[int, int]] = []
    awake: dict[int, set[int]] = {u: set() for u in tree.nodes()}

    for slot in range(schedule.length):
        txs = sorted(schedule.transmitters.get(slot, frozenset()))
        moved: list[tuple[int, int]] = []  # (receiver, packet origin), in tx id order
        for u in txs:
            if not queues[u]:
                raise CausalityBreach(f"node {u} has no packet to send in slot {slot}")
            packet = queues[u].pop(0)
            moved.append((tree.parent[u], packet))
            awake[u].add(slot)
            awake[tree.parent[u]].add(slot)
        for receiver, packet in moved:
            if receiver == tree.sink:
                arrivals.append((packet, slot))
            else:
                queues[receiver].append(packet)
        for u in non_sink:
            buffer_series[u].append(len(queues[u]))

    return SimTrace(
        buffer_series=buffer_series,
        packet_arrivals=arrivals,
        awake_intervals={u: _interval_count(awake[u]) for u in tree.nodes()},
    )


def compute_metrics(trace: SimTrace, schedule: Schedule, tree: SpanningTree) -> Metrics:
    """Aggregate a replay into the cycle-level evaluation measures.

    slot_reuse is total packet-transmissions per slot; avg_delay counts slots
    from cycle start, 1-based (a packet arriving in the first slot has delay 1).
    """
    length = schedule.length
    total_tx = sum(subtree_demand(tree, u) for u in tree.non_sink_nodes())
    slot_reuse = total_tx / length if length else 0.0
    delays = [slot + 1 for _, slot in trace.packet_arrivals]
    avg_delay = sum(delays) / len(delays) if delays else 0.0
    max_buffer = max(
        (lvl for series in trace.buffer_series.values() for lvl in series), default=0
    )
    return Metrics(
        cycle_length=length,
        slot_reuse=slot_reuse,
        avg_delay=avg_delay,
        max_buffer=max_buffer,
        total_switches=sum(trace.awake_intervals.values()),
    )
