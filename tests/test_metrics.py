import pytest

from trasa.tree import build_spanning_tree
from trasa.scheduler import Schedule, Variant, build_conflict_map, run_trasa
from trasa.metrics import CausalityBreach, compute_metrics, replay_schedule

from conftest import chain_graph, star_graph


@pytest.fixture
def chain_run():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = run_trasa(t, cm, 1)  # [a | b | a]
    return t, s


def test_chain_replay_hand_trace(chain_run):
    t, s = chain_run
    trace = replay_schedule(s, t)
    assert trace.packet_arrivals == [(1, 0), (2, 2)]
    assert trace.buffer_series[1] == [0, 1, 0]
    assert trace.buffer_series[2] == [1, 0, 0]
    # a transmits, receives, transmits across slots 0-2: one awake interval
    assert trace.awake_intervals[1] == 1
    assert trace.awake_intervals[2] == 1
    assert trace.awake_intervals[0] == 2  # sink hears a in slots 0 and 2 only


def test_chain_metrics_hand_values(chain_run):
    t, s = chain_run
    m = compute_metrics(replay_schedule(s, t), s, t)
    assert m.cycle_length == 3
    assert m.slot_reuse == pytest.approx(1.0)
    assert m.avg_delay == pytest.approx(2.0)
    assert m.max_buffer == 1
    assert m.total_switches == 4


def test_star_replay_and_metrics():
    g = star_graph(4)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = run_trasa(t, cm, 1)
    trace = replay_schedule(s, t)
    assert trace.packet_arrivals == [(1, 0), (2, 1), (3, 2)]
    assert all(trace.awake_intervals[c] == 1 for c in (1, 2, 3))
    assert trace.awake_intervals[0] == 1  # sink stays awake for the whole cycle
    m = compute_metrics(trace, s, t)
    assert m.slot_reuse == pytest.approx(1.0)
    assert m.avg_delay == pytest.approx(2.0)
    assert m.max_buffer == 1


def test_every_packet_arrives_exactly_once():
    from trasa.topology import generate_random_graph

    g = generate_random_graph(40, (1.0, 1.0), 0.4, seed=90)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = run_trasa(t, cm, 1)
    trace = replay_schedule(s, t)
    origins = sorted(origin for origin, _ in trace.packet_arrivals)
    assert origins == t.non_sink_nodes()  # uniform unit rate
    for origin, slot in trace.packet_arrivals:
        assert slot + 1 >= t.depth[origin]  # each hop costs at least one slot


def test_foreign_schedule_raises_causality_breach(chain_run):
    t, _ = chain_run
    for allocations in (
        {1: [(0, 2)], 2: [(2, 1)]},  # node 1 sends before it holds two packets
        {0: [(0, 1)], 1: [(1, 1)], 2: [(2, 1)]},  # the sink transmits
        {7: [(0, 1)], 1: [(1, 1)]},  # node 7 is not in the tree
    ):
        with pytest.raises(CausalityBreach):
            replay_schedule(Schedule(3, allocations), t)


def test_empty_schedule_yields_zero_metrics():
    from trasa.topology import generate_random_graph

    g = generate_random_graph(1, (1.0, 1.0), 0.4, seed=3)
    t = build_spanning_tree(g, max_children=3)
    s = Schedule(0, {})
    trace = replay_schedule(s, t)
    assert trace.packet_arrivals == []
    m = compute_metrics(trace, s, t)
    assert m.cycle_length == 0
    assert m.slot_reuse == 0.0
    assert m.avg_delay == 0.0
    assert m.max_buffer == 0
    assert m.total_switches == 0
