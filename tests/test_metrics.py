import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest

from trasa.experiment_cli import ExperimentConfig, sample_instance
from trasa.tree import build_spanning_tree, subtree_demand
from trasa.scheduler import (
    CAUSALITY,
    CONFLICT,
    DELIVERY,
    Schedule,
    Variant,
    Violation,
    build_conflict_map,
    parse_schedule,
    run_trasa,
    validate_schedule,
)
from trasa import metrics, scheduler
from trasa.metrics import CausalityBreach, Metrics, compute_metrics, replay_schedule, schedule_metrics
from trasa.topology import NetworkGraph, generate_random_graph

from conftest import chain_graph, random_tree, star_graph


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
    assert trace.max_buffer == 1  # levels 0, 1, 0 at node 1 and 1, 0, 0 at node 2
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
    # without node 1's second interval, node 2's packet stays at node 1: two sends in three slots
    short = Schedule(s.length, {1: s.allocations[1][:1], 2: s.allocations[2]})
    trace = replay_schedule(short, t)
    assert trace.packet_arrivals == [(1, 0)]
    assert compute_metrics(trace, short, t).slot_reuse == pytest.approx(2 / 3)


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


# --- the event-driven kernel against the dense slot-by-slot rule ---------------


def _per_slot(schedule):
    """Dense inverse of the allocations: each occupied slot, in order, to its sorted transmitters."""
    per_slot = {}
    for u, intervals in schedule.allocations.items():
        for start, width in intervals:
            for slot in range(start, start + width):
                per_slot.setdefault(slot, []).append(u)
    return {slot: tuple(sorted(per_slot[slot])) for slot in sorted(per_slot)}


_SLOT_CASES = [
    (Schedule(3, {1: [(0, 2), (2, 1)]}), [(0, (1,)), (1, (1,)), (2, (1,))]),  # touching intervals
    (
        Schedule(7, {3: [(0, 2), (5, 1)], 1: [(1, 3)], 2: [(1, 1), (6, 1)]}),  # interleaved nodes
        [(0, (3,)), (1, (1, 2, 3)), (2, (1,)), (3, (1,)), (5, (3,)), (6, (2,))],
    ),
    (Schedule(4, {}), []),  # nothing occupied
    (Schedule(0, {}), []),  # length 0
]


def _expand_runs(schedule):
    """`Schedule.runs()` expanded into (slot, transmitters) pairs, one per occupied slot."""
    return [(slot, txs) for a, b, txs in schedule.runs() for slot in range(a, b)]


def test_slots_match_per_slot_inversion():
    for schedule, expected in _SLOT_CASES:
        assert _expand_runs(schedule) == expected
        assert list(_per_slot(schedule).items()) == expected


def test_runs_expand_to_slots():
    assert list(Schedule(200_000, {1: [(0, 200_000)]}).runs()) == [(0, 200_000, (1,))]
    for schedule, _ in _SLOT_CASES:
        assert _expand_runs(schedule) == list(_per_slot(schedule).items())
        assert all(a < b for a, b, _ in schedule.runs())


def _reference_replay(schedule, tree):
    """The dense replay: every slot of the cycle, every node's buffer sampled after it."""
    non_sink = tree.non_sink_nodes()
    queues = {u: [u] * tree.gen_rate[u] for u in non_sink}
    strangers = [u for u in sorted(schedule.allocations) if u not in queues]
    if strangers:
        raise CausalityBreach(f"nodes {strangers} transmit but are the sink or not in the tree")
    buffer_series = {u: [] for u in non_sink}
    arrivals = []
    awake = {u: set() for u in tree.nodes()}
    per_slot = _per_slot(schedule)
    for slot in range(schedule.length):
        moved = []
        for u in per_slot.get(slot, ()):
            if not queues[u]:
                raise CausalityBreach(f"node {u} has no packet to send in slot {slot}")
            moved.append((tree.parent[u], queues[u].pop(0)))
            awake[u].add(slot)
            awake[tree.parent[u]].add(slot)
        for receiver, packet in moved:
            if receiver == tree.sink:
                arrivals.append((packet, slot))
            else:
                queues[receiver].append(packet)
        for u in non_sink:
            buffer_series[u].append(len(queues[u]))
    intervals = {u: sum(1 for s in awake[u] if s - 1 not in awake[u]) for u in tree.nodes()}
    return buffer_series, arrivals, intervals


def _dense_max(buffer_series):
    """The highest level in the dense reference's per-slot series, 0 without slots."""
    return max((lvl for series in buffer_series.values() for lvl in series), default=0)


def _reference_metrics(reference, schedule, tree):
    buffer_series, arrivals, intervals = reference
    length = schedule.length
    sends = sum(map(len, _per_slot(schedule).values()))  # the dense replay moves one packet per entry
    delays = [slot + 1 for _, slot in arrivals]
    return Metrics(
        cycle_length=length,
        slot_reuse=sends / length if length else 0.0,
        avg_delay=sum(delays) / len(delays) if delays else 0.0,
        max_buffer=_dense_max(buffer_series),
        total_switches=sum(intervals.values()),
    )


def _reference_validate(schedule, conflicts, tree):
    """Pairwise conflicts in every slot, then a counting replay of causality and delivery."""
    violations = []
    strangers = [u for u in sorted(schedule.allocations) if u not in tree.depth]
    for u in strangers:
        first_slot = schedule.allocations[u][0][0]
        violations.append(
            Violation(CAUSALITY, first_slot, first_slot + 1, (u,), f"node {u} transmits but is not in the tree")
        )
    per_slot = _per_slot(schedule)
    for slot in range(schedule.length):
        txs = per_slot.get(slot, ())
        for i, u in enumerate(txs):
            for v in txs[i + 1 :]:
                if conflicts.conflicts(u, v):
                    violations.append(
                        Violation(CONFLICT, slot, slot + 1, (u, v), f"nodes {u} and {v} interfere in slot {slot}")
                    )
    if strangers:
        return violations
    buffers = {u: tree.gen_rate[u] for u in tree.non_sink_nodes()}
    delivered = 0
    for slot in range(schedule.length):
        arrivals = {}
        for u in per_slot.get(slot, ()):
            if u == tree.sink:
                violations.append(Violation(CAUSALITY, slot, slot + 1, (u,), "the sink must never transmit"))
                continue
            if buffers[u] < 1:
                violations.append(
                    Violation(CAUSALITY, slot, slot + 1, (u,), f"node {u} transmits with an empty buffer in slot {slot}")
                )
                continue
            buffers[u] -= 1
            arrivals[tree.parent[u]] = arrivals.get(tree.parent[u], 0) + 1
        for p, count in arrivals.items():
            if p == tree.sink:
                delivered += count
            else:
                buffers[p] += count
    expected = tree.total_generated()
    if delivered != expected:
        violations.append(Violation(DELIVERY, None, None, (), f"sink received {delivered} of {expected} packets"))
    return violations


def _broken_schedules(rng, schedule, graph, tree, conflicts):
    """An empty and a shifted schedule, then copies with one fault each and with all at once."""
    base = {u: list(ivs) for u, ivs in schedule.allocations.items()}
    length = schedule.length
    per_slot = _per_slot(schedule)
    edits = []
    if base:
        u = rng.choice(sorted(base))
        dropped = base[u][:]
        del dropped[rng.randrange(len(dropped))]
        edits.append({u: dropped})  # a dropped interval
        slot = rng.choice(sorted(per_slot))
        busy = per_slot[slot]
        rivals = sorted(
            v for w in busy for v in conflicts.conflicting(w) if v != tree.sink and v not in busy
        )
        if rivals:
            v = rng.choice(rivals)
            edits.append({v: base.get(v, []) + [(slot, 1)]})  # a conflicting extra transmission
        edits.append({tree.sink: [(rng.randrange(length), 1)]})  # the sink transmits
        edits.append({graph.n + 3: [(rng.randrange(length), 1)], -1: [(0, 1)]})  # strangers
    idle = [u for u in tree.non_sink_nodes() if u not in base]
    if idle and length:
        edits.append({rng.choice(idle): [(rng.randrange(length), 1)]})  # nothing to send
    for u in tree.non_sink_nodes():
        free = [s for s in range(length) if u not in per_slot.get(s, ())]
        if base.get(u) and free:  # one send more than the node ever holds
            edits.append({u: base[u] + [(rng.choice(free), 1)]})
            break
    schedules = [
        Schedule(0, {}),  # nothing sent: buffers never move
        Schedule(length + 1, {u: [(s + 1, w) for s, w in ivs] for u, ivs in base.items()}),
    ]
    schedules += [Schedule(length, {**base, **edit}) for edit in edits]
    everything, edited = dict(base), set()
    for edit in edits:
        if edited.isdisjoint(edit):
            everything.update(edit)
            edited.update(edit)
    schedules.append(Schedule(length, everything))
    return schedules


def _report_key(kind, slot, nodes, tree):
    """A report's order: strangers by node, conflicts then causality by (slot, nodes), delivery last."""
    if kind == DELIVERY:
        return (3,)
    if kind == CAUSALITY and nodes[0] not in tree.depth:
        return (0, nodes)
    return (1 if kind == CONFLICT else 2, slot, nodes)


def _range_detail(v, tree):
    """The detail a range violation must carry, with its slots as `start..stop-1`."""
    if v.kind == CONFLICT:
        return f"nodes {v.nodes[0]} and {v.nodes[1]} interfere in slots {v.slot}..{v.stop - 1}"
    if v.nodes[0] not in tree.depth:
        return f"node {v.nodes[0]} transmits but is not in the tree"
    if v.nodes[0] == tree.sink:
        return "the sink must never transmit"
    return f"node {v.nodes[0]} transmits with an empty buffer in slots {v.slot}..{v.stop - 1}"


def _assert_matches_reference(violations, reference, tree):
    """The report's ranges expand slot by slot into the per-slot reference, in its order, with exact details."""
    expected = [(v.kind, v.slot, v.nodes) for v in reference]
    assert expected == sorted(expected, key=lambda e: _report_key(*e, tree))  # the reference's own order
    starts = [_report_key(v.kind, v.slot, v.nodes, tree) for v in violations]
    assert starts == sorted(starts)  # the report, read by the first slot of each range
    expanded = [
        (v.kind, slot, v.nodes)
        for v in violations
        for slot in ([None] if v.kind == DELIVERY else range(v.slot, v.stop))
    ]
    assert sorted(expanded, key=lambda e: _report_key(*e, tree)) == expected
    for v in violations:
        if v.kind == DELIVERY:
            assert (v.slot, v.stop, v.nodes) == (None, None, ())
            assert v.detail == reference[-1].detail
        else:
            assert v.slot < v.stop and v.detail == _range_detail(v, tree)
            if v.nodes[0] not in tree.depth:
                assert v.stop == v.slot + 1


def _check_against_references(schedule, conflicts, tree):
    """Validation, replay and metrics of one schedule against the dense references; returns the violations."""
    violations = validate_schedule(schedule, conflicts, tree).violations
    _assert_matches_reference(violations, _reference_validate(schedule, conflicts, tree), tree)
    try:
        expected = _reference_replay(schedule, tree)
    except CausalityBreach as exc:
        for entry in (replay_schedule, schedule_metrics):
            with pytest.raises(CausalityBreach) as caught:
                entry(schedule, tree)
            assert str(caught.value) == str(exc)
        if tree.sink not in schedule.allocations and all(u in tree.depth for u in schedule.allocations):
            # both entry points read the one count walk: the breach is the first causality fault
            first = next(v for v in violations if v.kind == CAUSALITY)
            assert str(exc) == f"node {first.nodes[0]} has no packet to send in slot {first.slot}"
        return violations
    trace = replay_schedule(schedule, tree)
    buffer_series, arrivals, intervals = expected
    assert trace.max_buffer == _dense_max(buffer_series)
    assert (trace.packet_arrivals, trace.awake_intervals) == (arrivals, intervals)
    measures = _reference_metrics(expected, schedule, tree)
    assert schedule_metrics(schedule, tree) == measures
    assert compute_metrics(trace, schedule, tree) == measures
    return violations


def test_event_replay_and_validation_match_dense_reference():
    rng = random.Random(5005)
    cases = list(itertools.product(Variant, (1, 2, 3), (1, 2, 3, 4, "mixed"))) * 7
    broken = 0
    for variant, h, rate in cases:
        g, t = random_tree(rng, (2, 40), rate)
        cm = build_conflict_map(g, t, variant, h)
        good = run_trasa(t, cm, rng.choice((1, 2)))
        for s in [good] + _broken_schedules(rng, good, g, t, cm):
            assert _expand_runs(s) == list(_per_slot(s).items())
            broken += bool(_check_against_references(s, cm, t))
    assert len(cases) >= 200 and broken > len(cases) * 3


def _wide_schedules(rng, tree):
    """Foreign schedules with wide, overlapping intervals, so runs span many slots.

    First the named cases, where the tree has them: a parent and its child
    sending across one long run, two children of one receiver sharing a
    run, the sink inside a long run and a node that runs dry partway
    through a run; then random schedules with one or two intervals per
    chosen node, the sink among them in about one in four.
    """
    nodes = tree.non_sink_nodes()
    rate = tree.gen_rate
    length = rng.randint(3, 24)
    cases = []
    inner = [u for u in nodes if tree.parent[u] != tree.sink]
    if inner:
        c = rng.choice(inner)
        p = tree.parent[c]
        cases.append({c: [(0, length)], p: [(rng.randrange(2), length - 2)]})  # parent and child
    pairs = [kids for kids in tree.children.values() if len(kids) >= 2]
    if pairs:
        a, b = rng.sample(rng.choice(pairs), 2)
        cases.append({a: [(1, length - 1)], b: [(0, length - 2)]})  # siblings share one receiver
    for c in tree.children.get(tree.sink, [])[:1]:
        cases.append({tree.sink: [(0, length)], c: [(1, length - 1)]})  # the sink in a long run
    held = [u for u in nodes if 0 < rate[u] <= length - 3]
    if held:
        u = rng.choice(held)
        cases.append({u: [(1, rate[u] + 2)]})  # runs dry two slots before the run ends
    for _ in range(6):
        chosen = rng.sample(nodes, rng.randint(1, len(nodes)))
        if rng.random() < 0.25:
            chosen.append(tree.sink)
        allocations = {}
        for u in chosen:
            cuts = sorted(rng.sample(range(length + 1), 2 * rng.randint(1, 2)))
            allocations[u] = [(start, stop - start) for start, stop in zip(cuts[::2], cuts[1::2])]
        cases.append(allocations)
    return [Schedule(length, allocations) for allocations in cases]


def test_run_walk_matches_dense_reference_on_wide_schedules():
    rng = random.Random(1515)
    cases = list(itertools.product(Variant, (1, 2), (1, 2, "mixed"))) * 8
    seen = dict.fromkeys(("parent and child", "shared receiver", "sink", "runs dry", "conflict"), 0)
    for variant, h, rate in cases:
        g, t = random_tree(rng, (3, 30), rate)
        cm = build_conflict_map(g, t, variant, h)
        for s in _wide_schedules(rng, t):
            violations = _check_against_references(s, cm, t)
            for start, stop, txs in s.runs():
                receivers = [t.parent.get(u) for u in txs]
                seen["parent and child"] += stop - start > 1 and any(p in txs for p in receivers)
                seen["shared receiver"] += len(set(receivers)) < len(receivers)
                seen["sink"] += stop - start > 1 and t.sink in txs
                seen["conflict"] += stop - start > 1 and any(cm.conflicts(u, v) for u in txs for v in txs)
            seen["runs dry"] += any(v.kind == CAUSALITY and v.nodes[0] != t.sink for v in violations)
    assert min(seen.values()) >= len(cases), seen


def _causal_schedule(rng, tree, pause):
    """A causal schedule in which each node sends its subtree demand, its children first.

    A node may send in any slot, from slot 0 on, in which it holds a packet
    before the slot's receives, and skips such a slot with probability
    `pause`. So leaves share their first slots, and a node with packets of
    its own forwards while its children send. A run of sends is cut into
    two touching intervals half of the time.
    """
    received = {u: Counter() for u in tree.nodes()}  # slot -> packets arriving
    allocations = {}
    for u in sorted(tree.non_sink_nodes(), key=tree.depth.__getitem__, reverse=True):
        held, left, slot, sends = tree.gen_rate[u], subtree_demand(tree, u), 0, []
        while left:
            if held and rng.random() >= pause:
                held, left = held - 1, left - 1
                sends.append(slot)
                received[tree.parent[u]][slot] += 1
            held += received[u][slot]
            slot += 1
        runs = []
        for slot in sends:
            if runs and sum(runs[-1]) == slot:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((slot, 1))
        intervals = []
        for start, width in runs:
            if width > 1 and rng.random() < 0.5:
                cut = rng.randint(1, width - 1)
                intervals += [(start, cut), (start + cut, width - cut)]
            else:
                intervals.append((start, width))
        if intervals:
            allocations[u] = intervals
    length = max((sum(ivs[-1]) for ivs in allocations.values()), default=0) + rng.randint(0, 2)
    return Schedule(length, allocations)


def test_count_kernel_matches_dense_reference_on_causal_wide_schedules():
    rng = random.Random(1616)
    cases = [(Variant.TREE_ONLY, 1)] * 24 + list(itertools.product(Variant, (1, 2))) * 6
    seen = dict.fromkeys(("siblings share slots", "forward while a child sends", "touching", "starved parent"), 0)
    for variant, h in cases:
        g, t = random_tree(rng, (3, 30), rng.choice((1, 2, 3, "mixed")))
        cm = build_conflict_map(g, t, variant, h)
        s = _causal_schedule(rng, t, rng.choice((0.0, 0.2, 0.5)))
        violations = _check_against_references(s, cm, t)
        assert not [v for v in violations if v.kind != CONFLICT]
        for start, stop, txs in s.runs():
            receivers = [t.parent[u] for u in txs]
            seen["siblings share slots"] += len(set(receivers)) < len(receivers)
            seen["forward while a child sends"] += stop - start > 1 and any(p in txs for p in receivers)
        seen["touching"] += any(sum(a) == b[0] for ivs in s.allocations.values() for a, b in zip(ivs, ivs[1:]))
        # a grandchild that never sends leaves its parent short, which later starves the grandparent
        lost = [u for u in s.allocations if t.parent[u] != t.sink and t.parent[t.parent[u]] != t.sink]
        if lost:
            u = rng.choice(sorted(lost))
            starved = Schedule(s.length, {v: ivs for v, ivs in s.allocations.items() if v != u})
            _check_against_references(starved, cm, t)
            with pytest.raises(CausalityBreach, match=f"^node {t.parent[u]} has no packet"):
                schedule_metrics(starved, t)
            seen["starved parent"] += 1
    assert min(seen.values()) >= 20, seen


def _rates_star(rates):
    """The sink 0 with one leaf per rate, leaf i + 1 generating rates[i] packets: (graph, tree)."""
    g = star_graph(len(rates) + 1)
    return g, build_spanning_tree(g, max_children=len(rates), gen_rate={i + 1: r for i, r in enumerate(rates)})


def test_max_buffer_counts_the_start_level_only_of_nodes_idle_in_slot_0():
    g, t = _rates_star([9, 1])
    s = run_trasa(t, build_conflict_map(g, t, Variant.TREE_ONLY, 1), 1)
    assert s.allocations == {1: [(0, 9)], 2: [(0, 1)]}  # both send in slot 0
    assert schedule_metrics(s, t).max_buffer == 8
    later = Schedule(10, {1: [(1, 9)], 2: [(0, 1)]})  # node 1 holds its 9 packets through slot 0
    assert schedule_metrics(later, t).max_buffer == 9
    for schedule in (s, later):
        expected = _reference_metrics(_reference_replay(schedule, t), schedule, t)
        assert schedule_metrics(schedule, t) == expected


def test_max_buffer_of_schedules_without_sends():
    _, t = _rates_star([2, 5, 3])
    assert schedule_metrics(Schedule(0, {}), t).max_buffer == 0
    assert schedule_metrics(Schedule(4, {}), t).max_buffer == 5
    assert schedule_metrics(Schedule(4, {}), t).total_switches == 0


def test_touching_intervals_are_one_awake_run():
    _, t = _rates_star([3])
    s = Schedule(4, {1: [(0, 2), (2, 1)]})
    assert replay_schedule(s, t).awake_intervals == {0: 1, 1: 1}
    assert schedule_metrics(s, t).total_switches == 2
    apart = Schedule(4, {1: [(0, 2), (3, 1)]})
    assert schedule_metrics(apart, t).total_switches == 4


def test_validation_does_not_walk_slots():
    g = chain_graph(2)
    t = build_spanning_tree(g, max_children=1, gen_rate={0: 0, 1: 10**6})
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = Schedule(10**6, {1: [(0, 10**6)]})
    assert validate_schedule(s, cm, t).violations == []
    # a 3-line foreign file: two nodes interfere and run dry across a million slots
    g = generate_random_graph(6, (1.0, 1.0), 0.9, seed=3)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = parse_schedule("schedule 1000000\n1 0:1000000\n2 0:1000000\n")
    violations = validate_schedule(s, cm, t).violations
    assert [(v.kind, v.slot, v.stop, v.nodes) for v in violations] == [
        (CONFLICT, 0, 10**6, (1, 2)),
        (CAUSALITY, 1, 10**6, (1,)),
        (CAUSALITY, 1, 10**6, (2,)),
        (DELIVERY, None, None, ()),
    ]
    assert violations[-1].detail == "sink received 2 of 5 packets"


def test_replay_then_metrics_runs_one_count_walk(monkeypatch):
    config = ExperimentConfig(
        n_values=[500], range_r=0.16, h=2, max_children=3, heuristic=2,
        variant=Variant.TREE_ONLY, gen_rate=4, runs=1,
    )
    g, t, _ = sample_instance(config, 500, 0)
    cm = build_conflict_map(g, t, Variant.TREE_ONLY, 2)
    s = run_trasa(t, cm, 2)
    walk = scheduler._count_walk
    walks = 0

    def counted(schedule, tree):
        nonlocal walks
        walks += 1
        return walk(schedule, tree)

    monkeypatch.setattr(scheduler, "_count_walk", counted)
    expected = schedule_metrics(s, t)
    assert validate_schedule(s, cm, t).ok
    trace = replay_schedule(s, t)
    assert compute_metrics(trace, s, t) == expected
    assert walks == 1  # the schedule keeps its walk for the tree it was last walked with
    assert trace.max_buffer == expected.max_buffer
    assert metrics._replay(s, t) == trace.packet_arrivals
    assert schedule_metrics(Schedule(s.length, s.allocations), t) == expected
    assert walks == 2  # a new schedule walks afresh


def test_one_schedule_checked_against_two_trees_gets_each_trees_report():
    # node 2, then node 1 for two slots: causal on the chain 2-1-0, while on the
    # star node 1 holds one packet for its two slots
    graphs = {"chain": chain_graph(3), "star": star_graph(3)}
    trees = {name: build_spanning_tree(g, max_children=3) for name, g in graphs.items()}
    allocations = {2: [(0, 1)], 1: [(1, 2)]}
    s = Schedule(3, allocations)
    for name in ("chain", "star", "chain", "star"):
        cm = build_conflict_map(graphs[name], trees[name], Variant.ALL_LINKS, 2)
        report = validate_schedule(s, cm, trees[name])
        assert report == validate_schedule(Schedule(3, allocations), cm, trees[name])
        assert [v.kind for v in report.violations] == ([] if name == "chain" else [CAUSALITY])
    assert schedule_metrics(s, trees["chain"]) == schedule_metrics(Schedule(3, allocations), trees["chain"])


def test_kept_runs_and_walk_go_out_as_fresh_containers(chain_run):
    t, s = chain_run
    runs = list(s.runs())
    consumed = s.runs()
    assert list(consumed) == runs and list(consumed) == []
    assert list(s.runs()) == runs  # a consumed iterator leaves the next call whole
    trace = replay_schedule(s, t)
    awake = dict(trace.awake_intervals)
    trace.awake_intervals.clear()
    assert replay_schedule(s, t).awake_intervals == awake
    assert schedule_metrics(s, t).total_switches == sum(awake.values())
    _, _, faults = s._counts(t)
    faults.append((0, 1, 2))
    assert validate_schedule(s, build_conflict_map(chain_graph(3), t, Variant.ALL_LINKS, 2), t).ok


def test_every_violation_kind_is_reported_in_order(chain_run):
    t, _ = chain_run
    cm = build_conflict_map(chain_graph(3), t, Variant.ALL_LINKS, 2)
    # nodes 1 and 2 collide in slot 0; in slot 1 the sink sends and node 2 has
    # nothing left; node 1 never forwards node 2's packet
    s = Schedule(3, {0: [(1, 1)], 1: [(0, 1)], 2: [(0, 2)]})
    violations = validate_schedule(s, cm, t).violations
    assert [(v.kind, v.slot, v.stop, v.nodes) for v in violations] == [
        (CONFLICT, 0, 1, (1, 2)),
        (CONFLICT, 1, 2, (0, 2)),
        (CAUSALITY, 1, 2, (0,)),
        (CAUSALITY, 1, 2, (2,)),
        (DELIVERY, None, None, ()),
    ]
    assert [v.detail for v in violations] == [
        "nodes 1 and 2 interfere in slots 0..0",
        "nodes 0 and 2 interfere in slots 1..1",
        "the sink must never transmit",
        "node 2 transmits with an empty buffer in slots 1..1",
        "sink received 1 of 2 packets",
    ]
    _assert_matches_reference(violations, _reference_validate(s, cm, t), t)


def test_replay_records_work_per_transmission():
    config = ExperimentConfig(
        n_values=[500], range_r=0.16, h=2, max_children=3, heuristic=2,
        variant=Variant.TREE_ONLY, gen_rate=4, runs=1,
    )
    g, t, _ = sample_instance(config, 500, 0)
    s = run_trasa(t, build_conflict_map(g, t, Variant.TREE_ONLY, 2), 2)
    trace = replay_schedule(s, t)
    # one arrival per packet, one awake count per node and the peak: nothing per slot
    assert len(trace.packet_arrivals) == t.total_generated()
    assert trace.awake_intervals.keys() == set(t.nodes())
    buffer_series, _, _ = _reference_replay(s, t)
    assert compute_metrics(trace, s, t).max_buffer == trace.max_buffer == _dense_max(buffer_series) == 1296


# --- the run-level packet replay ------------------------------------------------


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_replay_of_the_large_tree_rate4_instances_is_pinned():
    # the seed-1 pass-0 instances of the benchmark's README pipeline, made of long
    # runs (60-67 runs over 3,000-3,800 slots), under the greedy schedule and under a
    # conflicting but causal one in which every node sends its whole subtree demand
    # from slot 0; digests recorded with a replay that split a run where a node and
    # its parent both send, peak levels with the count walk that also kept per-segment
    # levels
    config = ExperimentConfig(
        n_values=[500], range_r=0.16, h=2, max_children=3, heuristic=2,
        variant=Variant.TREE_ONLY, gen_rate=4, runs=2, base_seed=1,
    )
    pinned = {
        (0, "greedy"): (
            "9d635f054aa8adae968df8c5dc6f9ae305edb0cd70ae84ebbb349cb98b529ece",
            "cfe8890e97b188eeda8616ee22db9dc3da5047bd14833c44fced577c4b7d3161",
            1296,
        ),
        (0, "all from slot 0"): (
            "8edb208a67ce5353c0b03407e1549c852c5b1ecd3eefe27ec933f40f2b811e8d",
            "65d24f8038e28e8ce14a31adc7eb5abb0cf80758df8e723c151b0993f7325a79",
            684,
        ),
        (1, "greedy"): (
            "aa09934b21ecf861e94823339613b9d740b3ef0593e936ef61171845e2adc294",
            "f4cc2692c6f3cf6bf08c7570ec18a6a4ee2534d60863d729a845f87e6fe8b6bb",
            1020,
        ),
        (1, "all from slot 0"): (
            "9ab465659f6acc55adab16e295aa795840e479acd1f8f446490a002ee52923d0",
            "65d24f8038e28e8ce14a31adc7eb5abb0cf80758df8e723c151b0993f7325a79",
            356,
        ),
    }
    for (run_index, kind), expected in pinned.items():
        g, t, _ = sample_instance(config, 500, run_index)
        cm = build_conflict_map(g, t, Variant.TREE_ONLY, 2)
        if kind == "greedy":
            s = run_trasa(t, cm, 2)
        else:
            demand = {u: subtree_demand(t, u) for u in t.non_sink_nodes()}
            s = Schedule(max(demand.values()), {u: [(0, d)] for u, d in demand.items()})
            violations = validate_schedule(s, cm, t).violations
            assert violations and {v.kind for v in violations} == {CONFLICT}
        trace = replay_schedule(s, t)
        assert (
            _sha256(trace.packet_arrivals),
            _sha256(sorted(trace.awake_intervals.items())),
            trace.max_buffer,
        ) == expected


def _traced_replay(schedule, tree):
    """`metrics._replay(schedule, tree)` and the number of Python lines it ran."""
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    sys.settrace(count_lines)
    try:
        arrivals = metrics._replay(schedule, tree)
    finally:
        sys.settrace(None)
    return arrivals, lines


def test_replay_cost_does_not_grow_with_run_width():
    width = 100_000
    t = build_spanning_tree(chain_graph(2), max_children=1, gen_rate={1: width})
    s = Schedule(width, {1: [(0, width)]})
    arrivals, lines = _traced_replay(s, t)
    assert lines < 200  # a walk slot by slot runs over 100,000 lines
    assert arrivals == [(1, slot) for slot in range(width)]
    trace = replay_schedule(s, t)
    assert (trace.awake_intervals, trace.max_buffer) == ({0: 1, 1: 1}, width - 1)  # the peak is after slot 0
    # 0 - 1 - 2 with node 1 forwarding while node 2 sends: a conflict, but causal,
    # and still one run taken whole
    t = build_spanning_tree(chain_graph(3), max_children=1, gen_rate={1: 1, 2: width})
    s = Schedule(width + 1, {1: [(0, width + 1)], 2: [(0, width)]})
    arrivals, lines = _traced_replay(s, t)
    assert lines < 200
    assert arrivals == [(1, 0)] + [(2, k) for k in range(1, width + 1)]


def _check_replay(schedule, tree, arrivals):
    trace = replay_schedule(schedule, tree)
    assert trace.packet_arrivals == arrivals
    buffer_series, arrivals, intervals = _reference_replay(schedule, tree)
    assert trace.max_buffer == _dense_max(buffer_series)
    assert (trace.packet_arrivals, trace.awake_intervals) == (arrivals, intervals)
    return trace


def test_level_entries_are_per_node_segments_not_global_runs():
    # 0 - {1, 2}: node 2's one slot splits the global runs at slots 2 and 3, but not
    # node 1's own segment, which sends in every slot
    g = NetworkGraph([(0.0, 0.0), (0.05, 0.0), (0.0, 0.05)], 0.07, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=2, gen_rate={1: 4, 2: 1})
    s = Schedule(4, {1: [(0, 4)], 2: [(2, 1)]})
    assert list(s.runs()) == [(0, 2, (1,)), (2, 3, (1, 2)), (3, 4, (1,))]
    trace = _check_replay(s, t, [(1, 0), (1, 1), (1, 2), (2, 2), (1, 3)])
    assert (trace.awake_intervals[1], trace.max_buffer) == (1, 3)  # one awake run; the peak is after slot 0


def test_replay_interleaves_siblings_sending_to_one_parent_in_one_run():
    # 0 - 1 - {2, 3}: the siblings are two hops apart, so at h=1 TREE_ONLY they share slots 1-2
    g = NetworkGraph([(0.0, 0.0), (0.05, 0.0), (0.1, 0.0), (0.05, 0.05)], 0.07, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=2, gen_rate={1: 1, 2: 3, 3: 2})
    s = run_trasa(t, build_conflict_map(g, t, Variant.TREE_ONLY, 1), 1)
    assert s.allocations == {1: [(0, 1), (4, 5)], 2: [(1, 3)], 3: [(1, 2)]}
    assert (1, 3, (2, 3)) in list(s.runs())
    # node 1 queues 2, 3, 2, 3 in slots 1-2 and 2 in slot 3, and forwards them in that order
    trace = _check_replay(s, t, [(1, 0), (2, 4), (3, 5), (2, 6), (3, 7), (2, 8)])
    assert trace.max_buffer == 5  # node 1 after slot 3


def test_replay_interleaves_sink_children_sharing_a_run():
    g, t = _rates_star([3, 2])
    s = run_trasa(t, build_conflict_map(g, t, Variant.TREE_ONLY, 1), 1)
    assert list(s.runs()) == [(0, 2, (1, 2)), (2, 3, (1,))]
    _check_replay(s, t, [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)])


def test_replay_takes_a_run_with_parent_and_child_whole():
    # 0 - 1 - 2, both sending in slots 0-1: node 1 holds one packet of its own, so it
    # sends in slot 1 what node 2 sent in slot 0, and its level stays 1 until slot 2
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=1, gen_rate={1: 1, 2: 2})
    s = Schedule(3, {1: [(0, 3)], 2: [(0, 2)]})
    assert list(s.runs()) == [(0, 2, (1, 2)), (2, 3, (1,))]
    assert validate_schedule(s, build_conflict_map(g, t, Variant.ALL_LINKS, 1), t).of_kind(CONFLICT)
    trace = _check_replay(s, t, [(1, 0), (2, 1), (2, 2)])
    assert trace.max_buffer == 1
