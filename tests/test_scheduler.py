import itertools
import math

import pytest

from trasa.topology import NetworkGraph, generate_random_graph
from trasa.tree import build_spanning_tree, subtree_demand
from trasa.scheduler import (
    CAUSALITY,
    CONFLICT,
    DELIVERY,
    Schedule,
    Variant,
    build_conflict_map,
    dump_schedule,
    node_priority,
    parse_schedule,
    run_trasa,
    schedule_length_bounds,
    validate_schedule,
)

from conftest import chain_graph, star_graph


@pytest.fixture
def chain():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    return g, t, cm


def test_priority_orders_chain_nodes(chain):
    _, t, _ = chain
    assert node_priority(t, 1, 1) < node_priority(t, 2, 1)  # more descendants first
    assert node_priority(t, 2, 2) < node_priority(t, 1, 2)  # reversed
    with pytest.raises(ValueError):
        node_priority(t, 0, 1)
    with pytest.raises(ValueError):
        node_priority(t, 1, 3)


def test_priority_ties_break_by_id():
    g = star_graph(4)
    t = build_spanning_tree(g, max_children=3)
    for heuristic in (1, 2):
        assert sorted((1, 2, 3), key=lambda u: node_priority(t, u, heuristic)) == [1, 2, 3]


def test_conflict_map_chain_h2(chain):
    _, _, cm = chain
    assert cm.conflicts(1, 2)
    assert cm.conflicts(0, 2)  # two hops through the middle node
    assert not cm.conflicts(1, 1)


def test_tree_only_contrasts_with_all_links():
    # two branches under node 1; nodes 3 and 4 are graph-adjacent but end up
    # three tree hops apart (4 - 2 - 1 - 3)
    pts = [(0.0, 0.0), (0.3, 0.0), (0.6, -0.15), (0.6, 0.15), (0.85, -0.1)]
    g = NetworkGraph(pts, 0.4, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=3)
    assert t.parent[4] == 2 and t.parent[2] == 1 and t.parent[3] == 1
    assert g.has_edge(3, 4)
    all_links = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    tree_only = build_conflict_map(g, t, Variant.TREE_ONLY, 2)
    assert all_links.conflicts(3, 4)
    assert not tree_only.conflicts(3, 4)


def test_all_links_relation_matches_bfs_distances():
    from trasa.topology import is_connected
    from trasa.tree import Infeasible

    g = t = None
    for seed in range(300, 400):
        g = generate_random_graph(30, (1.0, 1.0), 0.35, seed=seed)
        if not is_connected(g):
            continue
        try:
            t = build_spanning_tree(g, max_children=5)
            break
        except Infeasible:
            continue
    assert t is not None
    # independent all-pairs distances by repeated relaxation over the edge set
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    for h in (1, 2, 3):
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, h)
        for u, v in itertools.combinations(range(g.n), 2):
            assert cm.conflicts(u, v) == (1 <= dist[u][v] <= h)


def test_trasa_chain_hand_trace(chain):
    _, t, cm = chain
    s = run_trasa(t, cm, 1)
    assert s.length == 3
    assert s.allocations == {1: [(0, 1), (2, 1)], 2: [(1, 1)]}
    assert s.transmitters == {0: frozenset({1}), 1: frozenset({2}), 2: frozenset({1})}


def test_trasa_chain_heuristic_two(chain):
    _, t, cm = chain
    s = run_trasa(t, cm, 2)
    assert s.length == 3
    assert s.allocations == {1: [(1, 2)], 2: [(0, 1)]}


def test_trasa_star_three_children():
    g = star_graph(4)
    t = build_spanning_tree(g, max_children=3)
    for variant in (Variant.ALL_LINKS, Variant.TREE_ONLY):
        cm = build_conflict_map(g, t, variant, 2)
        s = run_trasa(t, cm, 1)
        assert s.length == 3
        assert [s.transmitters[i] for i in range(3)] == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]


def test_trasa_four_node_chain_h1_hand_trace():
    g = chain_graph(5)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 1)
    s = run_trasa(t, cm, 1)
    assert s.length == 7
    assert s.allocations == {
        1: [(0, 1), (3, 2), (6, 1)],
        2: [(1, 2), (5, 1)],
        3: [(0, 1), (3, 1)],
        4: [(1, 1)],
    }


def test_trasa_allocates_exactly_the_subtree_demand():
    g = generate_random_graph(45, (1.0, 1.0), 0.4, seed=404)
    t = build_spanning_tree(g, max_children=3)
    for variant, heuristic in itertools.product(Variant, (1, 2)):
        cm = build_conflict_map(g, t, variant, 2)
        s = run_trasa(t, cm, heuristic)
        for u in t.non_sink_nodes():
            assert s.total_width(u) == subtree_demand(t, u)


def test_bounds_examples():
    star = build_spanning_tree(star_graph(5), max_children=4)
    assert schedule_length_bounds(star) == (4, 4)
    chain = build_spanning_tree(chain_graph(3), max_children=3)
    assert schedule_length_bounds(chain) == (2, 3)
    lonely = build_spanning_tree(generate_random_graph(1, (1.0, 1.0), 0.4, 0), 3)
    assert schedule_length_bounds(lonely) == (0, 0)


def test_bounds_generalize_to_rates():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3, gen_rate={1: 2, 2: 3})
    assert schedule_length_bounds(t) == (5, 2 * 1 + 3 * 2)


def test_validator_passes_trasa_output(chain):
    _, t, cm = chain
    report = validate_schedule(run_trasa(t, cm, 1), cm, t)
    assert report.ok
    assert report.violations == []


def test_validator_flags_parent_child_conflict(chain):
    _, t, cm = chain
    bad = Schedule(2, {1: [(0, 1)], 2: [(0, 1), (1, 1)]})
    report = validate_schedule(bad, cm, t)
    kinds = {v.kind for v in report.violations}
    assert CONFLICT in kinds
    assert any(set(v.nodes) == {1, 2} for v in report.of_kind(CONFLICT))


def test_validator_flags_truncated_schedule(chain):
    _, t, cm = chain
    # drop the final slot of [a | b | a]: b's packet never reaches the sink
    truncated = Schedule(2, {1: [(0, 1)], 2: [(1, 1)]})
    report = validate_schedule(truncated, cm, t)
    assert [v.kind for v in report.violations] == [DELIVERY]


def test_validator_flags_premature_transmission(chain):
    _, t, cm = chain
    # a claims two slots up front but only holds one packet at slot 0
    eager = Schedule(3, {1: [(0, 2)], 2: [(2, 1)]})
    report = validate_schedule(eager, cm, t)
    kinds = [v.kind for v in report.violations]
    assert CAUSALITY in kinds and DELIVERY in kinds


def test_validator_reports_node_outside_the_tree(chain):
    _, t, cm = chain
    stranger = Schedule(2, {7: [(0, 1)], 1: [(1, 1)]})
    report = validate_schedule(stranger, cm, t)
    assert report.violations == report.of_kind(CAUSALITY)
    assert [(v.slot, v.nodes) for v in report.violations] == [(0, (7,))]
    assert "not in the tree" in report.violations[0].detail


def test_demand_state_sink_counter_meters_delivery(chain):
    from trasa.scheduler import DemandState

    _, t, _ = chain
    state = DemandState.from_tree(t)
    assert state.remaining == {0: 0, 1: 1, 2: 1}
    assert state.delivered(t) == 0
    state.remaining[0] += 2  # the sink's entry only ever grows
    assert state.delivered(t) == t.total_generated()


def test_schedule_rejects_overlapping_intervals():
    with pytest.raises(ValueError):
        Schedule(3, {1: [(0, 2), (1, 1)]})
    with pytest.raises(ValueError):
        Schedule(2, {1: [(1, 2)]})


def test_schedule_dump_and_parse_round_trip(chain):
    _, t, cm = chain
    s = run_trasa(t, cm, 1)
    text = dump_schedule(s, t)
    assert text == "schedule 3\n1 0:1 2:1\n2 1:1\n"
    back = parse_schedule(text)
    assert back.length == s.length
    assert back.allocations == s.allocations


def test_rate_scaling_multiplies_the_whole_schedule():
    g = generate_random_graph(25, (1.0, 1.0), 0.4, seed=555)
    base = build_spanning_tree(g, max_children=3)
    cm_base = build_conflict_map(g, base, Variant.ALL_LINKS, 2)
    s1 = run_trasa(base, cm_base, 1)
    for r in (2, 3):
        scaled = build_spanning_tree(g, max_children=3, gen_rate=r)
        cm = build_conflict_map(g, scaled, Variant.ALL_LINKS, 2)
        sr = run_trasa(scaled, cm, 1)
        assert sr.length == r * s1.length
        for u in base.non_sink_nodes():
            # the whole window structure scales, interval by interval
            assert sr.allocations.get(u, []) == [
                (r * start, r * width) for start, width in s1.allocations.get(u, [])
            ]
