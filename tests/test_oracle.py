import itertools
import random
from collections import deque

import numpy as np
import pytest

from trasa.topology import NetworkGraph, generate_random_graph, is_connected
from trasa.tree import Disconnected, Infeasible, build_spanning_tree
from trasa.scheduler import Variant, build_conflict_map, run_trasa, validate_schedule
from trasa.oracle import (
    Coloring,
    InvalidColoring,
    TooLarge,
    _maximal_independent_sets,
    coloring_to_schedule,
    optimal_schedule_length,
    schedule_to_coloring,
    validate_coloring,
)

from conftest import chain_graph, star_graph


def _brute_force_minimum(tree, conflicts) -> int:
    """Plain BFS over buffer states, firing every nonempty independent set.

    No pruning, no heuristic, not limited to maximal sets: a deliberately
    different search from the library's, usable for tiny instances only.
    """
    order = tree.non_sink_nodes()
    index = {u: i for i, u in enumerate(order)}
    start = tuple(tree.gen_rate[u] for u in order)
    if sum(start) == 0:
        return 0
    frontier = deque([start])
    depth = {start: 0}
    while frontier:
        state = frontier.popleft()
        eligible = [u for u in order if state[index[u]] > 0]
        for r in range(1, len(eligible) + 1):
            for combo in itertools.combinations(eligible, r):
                if any(conflicts.conflicts(a, b) for a, b in itertools.combinations(combo, 2)):
                    continue
                nxt = list(state)
                for u in combo:
                    nxt[index[u]] -= 1
                    p = tree.parent[u]
                    if p != tree.sink:
                        nxt[index[p]] += 1
                nxt = tuple(nxt)
                if sum(nxt) == 0:
                    return depth[state] + 1
                if nxt not in depth:
                    depth[nxt] = depth[state] + 1
                    frontier.append(nxt)
    raise AssertionError("unreachable")


def test_chain_and_star_examples():
    chain = chain_graph(3)
    t = build_spanning_tree(chain, max_children=3)
    cm = build_conflict_map(chain, t, Variant.ALL_LINKS, 2)
    assert optimal_schedule_length(t, cm) == 3

    star = star_graph(4)
    ts = build_spanning_tree(star, max_children=3)
    cms = build_conflict_map(star, ts, Variant.ALL_LINKS, 2)
    assert optimal_schedule_length(ts, cms) == 3


def test_size_guard():
    g = generate_random_graph(9, (1.0, 1.0), 0.9, seed=1)
    t = build_spanning_tree(g, max_children=8)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    with pytest.raises(TooLarge):
        optimal_schedule_length(t, cm)


def test_search_matches_unpruned_brute_force():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 6))
        g = generate_random_graph(n, (1.0, 1.0), 0.7, seed=int(rng.integers(10**9)))
        if not is_connected(g):
            continue
        try:
            t = build_spanning_tree(g, max_children=3)
        except Infeasible:
            continue
        h = int(rng.integers(1, 4))
        variant = Variant.ALL_LINKS if rng.integers(2) else Variant.TREE_ONLY
        cm = build_conflict_map(g, t, variant, h)
        assert optimal_schedule_length(t, cm) == _brute_force_minimum(t, cm)
        checked += 1


def test_optimum_never_exceeds_greedy_or_upper_bound():
    from trasa.scheduler import schedule_length_bounds

    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        g = generate_random_graph(5, (1.0, 1.0), 0.6, seed=int(rng.integers(10**9)))
        if not is_connected(g):
            continue
        t = build_spanning_tree(g, max_children=4)
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        opt = optimal_schedule_length(t, cm)
        greedy = run_trasa(t, cm, 1).length
        _, upper = schedule_length_bounds(t)
        assert opt <= greedy <= upper
        checked += 1


def _reference_maximal_sets(eligible, conflicts):
    """Every independent combination by size, kept if no other eligible node extends it."""
    independents = []
    for r in range(1, len(eligible) + 1):
        for combo in itertools.combinations(eligible, r):
            if all(not conflicts.conflicts(a, b) for a, b in itertools.combinations(combo, 2)):
                independents.append(set(combo))
    return [
        tuple(sorted(s))
        for s in independents
        if not any(v not in s and all(not conflicts.conflicts(v, w) for w in s) for v in eligible)
    ]


def test_mask_enumeration_matches_pairwise_maximal_sets_in_order():
    rng = random.Random(88)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 11)
        g = generate_random_graph(n, (1.0, 1.0), rng.uniform(0.3, 0.8), seed=rng.randrange(2**32))
        try:
            t = build_spanning_tree(g, max_children=3)
        except (Disconnected, Infeasible):
            continue
        cm = build_conflict_map(g, t, rng.choice(list(Variant)), rng.randint(1, 3))
        eligible = [u for u in t.non_sink_nodes() if rng.random() < 0.8]
        if checked % 3 == 0:
            rng.shuffle(eligible)  # the order of the input fixes the order of the output
        assert _maximal_independent_sets(eligible, cm) == _reference_maximal_sets(eligible, cm)
        checked += 1


@pytest.fixture
def chain_setup():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    return g, t, cm


def test_coloring_to_schedule_chain(chain_setup):
    _, t, cm = chain_setup
    coloring = Coloring({2: 1, 1: 2})
    s = coloring_to_schedule(coloring, t, cm)
    assert s.length == 3  # region of width 1 for color 1, then width 2
    assert s.allocations == {2: [(0, 1)], 1: [(1, 2)]}
    report = validate_schedule(s, cm, t)
    assert report.ok


def test_coloring_to_schedule_empty():
    g = generate_random_graph(1, (1.0, 1.0), 0.4, seed=0)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = coloring_to_schedule(Coloring({}), t, cm)
    assert s.length == 0
    assert s.allocations == {}


def test_shared_color_region_width_is_class_maximum():
    # path leaf(1) - sink(0) - leaf(2); at h=1 the two leaves do not conflict
    g = NetworkGraph([(0.5, 0.5), (0.2, 0.5), (0.8, 0.5)], 0.4, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=3, gen_rate={1: 1, 2: 2})
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 1)
    s = coloring_to_schedule(Coloring({1: 1, 2: 1}), t, cm)
    assert s.length == 2
    assert s.allocations == {1: [(0, 1)], 2: [(0, 2)]}
    assert validate_schedule(s, cm, t).ok


def test_coloring_to_schedule_rejects_bad_input(chain_setup):
    _, t, cm = chain_setup
    with pytest.raises(InvalidColoring):
        coloring_to_schedule(Coloring({1: 1, 2: 2}), t, cm)  # child above parent
    with pytest.raises(InvalidColoring):
        coloring_to_schedule(Coloring({1: 1}), t, cm)  # node 2 has traffic, no color
    with pytest.raises(InvalidColoring):
        coloring_to_schedule(Coloring({1: 2, 2: 2}), t, cm)  # conflicting pair shares a color
    with pytest.raises(InvalidColoring):
        coloring_to_schedule(Coloring({2: 1, 1: 2, 99: 3}), t, cm)  # node 99 is not in the tree


def test_schedule_to_coloring_chain(chain_setup):
    _, t, cm = chain_setup
    s = run_trasa(t, cm, 1)  # [a | b | a]
    coloring = schedule_to_coloring(s, t, cm)
    assert coloring.colors == {2: 1, 1: 2}


def test_schedule_to_coloring_star():
    g = star_graph(4)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = run_trasa(t, cm, 1)
    assert schedule_to_coloring(s, t, cm).colors == {1: 1, 2: 2, 3: 3}


def test_validate_coloring_examples(chain_setup):
    _, t, cm = chain_setup
    assert validate_coloring(Coloring({2: 1, 1: 2}), cm, t)
    assert not validate_coloring(Coloring({2: 1, 1: 1}), cm, t)  # 1-hop pair shares color
    assert not validate_coloring(Coloring({2: 2, 1: 1}), cm, t)  # child above parent
    assert not validate_coloring(Coloring({2: 0, 1: 1}), cm, t)  # colors start at 1
    assert not validate_coloring(Coloring({0: 1, 2: 1, 1: 2}), cm, t)  # sink colored
    assert not validate_coloring(Coloring({2: True, 1: 2}), cm, t)  # a bool is not a color


def test_two_hop_pair_must_differ():
    # leaf(1) - sink(0) - leaf(2): the leaves sit two hops apart with no
    # parent-order constraint between them, so only the hop rule can fail
    g = NetworkGraph([(0.5, 0.5), (0.2, 0.5), (0.8, 0.5)], 0.4, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    assert not validate_coloring(Coloring({1: 1, 2: 1}), cm, t)
    assert validate_coloring(Coloring({1: 1, 2: 2}), cm, t)


def test_round_trip_on_greedy_output():
    rng = np.random.default_rng(888)
    checked = 0
    while checked < 20:
        g = generate_random_graph(int(rng.integers(5, 15)), (1.0, 1.0), 0.5, seed=int(rng.integers(10**9)))
        if not is_connected(g):
            continue
        try:
            t = build_spanning_tree(g, max_children=3)
        except Infeasible:
            continue
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        s = run_trasa(t, cm, 1)
        coloring = schedule_to_coloring(s, t, cm)
        assert validate_coloring(coloring, cm, t)
        rebuilt = coloring_to_schedule(coloring, t, cm)
        assert validate_schedule(rebuilt, cm, t).ok
        checked += 1


def test_zero_demand_nodes_stay_uncolored():
    g = chain_graph(4)
    t = build_spanning_tree(g, max_children=3, gen_rate={1: 1, 2: 1, 3: 0})
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    s = run_trasa(t, cm, 1)
    coloring = schedule_to_coloring(s, t, cm)
    assert 3 not in coloring.colors
    assert validate_coloring(coloring, cm, t)
    rebuilt = coloring_to_schedule(coloring, t, cm)
    assert validate_schedule(rebuilt, cm, t).ok
