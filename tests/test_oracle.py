import heapq
import itertools
import random
from collections import deque

import numpy as np
import pytest

from trasa.topology import NetworkGraph, generate_random_graph, is_connected
from trasa.tree import Disconnected, Infeasible, build_spanning_tree, subtree_demand
from trasa.scheduler import Variant, _bits, build_conflict_map, node_priority, run_trasa, validate_schedule
from trasa import oracle
from trasa.oracle import (
    Coloring,
    InvalidColoring,
    TooLarge,
    coloring_to_schedule,
    optimal_schedule_length,
    schedule_to_coloring,
    validate_coloring,
)

from conftest import chain_graph, count_ball_builds, star_graph


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

    alone = generate_random_graph(1, (1.0, 1.0), 0.4, seed=0)  # the sink only: nothing to send
    t1 = build_spanning_tree(alone, max_children=3)
    assert optimal_schedule_length(t1, build_conflict_map(alone, t1, Variant.ALL_LINKS, 2)) == 0


def test_size_guard():
    g = generate_random_graph(9, (1.0, 1.0), 0.9, seed=1)
    t = build_spanning_tree(g, max_children=8)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    with pytest.raises(TooLarge):
        optimal_schedule_length(t, cm)


def _small_instances():
    """Instances with n 2-5 for the brute force: all-ones rates, then per-node rates 0-2.

    Zero-demand nodes are never eligible, and multi-packet buffers reach one
    eligible set from many states.
    """
    for seed, per_node in ((2024, False), (2025, True)):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 6))
            g = generate_random_graph(n, (1.0, 1.0), 0.7, seed=int(rng.integers(10**9)))
            if not is_connected(g):
                continue
            rates = {u: int(rng.integers(0, 3)) for u in range(1, n)} if per_node else 1
            try:
                t = build_spanning_tree(g, max_children=3, gen_rate=rates)
            except Infeasible:
                continue
            h = int(rng.integers(1, 4))
            variant = Variant.ALL_LINKS if rng.integers(2) else Variant.TREE_ONLY
            yield t, build_conflict_map(g, t, variant, h)
            checked += 1


def test_search_matches_unpruned_brute_force():
    for t, cm in _small_instances():
        assert optimal_schedule_length(t, cm) == _brute_force_minimum(t, cm)


def _id_compatible(conflicts, nodes) -> list[int]:
    """Per node id up to the largest key of the map or of nodes, the mask of the ids it may share a slot with.

    Each node id is its own index, and every node of the conflict map has
    one, so the masks hold bits outside any eligible set too.
    """
    top = max([*conflicts.links, *nodes], default=-1) + 1
    everyone = (1 << top) - 1
    return [everyone & ~mask & ~(1 << u) for u, mask in enumerate(conflicts.in_order(range(top)))]


def _node_maximal_sets(eligible, compatible) -> list[tuple[int, ...]]:
    """`oracle._maximal_independent_sets` on node ids: the maximal conflict-free subsets of eligible, each sorted.

    `compatible` is `_id_compatible` of the map and of every node that may
    be eligible. The enumerator is looked up on each call, so a patched one
    is used.
    """
    return [tuple(_bits(s)) for s in oracle._maximal_independent_sets(sum(1 << u for u in eligible), compatible)]


def _per_state_optimal_schedule_length(tree, conflicts) -> int:
    """The best-first search enumerating maximal sets afresh for every expanded state.

    A reference for the library search: buffer tuples, the largest funnel
    count as the bound (the whole buffer sum when the sink children pairwise
    conflict), shallowest state first among equal estimates.
    """
    order = tree.non_sink_nodes()
    index = {u: i for i, u in enumerate(order)}
    bottom_up = sorted(range(len(order)), key=lambda i: tree.depth[order[i]], reverse=True)
    child_slots = [[index[c] for c in tree.children.get(u, [])] for u in order]
    sink_children = tree.children.get(tree.sink, [])
    children_clique = len(sink_children) >= 2 and all(
        conflicts.conflicts(a, b) for a, b in itertools.combinations(sink_children, 2)
    )
    start = tuple(tree.gen_rate[u] for u in order)
    if sum(start) == 0:
        return 0
    compatible = _id_compatible(conflicts, order)  # once per search, not per expanded state

    def bound(buffers):
        through = list(buffers)
        for i in bottom_up:
            for c in child_slots[i]:
                through[i] += through[c]
        best = max(through)
        if children_clique:
            best = max(best, sum(buffers))
        return best

    frontier = [(bound(start), 0, start)]
    seen = {start: 0}
    while frontier:
        _, slots, buffers = heapq.heappop(frontier)
        if sum(buffers) == 0:
            return slots
        if slots > seen.get(buffers, slots):
            continue
        eligible = [u for u in order if buffers[index[u]] > 0]
        for transmitters in _node_maximal_sets(eligible, compatible):
            nxt = list(buffers)
            for u in transmitters:
                nxt[index[u]] -= 1
                p = tree.parent[u]
                if p != tree.sink:
                    nxt[index[p]] += 1
            state = tuple(nxt)
            cost = slots + 1
            if cost < seen.get(state, cost + 1):
                seen[state] = cost
                heapq.heappush(frontier, (cost + bound(state), cost, state))
    raise AssertionError("unreachable")


def _record_pushes(monkeypatch, search, tree, conflicts):
    """Run search, returning its result and its heap pushes in order."""
    pushes = []
    original_push = heapq.heappush

    def push(heap, item):
        pushes.append(item)
        original_push(heap, item)

    with monkeypatch.context() as m:
        m.setattr(heapq, "heappush", push)
        result = search(tree, conflicts)
    return result, pushes


def _grid():
    """504 instances, every cell of the grid below once: n 2-8, both variants,
    h 1-3, child limit 1-3, and rate 0, 1 or 2 everywhere or per-node 0-2."""
    rng = random.Random(4242)
    checked = 0
    while checked < 504:
        n = 2 + checked % 7
        variant = list(Variant)[checked // 7 % 2]
        h = 1 + checked // 14 % 3
        max_children = 1 + checked // 42 % 3
        rate_kind = checked // 126  # 0-2: that rate everywhere; 3: per-node 0-2
        rates = {u: rng.randint(0, 2) for u in range(1, n)} if rate_kind == 3 else rate_kind
        g = generate_random_graph(n, (1.0, 1.0), rng.uniform(0.4, 1.0), seed=rng.randrange(2**32))
        try:
            t = build_spanning_tree(g, max_children=max_children, gen_rate=rates)
        except (Disconnected, Infeasible):
            continue
        yield t, build_conflict_map(g, t, variant, h)
        checked += 1


def _check_start_bound(tree, conflicts, optimum) -> bool:
    """Assert branch-sum bound <= clique bound <= optimum at the start state; return whether the bound is exact.

    The library's clique weights at the rates must give the funnel form at
    the subtree demands. The branch-sum bound is the largest sink-child branch
    sum, or every packet when the sink children pairwise conflict.
    """
    order = tree.non_sink_nodes()
    bound = _funnel_clique_bound(tree, conflicts)([subtree_demand(tree, u) for u in order])
    weights = oracle._clique_weights(tree, conflicts.in_order(order))
    assert bound == max((sum(tree.gen_rate[u] * k for u, k in zip(order, w)) for w in weights), default=0)
    children = tree.children.get(tree.sink, [])
    branch_sum = max((subtree_demand(tree, c) for c in children), default=0)
    if len(children) >= 2 and all(conflicts.conflicts(a, b) for a, b in itertools.combinations(children, 2)):
        branch_sum = tree.total_generated()
    assert branch_sum <= bound <= optimum
    return bound == optimum


def _funnels(tree, buffers):
    """Packets at or below each non-sink node, for a buffer tuple in `non_sink_nodes()` order."""
    order = tree.non_sink_nodes()
    funnel = dict.fromkeys(order, 0)
    for u, packets in zip(order, buffers):
        while u != tree.sink:
            funnel[u] += packets
            u = tree.parent[u]
    return [funnel[u] for u in order]


def _funnel_clique_bound(tree, conflicts):
    """The clique bound in its funnel form, as a function of the funnel counts.

    The largest funnel sum over the maximal cliques of the conflict graph on
    the non-sink nodes (0 with no node); the library evaluates the same sum
    from the buffers instead.
    """
    order = tree.non_sink_nodes()
    nodes = sum(1 << u for u in order)
    masks = conflicts.in_order(range(tree.n))
    cliques = oracle._maximal_cliques(nodes, {u: masks[u] & nodes for u in order})
    members = [[i for i, u in enumerate(order) if k >> u & 1] for k in cliques]
    return lambda funnel: max((sum(funnel[i] for i in k) for k in members), default=0)


def test_search_matches_per_state_reference_with_fewer_pushes(monkeypatch):
    library_total = reference_total = 0
    for t, cm in _grid():
        optimum, reference = _record_pushes(monkeypatch, _per_state_optimal_schedule_length, t, cm)
        result, library = _record_pushes(monkeypatch, optimal_schedule_length, t, cm)
        assert result == optimum
        assert len(library) <= len(reference)
        _check_start_bound(t, cm, optimum)
        # every key is (slots + funnel-form clique bound of the pushed buffers, -slots, buffers)
        bound = _funnel_clique_bound(t, cm)
        for estimate, neg_slots, buffers in library:
            assert neg_slots < 0 and estimate + neg_slots == bound(_funnels(t, buffers))
        library_total += len(library)
        reference_total += len(reference)
    assert 4 * library_total <= reference_total


def test_search_matches_per_state_reference_past_the_size_guard(monkeypatch):
    """16 instances with the guard raised to 12 nodes: n 9-12, both variants, h 1-2."""
    monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", 12)
    rng = random.Random(1212)
    for n, variant, h in itertools.product(range(9, 13), Variant, (1, 2)):
        while True:
            g = generate_random_graph(n, (1.0, 1.0), 0.5, seed=rng.randrange(2**32))
            try:
                t = build_spanning_tree(g, max_children=3)
                break
            except (Disconnected, Infeasible):
                continue
        cm = build_conflict_map(g, t, variant, h)
        optimum, reference = _record_pushes(monkeypatch, _per_state_optimal_schedule_length, t, cm)
        result, library = _record_pushes(monkeypatch, optimal_schedule_length, t, cm)
        assert result == optimum
        assert len(library) <= len(reference)


def test_clique_bound_lies_between_branch_sum_and_optimum():
    exact = sum(_check_start_bound(t, cm, _brute_force_minimum(t, cm)) for t, cm in _small_instances())
    assert exact >= 1  # an inadmissible +1 cannot hide behind slack everywhere


def test_maximal_sets_enumerated_once_per_eligible_set(monkeypatch):
    g = generate_random_graph(8, (1.0, 1.0), 0.5, seed=3)
    t = build_spanning_tree(g, max_children=3, gen_rate=2)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    calls = []
    original = oracle._maximal_independent_sets

    def counting(eligible, compatible):
        calls.append(eligible)
        return original(eligible, compatible)

    monkeypatch.setattr(oracle, "_maximal_independent_sets", counting)
    optimum = _per_state_optimal_schedule_length(t, cm)
    per_state = len(calls)  # one call per expanded state
    calls.clear()
    popped = []
    original_pop = heapq.heappop

    def pop(heap):
        popped.append(original_pop(heap))
        return popped[-1]

    with monkeypatch.context() as m:
        m.setattr(heapq, "heappop", pop)
        assert optimal_schedule_length(t, cm) == optimum
    # a stale entry pops after its state's cheaper one, so the popped states
    # holding packets cover exactly the eligible masks of the expanded states
    expanded = {sum(1 << i for i, packets in enumerate(state) if packets) for _, _, state in popped if any(state)}
    assert calls and len(set(calls)) == len(calls)  # some call, and no eligible mask twice
    assert set(calls) == expanded  # one call per distinct eligible mask
    assert len(calls) <= 2 ** (t.n - 1) and len(calls) < per_state


def test_move_into_an_empty_buffer_fails_fast(monkeypatch):
    g = generate_random_graph(6, (1.0, 1.0), 0.6, seed=11)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 1)
    assert optimal_schedule_length(t, cm) == _brute_force_minimum(t, cm) == 5
    order = t.non_sink_nodes()
    original = oracle._maximal_independent_sets

    def with_an_empty_sender(eligible, compatible):
        empty = min(set(order) - {order[i] for i in _bits(eligible)}, default=None)
        sets = original(eligible, compatible)
        return sets if empty is None else [s | 1 << order.index(empty) for s in sets]

    monkeypatch.setattr(oracle, "_maximal_independent_sets", with_an_empty_sender)
    with pytest.raises(AssertionError, match="below zero"):
        optimal_schedule_length(t, cm)


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


def test_mask_enumeration_matches_pairwise_maximal_sets():
    """Same sets as the pairwise reference, each sorted; the order of the sets is not part of the contract."""
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
            rng.shuffle(eligible)  # the order of the input changes nothing
        assert sorted(_node_maximal_sets(eligible, _id_compatible(cm, eligible))) == sorted(
            _reference_maximal_sets(eligible, cm)
        )
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


def test_oracle_instance_pipeline_builds_one_labelling_per_order(monkeypatch):
    calls = count_ball_builds(monkeypatch)
    # the benchmark's oracle pipeline on one map: greedy, optimum, coloring round trip, two validations
    g = chain_graph(6)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    greedy = run_trasa(t, cm, 2)  # leaves first, so its order is not the buffer order
    assert sorted(t.non_sink_nodes(), key=lambda u: node_priority(t, u, 2)) != t.non_sink_nodes()
    optimum = optimal_schedule_length(t, cm)
    rebuilt = coloring_to_schedule(schedule_to_coloring(greedy, t, cm), t, cm)
    assert validate_schedule(greedy, cm, t).ok and validate_schedule(rebuilt, cm, t).ok
    assert optimum <= greedy.length
    assert len(calls) == 2  # the id masks for the coloring check and the validations were a third
