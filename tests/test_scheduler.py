import itertools
import math
import random
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest

from trasa.experiment_cli import ExperimentConfig, RateFile, sample_instance
from trasa.oracle import Coloring, InvalidColoring, coloring_to_schedule, validate_coloring
from trasa.topology import NetworkGraph, generate_random_graph
from trasa.tree import build_spanning_tree, subtree_demand
from trasa.scheduler import (
    CAUSALITY,
    CONFLICT,
    DELIVERY,
    ConflictMap,
    Schedule,
    Variant,
    Violation,
    build_conflict_map,
    dump_schedule,
    node_priority,
    parse_schedule,
    run_trasa,
    schedule_length_bounds,
    validate_schedule,
)

from conftest import chain_graph, count_ball_builds, random_tree, star_graph


@pytest.fixture
def chain():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3)
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    return g, t, cm


def test_child_limit_and_hop_count_must_be_integers():
    g = generate_random_graph(30, (1.0, 1.0), 0.5, seed=3)
    # unchecked, 2.5 would allow 3 children, NaN no limit and True a limit of 1
    for bad in (0, 2.5, math.nan, True, np.True_):
        with pytest.raises(ValueError, match="max_children"):
            build_spanning_tree(g, max_children=bad)
    t = build_spanning_tree(g, max_children=np.int64(3))
    assert t.parent == build_spanning_tree(g, max_children=3).parent
    assert max(map(len, t.children.values())) <= 3
    for bad in (0, 1.5, True, np.True_):
        with pytest.raises(ValueError, match="h must"):
            build_conflict_map(g, t, Variant.ALL_LINKS, bad)
    for rate in (True, {1: np.True_}):
        with pytest.raises(ValueError, match="gen_rate"):
            build_spanning_tree(g, max_children=3, gen_rate=rate)
    assert build_spanning_tree(g, max_children=3, gen_rate={1: np.int64(2)}).gen_rate[1] == 2
    with pytest.raises(ValueError, match="length"):
        Schedule(True, {})
    assert build_conflict_map(g, t, Variant.ALL_LINKS, np.int64(2)) == build_conflict_map(g, t, Variant.ALL_LINKS, 2)


def test_priority_orders_chain_nodes(chain):
    _, t, _ = chain
    assert node_priority(t, 1, 1) < node_priority(t, 2, 1)  # more descendants first
    assert node_priority(t, 2, 2) < node_priority(t, 1, 2)  # reversed
    with pytest.raises(ValueError, match="^the sink never transmits and has no traffic demand$"):
        node_priority(t, 0, 1)
    with pytest.raises(ValueError):
        node_priority(t, 1, 3)
    for outside in (7, -1):
        with pytest.raises(ValueError, match=f"^node {outside} not in tree$"):
            node_priority(t, outside, 1)
    # a node id is an integer: True and 1.0 are not node 1
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="node id must be an integer"):
            node_priority(t, bad, 1)
    assert node_priority(t, np.int64(1), 1) == node_priority(t, 1, 1)


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
    assert 4 in g.neighbors(3)
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


def _reference_relation(adjacency, h):
    """Per-node BFS cut off at h hops: the ball around u, without u."""
    relation = {}
    for u in adjacency:
        dist = {u: 0}
        frontier = deque([u])
        while frontier:
            node = frontier.popleft()
            if dist[node] == h:
                continue
            for w in adjacency[node]:
                if w not in dist:
                    dist[w] = dist[node] + 1
                    frontier.append(w)
        relation[u] = frozenset(dist) - {u}
    return relation


def _tree_links(t):
    return {
        u: set(t.children.get(u, [])) | ({t.parent[u]} if u != t.sink else set())
        for u in t.nodes()
    }


def test_bitmask_conflict_map_matches_per_node_bfs():
    rng = random.Random(4004)
    for _ in range(24):
        g, t = random_tree(rng, (2, 60), 1)
        adjacencies = {
            Variant.ALL_LINKS: {u: g.neighbors(u) for u in range(g.n)},
            Variant.TREE_ONLY: _tree_links(t),
        }
        for variant, adjacency in adjacencies.items():
            for h in (1, 2, 3, 4, 10**9):  # 10**9: every ball holds its whole component
                cm = build_conflict_map(g, t, variant, h)
                expected = _reference_relation(adjacency, h)
                assert {u: cm.conflicting(u) for u in range(g.n)} == expected
                masks = cm.in_order(range(g.n))
                for u, v in itertools.permutations(range(g.n), 2):
                    assert cm.conflicts(u, v) == (v in expected[u])
                    assert masks[u] >> v & 1 == masks[v] >> u & 1  # symmetric


def _traced_build(graph, tree, variant, h):
    """`build_conflict_map(graph, tree, variant, h)` and the number of Python lines it and its id-order labelling ran."""
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    previous = sys.gettrace()
    sys.settrace(count_lines)
    try:
        cm = build_conflict_map(graph, tree, variant, h)
        cm.in_order(range(graph.n))  # the ball rounds run when a labelling is built
    finally:
        sys.settrace(previous)
    return cm, lines


def test_conflict_map_stops_once_no_ball_grows():
    # a 3-hop chain: every ball holds the whole graph after 3 rounds, so a
    # radius of 10**5 must not run 10**5 rounds (3.2 M lines)
    g = chain_graph(4)
    t = build_spanning_tree(g, max_children=3)
    for variant in Variant:
        cm, lines = _traced_build(g, t, variant, 10**5)
        assert cm.in_order(range(4)) == build_conflict_map(g, t, variant, 3).in_order(range(4))
        assert lines < 500


def _reference_run_trasa(tree, conflicts, heuristic):
    """The snapshot loop that re-sorts pending nodes and tests each node against every occupant."""
    remaining = {u: tree.gen_rate[u] for u in tree.nodes()}
    remaining[tree.sink] = 0
    allocations = {u: [] for u in tree.non_sink_nodes()}
    cycle_end = 0
    priority = {u: node_priority(tree, u, heuristic) for u in tree.non_sink_nodes()}
    near = {u: set() for u in tree.nodes()}  # the pair rule: either node's entry holds the other
    for u in tree.nodes():
        for v in conflicts.conflicting(u):
            near[u].add(v)
            near.setdefault(v, set()).add(u)

    def pending():
        nodes = [u for u in tree.non_sink_nodes() if remaining[u] > 0]
        nodes.sort(key=priority.__getitem__)
        return nodes

    snapshot = pending()
    while snapshot:
        head = snapshot[0]
        window_start = cycle_end
        cycle_end = window_start + remaining[head]
        allocations[head].append((window_start, remaining[head]))
        remaining[tree.parent[head]] += remaining[head]
        remaining[head] = 0
        occupants = [head]
        for v in snapshot[1:]:
            demand = remaining[v]
            if demand == 0 or not near[v].isdisjoint(occupants):
                continue
            cycle_end = max(cycle_end, window_start + demand)
            allocations[v].append((window_start, demand))
            remaining[tree.parent[v]] += demand
            remaining[v] = 0
            occupants.append(v)
        snapshot = pending()
    return Schedule(cycle_end, allocations)


def _assert_matches_reference(t, cm, heuristic, *context):
    got = run_trasa(t, cm, heuristic)
    expected = _reference_run_trasa(t, cm, heuristic)
    assert dump_schedule(got, t) == dump_schedule(expected, t), context
    assert got.allocations == expected.allocations


def test_sort_once_bitmask_trasa_matches_resorting_loop():
    rng = random.Random(1712)
    # sparse graphs (range 1.2/sqrt(n)): windows hold many nodes
    cases = list(itertools.product(Variant, (1, 2, 3), (1, 2), (1, 2, 3, "mixed"))) * 5
    for variant, h, heuristic, rate in cases:
        g, t = random_tree(rng, (2, 40), rate)
        _assert_matches_reference(t, build_conflict_map(g, t, variant, h), heuristic, variant, h, rate, g.n)
    # the default sweep's density (range 0.4): most windows close right after the head
    for variant, h, heuristic, rate in list(itertools.product(Variant, (1, 2, 3), (1, 2), (1, "mixed"))) * 3:
        g, t = random_tree(rng, (20, 100), rate, range_r=0.4)
        _assert_matches_reference(t, build_conflict_map(g, t, variant, h), heuristic, variant, h, rate, g.n)
    # no conflicts at all: a child and its parent share a window, and a parent
    # walked after its child sends the child's packets in the same window
    for heuristic, rate in itertools.product((1, 2), (1, 2, "mixed")):
        g, t = random_tree(rng, (2, 40), rate)
        _assert_matches_reference(t, ConflictMap({}, 1), heuristic, heuristic, rate, g.n)


def test_sort_once_bitmask_trasa_matches_resorting_loop_at_n2000():
    # the seed-1 constant-density instances (range 0.08): windows close early,
    # and with rates 0..3 many nodes carry no demand yet relay conflicts
    rates = {u: random.Random(2000 + u).randint(0, 3) for u in range(2000)}
    for gen_rate in (1, RateFile("mixed", rates)):
        config = ExperimentConfig(n_values=[2000], range_r=0.08, h=2, max_children=3, gen_rate=gen_rate, base_seed=1)
        g, t, _ = sample_instance(config, 2000, 0)
        for variant, heuristic in itertools.product(Variant, (1, 2)):
            _assert_matches_reference(t, build_conflict_map(g, t, variant, 2), heuristic, variant, gen_rate)


def test_run_trasa_labels_in_node_priority_order():
    """`run_trasa` keeps the labelling of the non-sink nodes with demand, in `node_priority` order.

    Its order comes from builtin sorts, not from the key: chains, stars
    (every leaf ties) and mixed rates (zero-demand subtrees) give many
    descendant and depth ties.
    """
    rng = random.Random(3434)
    trees = [build_spanning_tree(chain_graph(n), max_children=3) for n in (2, 5, 9)]
    trees += [build_spanning_tree(star_graph(n), max_children=n) for n in (2, 6, 9)]
    trees += [random_tree(rng, (2, 40), rate)[1] for rate in (1, 2, "mixed") for _ in range(10)]
    for t in trees:
        for heuristic in (1, 2):
            cm = ConflictMap({u: () for u in t.nodes()}, 1)
            run_trasa(t, cm, heuristic)
            with_demand = [u for u in t.non_sink_nodes() if subtree_demand(t, u) > 0]
            expected = sorted(with_demand, key=lambda u: node_priority(t, u, heuristic))
            assert cm._kept.order == expected, (t.parent, t.gen_rate, heuristic)


def test_in_order_masks_match_the_id_relation():
    rng = random.Random(2626)
    for _ in range(40):
        g, t = random_tree(rng, (2, 40), 1)
        nodes = list(range(g.n))
        for variant, h in itertools.product(Variant, (1, 2, 3, 4)):
            cm = build_conflict_map(g, t, variant, h)
            # full orders, and partial ones whose omitted nodes must still relay at h >= 2
            for k in (g.n, rng.randint(0, g.n), rng.randint(0, g.n)):
                order = rng.sample(nodes, k)
                masks = cm.in_order(order)
                assert len(masks) == k
                for i, j in itertools.product(range(k), repeat=2):
                    assert masks[i] >> j & 1 == cm.conflicts(order[i], order[j]), (variant, h, order, i, j)
                assert all(mask >> k == 0 for mask in masks)
    # a relation given by hand is its own links at h=1; nodes without links conflict with none
    cm = ConflictMap({1: {2}, 2: {1, 3}, 3: {2}}, 1)
    assert cm.in_order([3, 2, 1, 7]) == [0b10, 0b101, 0b10, 0]
    assert cm.in_order(range(4)) == [0, 0b100, 0b1010, 0b100]


def test_conflict_map_checks_its_own_input():
    # unchecked, h=0 and h=-3 gave empty masks that pass any schedule, 1.5 raised TypeError
    for bad, message in ((0, "h must be >= 1"), (-3, "h must be >= 1"), (1.5, "h must be an integer"), (True, "h must be an integer")):
        with pytest.raises(ValueError, match=message):
            ConflictMap({1: {2}, 2: {1}}, bad)
    assert ConflictMap({1: {2}, 2: {1}}, np.int64(2)).in_order(range(3)) == [0, 0b100, 0b10]
    # a link to a node that is not a key raised KeyError, on either read
    cm = ConflictMap({1: {2}}, 1)
    with pytest.raises(ValueError, match="^node 2 is linked but not a key$"):
        cm.conflicting(1)
    with pytest.raises(ValueError, match="^node 2 is linked but not a key$"):
        cm.in_order([1])


def test_one_node_id_rule_for_every_reader():
    # unchecked, id masks leaked "negative shift count", in_order([2, -1]) gave [2, 1] and
    # conflicts(2, -1) gave False: every reader builds the one labelling, which checks the keys
    g = NetworkGraph([(0, 0), (0.1, 0), (0.2, 0)], 0.15, (1, 1))
    t = build_spanning_tree(g, max_children=3)
    s = Schedule(3, {1: [(1, 2)], 2: [(0, 1)]})
    for links, message in (
        ({-1: {2}, 2: {-1}}, "^node id must be >= 0, got -1$"),
        ({1.0: {2}, 2: {1.0}}, "^node id must be an integer, got 1.0$"),
        ({True: {2}, 2: {True}}, "^node id must be an integer, got True$"),
    ):
        cm = ConflictMap(links, 1)
        for read in (
            lambda: cm.in_order(range(3)),
            lambda: cm.in_order([2, -1]),
            lambda: cm.conflicts(2, -1),
            lambda: cm.conflicting(2),
            lambda: validate_schedule(s, cm, t),
            lambda: run_trasa(t, cm, 1),
        ):
            with pytest.raises(ValueError, match=message):
                read()
    # numpy integer ids are ids; the views answer in plain ints
    cm = ConflictMap({np.int64(1): {np.int64(2)}, np.int64(2): {np.int64(1)}}, 1)
    assert cm.in_order(range(3)) == [0, 0b100, 0b10] and cm.in_order([2, 1]) == [0b10, 0b1]
    assert cm.conflicts(1, 2) and cm.conflicting(1) == {2}


def test_conflict_map_links_are_frozen():
    links = {1: {2}, 2: {1}}
    cm = ConflictMap(links, 1)
    with pytest.raises(TypeError):
        cm.links[3] = {1}  # unfrozen, in_order([1, 2, 3]) then gave an asymmetric [2, 1, 1]
    with pytest.raises(AttributeError):
        cm.links[1].add(3)
    # the map copied its input: later changes to it reach no answer
    links[1].add(3)
    links[3] = {1}
    assert dict(cm.links) == {1: (2,), 2: (1,)}
    assert cm.in_order([1, 2, 3]) == [0b10, 0b1, 0]
    # build_conflict_map hands over tuples: the graph's own, or the tree's links built as tuples
    g, t = random_tree(random.Random(8), (20, 30), 1)
    all_links = build_conflict_map(g, t, Variant.ALL_LINKS, 2).links
    tree_links = build_conflict_map(g, t, Variant.TREE_ONLY, 2).links
    assert all(type(near) is tuple for near in (*all_links.values(), *tree_links.values()))
    assert dict(all_links) == {u: g.neighbors(u) for u in range(g.n)}
    assert {u: set(near) for u, near in tree_links.items()} == _tree_links(t)


def test_validation_tests_a_flagged_pair_both_ways():
    g = NetworkGraph([(0, 0), (0.1, 0), (0.2, 0)], 0.15, (1, 1))
    t = build_spanning_tree(g, max_children=3)
    s = Schedule(3, {1: [(1, 2)], 2: [(0, 1), (1, 1)]})
    # a one-sided relation given by hand: only the pair's second node holds the first, then the mirror
    one_way = ConflictMap({0: set(), 1: set(), 2: {1}}, 1)
    mirrored = ConflictMap({0: set(), 1: {2}, 2: set()}, 1)
    assert one_way.conflicts(2, 1) == one_way.conflicts(1, 2)  # one pair rule, whichever node holds the other
    reports = [validate_schedule(s, cm, t).violations for cm in (one_way, mirrored)]
    assert reports[0] == reports[1]
    assert [(v.kind, v.slot, v.stop, v.nodes) for v in reports[0] if v.kind == CONFLICT] == [(CONFLICT, 1, 2, (1, 2))]
    # two sink children out of each other's range: the coloring check reads the same pair rule
    star = build_spanning_tree(NetworkGraph([(0.5, 0.5), (0.4, 0.5), (0.6, 0.5)], 0.15, (1, 1)), max_children=3)
    coloring = Coloring({1: 1, 2: 1})
    for cm in (one_way, mirrored):
        assert not validate_coloring(coloring, cm, star)
        with pytest.raises(InvalidColoring):
            coloring_to_schedule(coloring, star, cm)
        assert cm.conflicts(1, 2) == cm.conflicts(2, 1)
    # run_trasa reads links as given, so on one_way's it packs both children into slot 0
    packed = run_trasa(star, one_way, 1)
    assert packed.allocations == {1: [(0, 1)], 2: [(0, 1)]}
    assert [v.nodes for v in validate_schedule(packed, one_way, star).of_kind(CONFLICT)] == [(1, 2)]


def test_schedule_validate_and_queries_share_one_ball_build(monkeypatch):
    calls = count_ball_builds(monkeypatch)
    g, t = random_tree(random.Random(3131), (30, 40), "mixed")
    cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
    assert validate_schedule(run_trasa(t, cm, 1), cm, t).ok
    pairs = {(u, v) for u, v in itertools.permutations(range(g.n), 2) if cm.conflicts(u, v)}
    assert pairs == {(u, v) for u in range(g.n) for v in cm.conflicting(u)}
    assert len(calls) == 1  # validation and both queries read run_trasa's labelling
    # an equal order reuses the kept labelling; another order replaces it, with the same answers
    order = t.non_sink_nodes()
    masks = cm.in_order(order)
    assert cm.in_order(list(order)) == masks and len(calls) == 2
    assert {(u, v) for u, v in itertools.permutations(range(g.n), 2) if cm.conflicts(u, v)} == pairs
    assert len(calls) == 2
    # labelled by id, bit v of node u's mask is the pair (u, v)
    masks = cm.in_order(range(g.n))
    assert {(u, v) for u, mask in enumerate(masks) for v in range(g.n) if mask >> v & 1} == pairs
    assert len(calls) == 3


def _id_mask_validate(schedule, masks, tree):
    """The validator as it was before maps kept a labelling: conflicts tested on masks by node id.

    masks[u] has bit v set iff u and v conflict; each pair of a flagged run
    is tested one way only, which is exact on a symmetric relation.
    """
    violations = []
    strangers = [u for u in sorted(schedule.allocations) if u not in tree.depth]
    for u in strangers:
        first_slot = schedule.allocations[u][0][0]
        detail = f"node {u} transmits but is not in the tree"
        violations.append(Violation(CAUSALITY, first_slot, first_slot + 1, (u,), detail))
    for start, stop, txs in schedule.runs():
        present = blocked = 0
        for u in txs:
            if u in masks:
                present |= 1 << u
                blocked |= masks[u]
        if blocked & present:
            for i, u in enumerate(txs):
                for v in txs[i + 1 :]:
                    if v >= 0 and masks.get(u, 0) >> v & 1:
                        detail = f"nodes {u} and {v} interfere in slots {start}..{stop - 1}"
                        violations.append(Violation(CONFLICT, start, stop, (u, v), detail))
    if strangers:
        return violations
    sink = tree.sink
    faults = sorted((start, u, stop) for start, stop, u in schedule._counts(tree)[2])
    for start, u, stop in faults:
        if u == sink:
            detail = "the sink must never transmit"
        else:
            detail = f"node {u} transmits with an empty buffer in slots {start}..{stop - 1}"
        violations.append(Violation(CAUSALITY, start, stop, (u,), detail))
    sent = sum(schedule.total_width(v) for v in tree.children.get(sink, ()))
    delivered = sent - sum(stop - start for start, u, stop in faults if tree.parent.get(u) == sink)
    expected = tree.total_generated()
    if delivered != expected:
        violations.append(Violation(DELIVERY, None, None, (), f"sink received {delivered} of {expected} packets"))
    return violations


def _random_schedule(rng, tree, strangers):
    """Random intervals on a random set of tree nodes, now and then with the sink or strangers."""
    length = rng.randint(1, 9)
    pool = tree.non_sink_nodes()
    senders = rng.sample(pool, rng.randint(0, len(pool)))
    senders += [u for u in (tree.sink, *strangers) if rng.random() < 0.15]
    allocations = {}
    for u in senders:
        intervals, start = [], rng.randrange(length)
        while start < length:
            width = rng.randint(1, length - start)
            intervals.append((start, width))
            start += width + rng.randint(0, 3)
        allocations[u] = intervals
    return Schedule(length, allocations)


def test_kept_labellings_validate_like_the_id_masks():
    rng = random.Random(3100)
    compared = flagged = 0
    for variant, h, rate in itertools.product(Variant, (1, 2, 3), (1, 2, "mixed")):
        for _ in range(10):
            g, t = random_tree(rng, (2, 30), rate)
            adjacency = {u: g.neighbors(u) for u in range(g.n)} if variant is Variant.ALL_LINKS else _tree_links(t)
            masks = {u: sum(1 << v for v in near) for u, near in _reference_relation(adjacency, h).items()}
            by_priority = build_conflict_map(g, t, variant, h)
            greedy = run_trasa(t, by_priority, rng.choice((1, 2)))
            priority_order = by_priority._kept.order  # the nodes with demand; relays and the sink come after
            by_buffer = build_conflict_map(g, t, variant, h)
            by_buffer.in_order(t.non_sink_nodes())
            schedules = [greedy] + [_random_schedule(rng, t, (g.n + 3, -1)) for _ in range(50)]
            for s in schedules:
                expected = _id_mask_validate(s, masks, t)
                for cm in (by_priority, by_buffer, build_conflict_map(g, t, variant, h)):
                    assert validate_schedule(s, cm, t).violations == expected, (variant, h, s.allocations)
                compared += 1
                flagged += any(v.kind == CONFLICT for v in expected)
            # validation read the labellings it found, and replaced none
            assert by_priority._kept.order == priority_order
            assert by_buffer._kept.order == t.non_sink_nodes()
    assert compared >= 9000 and flagged > compared // 4, (compared, flagged)


def test_trasa_without_conflicts_reads_live_demand():
    t = build_spanning_tree(chain_graph(4), max_children=3)
    free = ConflictMap({}, 1)
    # leaf first: 3 sends 1, then 2 sends its own and 3's, then 1 sends all three
    s = run_trasa(t, free, 2)
    assert s.length == 3
    assert s.allocations == {3: [(0, 1)], 2: [(0, 2)], 1: [(0, 3)]}
    # sink child first: a parent already walked waits for the next window
    s = run_trasa(t, free, 1)
    assert s.length == 3
    assert s.allocations == {1: [(0, 1), (1, 1), (2, 1)], 2: [(0, 1), (1, 1)], 3: [(0, 1)]}


def _run_trasa_line_events(tree, conflicts):
    """Lines executed in run_trasa's own frame: a count of the loop's work that does not depend on timing."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is run_trasa.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run_trasa(tree, conflicts, 1)
    finally:
        sys.settrace(previous)
    return count


def test_window_closes_once_no_snapshot_node_can_join():
    # on a star at h=2 every leaf conflicts with every other, so each window
    # holds one leaf; walking every pending leaf per window would cost k^2/2
    lines = {}
    for k in (100, 200):
        g = star_graph(k + 1)
        t = build_spanning_tree(g, max_children=k)
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        assert run_trasa(t, cm, 1).length == k
        lines[k] = _run_trasa_line_events(t, cm)
    assert lines[200] < 2.5 * lines[100]  # linear in the allocations, not quadratic


def test_heuristic_must_be_one_or_two():
    g = generate_random_graph(10, (1.0, 1.0), 0.6, seed=3)
    for rate in (1, 0):  # with zero demand no priority is ever computed
        t = build_spanning_tree(g, max_children=3, gen_rate=rate)
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        for bad in (True, np.True_, 1.0, 2.0, 0, 3, 7, "1"):
            with pytest.raises(ValueError, match="heuristic"):
                run_trasa(t, cm, bad)
            with pytest.raises(ValueError, match="heuristic"):
                node_priority(t, 1, bad)
        for heuristic in (1, 2):
            assert run_trasa(t, cm, np.int64(heuristic)).allocations == run_trasa(t, cm, heuristic).allocations
            assert node_priority(t, 1, np.int32(heuristic)) == node_priority(t, 1, heuristic)


def test_trasa_chain_hand_trace(chain):
    _, t, cm = chain
    s = run_trasa(t, cm, 1)
    assert s.length == 3
    assert s.allocations == {1: [(0, 1), (2, 1)], 2: [(1, 1)]}
    assert list(s.runs()) == [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (1,))]


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
        assert list(s.runs()) == [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (3,))]


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


def test_parse_schedule_rejects_duplicate_node_lines():
    with pytest.raises(ValueError, match="duplicate"):
        parse_schedule("schedule 3\n1 0:1\n1 2:1\n")


def test_slot_walk_memory_does_not_grow_with_the_cycle_length():
    tracemalloc.start()
    try:
        schedule = parse_schedule("schedule 200000\n1 0:200000\n")
        walked = sum(b - a for a, b, _ in schedule.runs())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walked == 200_000
    assert peak < 1_000_000  # bytes; a per-slot map of this 27-byte file took ~114 MB


def test_schedule_rejects_overlapping_intervals():
    with pytest.raises(ValueError):
        Schedule(3, {1: [(0, 2), (1, 1)]})
    with pytest.raises(ValueError):
        Schedule(2, {1: [(1, 2)]})
    # non-integral bounds are rejected, never truncated; numpy integers are integral
    for bad in ({1: [(0.5, 1.7)]}, {1: [(0, 1.0)]}, {1: [(float("inf"), 1)]}):
        with pytest.raises(ValueError):
            Schedule(3, bad)
    for bad in ({1: [(True, 1)]}, {1: [(0, True)]}):  # a bool is an int subclass but not a slot count
        with pytest.raises(ValueError, match="must be an integer, got True"):
            Schedule(3, bad)
    with pytest.raises(ValueError):
        Schedule(2.5, {1: [(0, 1)]})
    # exact ints and numpy integers come out alike, as plain ints
    s = Schedule(np.int64(4), {1: [(np.int32(0), np.int64(2)), (3, 1)], np.int64(2): [(np.int64(2), 2)]})
    assert s.allocations == {1: [(0, 2), (3, 1)], 2: [(2, 2)]}
    assert type(s.length) is int
    assert all(type(x) is int for u, ivs in s.allocations.items() for iv in ivs for x in (u, *iv))


def test_malformed_schedule_and_conflict_input_are_value_errors():
    # unchecked, the first two raised AttributeError and the rest TypeError
    for bad in (None, [(1, 2)]):
        with pytest.raises(ValueError, match="^allocations must map node ids to intervals"):
            Schedule(3, bad)
    for bad in ({1: None}, {1: [None]}, {1: [(0, 1), 5]}, {1: [(0,)]}, {1: [(0, 1, 2)]}, {1: [(0, 1), ()]}):
        with pytest.raises(ValueError, match=r"^intervals of node 1 must be \(start, width\) pairs$"):
            Schedule(3, bad)
    # a pair whose start or width is not an integer keeps that check's message
    with pytest.raises(ValueError, match="^interval start must be an integer, got 0.5$"):
        Schedule(3, {1: [(0.5, 1)]})
    with pytest.raises(ValueError, match="^interval width must be an integer, got '1'$"):
        Schedule(3, {1: [(0, "1")]})
    for token in ("0:1:2", "0-1", "x:1", "0:"):
        with pytest.raises(ValueError, match=f"^bad interval '{token}' of node 1$"):
            parse_schedule(f"schedule 3\n1 {token}\n")
    # a bad length or node id names its field and line; int()'s own message named neither
    with pytest.raises(ValueError, match="^bad node id 'x' in line 'x 0:1'$"):
        parse_schedule("schedule 3\nx 0:1\n")
    with pytest.raises(ValueError, match="^bad node id '1.5' in line '1.5 0:1'$"):
        parse_schedule("schedule 3\n1.5 0:1\n")
    with pytest.raises(ValueError, match="^bad schedule length 'x' in line 'schedule x'$"):
        parse_schedule("schedule x\n1 0:1\n")
    with pytest.raises(ValueError, match="^duplicate schedule line for node 1$"):
        parse_schedule("schedule 3\n1 0:1\n1 1:1\n")
    with pytest.raises(ValueError, match="^links of node 1 must be a collection of node ids, got 5$"):
        ConflictMap({1: 5, 5: 1}, 1).conflicts(1, 5)
    with pytest.raises(ValueError, match="^links of node 1 must be a collection of node ids, got 5$"):
        ConflictMap({1: 5, 5: 1}, 1).in_order([1, 5])
    with pytest.raises(ValueError, match="^links must map node ids to their neighbours"):
        ConflictMap(None, 1).conflicting(1)
    with pytest.raises(ValueError, match="^node id must be an integer, got 1.0$"):
        ConflictMap({1.0: set()}, 1).conflicting(1)


def test_schedule_node_ids_must_be_integers(chain):
    _, t, cm = chain
    # unchecked, a float id made validate_schedule raise TypeError (1 << 1.0), True was
    # validated as node 1, and a str id next to int ids made validation, replay and
    # metrics raise TypeError from sorted
    for bad in ({1.0: [(0, 1)]}, {True: [(0, 1)]}, {np.True_: [(0, 1)]}, {"2": [(0, 1)], 1: [(1, 2)]}):
        with pytest.raises(ValueError, match="node id must be an integer"):
            Schedule(3, bad)
    s = Schedule(3, {np.int64(2): [(0, 1)], 1: [(1, 2)]})
    assert s.allocations == {2: [(0, 1)], 1: [(1, 2)]} and all(type(u) is int for u in s.allocations)
    assert validate_schedule(s, cm, t).ok


def test_schedule_dump_and_parse_round_trip(chain):
    _, t, cm = chain
    trasa = run_trasa(t, cm, 1)
    # the sink and node 7, outside the tree, were dropped from the dump, and the
    # schedule parsed back from it passed validation
    foreign = Schedule(4, {0: [(0, 1)], 1: [(1, 1)], 2: [(2, 1)], 7: [(3, 1)]})
    for s, expected in (
        (trasa, "schedule 3\n1 0:1 2:1\n2 1:1\n"),
        (foreign, "schedule 4\n0 0:1\n1 1:1\n2 2:1\n7 3:1\n"),
    ):
        text = dump_schedule(s, t)
        assert text == expected
        back = parse_schedule(text)
        assert back.length == s.length
        assert back.allocations == s.allocations
    assert not validate_schedule(parse_schedule(dump_schedule(foreign, t)), cm, t).ok


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
