import math
import random
from collections import Counter

import numpy as np
import pytest

import trasa.tree
from trasa.experiment_cli import ExperimentConfig, sample_instance
from trasa.topology import NetworkGraph, generate_random_graph, is_connected
from trasa.tree import (
    Disconnected,
    Infeasible,
    SpanningTree,
    build_spanning_tree,
    dump_tree,
    subtree_demand,
)

from conftest import chain_graph, star_graph


def test_three_invisible_neighbors_all_attach_at_depth_one():
    g = star_graph(4)
    t = build_spanning_tree(g, max_children=3)
    assert t.children[0] == [1, 2, 3]
    assert all(t.depth[u] == 1 for u in (1, 2, 3))


def test_fourth_mutually_adjacent_neighbor_drops_to_depth_two():
    # sink plus four nodes all within range of each other and of the sink
    pts = [(0.5, 0.5), (0.52, 0.5), (0.5, 0.52), (0.48, 0.5), (0.5, 0.48)]
    g = NetworkGraph(pts, 0.4, (1.0, 1.0))
    t = build_spanning_tree(g, max_children=3)
    assert t.children[0] == [1, 2, 3]
    assert t.parent[4] == 1  # lowest-id non-full node at the smallest feasible depth
    assert t.depth[4] == 2


def test_disconnected_graph_is_rejected():
    g = NetworkGraph([(0.0, 0.0), (0.9, 0.9)], 0.4, (1.0, 1.0))
    with pytest.raises(Disconnected):
        build_spanning_tree(g, max_children=3)
    # also child-limit blocked: a disconnected graph is Disconnected, whatever else fails
    star = star_graph(6)
    g = NetworkGraph(list(star.positions) + [(0.02, 0.02)], star.range_r, star.area)
    with pytest.raises(Disconnected):
        build_spanning_tree(g, max_children=3)


def test_connectivity_is_checked_only_when_a_build_fails(monkeypatch):
    calls = 0

    def counted(graph):
        nonlocal calls
        calls += 1
        return is_connected(graph)

    monkeypatch.setattr(trasa.tree, "is_connected", counted)
    build_spanning_tree(generate_random_graph(40, (1.0, 1.0), 0.4, seed=31), max_children=3)
    assert calls == 0
    with pytest.raises(Disconnected):
        build_spanning_tree(NetworkGraph([(0.0, 0.0), (0.9, 0.9)], 0.4, (1.0, 1.0)), 3)
    assert calls == 1


def test_star_of_five_leaves_with_child_limit_three_is_infeasible():
    g = star_graph(6)
    with pytest.raises(Infeasible):
        build_spanning_tree(g, max_children=3)


def test_parent_edges_exist_and_depths_are_consistent():
    g = generate_random_graph(40, (1.0, 1.0), 0.4, seed=31)
    t = build_spanning_tree(g, max_children=3)
    for u in t.non_sink_nodes():
        p = t.parent[u]
        assert p in g.neighbors(u)
        assert t.depth[u] == t.depth[p] + 1
        assert len(t.children[u]) <= 3
    assert t.depth[0] == 0
    assert t.descendants[0] == g.n - 1


def test_descendant_counts_recurse():
    g = generate_random_graph(30, (1.0, 1.0), 0.4, seed=8)
    t = build_spanning_tree(g, max_children=3)
    for u in t.nodes():
        assert t.descendants[u] == sum(1 + t.descendants[c] for c in t.children[u])


def test_construction_is_deterministic():
    g = generate_random_graph(35, (1.0, 1.0), 0.4, seed=20)
    t1 = build_spanning_tree(g, max_children=3)
    t2 = build_spanning_tree(g, max_children=3)
    assert t1.parent == t2.parent
    assert dump_tree(t1) == dump_tree(t2)
    # every tree is rooted at node 0, and gen_rate is keyword-only
    with pytest.raises(TypeError):
        build_spanning_tree(g, 3, 2)


def test_subtree_demand_examples():
    g = chain_graph(3)  # sink - a - b
    t = build_spanning_tree(g, max_children=3)
    assert subtree_demand(t, 2) == 1  # leaf
    assert subtree_demand(t, 1) == 2  # own packet plus the leaf's
    with pytest.raises(ValueError, match="^the sink never transmits and has no traffic demand$"):
        subtree_demand(t, 0)
    for outside in (7, -1):  # the same messages as node_priority's
        with pytest.raises(ValueError, match=f"^node {outside} not in tree$"):
            subtree_demand(t, outside)
    # a node id is an integer: True and 1.0 are not node 1
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="node id must be an integer"):
            subtree_demand(t, bad)
    assert subtree_demand(t, np.int64(1)) == 2


def _walk_subtree(tree, u):
    acc = [u]
    for c in tree.children[u]:
        acc.extend(_walk_subtree(tree, c))
    return acc


def test_subtree_demand_matches_explicit_walk():
    g = generate_random_graph(35, (1.0, 1.0), 0.4, seed=61)
    t = build_spanning_tree(g, max_children=3)
    for u in t.non_sink_nodes():
        walked = sum(t.gen_rate[w] for w in _walk_subtree(t, u))
        assert subtree_demand(t, u) == walked
        assert subtree_demand(t, u) == 1 + t.descendants[u]  # uniform unit rate


def test_per_node_rates_are_applied():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3, gen_rate={1: 4, 2: 2})
    assert t.gen_rate == {0: 0, 1: 4, 2: 2}
    assert subtree_demand(t, 1) == 6
    with pytest.raises(ValueError):
        build_spanning_tree(g, max_children=3, gen_rate={1: -1})
    # non-integral rates are rejected, never truncated; numpy integers are integral
    for bad in ({1: 2.7}, 2.0, float("inf"), float("nan"), "2"):
        with pytest.raises(ValueError):
            build_spanning_tree(g, max_children=3, gen_rate=bad)
    t = build_spanning_tree(g, max_children=3, gen_rate={1: np.int64(4), 2: np.int32(2)})
    assert t.gen_rate == {0: 0, 1: 4, 2: 2}
    assert build_spanning_tree(g, max_children=3, gen_rate=np.uint8(3)).gen_rate == {0: 0, 1: 3, 2: 3}


def test_dump_tree_format():
    g = chain_graph(3)
    t = build_spanning_tree(g, max_children=3)
    assert dump_tree(t) == "0 -1 0 2 0\n1 0 1 1 1\n2 1 2 0 1\n"


def _reference_build(graph, max_children):
    """The documented attachment rule, rescanning every unattached node per attachment.

    Returns (parent, depth, children) or raises like build_spanning_tree.
    """
    if not is_connected(graph):
        raise Disconnected("graph is not connected from the sink")
    n = graph.n
    parent, depth = {}, {0: 0}
    children = {u: [] for u in range(n)}
    while len(depth) < n:
        # smallest feasible depth, then lowest node id; parent: lowest-id non-full at that depth
        best = None
        for u in range(n):
            if u in depth:
                continue
            feasible = [
                (depth[p] + 1, p)
                for p in graph.neighbors(u)
                if p in depth and len(children[p]) < max_children
            ]
            if feasible:
                d, p = min(feasible)
                if best is None or (d, u) < best[:2]:
                    best = (d, u, p)
        if best is None:
            blocked = sorted(set(range(n)) - set(depth))
            raise Infeasible(
                f"child limit {max_children} blocks nodes {blocked} from attaching"
            )
        d, u, p = best
        parent[u] = p
        depth[u] = d
        children[p].append(u)
    return parent, depth, children


def _outcome(build, graph, max_children):
    try:
        return build(graph, max_children)
    except (Disconnected, Infeasible) as exc:
        return type(exc), str(exc)


def test_heap_builder_matches_documented_rule_on_random_graphs():
    rng = random.Random(2012)
    kinds = Counter()
    for i in range(300 + 120):
        n = rng.randint(2, 130)
        max_children = rng.randint(1, 4)
        range_r = rng.uniform(0.08, 0.6)
        g = generate_random_graph(n, (1.0, 1.0), range_r, seed=rng.randrange(2**32))
        if i >= 300:
            rng.randrange(n)  # unused: drawn so the last 120 graphs stay those the outcome floors were set on
        expected = _outcome(_reference_build, g, max_children)
        got = _outcome(build_spanning_tree, g, max_children)
        if isinstance(got, SpanningTree):
            kinds["tree"] += 1
            got = (got.parent, got.depth, got.children)
        else:
            kinds[got[0].__name__] += 1
        assert got == expected, (n, max_children, range_r)
    # every outcome is exercised, infeasible trees included
    assert kinds["tree"] >= 100 and kinds["Infeasible"] >= 30 and kinds["Disconnected"] >= 30, kinds


def test_tree_build_touches_each_neighbor_list_a_bounded_number_of_times(monkeypatch):
    n = 1000
    config = ExperimentConfig(n_values=[n], range_r=0.08 * math.sqrt(2000 / n))
    graph, tree, _ = sample_instance(config, n, 0)
    calls = 0

    class Counted(list):
        def __getitem__(self, u):
            nonlocal calls
            calls += 1
            return super().__getitem__(u)

    monkeypatch.setattr(graph, "_adjacency", Counted(graph._adjacency))
    again = build_spanning_tree(graph, config.max_children)
    assert again.parent == tree.parent
    # the former per-attachment rescan read n(n-1)/2 = 499,500 neighbour lists here
    assert 0 < calls < 4 * n
