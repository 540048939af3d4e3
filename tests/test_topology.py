import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trasa.topology import (
    NetworkGraph,
    dump_graph,
    generate_random_graph,
    is_connected,
    parse_graph,
    within_h_hops,
)

from conftest import chain_graph


def test_single_node_has_no_edges():
    g = generate_random_graph(1, (1.0, 1.0), 0.4, seed=1)
    assert g.n == 1
    assert g.edges() == []
    assert is_connected(g)


def test_unit_disk_rule_is_strict():
    g = NetworkGraph([(0.0, 0.0), (0.2, 0.0)], 0.4, (1.0, 1.0))
    assert g.edges() == [(0, 1)]
    # ties at exactly the range are non-edges
    g2 = NetworkGraph([(0.0, 0.0), (0.4, 0.0)], 0.4, (1.0, 1.0))
    assert g2.edges() == []


def test_adjacency_matches_pairwise_distance_recomputation():
    graphs = [
        generate_random_graph(50, (1.0, 1.0), 0.4, seed=123),
        generate_random_graph(1, (1.0, 1.0), 0.4, seed=5),
        NetworkGraph([(0.0, 0.0), (0.4, 0.0), (0.1, 0.1)], 0.4, (1.0, 1.0)),  # 0 and 1 exactly r apart
    ]
    for g in graphs:
        expected = set()
        for u, v in itertools.combinations(range(g.n), 2):
            if math.dist(g.positions[u], g.positions[v]) < g.range_r:
                expected.add((u, v))
        assert set(g.edges()) == expected
        for u, v in itertools.permutations(range(g.n), 2):
            assert (v in g.neighbors(u)) == (u in g.neighbors(v)) == ((min(u, v), max(u, v)) in expected)
        for u in range(g.n):
            nbrs = g.neighbors(u)
            assert type(nbrs) is tuple and all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert set(nbrs) == {v for v in range(g.n) if (min(u, v), max(u, v)) in expected}
    assert graphs[1].neighbors(0) == ()
    assert graphs[2].edges() == [(0, 2), (1, 2)]  # the pair at exactly the range stays a non-edge


def _einsum_adjacency(positions, range_r):
    """The unit-disk rule with one n x n x 2 difference array and einsum, row by row."""
    pts = np.asarray(positions, dtype=float)
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    close = dist2 < range_r * range_r
    np.fill_diagonal(close, False)
    return [tuple(np.flatnonzero(row).tolist()) for row in close]


def test_adjacency_matches_the_einsum_rule():
    rng = np.random.default_rng(1919)
    ties = coincident = 0
    band_edge = [0, 0]  # pairs at xj = fl(xi + r), unlinked and linked
    for trial in range(320):
        n = int(rng.integers(1, 160))
        r = float(rng.uniform(0.02, 0.7))
        pts = rng.random((n, 2))
        kind = trial % 6
        if kind == 1:  # snapped to a lattice of spacing r
            pts = np.round(pts / r) * r
        elif kind == 2:  # a dyadic lattice: neighbours exactly r apart, with no rounding
            r = float(rng.choice([0.125, 0.25, 0.5]))
            pts = rng.integers(0, 8, (n, 2)) * r
        elif kind == 3:  # coincident pairs
            pts[n // 2 :] = pts[: n - n // 2]
        elif kind == 4:  # far from the origin
            pts += rng.uniform(-1e6, 1e6, 2)
        elif kind == 5:  # each odd point r to the right of the even one before it, on the edge of its x band
            pts[1::2, 0] = pts[: n - n % 2 : 2, 0] + r
            pts[1::2, 1] = pts[: n - n % 2 : 2, 1]
        g = NetworkGraph(pts.tolist(), r, (1.0, 1.0))
        assert [g.neighbors(u) for u in range(n)] == _einsum_adjacency(g.positions, r)
        if kind == 5:
            for u in range(0, n - 1, 2):
                band_edge[u + 1 in g.neighbors(u)] += 1
        for u, v in itertools.combinations(range(n), 2):
            apart = math.dist(g.positions[u], g.positions[v])
            if kind == 2 and apart == r:
                ties += 1
                assert v not in g.neighbors(u)
            elif apart == 0:
                coincident += 1
                assert v in g.neighbors(u)
    assert ties >= 1000 and coincident >= 1000, (ties, coincident)
    assert min(band_edge) >= 500, band_edge  # rounding links some pairs at the band's edge


def test_adjacency_memory_grows_with_the_band_not_with_n_squared():
    positions = np.random.default_rng(1).random((2000, 2)).tolist()
    tracemalloc.start()
    try:
        g = NetworkGraph(positions, 0.08, (1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges()) > 30_000
    assert peak < 2000 * 2000 * 8  # bytes: one n×n float64 array; the n×n builder peaked at ~73 MB


def test_generation_is_deterministic():
    a = generate_random_graph(40, (2.0, 1.0), 0.3, seed=99)
    b = generate_random_graph(40, (2.0, 1.0), 0.3, seed=99)
    assert dump_graph(a) == dump_graph(b)
    c = generate_random_graph(40, (2.0, 1.0), 0.3, seed=100)
    assert dump_graph(a) != dump_graph(c)


def test_positions_stay_inside_area():
    g = generate_random_graph(200, (2.0, 0.5), 0.3, seed=7)
    assert all(0 <= x <= 2.0 and 0 <= y <= 0.5 for x, y in g.positions)


def _floyd_warshall(g: NetworkGraph) -> list[list[float]]:
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def test_within_h_hops_on_path():
    g = chain_graph(3)
    assert not within_h_hops(g, 0, 2, 1)
    assert within_h_hops(g, 0, 2, 2)
    assert within_h_hops(g, 0, 1, 1)


def test_within_h_hops_rejects_equal_nodes_and_bad_h():
    g = chain_graph(3)
    with pytest.raises(ValueError):
        within_h_hops(g, 1, 1, 2)
    with pytest.raises(ValueError, match="^h must be >= 1$"):
        within_h_hops(g, 0, 1, 0)
    for h in ("2", True, 1.5):  # build_conflict_map rejects these too
        with pytest.raises(ValueError, match="h must be an integer"):
            within_h_hops(g, 0, 2, h)
    # node ids go through the same integer rule; numpy integers are ids
    for u in (0.5, "0", True):
        with pytest.raises(ValueError, match="node id must be an integer"):
            within_h_hops(g, u, 1, 1)
    assert within_h_hops(g, np.int64(0), np.uint8(1), 1)


def test_disconnected_pair_is_never_within_h():
    g = NetworkGraph([(0.0, 0.0), (0.9, 0.9)], 0.4, (1.0, 1.0))
    for h in (1, 2, 5, 50):
        assert not within_h_hops(g, 0, 1, h)


def test_within_h_hops_agrees_with_floyd_warshall():
    g = generate_random_graph(30, (1.0, 1.0), 0.35, seed=4242)
    dist = _floyd_warshall(g)
    for h in (1, 2, 3):
        for u, v in itertools.combinations(range(g.n), 2):
            assert within_h_hops(g, u, v, h) == (dist[u][v] <= h)


def _union_find_connected(g: NetworkGraph) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        parent[find(u)] = find(v)
    return len({find(u) for u in range(g.n)}) == 1


def test_is_connected_examples():
    assert is_connected(generate_random_graph(1, (1.0, 1.0), 0.4, seed=0))
    far = NetworkGraph([(0.0, 0.0), (0.9, 0.9)], 0.4, (1.0, 1.0))
    assert not is_connected(far)


def test_is_connected_agrees_with_union_find():
    for seed in range(40):
        g = generate_random_graph(25, (1.0, 1.0), 0.3, seed=seed)
        assert is_connected(g) == _union_find_connected(g)


def test_graph_file_round_trip(tmp_path):
    g = generate_random_graph(25, (1.5, 1.0), 0.4, seed=77)
    path = tmp_path / "net.graph"
    path.write_text(dump_graph(g), encoding="utf-8")
    back = parse_graph(path.read_text(encoding="utf-8"))
    assert back.positions == g.positions
    assert back.range_r == g.range_r
    assert back.area == g.area
    assert back.seed == 77
    assert back.edges() == g.edges()
    # serialization itself is stable
    assert dump_graph(back) == dump_graph(g)


def test_parse_graph_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("graph 2 0.4 1.0 1.0 5\n0 0.1 0.1\n")
    with pytest.raises(ValueError):
        parse_graph("nonsense 1 0.4 1.0 1.0 5\n0 0.1 0.1\n")


def test_non_finite_geometry_is_rejected():
    for range_r in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="range_r"):
            NetworkGraph([(0.0, 0.0)], range_r, (1.0, 1.0))
    for area in ((float("nan"), 1.0), (1.0, float("inf")), (1.0, -1.0)):
        with pytest.raises(ValueError, match="area"):
            NetworkGraph([(0.0, 0.0)], 0.4, area)
    with pytest.raises(ValueError):
        parse_graph("graph 1 nan 1.0 1.0 5\n0 0.1 0.1\n")
    for x, y in ((float("nan"), 0.5), (0.5, float("inf")), (float("-inf"), 0.0)):
        with pytest.raises(ValueError, match="positions"):
            NetworkGraph([(0.0, 0.0), (x, y)], 0.4, (1.0, 1.0))
    for coords in ("nan 0.5", "0.5 inf", "-inf -inf"):
        with pytest.raises(ValueError, match="positions"):
            parse_graph(f"graph 1 0.4 1 1 0\n0 {coords}\n")


def test_malformed_positions_are_value_errors():
    # unchecked, each raised TypeError from float() or from unpacking the pair
    for positions in ([(0, 0), 1], [(0, 0), (None, 0)], [(0, 0), (1j, 0)], [(0, 0), (1, 2, 3)], [(0, 0), ("x", 0)]):
        with pytest.raises(ValueError, match="positions"):
            NetworkGraph(positions, 0.4, (1.0, 1.0))
    # float() took these: ("0.1", "0") made the edge (0, 1) and (True, 0) became (1.0, 0.0)
    for xy in (("0.1", "0"), (b"0.1", 0.0), (0.1, "0"), (True, 0), (0.1, np.False_)):
        with pytest.raises(ValueError, match="positions must be pairs of real numbers"):
            NetworkGraph([(0, 0), xy], 0.4, (1.0, 1.0))
    # exact floats and every other real come out alike: a float subclass and np.float64 are plain floats
    class Metres(float):
        pass

    g = NetworkGraph(
        [(0, 0.0), (np.int64(1), np.float32(0.5)), (np.float64(0.25), 1), (Metres(0.75), np.float64(0.5))],
        0.4,
        (1.0, 1.0),
    )
    assert g.positions == ((0.0, 0.0), (1.0, 0.5), (0.25, 1.0), (0.75, 0.5))
    assert all(type(c) is float for xy in g.positions for c in xy)


def test_area_is_two_sides_and_range_a_real_number():
    # unchecked, area (1.0,) raised IndexError in generate_random_graph, (1.0, 1.0, 5.0) was
    # cut to its first two sides, and a range or side given as a string raised TypeError
    for area in ((1.0,), (1.0, 1.0, 5.0), 1.0, None, ("1", "1"), (True, 1.0)):
        with pytest.raises(ValueError, match="area"):
            NetworkGraph([(0.0, 0.0)], 0.4, area)
        with pytest.raises(ValueError, match="area"):
            generate_random_graph(3, area, 0.4, seed=1)
    for range_r in ("0.4", True, None):
        with pytest.raises(ValueError, match="range_r"):
            NetworkGraph([(0.0, 0.0)], range_r, (1.0, 1.0))
        with pytest.raises(ValueError, match="range_r"):
            generate_random_graph(3, (1.0, 1.0), range_r, seed=1)
    g = generate_random_graph(6, [np.float64(1.0), 2], np.float64(0.4), seed=3)
    assert g.area == (1.0, 2.0) and type(g.area[0]) is float
    assert dump_graph(g) == dump_graph(generate_random_graph(6, (1.0, 2.0), 0.4, seed=3))


def test_node_count_and_seed_must_be_integers():
    # unchecked, 2.5 and True raised TypeError, 1.5 NumPy's TypeError, and 1.7 was truncated to 1
    for bad in (2.5, True, np.True_):
        with pytest.raises(ValueError, match="n must"):
            generate_random_graph(bad, (1.0, 1.0), 0.4, seed=1)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        generate_random_graph(0, (1.0, 1.0), 0.4, 1)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="seed must"):
            generate_random_graph(5, (1.0, 1.0), 0.4, seed=bad)
    with pytest.raises(ValueError, match="seed must"):
        NetworkGraph([(0.0, 0.0)], 0.4, (1.0, 1.0), seed=1.7)
    g = generate_random_graph(np.int64(5), (1.0, 1.0), 0.4, seed=np.uint32(9))
    assert dump_graph(g) == dump_graph(generate_random_graph(5, (1.0, 1.0), 0.4, seed=9))
    assert type(g.seed) is int
    # unchecked, 1.5 and "1" raised TypeError and True read node 1's neighbours
    for bad in (1.5, "1", True, np.True_):
        with pytest.raises(ValueError, match="node id must be an integer"):
            g.neighbors(bad)
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=f"node {bad} not in graph"):
            g.neighbors(bad)
    assert g.neighbors(np.int64(1)) == g.neighbors(1)


def test_far_apart_finite_positions_are_not_linked():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = NetworkGraph([(1e308, 0.0), (-1e308, 0.0), (1e200, 1e200), (1e200, 1e200)], 0.4, (1.0, 1.0))
    assert g.edges() == [(2, 3)]


def test_coincident_positions_are_linked():
    g = NetworkGraph([(0.5, 0.5), (0.5, 0.5)], 0.4, (1.0, 1.0))
    assert g.edges() == [(0, 1)]
