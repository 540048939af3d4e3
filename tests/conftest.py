import math

import pytest

from trasa.scheduler import ConflictMap
from trasa.topology import NetworkGraph, generate_random_graph
from trasa.tree import Disconnected, Infeasible, build_spanning_tree


def chain_graph(n: int) -> NetworkGraph:
    """Path graph 0-1-...-(n-1): only consecutive nodes are in range."""
    return NetworkGraph([(0.05 * i, 0.0) for i in range(n)], 0.07, (1.0, 1.0))


def star_graph(n: int) -> NetworkGraph:
    """Sink at the center, n-1 leaves pairwise out of range."""
    pts = [(0.5, 0.5)]
    for k in range(n - 1):
        ang = 2 * math.pi * k / max(n - 1, 1)
        pts.append((0.5 + 0.3 * math.cos(ang), 0.5 + 0.3 * math.sin(ang)))
    return NetworkGraph(pts, 0.35, (1.0, 1.0))


@pytest.fixture
def chain3() -> NetworkGraph:
    return chain_graph(3)


def random_tree(rng, n_range, rate, range_r=None):
    """A seeded tree on a random unit-disk graph, redrawing unusable topologies.

    rate "mixed" draws 0..3 packets per node, so some subtrees carry no demand.
    The range defaults to 1.2/sqrt(n), a sparse graph at every n.
    """
    while True:
        n = rng.randint(*n_range)
        r = 1.2 / math.sqrt(n) if range_r is None else range_r
        g = generate_random_graph(n, (1.0, 1.0), r, seed=rng.randrange(2**32))
        gen_rate = {u: rng.randint(0, 3) for u in range(n)} if rate == "mixed" else rate
        try:
            return g, build_spanning_tree(g, max_children=rng.randint(2, 4), gen_rate=gen_rate)
        except (Disconnected, Infeasible):
            continue


def count_ball_builds(monkeypatch):
    """A list that gains one entry per `ConflictMap._balls` run, i.e. per labelling built."""
    calls = []
    balls = ConflictMap._balls

    def counted(self, *args):
        calls.append(self)
        return balls(self, *args)

    monkeypatch.setattr(ConflictMap, "_balls", counted)
    return calls
