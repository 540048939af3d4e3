"""Unit-disk network graphs: seeded generation, hop queries, text serialization.

Node 0 is always the sink. Two distinct nodes are linked iff their Euclidean
distance is strictly below the uniform transmission range (ties at exactly the
range are non-edges). All randomness comes from numpy's default PCG64
generator so that a (n, area, range, seed) tuple pins the topology exactly.

The edges come from one sweep over the node pairs that lie within the range
in x, with the nodes sorted by x, so building a graph takes time and memory
in proportion to those pairs rather than to n². It gives bit for bit the
edges of the n×n distance rule.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import deque
from collections.abc import Sequence
from itertools import chain

import numpy as np

SINK = 0


class NetworkGraph:
    """Immutable unit-disk graph over 2-D node positions.

    Adjacency is derived from positions on construction and never stored in
    files; re-reading a dump re-derives the same edge set. Each node's
    neighbours are kept as one ascending tuple of ids.
    """

    def __init__(
        self,
        positions: Sequence[tuple[float, float]],
        range_r: float,
        area: tuple[float, float],
        seed: int = -1,
    ):
        if not _positive_real(range_r):
            raise ValueError("range_r must be finite and positive")
        self.area = _area(area)
        if len(positions) < 1:
            raise ValueError("need at least one node")
        try:
            self.positions = tuple((_real(x), _real(y)) for x, y in positions)
        except (TypeError, ValueError):
            raise ValueError("node positions must be pairs of real numbers") from None
        if not all(map(math.isfinite, chain.from_iterable(self.positions))):
            raise ValueError("node positions must be finite")
        self.range_r = float(range_r)
        self.seed = _integer(seed, "seed")
        self._adjacency = _derive_adjacency(self.positions, self.range_r)

    @property
    def n(self) -> int:
        return len(self.positions)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """The nodes linked to u, as a tuple in ascending id order."""
        return self._adjacency[self._check_node(u)]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._adjacency[u] if u < v]

    def _check_node(self, u) -> int:
        """u as a node id of this graph, else ValueError."""
        u = _integer(u, "node id")
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} not in graph of {self.n} nodes")
        return u


def _integer(value, what: str) -> int:
    """value as an int if it is integral (a Python or numpy integer), else ValueError; never truncates.

    A bool is an int subclass but not a count, so True and numpy.True_ are rejected too.
    """
    if type(value) is int:  # the common case, checked first
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _at_least(value, what: str, low: int) -> int:
    """value as an int if it is integral and at least low, else ValueError."""
    value = _integer(value, what)
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
    return value


def _positive_real(value) -> bool:
    """True iff value is a finite real number above zero; a bool or a numeric string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and value > 0


def _real(value) -> float:
    """value as a float if it is a real number, else ValueError; a bool or a numeric string is not one."""
    if type(value) is float:  # the common case, checked first
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"not a real number: {value!r}")


def _area(area) -> tuple[float, float]:
    """area as (width, height) floats if it is exactly two finite positive numbers, else ValueError."""
    try:
        width, height = area
    except (TypeError, ValueError):
        raise ValueError(f"area must be two numbers (width, height), got {area!r}") from None
    if not (_positive_real(width) and _positive_real(height)):
        raise ValueError("area dimensions must be finite and positive")
    return float(width), float(height)


def _derive_adjacency(
    positions: tuple[tuple[float, float], ...], range_r: float
) -> list[tuple[int, ...]]:
    """Each node's neighbours as an ascending tuple, from one sweep over an x-sorted band of pairs.

    With the ids sorted by x, each point's candidates are the later points j
    with xs[j] <= fl(xs[i] + r), found by one searchsorted. A candidate is an
    edge iff dx*dx + dy*dy < r*r, squared and summed in this order, which is
    bit for bit the n×n rule: xj - xi is the exact negation of the other
    direction's difference. The band drops no edge and needs no slack: an
    edge has fl(xj - xi) < r, so xj - xi < r exactly (rounding is monotone),
    and round-to-nearest gives xj <= fl(xi + r). Time and memory grow with
    the candidate pairs, n times the points within r in x, not with n².
    """
    n = len(positions)
    x, y = np.fromiter(chain.from_iterable(positions), float, 2 * n).reshape(n, 2).T
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    with np.errstate(over="ignore"):  # far-apart points overflow to inf: out of range
        stop = np.searchsorted(xs, xs + range_r, side="right")
        first = np.arange(1, n + 1)
        counts = stop - first  # the later points in i's band
        left = np.repeat(np.arange(n), counts)
        right = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts - first, counts)
        dist2 = xs[right] - np.repeat(xs, counts)
        dist2 *= dist2
        dy2 = ys[right] - np.repeat(ys, counts)
        dy2 *= dy2
        dist2 += dy2
    close = np.flatnonzero(dist2 < range_r * range_r)
    a, b = order[left[close]], order[right[close]]
    keys = np.concatenate((a * n + b, b * n + a))  # both directions
    keys.sort()
    ends = np.searchsorted(keys, np.arange(1, n + 1) * n).tolist()
    cols = (keys % n).tolist()
    return [tuple(cols[i:j]) for i, j in zip([0] + ends, ends)]


def generate_random_graph(
    n: int, area: tuple[float, float], range_r: float, seed: int
) -> NetworkGraph:
    """Drop n nodes uniformly at random on the area and derive the unit-disk edges.

    Positions come from a single (n, 2) draw of numpy's default generator
    (PCG64) seeded with `seed`; identical inputs give a bit-identical graph.
    Connectivity is not enforced here, check is_connected separately.
    """
    n = _at_least(n, "n", 1)
    seed = _integer(seed, "seed")
    width, height = _area(area)
    rng = np.random.default_rng(seed)
    unit = rng.random((n, 2))
    positions = (unit * (width, height)).tolist()
    return NetworkGraph(positions, range_r, area, seed=seed)


def within_h_hops(graph: NetworkGraph, u: int, v: int, h: int) -> bool:
    """True iff the hop distance between distinct nodes u and v is in 1..h."""
    u = graph._check_node(u)
    v = graph._check_node(v)
    if u == v:
        raise ValueError("within_h_hops is defined between distinct nodes")
    h = _at_least(h, "h", 1)
    return hop_distances_from(graph._adjacency, u).get(v, h + 1) <= h


def hop_distances_from(adjacency, source: int) -> dict[int, int]:
    """BFS hop distances from source over an adjacency mapping (node -> iterable)."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for w in adjacency[node]:
            if w not in dist:
                dist[w] = dist[node] + 1
                frontier.append(w)
    return dist


def is_connected(graph: NetworkGraph) -> bool:
    """True iff every node is reachable from the sink (node 0)."""
    return len(hop_distances_from(graph._adjacency, SINK)) == graph.n


def dump_graph(graph: NetworkGraph) -> str:
    """Serialize to the line-oriented text format.

    Header `graph <n> <R> <width> <height> <seed>`, then one `<id> <x> <y>`
    line per node. Edges are never stored.
    """
    lines = [
        f"graph {graph.n} {graph.range_r!r} {graph.area[0]!r} {graph.area[1]!r} {graph.seed}"
    ]
    for i, (x, y) in enumerate(graph.positions):
        lines.append(f"{i} {x!r} {y!r}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> NetworkGraph:
    """Parse the dump_graph format back into a NetworkGraph."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "graph":
        raise ValueError(f"bad graph header: {lines[0]!r}")
    n = int(head[1])
    range_r = float(head[2])
    area = (float(head[3]), float(head[4]))
    seed = int(head[5])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} node lines, found {len(lines) - 1}")
    positions: list[tuple[float, float]] = [(0.0, 0.0)] * n
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad node line: {ln!r}")
        i = int(parts[0])
        if i in seen or not 0 <= i < n:
            raise ValueError(f"bad or duplicate node id {i}")
        seen.add(i)
        positions[i] = (float(parts[1]), float(parts[2]))
    return NetworkGraph(positions, range_r, area, seed=seed)
