"""Invariant checks over randomized instances, seeded for reproducibility."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trasa.experiment_cli import ConfigError, ExperimentConfig, RateFile, _parse_rate
from trasa.topology import dump_graph, generate_random_graph, is_connected, parse_graph, within_h_hops
from trasa.tree import Infeasible, build_spanning_tree, subtree_demand
from trasa.scheduler import (
    Variant,
    build_conflict_map,
    dump_schedule,
    parse_schedule,
    run_trasa,
    schedule_length_bounds,
    validate_schedule,
)
from trasa.metrics import compute_metrics, replay_schedule
from trasa.oracle import coloring_to_schedule, schedule_to_coloring, validate_coloring


def sample_connected(rng, n_lo=5, n_hi=30, range_r=0.4, max_children=3, gen_rate=1):
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        g = generate_random_graph(n, (1.0, 1.0), range_r, seed=int(rng.integers(2**63)))
        if not is_connected(g):
            continue
        try:
            return g, build_spanning_tree(g, max_children, gen_rate=gen_rate)
        except Infeasible:
            continue


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25))
@settings(max_examples=30, deadline=None)
def test_hop_query_symmetry_and_monotonicity(seed, n):
    g = generate_random_graph(n, (1.0, 1.0), 0.35, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        u, v = rng.choice(n, size=2, replace=False)
        u, v = int(u), int(v)
        reached = [within_h_hops(g, u, v, h) for h in (1, 2, 3, 4)]
        assert reached == [within_h_hops(g, v, u, h) for h in (1, 2, 3, 4)]
        # monotone in h
        assert all(not a or b for a, b in zip(reached, reached[1:]))
        assert reached[0] == (v in g.neighbors(u))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_generation_determinism(seed):
    a = generate_random_graph(20, (1.0, 1.0), 0.4, seed=seed)
    b = generate_random_graph(20, (1.0, 1.0), 0.4, seed=seed)
    assert dump_graph(a) == dump_graph(b)


def test_tree_only_conflicts_are_a_subset_of_all_links():
    rng = np.random.default_rng(321)
    for _ in range(15):
        g, t = sample_connected(rng)
        for h in (1, 2, 3):
            all_links = build_conflict_map(g, t, Variant.ALL_LINKS, h)
            tree_only = build_conflict_map(g, t, Variant.TREE_ONLY, h)
            for u in t.nodes():
                assert tree_only.conflicting(u) <= all_links.conflicting(u)


def test_schedules_are_deterministic_and_conserve_demand():
    rng = np.random.default_rng(7654)
    for _ in range(20):
        g, t = sample_connected(rng)
        for variant, heuristic in itertools.product(Variant, (1, 2)):
            cm = build_conflict_map(g, t, variant, 2)
            s1 = run_trasa(t, cm, heuristic)
            s2 = run_trasa(t, cm, heuristic)
            assert dump_schedule(s1, t) == dump_schedule(s2, t)
            for u in t.non_sink_nodes():
                assert s1.total_width(u) == subtree_demand(t, u)


def test_parents_finish_after_their_children():
    rng = np.random.default_rng(13579)
    for _ in range(20):
        g, t = sample_connected(rng)
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        s = run_trasa(t, cm, 1)
        for u in t.non_sink_nodes():
            for c in t.children[u]:
                if s.last_slot(c) is not None:
                    assert s.last_slot(u) > s.last_slot(c)


def test_bounds_hold_beyond_one_hop_interference():
    # the lower bound needs sink children to interfere pairwise, which h >= 2
    # guarantees; the upper bound holds for any h
    rng = np.random.default_rng(2468)
    for _ in range(20):
        g, t = sample_connected(rng)
        lower, upper = schedule_length_bounds(t)
        assert lower == g.n - 1
        assert upper == sum(t.depth[u] for u in t.non_sink_nodes())
        for h in (1, 2, 3):
            for variant in Variant:
                cm = build_conflict_map(g, t, variant, h)
                length = run_trasa(t, cm, 1).length
                assert length <= upper
                if h >= 2:
                    assert length >= lower


def test_slot_reuse_stays_in_its_range():
    rng = np.random.default_rng(1122)
    for _ in range(15):
        g, t = sample_connected(rng)
        for variant in Variant:
            cm = build_conflict_map(g, t, variant, 2)
            s = run_trasa(t, cm, 1)
            m = compute_metrics(replay_schedule(s, t), s, t)
            assert 1.0 <= m.slot_reuse <= g.n - 1


def test_variant_lengths_and_reuse_are_ordered_per_instance():
    rng = np.random.default_rng(97531)
    for _ in range(15):
        g, t = sample_connected(rng)
        cm_all = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        cm_tree = build_conflict_map(g, t, Variant.TREE_ONLY, 2)
        s_all = run_trasa(t, cm_all, 1)
        s_tree = run_trasa(t, cm_tree, 1)
        assert s_all.length >= s_tree.length
        m_all = compute_metrics(replay_schedule(s_all, t), s_all, t)
        m_tree = compute_metrics(replay_schedule(s_tree, t), s_tree, t)
        assert m_all.slot_reuse <= m_tree.slot_reuse


def test_rate_homogeneity_is_exact():
    rng = np.random.default_rng(31415)
    for _ in range(10):
        g, t1 = sample_connected(rng)
        base = run_trasa(t1, build_conflict_map(g, t1, Variant.ALL_LINKS, 2), 1)
        for r in (2, 3):
            tr = build_spanning_tree(g, 3, gen_rate=r)
            cm = build_conflict_map(g, tr, Variant.ALL_LINKS, 2)
            assert run_trasa(tr, cm, 1).length == r * base.length


def test_heterogeneous_rates_validate_and_deliver():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(6, 20))
        g = generate_random_graph(n, (1.0, 1.0), 0.5, seed=int(rng.integers(2**63)))
        if not is_connected(g):
            continue
        rates = {u: int(rng.integers(0, 4)) for u in range(1, n)}
        if sum(rates.values()) == 0:
            rates[1] = 1
        try:
            t = build_spanning_tree(g, 3, gen_rate=rates)
        except Infeasible:
            continue
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        s = run_trasa(t, cm, 1)
        assert validate_schedule(s, cm, t).ok
        trace = replay_schedule(s, t)
        assert len(trace.packet_arrivals) == t.total_generated()


def test_coloring_round_trip_properties():
    rng = np.random.default_rng(8642)
    for _ in range(15):
        g, t = sample_connected(rng, n_hi=20)
        cm = build_conflict_map(g, t, Variant.ALL_LINKS, 2)
        s = run_trasa(t, cm, 1)
        coloring = schedule_to_coloring(s, t, cm)
        assert validate_coloring(coloring, cm, t)
        rebuilt = coloring_to_schedule(coloring, t, cm)
        report = validate_schedule(rebuilt, cm, t)
        assert report.ok
        # region widths: total length is the sum over colors of the class maxima
        by_color: dict[int, int] = {}
        for u, c in coloring.colors.items():
            by_color[c] = max(by_color.get(c, 0), subtree_demand(t, u))
        assert rebuilt.length == sum(by_color.values())


# --- parser fuzzing: bad text is a ValueError (ConfigError for rates) or a valid object
# Integers stay small: the schedule check walks every occupied slot, so a huge
# interval width tests time, not parsing.

_NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x10", "1_0", "+2", "٣", "", "5.0"]),
)
_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from(["graph", "schedule", ":", "0:1", "1:0", "2:1:1", "a"]),
    st.tuples(_NUMBERS, _NUMBERS).map(":".join),
    st.text(max_size=4),
)


@st.composite
def _perturbed(draw, lines):
    """A well-formed file with a few tokens replaced or appended and lines dropped or doubled."""
    lines = [list(line) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        line[at:at + 1] = [draw(_TOKENS)]
    if len(lines) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(lines) - 1))
        lines[at:at + 1] = [] if draw(st.booleans()) else [lines[at], lines[at]]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def _graph_texts(draw):
    n = draw(st.integers(0, 4))
    coords = st.one_of(st.floats(0, 1).map(repr), _NUMBERS)
    lines = [["graph", str(n), "0.4", "1.0", "1.0", "7"]]
    lines += [[str(i), draw(coords), draw(coords)] for i in range(n)]
    return draw(_perturbed(lines))


@st.composite
def _schedule_texts(draw):
    length = draw(st.integers(0, 8))
    lines = [["schedule", str(length)]]
    for u in range(1, draw(st.integers(1, 4))):
        start = draw(st.integers(0, 8))
        lines.append([str(u), f"{start}:{draw(st.integers(1, 4))}"])
    return draw(_perturbed(lines))


_RAW_TEXTS = st.one_of(
    st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=60),
)


def _parse_or_reject(parse, text, rejected=ValueError):
    try:
        return parse(text)
    except rejected:
        return None  # any other exception escapes and fails the test


@given(text=st.one_of(_graph_texts(), _RAW_TEXTS))
@settings(max_examples=150, deadline=None)
def test_parse_graph_rejects_or_returns_a_valid_graph(text):
    graph = _parse_or_reject(parse_graph, text)
    if graph is not None:
        assert graph.n >= 1 and math.isfinite(graph.range_r) and graph.range_r > 0
        assert all(math.isfinite(c) for xy in graph.positions for c in xy)
        assert parse_graph(dump_graph(graph)).positions == graph.positions


@given(text=st.one_of(_schedule_texts(), _RAW_TEXTS))
@settings(max_examples=150, deadline=None)
def test_parse_schedule_rejects_or_returns_a_valid_schedule(text):
    schedule = _parse_or_reject(parse_schedule, text)
    if schedule is not None:
        runs = list(schedule.runs())
        occupied = sum((b - a) * len(txs) for a, b, txs in runs)
        assert occupied == sum(schedule.total_width(u) for u in schedule.allocations)
        assert all(0 <= a < b <= schedule.length for a, b, _ in runs)


@given(
    text=_RAW_TEXTS.filter(lambda t: not t.startswith("@")),
    content=st.one_of(_RAW_TEXTS.map(str.encode), st.binary(max_size=40)),
)
@settings(max_examples=100, deadline=None)
@example(text="1", content=b"1 -2\n")
def test_parse_rate_rejects_or_returns_valid_rates(text, content):
    value = _parse_or_reject(_parse_rate, text, ConfigError)
    assert value is None or type(value) is int
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rates.txt"
        path.write_bytes(content)
        for spec in (f"@{path}", f"@{tmp}", f"@{path}.missing"):
            value = _parse_or_reject(_parse_rate, spec, ConfigError)
            if value is not None:
                assert type(value) is RateFile and str(value) == spec
                assert all(type(u) is int and type(r) is int for u, r in value.rates.items())
                if any(r < 0 for r in value.rates.values()):  # the sign is checked once, by validate
                    with pytest.raises(ConfigError, match="^negative rate for node "):
                        ExperimentConfig(n_values=[5], gen_rate=value).validate()
