#!/usr/bin/env python3
"""Walk through one TDMA cycle on a network small enough to read slot by slot."""

from trasa import (
    NetworkGraph,
    Variant,
    build_conflict_map,
    build_spanning_tree,
    dump_schedule,
    run_trasa,
    schedule_length_bounds,
    validate_schedule,
)

# A two-branch layout: the sink at the origin, a 3-hop arm and a side leaf.
positions = [
    (0.00, 0.00),  # 0: sink
    (0.30, 0.00),  # 1
    (0.60, 0.00),  # 2
    (0.90, 0.00),  # 3
    (0.20, 0.25),  # 4
]
graph = NetworkGraph(positions, range_r=0.4, area=(1.0, 1.0))
tree = build_spanning_tree(graph, max_children=3)
print("parents:", dict(sorted(tree.parent.items())))

conflicts = build_conflict_map(graph, tree, Variant.ALL_LINKS, h=2)
schedule = run_trasa(tree, conflicts, heuristic=1)

lower, upper = schedule_length_bounds(tree)
print(f"cycle length {schedule.length} (bounds: {lower}..{upper})")
for start, stop, txs in schedule.runs():
    print(f"  slots {start}..{stop - 1}: transmitters {list(txs)}")

report = validate_schedule(schedule, conflicts, tree)
print("schedule certified:", report.ok)

print("\ndump format:")
print(dump_schedule(schedule, tree), end="")
