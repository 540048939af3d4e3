"""In-memory spans around the public functions of each `trasa` module.

Each traced function is replaced at every `trasa` module attribute that holds
it, because callers look names up in their own module: `experiment_cli`
imports `build_spanning_tree` and `is_connected` directly, and `tree` calls
its own imported `is_connected`. A span records (name, start, end, parent);
a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

from trasa import experiment_cli, metrics, oracle, scheduler, topology, tree

LAYERS = ("topology", "tree", "scheduler", "metrics", "oracle", "experiment_cli")
ROOT_SPAN = "bench.pass"


def _edges(graph, *_args, **_kwargs):
    return sum(len(graph.neighbors(u)) for u in range(graph.n)) // 2


def _conflict_pairs(cmap, graph, *_args, **_kwargs):
    return sum(len(cmap.conflicting(u)) for u in range(graph.n)) // 2


def _windows(schedule, *_args, **_kwargs):
    # every window opens at a fresh cycle end, so windows = distinct interval starts
    return len({s for ivs in schedule.allocations.values() for s, _ in ivs})


def _cycle_slots(schedule, *_args, **_kwargs):
    return schedule.length


def _slot_node_steps(_trace, schedule, spanning, *_args, **_kwargs):
    return schedule.length * (spanning.n - 1)


# span name, defining module, attribute, {count name: f(result, *args) -> int}
TRACED = [
    ("topology.generate", topology, "generate_random_graph", {"topology.edges": _edges}),
    ("topology.is_connected", topology, "is_connected", {}),
    ("tree.build", tree, "build_spanning_tree", {}),
    ("scheduler.conflict_map", scheduler, "build_conflict_map", {"scheduler.conflict_pairs": _conflict_pairs}),
    ("scheduler.run_trasa", scheduler, "run_trasa", {"scheduler.windows": _windows, "scheduler.cycle_slots": _cycle_slots}),
    ("scheduler.validate", scheduler, "validate_schedule", {}),
    ("scheduler.bounds", scheduler, "schedule_length_bounds", {}),
    ("scheduler.dump", scheduler, "dump_schedule", {}),
    ("metrics.replay", metrics, "replay_schedule", {"metrics.slot_node_steps": _slot_node_steps}),
    ("metrics.compute", metrics, "compute_metrics", {}),
    ("oracle.optimal", oracle, "optimal_schedule_length", {}),
    ("oracle.coloring", oracle, "schedule_to_coloring", {}),
    ("oracle.coloring", oracle, "coloring_to_schedule", {}),
    ("oracle.coloring", oracle, "validate_coloring", {}),
    ("experiment_cli.sample", experiment_cli, "sample_instance", {}),
    ("experiment_cli.run_experiment", experiment_cli, "run_experiment", {}),
    ("experiment_cli.emit_csv", experiment_cli, "emit_csv", {}),
]

# Exceptions counted per span name, by class name.
RAISES = {"tree.build": ("Infeasible", "Disconnected")}


class Tracer:
    """Spans and counters for one traced pass; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counters):
        raises = RAISES.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ in raises:
                    self.counts[f"{name.split('.')[0]}.{type(exc).__name__.lower()}"] += 1
                raise
            finally:
                self.close(index)
            for count, measure in counters.items():
                self.counts[count] += measure(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "trasa" or key.startswith("trasa.")]
        for name, home, attr, counters in TRACED:
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original, counters)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Self time per span name and per layer, call counts, and the counters."""
        self_time = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                self_time[span[3]] -= span[2] - span[1]
        by_name: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for span, own in zip(self.spans, self_time):
            by_name[span[0]] += own
            calls[span[0]] += 1
        attempts = sum(
            1 for span in self.spans
            if span[0] == "topology.generate" and span[3] >= 0 and self.spans[span[3]][0] == "experiment_cli.sample"
        )
        out = {
            "topology.generate_s": by_name["topology.generate"],
            "topology.is_connected_s": by_name["topology.is_connected"],
            "topology.edges": self.counts["topology.edges"],
            "tree.build_s": by_name["tree.build"],
            "tree.calls": calls["tree.build"],
            "tree.infeasible": self.counts["tree.infeasible"],
            "tree.disconnected": self.counts["tree.disconnected"],
            "scheduler.conflict_map_s": by_name["scheduler.conflict_map"],
            "scheduler.conflict_pairs": self.counts["scheduler.conflict_pairs"],
            "scheduler.run_trasa_s": by_name["scheduler.run_trasa"],
            "scheduler.windows": self.counts["scheduler.windows"],
            "scheduler.cycle_slots": self.counts["scheduler.cycle_slots"],
            "scheduler.validate_s": by_name["scheduler.validate"],
            "scheduler.bounds_s": by_name["scheduler.bounds"],
            "scheduler.dump_s": by_name["scheduler.dump"],
            "metrics.replay_s": by_name["metrics.replay"],
            "metrics.compute_s": by_name["metrics.compute"],
            "metrics.slot_node_steps": self.counts["metrics.slot_node_steps"],
            "oracle.optimal_s": by_name["oracle.optimal"],
            "oracle.coloring_s": by_name["oracle.coloring"],
            "oracle.calls": calls["oracle.optimal"],
            "oracle.gap_slots": self.counts["oracle.gap_slots"],
            "experiment_cli.sample_s": by_name["experiment_cli.sample"],
            "experiment_cli.sample_attempts": attempts,
            "experiment_cli.sample_useful_ratio": calls["experiment_cli.sample"] / attempts if attempts else 0.0,
            "experiment_cli.emit_csv_s": by_name["experiment_cli.emit_csv"],
            "experiment_cli.run_experiment_s": by_name["experiment_cli.run_experiment"],
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = sum(t for name, t in by_name.items() if name.split(".")[0] == layer)
        out["trace.spans"] = len(self.spans)
        return out


def median_summary(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes of identical inputs (counts repeat exactly)."""
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"
