"""The three benchmark workloads: seeded inputs, one timed pass, correctness gates.

Every library call goes through a module attribute (`scheduler.run_trasa`,
not a name imported into this file), so the tracer's wrappers are the ones
called when a traced pass runs.

`run` calls `tick` between instances, outside their timing, so the caller
can sample machine speed during a pass. A pass returns one `PassResult`.
An instance fails when a gate rejects its output or when the library
raises while producing it; a pass whose pinned digest does not match fails
every one of its instances.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from trasa import experiment_cli, metrics, oracle, scheduler, topology, tree

DEFAULT_SEED = 1  # the `trasa` CLI default; the digests in expected.json are for it


@dataclass
class PassResult:
    instances: int
    latencies: list[tuple[float, float]]  # (start, end) perf_counter of each instance
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)  # benchmark-side counters for the trace


def pass_seed(seed: int, index: int) -> int:
    """Input seed of the index-th pass of a run; pass 0 uses the run seed itself."""
    if index == 0:
        return seed
    text = f"perfbench:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def drop_one_interval(schedule: scheduler.Schedule) -> scheduler.Schedule:
    """A deliberately broken copy: the last interval of the first allocated node is gone."""
    allocations = {u: list(ivs) for u, ivs in schedule.allocations.items()}
    victim = min(allocations)
    allocations[victim] = allocations[victim][:-1]
    return scheduler.Schedule(schedule.length, allocations)


def _no_tick() -> None:
    pass


def _instance_failed(result: PassResult, label: str) -> None:
    """Count the instance being handled as failed and keep the first traceback."""
    result.failed += 1
    if not result.notes:
        result.notes.append(f"{label}: {traceback.format_exc(limit=3).strip()}")


# ---------------------------------------------------------------- sweep_default


class SweepDefault:
    """`run_experiment` + `emit_csv` on the `trasa` CLI defaults (CSV to stdout)."""

    name = "sweep_default"
    dominant = ("tree", "scheduler")  # layers expected to hold the most self time

    def make_inputs(self, seed: int, index: int, size: str) -> experiment_cli.ExperimentConfig:
        if size == "tiny":
            return experiment_cli.ExperimentConfig(n_values=[10, 20], runs=2, base_seed=pass_seed(seed, index))
        return experiment_cli.ExperimentConfig(n_values=[20, 40, 60, 80, 100], runs=40, base_seed=pass_seed(seed, index))

    def run(self, config: experiment_cli.ExperimentConfig, corrupt: bool, tick=_no_tick) -> PassResult:
        expected = len(config.n_values) * config.runs
        # Instances are delimited by the calls to sample_instance, made once
        # per (n, run) point; the last one ends when run_experiment returns.
        starts: list[float] = []
        ends: list[float] = []
        inner = experiment_cli.sample_instance

        def marked(*args, **kwargs):
            ends.append(time.perf_counter())
            tick()
            starts.append(time.perf_counter())
            return inner(*args, **kwargs)

        experiment_cli.sample_instance = marked
        try:
            table = experiment_cli.run_experiment(config)
        finally:
            experiment_cli.sample_instance = inner
        ends.append(time.perf_counter())
        if corrupt:
            table[0]["cycle_length"] = 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            experiment_cli.emit_csv(table, "-")
        text = out.getvalue()

        result = PassResult(expected, [], 0, _sha256(text))
        if len(starts) == expected:
            result.latencies = list(zip(starts, ends[1:]))
        else:
            result.notes.append(f"saw {len(starts)} sample_instance calls for {expected} instances; latency split evenly")
            step = (ends[-1] - ends[0]) / expected
            result.latencies = [(ends[0] + i * step, ends[0] + (i + 1) * step) for i in range(expected)]
        result.failed = _check_sweep_csv(text, config)
        return result


def _check_sweep_csv(text: str, config: experiment_cli.ExperimentConfig) -> int:
    """Number of per-run rows breaking an invariant; all of them if the layout is wrong."""
    expected = len(config.n_values) * config.runs
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != experiment_cli.CSV_COLUMNS or len(rows) != 1 + expected + len(config.n_values):
        return expected
    col = {name: i for i, name in enumerate(rows[0])}
    bad = 0
    for row in rows[1:]:
        if int(row[col["run_index"]]) < 0:
            continue
        cycle = int(row[col["cycle_length"]])
        lower, upper = int(row[col["lower_bound"]]), int(row[col["upper_bound"]])
        reuse, delay = float(row[col["slot_reuse"]]), float(row[col["avg_delay"]])
        # every packet crosses depth links, so total transmissions = upper bound
        ok = (
            lower <= cycle <= upper
            and math.isclose(reuse * cycle, upper, rel_tol=1e-5)
            and 1 <= delay <= cycle
            and int(row[col["max_buffer"]]) >= 1
        )
        bad += not ok
    return bad


# ------------------------------------------------------------- large_tree_rate4


LARGE_N = 500


@dataclass
class LargeInputs:
    config: experiment_cli.ExperimentConfig
    n: int


class LargeTreeRate4:
    """The README quick-start pipeline on n=500, TREE_ONLY, heuristic 2, rate 4, 2 runs."""

    name = "large_tree_rate4"
    dominant = ("tree",)

    def make_inputs(self, seed: int, index: int, size: str) -> LargeInputs:
        n = 100 if size == "tiny" else LARGE_N
        config = experiment_cli.ExperimentConfig(
            n_values=[n],
            range_r=0.08 * math.sqrt(2000 / n),  # constant density along the size ladder
            h=2,
            max_children=3,
            heuristic=2,
            variant=scheduler.Variant.TREE_ONLY,
            gen_rate=4,
            runs=1 if size == "tiny" else 2,
            base_seed=pass_seed(seed, index),
        )
        return LargeInputs(config, n)

    def run(self, inputs: LargeInputs, corrupt: bool, tick=_no_tick) -> PassResult:
        config = inputs.config
        result = PassResult(config.runs, [], 0, "")
        dumps = []
        for run_index in range(config.runs):
            tick()
            started = time.perf_counter()
            try:
                graph, spanning, _ = experiment_cli.sample_instance(config, inputs.n, run_index)
                conflicts = scheduler.build_conflict_map(graph, spanning, config.variant, config.h)
                schedule = scheduler.run_trasa(spanning, conflicts, config.heuristic)
                if corrupt:
                    schedule = drop_one_interval(schedule)
                report = scheduler.validate_schedule(schedule, conflicts, spanning)
                trace = metrics.replay_schedule(schedule, spanning)
                measures = metrics.compute_metrics(trace, schedule, spanning)
                dumps.append(scheduler.dump_schedule(schedule, spanning))
                if not (
                    report.ok
                    and measures.cycle_length == schedule.length
                    and len(trace.packet_arrivals) == spanning.total_generated()
                ):
                    result.failed += 1
            except Exception:
                _instance_failed(result, f"{self.name} run {run_index}")
            result.latencies.append((started, time.perf_counter()))
        result.digest = _sha256("".join(dumps))
        return result


# ----------------------------------------------------------------- oracle_exact


@dataclass
class OracleInstance:
    spanning: tree.SpanningTree
    conflicts: scheduler.ConflictMap
    heuristic: int


ORACLE_PER_CELL = 2


class OracleExact:
    """Exact optimum, greedy schedule and coloring round trip on pre-built tiny instances.

    The grid is n 5-8 x h 1-3 x both variants x rate 1-2, ORACLE_PER_CELL
    instances per cell; the n=8, rate-2, ALL_LINKS cells carry most of the time.
    """

    name = "oracle_exact"
    dominant = ("oracle",)

    def make_inputs(self, seed: int, index: int, size: str) -> list[OracleInstance]:
        rng = np.random.default_rng(pass_seed(seed, index))
        if size == "tiny":
            grid = [(n, h, v, 1) for n in (5, 6) for h in (1, 2) for v in scheduler.Variant]
            per_cell = 1
        else:
            grid = [(n, h, v, r) for n in (5, 6, 7, 8) for h in (1, 2, 3) for v in scheduler.Variant for r in (1, 2)]
            per_cell = ORACLE_PER_CELL
        instances = []
        for n, h, variant, rate in grid:
            for _ in range(per_cell):
                graph, spanning = _connected_tree(rng, n, rate)
                conflicts = scheduler.build_conflict_map(graph, spanning, variant, h)
                instances.append(OracleInstance(spanning, conflicts, 1 + len(instances) % 2))
        return instances

    def run(self, instances: list[OracleInstance], corrupt: bool, tick=_no_tick) -> PassResult:
        result = PassResult(len(instances), [], 0, "", counts={"oracle.gap_slots": 0})
        optima = []
        for i, inst in enumerate(instances):
            tick()
            started = time.perf_counter()
            try:
                greedy = scheduler.run_trasa(inst.spanning, inst.conflicts, inst.heuristic)
                if corrupt and i == 0:
                    greedy = drop_one_interval(greedy)
                optimum = oracle.optimal_schedule_length(inst.spanning, inst.conflicts)
                coloring = oracle.schedule_to_coloring(greedy, inst.spanning, inst.conflicts)
                rebuilt = oracle.coloring_to_schedule(coloring, inst.spanning, inst.conflicts)
                optima.append(optimum)
                if not (
                    optimum <= greedy.length
                    and scheduler.validate_schedule(greedy, inst.conflicts, inst.spanning).ok
                    and scheduler.validate_schedule(rebuilt, inst.conflicts, inst.spanning).ok
                ):
                    result.failed += 1
                result.counts["oracle.gap_slots"] += greedy.length - optimum
            except Exception:
                _instance_failed(result, f"{self.name} instance {i}")
            result.latencies.append((started, time.perf_counter()))
        result.digest = _sha256("\n".join(map(str, optima)))
        return result


def _connected_tree(rng: np.random.Generator, n: int, rate: int):
    while True:
        graph = topology.generate_random_graph(n, (1.0, 1.0), 0.6, seed=int(rng.integers(2**63)))
        if not topology.is_connected(graph):
            continue
        try:
            return graph, tree.build_spanning_tree(graph, 3, gen_rate=rate)
        except tree.Infeasible:
            continue


WORKLOADS = {w.name: w for w in (SweepDefault(), LargeTreeRate4(), OracleExact())}
