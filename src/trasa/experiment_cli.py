"""Batch experiment harness: sweep node counts, aggregate runs, emit CSV.

Every (n, run_index) point derives its own seed from the base seed with a
stable hash, resampling with the attempt counter whenever a topology is
disconnected or the child limit blocks the tree, so reruns of a config are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from dataclasses import dataclass, field

from .metrics import compute_metrics, replay_schedule
from .scheduler import (
    Variant,
    build_conflict_map,
    run_trasa,
    schedule_length_bounds,
    write_schedule_file,
)
from .topology import SINK, NetworkGraph, generate_random_graph
from .tree import Disconnected, Infeasible, SpanningTree, build_spanning_tree, write_tree_file


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


class CannotSample(RuntimeError):
    """No connected, tree-feasible topology was found within the attempt cap."""


class OutputError(OSError):
    """Writing an output artifact failed."""


MAX_ATTEMPTS = 10_000

CSV_COLUMNS = [
    "n",
    "run_index",
    "seed",
    "heuristic",
    "variant",
    "h",
    "max_children",
    "rate",
    "cycle_length",
    "lower_bound",
    "upper_bound",
    "slot_reuse",
    "avg_delay",
    "max_buffer",
    "total_switches",
]

_MEAN_COLUMNS = CSV_COLUMNS[8:]


@dataclass
class ExperimentConfig:
    n_values: list[int]
    area: tuple[float, float] = (1.0, 1.0)
    range_r: float = 0.4
    h: int = 2
    max_children: int = 3
    heuristic: int = 1
    variant: Variant = Variant.ALL_LINKS
    gen_rate: int | str = 1  # uniform packets per node, or "@<path>" override file
    runs: int = 40
    base_seed: int = 1
    rates_by_node: dict[int, int] | None = field(default=None, repr=False)

    def validate(self) -> None:
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("n_values must be non-empty positive integers")
        if not all(math.isfinite(side) and side > 0 for side in self.area):
            raise ConfigError("area dimensions must be finite and positive")
        if not (math.isfinite(self.range_r) and self.range_r > 0):
            raise ConfigError("range must be finite and positive")
        if self.h < 1:
            raise ConfigError("h must be >= 1")
        if self.max_children < 1:
            raise ConfigError("max_children must be >= 1")
        if self.heuristic not in (1, 2):
            raise ConfigError("heuristic must be 1 or 2")
        if not isinstance(self.variant, Variant):
            raise ConfigError("variant must be a Variant")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if isinstance(self.gen_rate, int) and self.gen_rate < 1:
            raise ConfigError("uniform rate must be >= 1")
        if not isinstance(self.gen_rate, int) and self.rates_by_node is None:
            raise ConfigError(f"unresolved rate setting {self.gen_rate!r}")
        top = max(self.n_values)
        bad = sorted(u for u in self.rates_by_node or () if u == SINK or not 0 <= u < top)
        if bad:
            raise ConfigError(f"rate file names the sink or ids outside 1..{top - 1}: {bad}")

    def rate_for_tree(self):
        return self.gen_rate if self.rates_by_node is None else self.rates_by_node

    def rate_token(self) -> str:
        return str(self.gen_rate)


def derive_seed(base_seed: int, n: int, run_index: int, attempt: int) -> int:
    """Stable 64-bit stream id: first 8 bytes of SHA-256 over the point tuple."""
    text = f"{base_seed}:{n}:{run_index}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def sample_instance(
    config: ExperimentConfig, n: int, run_index: int
) -> tuple[NetworkGraph, SpanningTree, int]:
    """Draw topologies for one point until one is connected and tree-feasible."""
    for attempt in range(MAX_ATTEMPTS):
        seed = derive_seed(config.base_seed, n, run_index, attempt)
        graph = generate_random_graph(n, config.area, config.range_r, seed)
        try:
            tree = build_spanning_tree(
                graph, config.max_children, gen_rate=config.rate_for_tree()
            )
        except (Disconnected, Infeasible):
            continue
        return graph, tree, seed
    raise CannotSample(
        f"no usable topology for n={n}, run {run_index} in {MAX_ATTEMPTS} attempts"
    )


def _run_point(config: ExperimentConfig, n: int, run_index: int) -> dict:
    graph, tree, seed = sample_instance(config, n, run_index)
    conflicts = build_conflict_map(graph, tree, config.variant, config.h)
    schedule = run_trasa(tree, conflicts, config.heuristic)
    trace = replay_schedule(schedule, tree)
    measures = compute_metrics(trace, schedule, tree)
    lower, upper = schedule_length_bounds(tree)
    return {
        "n": n,
        "run_index": run_index,
        "seed": seed,
        "heuristic": config.heuristic,
        "variant": config.variant.value,
        "h": config.h,
        "max_children": config.max_children,
        "rate": config.rate_token(),
        "cycle_length": measures.cycle_length,
        "lower_bound": lower,
        "upper_bound": upper,
        "slot_reuse": measures.slot_reuse,
        "avg_delay": measures.avg_delay,
        "max_buffer": measures.max_buffer,
        "total_switches": measures.total_switches,
    }


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Produce one row per run plus one mean row (run_index -1) per node count."""
    config.validate()
    table: list[dict] = []
    for n in config.n_values:
        rows = [_run_point(config, n, run) for run in range(config.runs)]
        table.extend(rows)
        mean = dict(rows[0])
        mean["run_index"] = -1
        mean["seed"] = config.base_seed
        for col in _MEAN_COLUMNS:
            mean[col] = sum(row[col] for row in rows) / len(rows)
        table.append(mean)
    return table


def _format_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("unexpected boolean cell")
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(table: list[dict], destination) -> None:
    """Write the result table; column order is fixed by CSV_COLUMNS."""
    if not table:
        raise ValueError("refusing to emit an empty table")
    try:
        if destination == "-":
            _write_rows(sys.stdout, table)
        else:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                _write_rows(fh, table)
    except OSError as exc:
        raise OutputError(f"cannot write {destination}: {exc}") from exc


def _write_rows(fh, table: list[dict]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in table:
        writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])


def _parse_area(text: str) -> tuple[float, float]:
    try:
        w, h = text.lower().split("x")
        return float(w), float(h)
    except ValueError as exc:
        raise ConfigError(f"area must look like 1x1, got {text!r}") from exc


def _parse_nodes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad node list {text!r}") from exc


def _parse_rate(text: str) -> tuple[int | str, dict[int, int] | None]:
    if text.startswith("@"):
        path = text[1:]
        rates: dict[int, int] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for ln in fh:
                    if not ln.strip():
                        continue
                    node, rate = map(int, ln.split())
                    if node in rates:
                        raise ValueError(f"duplicate rate line for node {node}")
                    rates[node] = rate
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read rate file {path!r}: {exc}") from exc
        if any(r < 0 for r in rates.values()):
            raise ConfigError("rates must be non-negative")
        return text, rates
    try:
        return int(text), None
    except ValueError as exc:
        raise ConfigError(f"rate must be an integer or @file, got {text!r}") from exc


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trasa",
        description="Run traffic-aware slot-assignment experiments and emit CSV.",
    )
    ap.add_argument("--nodes", default="20,40,60,80,100", help="comma-separated node counts")
    ap.add_argument("--area", default="1x1", help="deployment area, WxH in meters")
    ap.add_argument("--range", dest="range_r", type=float, default=0.4, help="transmission range in meters")
    ap.add_argument("--h", type=int, default=2, help="interference radius in hops")
    ap.add_argument("--max-children", type=int, default=3, help="child limit per tree node")
    ap.add_argument("--heuristic", type=int, choices=(1, 2), default=1, help="1: many descendants first, 2: few first")
    ap.add_argument("--variant", choices=("all", "tree"), default="all", help="interfering links: all graph links or tree links only")
    ap.add_argument("--rate", default="1", help="uniform packets per node, or @file with '<node> <rate>' lines")
    ap.add_argument("--runs", type=int, default=40, help="repetitions per node count")
    ap.add_argument("--seed", type=int, default=1, help="base seed for the whole sweep")
    ap.add_argument("--out", default="-", help="CSV destination path, - for stdout")
    ap.add_argument("--dump-tree", metavar="PATH", help="also dump the first sampled tree")
    ap.add_argument("--dump-schedule", metavar="PATH", help="also dump the first computed schedule")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        rate_value, rates_by_node = _parse_rate(args.rate)
        config = ExperimentConfig(
            n_values=_parse_nodes(args.nodes),
            area=_parse_area(args.area),
            range_r=args.range_r,
            h=args.h,
            max_children=args.max_children,
            heuristic=args.heuristic,
            variant=Variant(args.variant),
            gen_rate=rate_value,
            runs=args.runs,
            base_seed=args.seed,
            rates_by_node=rates_by_node,
        )
        config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        table = run_experiment(config)
        if args.dump_tree or args.dump_schedule:
            graph, tree, _ = sample_instance(config, config.n_values[0], 0)
            if args.dump_tree:
                _dump_artifact(write_tree_file, tree, args.dump_tree)
            if args.dump_schedule:
                conflicts = build_conflict_map(graph, tree, config.variant, config.h)
                schedule = run_trasa(tree, conflicts, config.heuristic)
                _dump_artifact(
                    lambda s, p: write_schedule_file(s, tree, p), schedule, args.dump_schedule
                )
    except CannotSample as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3

    try:
        emit_csv(table, args.out)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    return 0


def _dump_artifact(writer, artifact, path) -> None:
    try:
        writer(artifact, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
