import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trasa import experiment_cli, metrics
from trasa.experiment_cli import (
    CSV_COLUMNS,
    CannotSample,
    ConfigError,
    ExperimentConfig,
    RateFile,
    _parse_rate,
    _run_point,
    derive_seed,
    emit_csv,
    main,
    run_experiment,
    sample_instance,
)
from trasa.scheduler import Variant, build_conflict_map, dump_schedule, run_trasa
from trasa.topology import is_connected
from trasa.tree import dump_tree

from conftest import count_ball_builds

DATA = Path(__file__).parent / "data"


def small_config(**overrides) -> ExperimentConfig:
    base = dict(n_values=[5, 8], range_r=0.6, runs=2, base_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_seed_derivation_is_a_documented_hash():
    assert derive_seed(7, 5, 0, 0) == int.from_bytes(
        hashlib.sha256(b"7:5:0:0").digest()[:8], "big"
    )
    # frozen reference values guard against accidental re-keying
    assert derive_seed(7, 5, 0, 0) == 904639543511567520
    assert derive_seed(7, 5, 0, 1) == 275654040288506677
    assert derive_seed(1, 50, 39, 0) == 1426552235469932038


def test_sampled_instances_are_connected_and_reproducible():
    cfg = small_config()
    g1, t1, seed1 = sample_instance(cfg, 8, 1)
    g2, t2, seed2 = sample_instance(cfg, 8, 1)
    assert seed1 == seed2
    assert g1.positions == g2.positions
    assert t1.parent == t2.parent
    assert is_connected(g1)


def test_run_experiment_row_counts_and_determinism():
    cfg = small_config()
    table = run_experiment(cfg)
    # 2 runs + 1 mean row per n value
    assert len(table) == 2 * (2 + 1)
    assert [row["run_index"] for row in table] == [0, 1, -1, 0, 1, -1]
    again = run_experiment(small_config())
    assert again == table


def test_mean_rows_are_arithmetic_means():
    cfg = small_config(runs=5)
    table = run_experiment(cfg)
    for n in cfg.n_values:
        rows = [r for r in table if r["n"] == n and r["run_index"] >= 0]
        mean = next(r for r in table if r["n"] == n and r["run_index"] == -1)
        assert len(rows) == 5
        for col in ("cycle_length", "slot_reuse", "avg_delay", "max_buffer"):
            assert mean[col] == pytest.approx(sum(r[col] for r in rows) / 5)
        assert mean["seed"] == cfg.base_seed


def test_csv_matches_golden_file(tmp_path):
    table = run_experiment(small_config())
    out = tmp_path / "sweep.csv"
    emit_csv(table, out)
    assert out.read_bytes() == (DATA / "golden_small.csv").read_bytes()


def test_cli_tree_rate3_matches_golden_file(capsys):
    # TREE_ONLY rate 3 at h=1: runs many slots wide, buffers of 12-36 packets
    args = ["--nodes", "10,30", "--variant", "tree", "--h", "1", "--rate", "3", "--runs", "5", "--seed", "7"]
    assert main(args) == 0
    assert capsys.readouterr().out == (DATA / "golden_tree_rate3.csv").read_text()


@pytest.mark.parametrize(
    "config, golden",
    [
        (small_config(), "golden_small.csv"),
        (small_config(n_values=[10, 30], range_r=0.4, variant=Variant.TREE_ONLY, h=1, gen_rate=3, runs=5),
         "golden_tree_rate3.csv"),
    ],
)
def test_csv_path_builds_no_packets(monkeypatch, tmp_path, config, golden):
    def refuse(*_args):
        raise AssertionError("the CSV path replayed packets")

    monkeypatch.setattr(metrics, "_replay", refuse)
    out = tmp_path / "sweep.csv"
    emit_csv(run_experiment(config), out)
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_run_point_builds_one_labelling(monkeypatch, tmp_path):
    # the CSV path labels each point's conflict map once, in run_trasa's priority order
    calls = count_ball_builds(monkeypatch)
    out = tmp_path / "sweep.csv"
    config = small_config()
    emit_csv(run_experiment(config), out)
    assert out.read_bytes() == (DATA / "golden_small.csv").read_bytes()
    assert len(calls) == len(set(map(id, calls))) == len(config.n_values) * config.runs
    for variant in Variant:  # the default sweep's density, where windows close early
        calls.clear()
        row, _, _ = _run_point(ExperimentConfig(n_values=[100], variant=variant), 100, 0)
        assert row["cycle_length"] >= row["lower_bound"]
        assert len(calls) == 1


def test_csv_line_count_for_forty_runs(tmp_path):
    cfg = small_config(n_values=[6], runs=40)
    out = tmp_path / "forty.csv"
    emit_csv(run_experiment(cfg), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 42  # header + 40 runs + mean
    assert lines[0] == ",".join(CSV_COLUMNS)


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        small_config(n_values=[]).validate()
    with pytest.raises(ConfigError):
        small_config(runs=0).validate()
    with pytest.raises(ConfigError):
        small_config(heuristic=3).validate()
    with pytest.raises(ConfigError):
        small_config(h=0).validate()
    with pytest.raises(ConfigError):
        small_config(range_r=-0.4).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            small_config(range_r=bad).validate()
        with pytest.raises(ConfigError):
            small_config(area=(bad, 1.0)).validate()
        with pytest.raises(ConfigError):
            small_config(area=(1.0, bad)).validate()
    # unchecked, area (1.0,) raised IndexError while sampling, (1.0, 1.0, 5.0) was cut to
    # its first two sides, and range "0.4" raised TypeError
    for bad in ((1.0,), (1.0, 1.0, 5.0), 1.0, ("1", "1")):
        with pytest.raises(ConfigError, match="area"):
            small_config(area=bad).validate()
    for bad in ("0.4", True):
        with pytest.raises(ConfigError, match="range"):
            small_config(range_r=bad).validate()
    # rate-file ids must name non-sink nodes of the largest sampled graph
    for node in (0, -1, 8, 999):
        with pytest.raises(ConfigError):
            small_config(gen_rate=RateFile("rates", {1: 2, node: 5})).validate()
    small_config(gen_rate=RateFile("rates", {1: 2, 7: 5})).validate()
    with pytest.raises(ConfigError, match="negative rate for node 1"):
        small_config(gen_rate=RateFile("rates", {1: -2})).validate()
    with pytest.raises(ConfigError):
        small_config(gen_rate="@rates").validate()  # a plain @-string is not a rate file
    with pytest.raises(ConfigError, match="map node ids"):
        small_config(gen_rate=RateFile("rates", [1, 2])).validate()
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("1 2\n1 3\n")
    with pytest.raises(ConfigError):
        _parse_rate(f"@{repeated}")  # a second line for node 1 is not a silent override


# every rule of ExperimentConfig.validate and its exact message
CONFIG_MESSAGES = [
    (dict(n_values=5), "n_values must be a sequence of node counts, got 5"),
    (dict(n_values=[]), "n_values must be non-empty positive integers"),
    (dict(n_values=[0]), "n_values must be non-empty positive integers"),
    (dict(n_values=[5.5]), "n_values entry must be an integer, got 5.5"),
    (dict(area=(1,)), "area must be two numbers (width, height), got (1,)"),
    (dict(area=None), "area must be two numbers (width, height), got None"),
    (dict(area=(0.0, 1.0)), "area dimensions must be finite and positive"),
    (dict(range_r=0), "range must be finite and positive"),
    (dict(range_r="0.4"), "range must be finite and positive"),
    (dict(h=1.5), "h must be an integer, got 1.5"),
    (dict(h=0), "h must be >= 1"),
    (dict(max_children=2.5), "max_children must be an integer, got 2.5"),
    (dict(max_children=0), "max_children must be >= 1"),
    (dict(heuristic=True), "heuristic must be an integer, got True"),
    (dict(heuristic=2.0), "heuristic must be an integer, got 2.0"),
    (dict(heuristic=3), "heuristic must be 1 or 2"),
    (dict(variant="all"), "variant must be a Variant"),
    (dict(runs=True), "runs must be an integer, got True"),
    (dict(runs=0), "runs must be >= 1"),
    (dict(base_seed="x"), "base_seed must be an integer, got 'x'"),
    (dict(base_seed=1.5), "base_seed must be an integer, got 1.5"),
    (dict(gen_rate=RateFile("r", [1])), "rate file rates must map node ids to rates, got [1]"),
    (dict(gen_rate=RateFile("r", {1: 1.5})), "rate of node 1 must be an integer, got 1.5"),
    (dict(gen_rate=RateFile("r", {1: -1})), "negative rate for node 1"),
    (dict(gen_rate=RateFile("r", {1.5: 1})), "rate file node id must be an integer, got 1.5"),
    (dict(gen_rate=RateFile("r", {0: 1})), "rate file names the sink or ids outside 1..7: [0]"),
    (dict(gen_rate=True), "uniform rate must be an integer, got True"),
    (dict(gen_rate="@r"), "uniform rate must be an integer, got '@r'"),
    (dict(gen_rate=0), "uniform rate must be >= 1"),
]


@pytest.mark.parametrize("overrides, message", CONFIG_MESSAGES, ids=[repr(o) for o, _ in CONFIG_MESSAGES])
def test_config_validation_messages(overrides, message):
    with pytest.raises(ConfigError) as caught:
        small_config(**overrides).validate()
    assert str(caught.value) == message


def test_config_counts_must_be_integers():
    # unchecked, runs=1.5 and n_values=[5.5] pass validate() and then raise TypeError
    # in run_experiment, max_children=2.5, h=1.5 and a per-node rate of 1.5 or True
    # surface as the tree's ValueError, heuristic=True fails in emit_csv after the
    # whole sweep, heuristic=2.0 puts a float in the rows, a rate-file node id of 1.5 is
    # ignored while True is read as node 1, base_seed=1.5 runs another seed stream,
    # base_seed=True fails in emit_csv and base_seed="7" silently runs as 7
    per_node = [dict(gen_rate=RateFile("rates", rates)) for rates in ({1: 1.5}, {1: True}, {1.5: 3}, {True: 4})]
    for bad in (
        dict(runs=1.5), dict(n_values=[5.5]), dict(max_children=2.5), dict(h=1.5), dict(runs=True),
        dict(gen_rate=True), dict(heuristic=True), dict(heuristic=2.0), *per_node,
        dict(base_seed=1.5), dict(base_seed=True), dict(base_seed="7"),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            run_experiment(small_config(**bad))
    wide = small_config(n_values=[np.int64(5)], runs=np.int64(2), h=np.int64(2), max_children=np.int64(3))
    assert run_experiment(wide) == run_experiment(small_config(n_values=[5], runs=2, h=2, max_children=3))
    # a NumPy integer rate was refused as an unresolved rate setting
    assert run_experiment(small_config(gen_rate=np.int64(2))) == run_experiment(small_config(gen_rate=2))
    assert run_experiment(small_config(base_seed=np.int64(7))) == run_experiment(small_config())


def test_emit_csv_refuses_empty_table(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "x.csv")


def test_cannot_sample_surfaces():
    # with a vanishing range every draw is disconnected
    cfg = ExperimentConfig(n_values=[5], range_r=1e-9, runs=1, base_seed=3)
    import trasa.experiment_cli as mod

    old = mod.MAX_ATTEMPTS
    mod.MAX_ATTEMPTS = 25
    try:
        with pytest.raises(CannotSample):
            run_experiment(cfg)
    finally:
        mod.MAX_ATTEMPTS = old


def test_cli_writes_csv_and_dumps(tmp_path, capsys):
    out = tmp_path / "result.csv"
    tree_path = tmp_path / "first.tree"
    sched_path = tmp_path / "first.sched"
    code = main(
        [
            "--nodes", "6",
            "--range", "0.6",
            "--runs", "2",
            "--seed", "5",
            "--out", str(out),
            "--dump-tree", str(tree_path),
            "--dump-schedule", str(sched_path),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("n,run_index,seed,")
    # the dumps are the first point's tree and schedule, byte for byte
    tree_text, schedule_text = _first_point_dumps(ExperimentConfig(n_values=[6], range_r=0.6, runs=2, base_seed=5))
    assert tree_path.read_bytes() == tree_text.encode()
    assert sched_path.read_bytes() == schedule_text.encode()


def _first_point_dumps(config: ExperimentConfig) -> tuple[str, str]:
    graph, tree, _ = sample_instance(config, config.n_values[0], 0)
    schedule = run_trasa(tree, build_conflict_map(graph, tree, config.variant, config.h), config.heuristic)
    return dump_tree(tree), dump_schedule(schedule, tree)


def test_cli_dump_tree_alone_is_the_first_point(tmp_path, capsys):
    tree_path = tmp_path / "first.tree"
    args = ["--nodes", "5,8", "--range", "0.6", "--runs", "2", "--seed", "7", "--dump-tree", str(tree_path)]
    assert main(args) == 0
    assert capsys.readouterr().out == (DATA / "golden_small.csv").read_text()
    assert tree_path.read_bytes() == _first_point_dumps(small_config())[0].encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.tree"]


def test_cli_dumps_sample_no_extra_topology(monkeypatch, tmp_path, capsys):
    # the dumps are the sweep's own first point, not a second sampling of it
    draw = experiment_cli.generate_random_graph
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(experiment_cli, "generate_random_graph", counted)
    args = ["--nodes", "5,8", "--range", "0.6", "--runs", "2", "--seed", "7"]
    assert main(args) == 0
    plain, calls = calls, 0
    dumps = ["--dump-tree", str(tmp_path / "first.tree"), "--dump-schedule", str(tmp_path / "first.sched")]
    assert main(args + dumps) == 0
    assert calls == plain
    assert capsys.readouterr().out == 2 * (DATA / "golden_small.csv").read_text()
    tree_text, schedule_text = _first_point_dumps(small_config())
    assert (tmp_path / "first.tree").read_bytes() == tree_text.encode()
    assert (tmp_path / "first.sched").read_bytes() == schedule_text.encode()


def test_cli_stdout_default(capsys):
    code = main(["--nodes", "5", "--range", "0.6", "--runs", "1", "--seed", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,run_index,seed,")


def test_python_dash_m_trasa_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "trasa", "--nodes", "5", "--runs", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith(",".join(CSV_COLUMNS) + "\n")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--nodes", "0", "--runs", "1"]) == 1
    assert main(["--nodes", "5", "--area", "bogus"]) == 1
    assert main(["--nodes", "5", "--rate", "@/no/such/file"]) == 1
    # non-finite geometry is a config error, not 10,000 edgeless draws
    assert main(["--nodes", "5", "--range", "nan"]) == 1
    assert main(["--nodes", "5", "--area", "nanx1"]) == 1
    assert main(["--nodes", "5", "--area", "1xinf"]) == 1
    # a rate file naming a node no sampled graph has, or the sink
    for line in ("999 5", "0 7", "-1 2", "5 1"):
        rates = tmp_path / "rates.txt"
        rates.write_text(f"1 2\n{line}\n")
        assert main(["--nodes", "3,5", "--runs", "1", "--rate", f"@{rates}"]) == 1
    # two lines for the same node
    rates.write_text("1 2\n1 3\n")
    assert main(["--nodes", "5", "--runs", "1", "--range", "0.6", "--rate", f"@{rates}"]) == 1
    # unwritable destination -> I/O failure
    assert main(["--nodes", "5", "--range", "0.6", "--runs", "1", "--out", str(tmp_path / "no" / "dir.csv")]) == 3
    capsys.readouterr()
    # a command line argparse rejects is bad configuration too, not a sampling failure
    for extra in (["--heuristic", "3"], ["--variant", "foo"], ["--h", "x"], ["--runs", "1.5"], ["--bogus"]):
        assert main(["--nodes", "5", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: trasa")


@pytest.mark.parametrize("flag", ["--dump-tree", "--dump-schedule"])
def test_cli_dump_into_missing_directory_is_an_output_error(tmp_path, capsys, flag):
    dump = tmp_path / "no" / "first.dump"
    assert main(["--nodes", "5", "--range", "0.6", "--runs", "1", flag, str(dump)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"output error: cannot write {dump}:")


def test_cli_negative_rate_file_is_a_config_error(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("1 -2\n")
    assert main(["--nodes", "5", "--runs", "1", "--rate", f"@{rates}"]) == 1
    assert capsys.readouterr().err == "config error: negative rate for node 1\n"


def test_cli_sampling_failure_exit_code(monkeypatch, capsys):
    import trasa.experiment_cli as mod

    monkeypatch.setattr(mod, "MAX_ATTEMPTS", 10)
    assert main(["--nodes", "5", "--range", "1e-9", "--runs", "1"]) == 2
    capsys.readouterr()


def test_cli_rate_file(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("1 2\n2 3\n")
    out = tmp_path / "rated.csv"
    code = main(
        ["--nodes", "5", "--range", "0.6", "--runs", "1", "--seed", "2", "--rate", f"@{rates}", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("rate")] == f"@{rates}"


def test_variant_token_round_trips():
    cfg = small_config(variant=Variant.TREE_ONLY)
    table = run_experiment(cfg)
    assert all(row["variant"] == "tree" for row in table)
