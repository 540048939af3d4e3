import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trasa.experiment_cli import (
    CSV_COLUMNS,
    CannotSample,
    ConfigError,
    ExperimentConfig,
    _parse_rate,
    derive_seed,
    emit_csv,
    main,
    run_experiment,
    sample_instance,
)
from trasa.scheduler import Variant
from trasa.topology import is_connected

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
    # rate-file ids must name non-sink nodes of the largest sampled graph
    for node in (0, -1, 8, 999):
        with pytest.raises(ConfigError):
            small_config(gen_rate="@rates", rates_by_node={1: 2, node: 5}).validate()
    small_config(gen_rate="@rates", rates_by_node={1: 2, 7: 5}).validate()
    with pytest.raises(ConfigError):
        small_config(gen_rate="@rates").validate()  # an @file setting with no rates read
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("1 2\n1 3\n")
    with pytest.raises(ConfigError):
        _parse_rate(f"@{repeated}")  # a second line for node 1 is not a silent override


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
    # the dumped tree belongs to the first sampled instance
    assert tree_path.read_text().splitlines()[0].startswith("0 -1 0")
    assert sched_path.read_text().startswith("schedule ")


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
