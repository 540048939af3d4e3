"""Self-check of the benchmark itself; run from the repository root.

    python3 perfbench/selfcheck.py

1. A tiny-size run of every workload, untraced and traced, must pass its
   gates and emit exactly the metric names and units BENCHMARK.json lists.
2. The same run with one output interval (or CSV cell) corrupted must
   report failed instances.
3. A copy holding only BENCHMARK.json and perfbench/ (no library sources)
   must exit non-zero without printing a result.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_default", "large_tree_rate4", "oracle_exact")


def run(cwd: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
        if not ok:
            problems.append(label)

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = result_of(run(ROOT, workload, "--size", "tiny", "--trace", trace))
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(f"{workload} trace={trace} metric names and units", emitted == declared[trace],
                  f"missing {sorted(set(declared[trace]) - set(emitted))}, extra {sorted(set(emitted) - set(declared[trace]))}")
            check(f"{workload} trace={trace} gates pass", result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, json.dumps(result)[:300])
        result = result_of(run(ROOT, workload, "--size", "tiny", "--trace", "0", "--corrupt"))
        check(f"{workload} corrupted output is caught", not result["correct"] and result["failed"] > 0,
              json.dumps(result)[:300])

    with tempfile.TemporaryDirectory(prefix=".perfbench-selfcheck-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, WORKLOADS[0], "--trace", "0")
        lines = done.stdout.strip().splitlines()
        check("without library sources: non-zero exit, no result",
              done.returncode != 0 and not (lines and lines[-1].startswith("{")),
              f"exit {done.returncode}, stdout {done.stdout[-200:]!r}")

    print("selfcheck:", "all checks hold" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
