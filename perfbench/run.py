"""Run one benchmark workload of the trasa library and print its metrics.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 36 --trace 0

Run from the repository root; the library is imported from ./src. Workloads
are sweep_default, large_tree_rate4 and oracle_exact (see README.md). One
process, one instance at a time, numpy/BLAS threads pinned to 1.

--trace 0 times whole passes with no instrumentation and reports the
end-to-end metrics. --trace 1 alternates untraced and traced passes over the
same inputs and reports per-layer self times and counts, plus the tracing
overhead. Comment lines (`# ...`) give the environment, the per-instance
percentiles with their sample counts and failed_frac; the last stdout line
is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
PROBES_PER_PASS = 2
# Typical calibration-kernel time on the 2-vCPU Intel Xeon virtual machine the
# baseline was measured on; reported times are scaled to that speed.
REF_CALIBRATION_S = 0.002
TICK_S = 0.25
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "instance_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep_default", "large_tree_rate4", "oracle_exact"))
    ap.add_argument("--seed", type=int, default=1, help="workload seed; 1 is the pinned default")
    ap.add_argument("--seconds", type=float, default=36.0, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for selfcheck.py")
    ap.add_argument("--corrupt", action="store_true", help="drop one output interval (selfcheck.py)")
    ap.add_argument("--setup-only", action="store_true", help="import, build inputs, warm up, exit")
    return ap.parse_args(argv)


def import_library():
    """Import trasa from this checkout's src/, refusing any other copy."""
    if not (SRC / "trasa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trasa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import trasa

    if Path(trasa.__file__).resolve().parent != (SRC / "trasa").resolve():
        raise SystemExit(f"perfbench: imported trasa from {trasa.__file__}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (it may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def probe_setup(args) -> float:
    """Seconds for a fresh interpreter to import, build pass-0 inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return elapsed


def prepare(workload, args):
    inputs = workload.make_inputs(args.seed, 0, args.size)
    workload.run(workload.make_inputs(args.seed, 0, "tiny"), False)  # warm-up
    return inputs


def _kernel() -> int:
    # Integer arithmetic only: no allocation, so its speed follows the CPU
    # and not the state of the allocator the workload left behind.
    acc = 0
    for i in range(25000):
        acc += i * i % 7
    return acc


def _kernel_time() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of 5 timings of a fixed pure-Python kernel that never touches trasa."""
    return statistics.median(_kernel_time() for _ in range(5))


class Meter:
    """Machine-speed samples before, during and after one pass.

    The workload calls `tick` between instances; at most every TICK_S it
    times one kernel run. The samples cut the pass into segments, and each
    segment is scaled to reference speed by the mean of the samples at its
    two ends. Sampling time lies outside every segment and every instance.
    """

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []  # (start, end, kernel time)
        self._sample(calibrate)

    def _sample(self, timer) -> None:
        t0 = time.perf_counter()
        kernel = timer()
        self.points.append((t0, time.perf_counter(), kernel))

    def tick(self) -> None:
        if time.perf_counter() - self.points[-1][1] >= TICK_S:
            self._sample(_kernel_time)

    def finish(self) -> None:
        self._sample(calibrate)

    def _factors(self) -> list[float]:
        return [2 * REF_CALIBRATION_S / (a[2] + b[2]) for a, b in zip(self.points, self.points[1:])]

    def _gaps(self) -> list[float]:
        return [b[0] - a[1] for a, b in zip(self.points, self.points[1:])]

    def raw(self) -> float:
        return sum(self._gaps())

    def scaled(self) -> float:
        return sum(g * f for g, f in zip(self._gaps(), self._factors()))

    def scale(self, start: float, end: float) -> float:
        """Scaled duration of an interval lying inside one segment."""
        segment = bisect.bisect_right([p[1] for p in self.points], start) - 1
        return (end - start) * self._factors()[min(max(segment, 0), len(self.points) - 2)]


def measure(workload, args, inputs):
    """Untraced passes, each on fresh inputs, until the next would overrun --seconds.

    Set-up probes run between passes, PROBES_PER_PASS at a time, so that
    they sample the machine at different moments; each is scaled by the
    calibrations right before and after it, and their time is not part of
    the --seconds budget. Returns raw and scaled pass times, scaled
    instance latencies, pass results and scaled probe times.
    """
    raw, scaled, latencies, results, setups = [], [], [], [], []
    started = time.perf_counter()
    while True:
        meter = Meter()
        results.append(workload.run(inputs, args.corrupt, meter.tick))
        meter.finish()
        raw.append(meter.raw())
        scaled.append(meter.scaled())
        latencies.extend(meter.scale(a, b) for a, b in results[-1].latencies)
        t0 = time.perf_counter()
        for _ in range(min(PROBES_PER_PASS, SETUP_PROBES - len(setups))):
            setups.append(scaled_probe(args))
        started += time.perf_counter() - t0
        if time.perf_counter() - started + statistics.median(raw) > args.seconds:
            break
        inputs = workload.make_inputs(args.seed, len(results), args.size)
    while len(setups) < SETUP_PROBES:
        setups.append(scaled_probe(args))
    return raw, scaled, latencies, results, setups


def scaled_probe(args) -> float:
    before = calibrate()
    elapsed = probe_setup(args)
    return elapsed * 2 * REF_CALIBRATION_S / (before + calibrate())


def measure_traced(workload, args, inputs):
    """Pairs of one untraced and one traced pass over the same inputs, until --seconds.

    The order inside a pair alternates so that a slow moment of the machine
    does not always land on the same side. Pass times are scaled as in
    `measure`; span times are raw.
    """
    from tracer import ROOT_SPAN, Tracer, median_summary

    started = time.perf_counter()
    walls = {False: [], True: []}
    results, summaries = [], []
    while True:
        for traced in (False, True) if len(results) % 4 == 0 else (True, False):
            tracer = Tracer()
            meter = Meter()
            if traced:
                tracer.install()
            try:
                root = tracer.open(ROOT_SPAN)
                try:
                    results.append(workload.run(inputs, args.corrupt, meter.tick))
                finally:
                    tracer.close(root)
            finally:
                tracer.uninstall()
            meter.finish()
            walls[traced].append(meter.scaled())
            if traced:
                tracer.counts.update(results[-1].counts)
                summaries.append(tracer.summary())
        if time.perf_counter() - started + sum(statistics.median(w) for w in walls.values()) > args.seconds:
            break
    layer = median_summary(summaries)
    layer["trace.untraced_wall_s"] = statistics.median(walls[False])
    layer["trace.traced_wall_s"] = statistics.median(walls[True])
    layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - layer["trace.untraced_wall_s"]
    return layer, results


def check_digest(workload, args, first) -> str:
    """Compare pass 0's output digest with the one pinned for the default seed.

    A mismatch fails every instance of that pass.
    """
    from workloads import DEFAULT_SEED

    if args.seed != DEFAULT_SEED or args.size != "full":
        return "not pinned for this seed and size"
    pinned = json.loads((HERE / "expected.json").read_text())[workload.name]
    if first.digest == pinned:
        return "matches pinned"
    first.failed = first.instances
    return f"MISMATCH, pinned {pinned}"


def dominant_check(workload, layer) -> str:
    from tracer import LAYERS

    expected = workload.dominant
    own = sum(layer[f"{name}.self_s"] for name in expected)
    others = {name: layer[f"{name}.self_s"] for name in LAYERS if name not in expected}
    rival = max(others, key=others.get)
    verdict = "as expected" if own > others[rival] else "MISMATCH"
    return f"{'+'.join(expected)} self {own:.4f} s vs largest other {rival} {others[rival]:.4f} s: {verdict}"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    from tracer import layer_unit

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        prepare(workload, args)
        return 0

    print("# env " + json.dumps(environment(args), sort_keys=True))
    inputs = prepare(workload, args)

    if args.trace:
        metrics, results = measure_traced(workload, args, inputs)
        print(f"# dominant self-time layer: {dominant_check(workload, metrics)}")
    else:
        raw, scaled, latencies, results, setups = measure(workload, args, inputs)
        print(f"# raw wall_s median {statistics.median(raw):.4f} s, scaled {statistics.median(scaled):.4f} s")
    status = check_digest(workload, args, results[0])
    print(f"# pass 0 output digest {results[0].digest}: {status}")

    for result in results:
        for note in result.notes:
            print(f"# note: {note}")
    attempted = sum(r.instances for r in results)
    failed = sum(r.failed for r in results)
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} instances, {len(results)} passes)")

    if not args.trace:
        latencies = [t * 1000 for t in latencies]
        p50 = statistics.median(latencies)
        line = f"# instance_ms_p50 {p50:.4f} ms over {len(latencies)} instances"
        if len(latencies) >= 2:
            p95 = statistics.quantiles(latencies, n=20)[18]
            beyond = sum(t > p95 for t in latencies)
            if beyond >= 10:
                line += f"; instance_ms_p95 {p95:.4f} ms ({beyond} beyond)"
            else:
                line += f"; instance_ms_p95 not reported ({beyond} samples beyond it, fewer than 10)"
        print(line)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(scaled),
            "instances_per_s": attempted / sum(scaled),
            "instance_ms_p50": p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    units = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
