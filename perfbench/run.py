"""photonwalk benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload walk-requests --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; photonwalk is imported from ``src/``.
The seed generates the workload's inputs.  Operations run back to back in this
process for ``--seconds`` (and at least ``MIN_OPS`` operations), after a short
warm-up, and every answer is checked.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is the
median over ``SETUP_PROBES`` fresh interpreters of the wall time from spawning
one to the point where it has imported numpy and photonwalk and generated the
inputs, i.e. where it could start its first timed operation.  Latencies and
throughput are scaled to a reference speed by a calibration kernel run after
each operation (see ``CALIBRATION_S``); the summary also gives them unscaled.

With ``--trace 1`` operations alternate between traced and untraced; the
per-layer metrics come from the traced ones and the tracing overhead from the
throughput of the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a readable summary.  Spans and the environment are
also written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("walk-requests", "verify-gate", "reference-n10")
MIN_OPS = 100       # so that at least 10 samples lie beyond p90
MAX_WINDOW_S = 120  # ends a window that has not reached MIN_OPS, so a run ends in time
WARMUP_S = 1.0
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
SAMPLE_OPS = 10     # operations whose raw spans are kept
# The machine's speed drifts by up to 1.6x over minutes.  Timed end-to-end
# metrics are therefore scaled to the speed at which the calibration kernel
# takes CALIBRATION_S, measured around each operation.
CALIBRATION_S = 1e-3
NEIGHBOURS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_sources() -> None:
    """Exit 2 unless this checkout holds photonwalk's sources."""
    if not (SRC / "photonwalk" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no photonwalk sources under {SRC}\n")
        sys.exit(2)


def import_program() -> None:
    """Import photonwalk from this checkout's ``src/``, or exit 2."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import photonwalk

    if Path(photonwalk.__file__).resolve().parent != SRC / "photonwalk":
        sys.stderr.write(f"perfbench: imported photonwalk from {photonwalk.__file__}\n")
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its being ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return ready - start


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def calibration_kernel(np) -> None:
    """Fixed work in the mix photonwalk spends its time on: a pure-Python
    loop, small numpy calls, dict and JSON handling, and a pass over a few
    thousand list items and array elements.  It never calls photonwalk, so a
    change to the program does not change its time."""
    sum(i * i for i in range(2000))
    amps, coin = np.zeros(8, dtype=complex), np.eye(2)
    for k in range(30):
        amps[k % 4], amps[4 + k % 4] = coin @ np.array([amps[k % 4], amps[4 + k % 4]])
    table = {str(i): [i, i * 2.0, (i,)] for i in range(60)}
    json.loads(json.dumps(table))
    sorted(table, key=lambda key: table[key][1])
    items = [k * 7 % 1024 for k in range(1024)]
    tuple(int(x) & 1 for x in items)
    vec = np.arange(1024, dtype=complex)
    np.abs(vec * vec[::-1]).sum()
    sorted(items)


def timed_kernel() -> float:
    import numpy as np

    start = time.perf_counter()
    calibration_kernel(np)
    return time.perf_counter() - start


class Loop:
    """Closed loop with one client: the next operation starts when one ends.

    With ``calibrate`` the calibration kernel runs, timed on its own, after
    every operation.
    """

    def __init__(self, op, tracer=None, calibrate=False):
        self.op = op
        self.tracer = tracer
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.records = []   # (start, latency, traced, kernel seconds or None)

    def run_one(self) -> float:
        i = self.attempted
        traced = self.tracer is not None and i % 2 == 0
        if traced:
            self.tracer.install(i)
        start = time.perf_counter()
        try:
            self.op(i)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        finally:
            end = time.perf_counter()
            if traced:
                self.tracer.uninstall()
        self.attempted += 1
        kernel = timed_kernel() if self.calibrate else None
        self.records.append((start, end - start, traced, kernel))
        return time.perf_counter()

    def run(self, seconds: float, min_ops: int) -> float:
        """Run for ``seconds`` and at least ``min_ops`` operations; returns the window.

        The window is cut at ``MAX_WINDOW_S`` even if it has fewer operations.
        """
        start = time.perf_counter()
        deadline = start + seconds
        first = self.attempted
        while True:
            end = self.run_one()
            enough = self.attempted - first >= min_ops or end - start >= MAX_WINDOW_S
            if end >= deadline and enough:
                return end - start


def speed_factors(records: list) -> list:
    """Per record, ``CALIBRATION_S`` over the median time of the kernels run
    within ``NEIGHBOURS`` operations of it: the machine's speed at that time."""
    kernels = [r[3] for r in records]
    return [
        CALIBRATION_S / statistics.median(kernels[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
        for i in range(len(kernels))
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        loop = Loop(workloads.build(workload, seed, workdir), calibrate=not trace)
        warmup_end = time.perf_counter() + WARMUP_S
        while loop.run_one() < warmup_end or loop.attempted < 2:
            pass
        loop.records = []
        if trace:
            import tracing

            loop.tracer = tracing.Tracer(SAMPLE_OPS)
        window = loop.run(seconds, MIN_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return loop, window


def end_to_end(loop: Loop, setup: list) -> dict:
    """The metrics of ``--trace 0``; latencies are scaled to the reference speed."""
    lat = sorted(r[1] * f for r, f in zip(loop.records, speed_factors(loop.records)))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(lat, 0.5) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": percentile(lat, 0.9) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(loop: Loop) -> dict:
    traced = [r[1] for r in loop.records if r[2]]
    untraced = [r[1] for r in loop.records if not r[2]]
    traced_rate = len(traced) / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    metrics = loop.tracer.per_op()
    metrics["trace.traced_ops_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.untraced_ops_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {
        "value": (untraced_rate / traced_rate - 1.0) * 100, "unit": "%"}
    return metrics


def summary(args, loop: Loop, window: float, metrics: dict) -> list:
    n = len(loop.records)
    lines = [
        f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
        f"{n} timed operations in {window:.3f} s, "
        f"{loop.attempted} attempted (warm-up included), {loop.failed} failed",
        f"  error_rate {loop.failed / loop.attempted:.6g} (wrong answers, bad exit "
        f"codes and exceptions / attempted)",
    ]
    if not args.trace:
        wall = sorted(r[1] for r in loop.records)
        speed = statistics.median(r[3] for r in loop.records) / CALIBRATION_S
        lines += [
            f"  latency samples {n}, {n - math.ceil(n * 0.9)} beyond p90",
            f"  wall clock: throughput {n / sum(wall):.6g} 1/s, p50 "
            f"{percentile(wall, 0.5) * 1e3:.6g} ms, p90 {percentile(wall, 0.9) * 1e3:.6g} ms; "
            f"calibration kernel {speed:.4g}x its reference time",
        ]
    for name, m in metrics.items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    lines += [f"  error: {e}" for e in loop.errors]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    check_sources()
    if args.probe_setup:
        import_program()
        import workloads

        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT_DIR) as workdir:
            workloads.build(args.workload, args.seed, workdir)
            print("ready", flush=True)
        return 0

    # Half the set-up probes run before the window and half after it, so the
    # median spans the machine's speed over the whole run.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = [probe_setup(args.workload, args.seed) for _ in range(probes)]
    import_program()
    loop, window = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    setup += [probe_setup(args.workload, args.seed) for _ in range(probes)]
    metrics = per_layer(loop) if args.trace else end_to_end(loop, setup)

    env = environment()
    print("env: " + json.dumps(env))
    for line in summary(args, loop, window, metrics):
        print(line)
    if args.trace:
        if loop.tracer.missing:
            print("  not found, reported as 0: " + ", ".join(loop.tracer.missing))
        record = {"env": env, "workload": args.workload, "seed": args.seed,
                  "span_fields": ["op", "id", "name", "start_ns", "end_ns", "parent"],
                  "spans": loop.tracer.spans, "metrics": metrics}
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record))
        print(f"  spans of the first {SAMPLE_OPS} traced operations: "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
