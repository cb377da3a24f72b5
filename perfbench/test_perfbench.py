"""Tests of the benchmark itself: inputs, checks, tracing and the result format.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from photonwalk import algorithms, cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_ops(name, tmp_path, n):
    loop = run.Loop(workloads.build(name, 3, str(tmp_path)))
    for _ in range(n):
        loop.run_one()
    return loop


def test_inputs_are_deterministic_under_a_seed():
    assert workloads.walk_requests_plan(5) == workloads.walk_requests_plan(5)
    assert workloads.walk_requests_plan(5) != workloads.walk_requests_plan(6)
    assert workloads.reference_plan(5) == workloads.reference_plan(5)
    assert workloads.reference_plan(5) != workloads.reference_plan(6)


def test_walk_requests_mix():
    kinds = [kind for kind, _ in workloads.walk_requests_plan(1)]
    dj = sum(k != "bv" for k in kinds)
    assert 2.5 < dj / kinds.count("bv") < 3.5
    assert {"dj-function", "dj-table"} <= set(kinds)


def test_reference_tables_keep_the_promise():
    for table, cls, hidden in workloads.reference_plan(2):
        ones = sum(table)
        assert len(table) == 2**workloads.REFERENCE_N == 1024
        assert ones in (0, 1024) if cls == "constant" else ones == 512
        assert len(hidden) == workloads.REFERENCE_N


@pytest.mark.parametrize("name,n", [("walk-requests", 40), ("verify-gate", 1),
                                    ("reference-n10", 40)])
def test_correct_program_has_no_failures(name, n, tmp_path):
    loop = run_ops(name, tmp_path, n)
    assert (loop.attempted, loop.failed) == (n, 0), loop.errors


def _wrong_probabilities(monkeypatch):
    # Every measurement puts all probability on the all-zero outcome.
    monkeypatch.setattr(algorithms, "measure_position", lambda s: np.eye(4)[0])
    monkeypatch.setattr(algorithms, "measure_joint",
                        lambda s: np.eye(1, 4).reshape(2, 2))


def _failing_suite(monkeypatch):
    def fail(perturb):
        raise AssertionError("injected failure")

    suites = list(cli.ALL_SUITES)
    suites[3] = (suites[3][0], fail)
    monkeypatch.setattr(cli, "ALL_SUITES", tuple(suites))


def _wrong_reference(monkeypatch):
    monkeypatch.setattr(algorithms, "brute_force_reference",
                        lambda scheme, f: np.zeros(2 ** (f.n + 1), dtype=complex))


def _bad_exit_code(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_VERIFY)


@pytest.mark.parametrize("name,fault", [
    ("walk-requests", _wrong_probabilities),
    ("walk-requests", _bad_exit_code),
    ("verify-gate", _failing_suite),
    ("verify-gate", _bad_exit_code),
    ("reference-n10", _wrong_reference),
])
def test_wrong_answers_raise_the_error_count(name, fault, monkeypatch, tmp_path):
    fault(monkeypatch)
    loop = run_ops(name, tmp_path, 8)
    assert loop.attempted == 8
    assert loop.failed > 0


def test_tracer_counts_spans_and_restores_the_program(tmp_path):
    originals = (cli.main, algorithms.run_program, algorithms.BooleanFn.__init__,
                 cli.ALL_SUITES)
    loop = run.Loop(workloads.build("walk-requests", 1, str(tmp_path)),
                    tracing.Tracer(sample_ops=1))
    for _ in range(8):
        loop.run_one()
    assert loop.failed == 0
    assert (cli.main, algorithms.run_program, algorithms.BooleanFn.__init__,
            cli.ALL_SUITES) == originals
    metrics = loop.tracer.per_op()
    assert loop.tracer.ops == 4
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["cli.parse.calls"]["value"] == 1
    assert metrics["walk_core.apply_step.calls"]["value"] > 0
    for name in tracing.SPAN_NAMES:
        assert 0 <= metrics[f"{name}.self_ms"]["value"] <= metrics[f"{name}.total_ms"]["value"]
    ops = {span[0] for span in loop.tracer.spans}
    assert ops == {0}  # only the first traced operation is sampled
    ids = {span[1] for span in loop.tracer.spans}
    assert all(span[5] is None or span[5] in ids for span in loop.tracer.spans)


def test_scaling_removes_a_change_of_machine_speed():
    # The machine halves its speed after 20 operations: operations and kernels
    # both take twice as long, and the scaled latencies stay the same.
    records = [(i, 0.004 * (1 + (i >= 20)), False, 0.002 * (1 + (i >= 20)))
               for i in range(40)]
    scaled = [r[1] * f for r, f in zip(records, run.speed_factors(records))]
    assert scaled == pytest.approx([0.004 * run.CALIBRATION_S / 0.002] * 40)


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert names[:-3] == [f"{n}.{k}" for n in tracing.SPAN_NAMES
                          for k in ("calls", "total_ms", "self_ms")]


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_two_seeds_give_the_same_metric_set(trace, key):
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for seed in ("1", "2"):
        proc = run_bench("--workload", "reference-n10", "--seed", seed,
                         "--seconds", "0.5", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_OPS
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "walk-requests", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
