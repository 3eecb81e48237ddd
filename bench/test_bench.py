"""Smoke test of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Uses ``--smoke`` sizes, so the whole file takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from metrics import END_TO_END, PER_LAYER, WORK_NAMES, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(workload, trace, seed=3, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return lines[:-1], result


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    report, result = _result(_run(workload, 0))
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, (unit, _) in END_TO_END.items():
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0, name
    text = "\n".join(report)
    for name in [*END_TO_END, "failed_frac", "digest", WORK_NAMES[workload]]:
        assert name in text, name
    # Only the known CLI defects may fail, and they stay counted until fixed.
    assert " 0 outside the known defects)" in text
    if workload != "cli":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_for_a_fixed_seed(workload):
    runs = [_result(_run(workload, 1, seed=5)) for _ in range(2)]
    (report, first), (_, second) = runs
    assert list(first["metrics"]) == PER_LAYER
    calls = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        for _, r in runs
    ]
    assert calls[0] == calls[1]
    assert any(calls[0].values())
    assert "trace.overhead_s" in "\n".join(report)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("pointwise", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
