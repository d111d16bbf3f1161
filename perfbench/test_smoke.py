"""Tests of the benchmark harness at smoke sizes; they take seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)

# Sieve passes each smoke command makes at this commit: verify sieves 39
# lambda and 3 mu ranges, sigma-c once per (sigma, X) pair, scan once.
SMOKE_PASSES = {"verify_1e6": 42, "sigma_c_f_one": 15, "scan_1e8": 1}


def harness(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    proc = harness("--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_harness_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_per_layer_metrics(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["liouville.passes"] == SMOKE_PASSES[workload]
    assert metrics["cli.self_s"] > 0


def test_checks_use_the_stated_float_bound():
    ref = {"a": 2.0, "b": 7, "c": None, "d": float("inf"), "e": "converging"}
    got = dict(ref, a=2.0 + 1.5 * workloads.FLOAT_TOL, extra=1)
    assert workloads.compare(ref, got) == []
    assert workloads.compare(ref, dict(got, a=2.0 + 3 * workloads.FLOAT_TOL)) == ["a"]
    assert workloads.compare(ref, dict(got, b=7.0, d=1e308)) == ["b", "d"]
    del got["e"]
    assert workloads.compare(ref, got) == ["e"]


def test_spans_wrap_each_function_once():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spans, zetalab.cli\n"
        "t = spans.Tracer(); spans.install(t); spans.install(t)\n"
        "sys.modules['zetalab.sums'].f_x(1.0, 3000)\n"
        "s = t.summarize(); print(s['passes'], s['n_sieved'], s['groups']['sums']['calls'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT, text=True,
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "3000", "1"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = harness("--workload", "scan_1e8", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
