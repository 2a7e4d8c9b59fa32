"""Self-test of the benchmark harness, at tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py

Every workload runs once untraced and once traced. Each run must emit every
named metric with its unit and no failed item (fail_ratio 0).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

COUNTS = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_without_failures(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        # layer self times plus the harness's own time make up the traced wall time
        assert -1e-6 <= metrics["trace.harness_ms"] <= metrics["trace.wall_ms"]


def test_layer_counts_repeat_for_a_seed():
    first, second = (_result("perturb_small", 1)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == list(catalogue)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("checks_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
