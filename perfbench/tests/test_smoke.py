"""Smoke test of the benchmark: every workload at reduced size.

Run with ``python -m pytest perfbench/tests``.  Each workload runs once
untraced and once traced; the result must carry exactly the metrics
BENCHMARK.json lists, each with its unit, and no operation may fail.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, section):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # failed_frac
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "plusp-reverse", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    from qphase import plusp, stochastic, wigner

    original = stochastic.noise_block
    t = tracer.Tracer()
    t.install()
    try:
        assert plusp.noise_block is wigner.noise_block is stochastic.noise_block
        assert stochastic.noise_block is not original
        stochastic.noise_block(1, 0, 2, 2)
    finally:
        t.uninstall()
    assert plusp.noise_block is wigner.noise_block is stochastic.noise_block is original
    assert t.layer_values()["stochastic.noise_block.calls"] == 1
