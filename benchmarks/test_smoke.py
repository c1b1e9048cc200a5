"""Smoke test of the benchmark at a tiny size: every declared metric is
emitted with its unit, and no operation fails.

    python3 -m pytest benchmarks -q
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

import run

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    result, details = run.run_workload(workload, seed=1, seconds=0.2, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, details["failures"]
    assert result["correct"]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_traced_self_times_cover_wall_time():
    result, _ = run.run_workload("point", seed=2, seconds=0.2, trace=1, tiny=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in run.spans.SELF_LAYERS)
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
