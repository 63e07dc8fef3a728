"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_bench.py

Every workload must print every end-to-end metric of BENCHMARK.json with
its unit and fail no check, a traced run must print every per-layer
metric, the same seed must give the same inputs, and a directory without
the library must be refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--min-queries", "3"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("META "))[len("META "):])
    return meta, json.loads(lines[-1])


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER_UNITS
    assert WORKLOADS == list(inputs.POOLS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    meta, last = result(proc)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 3
    assert meta["failed_share"] == 0
    assert meta["carrier"] and meta["nproc"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    _, last = result(proc)
    assert last["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    make = inputs.POOLS[workload]
    assert inputs.digest(make(5)) == inputs.digest(make(5))
    assert inputs.digest(make(5)) != inputs.digest(make(6))


def test_refused_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("laws", 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
