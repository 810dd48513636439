"""Smoke tests of the benchmark itself, on tiny runs.

Run from the repository root with ``python3 -m pytest perfbench/smoke.py``.
The file name keeps it out of the default test collection: each test
starts the benchmark as a subprocess.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, stdout = _tiny(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines())
    for extra in ("failed_ratio", "reference_units", "wall_op_ms_p50", "wall_setup_s"):
        assert any(line.split()[:1] == [extra] for line in stdout.splitlines()), extra


def test_all_runs_every_workload_in_its_own_process():
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    # each child reports its own high-water mark, not the largest so far
    assert len({result["metrics"][f"{w}.peak_rss_mib"]["value"] for w in WORKLOADS}) > 1
    assert all(f"== {w} " in proc.stdout for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, _ = _tiny(workload, trace=1)
    second, _ = _tiny(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    exact = [k for k, unit in expected.items()
             if unit == "count" or (unit == "ratio" and k != "trace.overhead_ratio")]
    assert exact
    for key in exact:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    spans = ROOT / "perfbench_out" / f"spans-{workload}-seed3.jsonl"
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["op"] for r in records} == set(range(first["metrics"]["trace.ops"]["value"]))
    assert all(r["parent"] is None or r["parent"] < r["id"] for r in records)


def test_fails_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
