"""Smoke test of the benchmark itself.

Runs every workload once at tiny size in both modes and checks the result
line: every metric BENCHMARK.json names is present with its unit, and no
invocation failed.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_outputs, expected_for  # noqa: E402
from workloads import make_case  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(bare, "--workload", "cluster-chain", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_labels(path: str, radius: float, labels: np.ndarray, order: list[int]) -> None:
    sizes = np.bincount(labels)[1:]
    colors = ["red", "green", "blue"] + ["x"] * len(order)
    doc = {
        "radius": radius,
        "n": int(labels.size),
        "labels": labels.tolist(),
        "clusters": [
            {"label": c, "size": int(sizes[c - 1]), "rank": r, "color": colors[r - 1]}
            for r, c in enumerate(order, start=1)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_checker_rejects_wrong_partition_and_ranking():
    # At r = 0.7 about half of the chain's steps break: several clusters.
    case = dataclasses.replace(make_case("cluster-chain", 2, tiny=True), radius=0.7)
    expected = expected_for(case)
    labels = expected.labels[0]
    sizes = np.bincount(labels)[1:]
    order = sorted(range(1, sizes.size + 1), key=lambda c: (-sizes[c - 1], c))
    assert len(order) > 2
    work = os.path.join(ROOT, ".perfbench_work", "checker")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "labels.json")
    paths = {"labels": path}

    _write_labels(path, case.radius, labels, order)
    assert check_outputs(case, expected, paths) == []

    merged = np.where(labels == 2, 1, labels)
    merged = np.where(merged > 2, merged - 1, merged)
    _write_labels(path, case.radius, merged, list(range(1, int(merged.max()) + 1)))
    assert check_outputs(case, expected, paths)

    _write_labels(path, case.radius, labels, order[::-1])
    assert check_outputs(case, expected, paths)
    shutil.rmtree(work)
