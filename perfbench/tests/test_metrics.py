"""The printed metrics match BENCHMARK.json; the layer map names real metrics."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run

ROOT = run.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["small-calls", "bulk-copy", "nemesis"]


def test_layer_map_names_real_metrics():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    workloads = {w["name"] for w in benchmark_json()["workloads"]}
    for entry in layer_map["predictions"]:
        assert set(entry.get("invariant", [])) <= set(run.PER_LAYER)
        for name in entry["layer_metrics"]:
            assert any(
                metric == name or (name.endswith("*") and metric.startswith(name[:-1]))
                for metric in run.PER_LAYER
            ), name
        for name in entry["moves"] + entry.get("unchanged", []):
            metric, _, workload = name.partition("@")
            assert workload in workloads, name
            assert any(
                m == metric or (metric.startswith("*") and m.endswith(metric[1:]))
                for m in run.END_TO_END
            ), name


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_printed_metrics_match(trace, table):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "small-calls", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
