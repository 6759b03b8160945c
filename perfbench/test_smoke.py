"""Smoke test of the benchmark at tiny sizes: every workload, untraced and traced.

    python -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no operation fails, that iterations repeat exactly for a fixed seed, and
that the benchmark refuses to run without the package sources.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=HERE.parent):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root)


def parse(child):
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


@functools.cache
def result(workload, trace):
    return parse(run(workload, trace))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_failures(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())


def test_iterations_repeat_for_a_fixed_seed():
    again = parse(run("qp-small", 0))["metrics"]["iterations.mean"]
    assert again == result("qp-small", 0)["metrics"]["iterations.mean"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = run(WORKLOADS[0], 0, root=tmp_path)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
