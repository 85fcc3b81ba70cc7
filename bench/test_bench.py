"""Self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
from subspace_align import bounds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _overstated(evaluate_instance):
    """evaluate_instance, but every report claims measured > xi."""

    def evaluate(*args, **kwargs):
        rep = evaluate_instance(*args, **kwargs)
        return dataclasses.replace(rep, measured=2.0 * rep.xi + 1.0)

    return evaluate


# figures: every sweep row breaks the bound; tall_files: the bounds command,
# one op in three, reports the bad pair
@pytest.mark.parametrize("name, failing", [("figures", 1), ("instances", 1), ("tall_files", 1 / 3)])
def test_injected_fault_is_counted(name, failing, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    loop = worker.Loop(workload)
    original = bounds.evaluate_instance
    undo = spans.rebind([(original, _overstated(original))])
    try:
        for i in range(workload.cycle):
            loop.run(i)
    finally:
        undo()
    assert len(loop.failures) == round(failing * workload.cycle)
    assert bounds.evaluate_instance is original


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_prints_declared_metrics(name, trace):
    proc = _run("--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = [(key, m["unit"]) for key, m in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in declared]


def test_declared_workloads_and_layers_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS) == list(spans.WORKLOADS)
    assert {m["name"] for m in DECLARED["per_layer"]} == {n for n, _ in spans.per_layer_metrics()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "instances", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
