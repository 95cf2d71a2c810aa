"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from tracing import subsets_visited

HERE = Path(__file__).resolve().parent
WORKLOADS = ("filter_stream", "check_large", "rule_deletion", "oracle_sweep")
COUNT_UNITS = ("count", "calls/check")


def _run(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )


def _counts(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS or name == "pattern.trim.copy_frac"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs_of_a_seed(workload):
    first = _counts(_run(HERE.parent, workload, 7, 1))
    second = _counts(_run(HERE.parent, workload, 7, 1))
    assert first == second
    assert any(first.values()), "the workload reached no counted layer"


def test_subsets_visited_is_the_sweep_rank():
    r = 6
    order = [c for q in range(1, r + 1) for c in combinations(range(r), q)]
    for rank, subset in enumerate(order, start=1):
        assert subsets_visited(r, subset) == rank
    assert subsets_visited(r, None) == len(order)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "check_large", 1, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
