"""Checks on the benchmark itself; slow, so not part of the package's suite.

    python3 -m pytest perfbench/test_perfbench.py

Count-valued per-layer metrics must repeat exactly for one seed, so later
changes can cite them as exact. A second workload seed must run clean,
timed and traced. Without the package source next to it, the benchmark
must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"s", "ms"}


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600, check=False)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert len(out["metrics"]) == len(SPEC["per_layer" if trace else "end_to_end"])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts(out):
        return {k: m["value"] for k, m in out["metrics"].items() if m["unit"] not in TIME_UNITS}

    first, second = counts(result(workload, 0, 1)), counts(result(workload, 0, 1))
    assert first == second
    named = {"models.large.positions_scored", "vocab.validate_token.calls", "dist.probdist_built"}
    assert named <= first.keys()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_second_seed_runs_clean(workload, trace):
    result(workload, 7, trace)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
