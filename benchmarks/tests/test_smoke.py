"""Smoke test of the benchmark: each workload runs at toy size, passes its
checks, and prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_exact_counts_are_declared_per_layer_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracing.EXACT) <= per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_toy_run_prints_declared_metrics(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                  "1", "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


def test_bare_directory_exits_nonzero_without_a_result():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "--workload", NAMES[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _lcs_table(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


@given(st.lists(st.sampled_from("abcd"), max_size=30),
       st.lists(st.sampled_from("abcd"), max_size=30))
def test_bit_parallel_lcs_matches_the_table(a, b):
    assert workloads._lcs_bits(a, b) == _lcs_table(a, b)


def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, pct = tracing.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0
    assert tracing.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
