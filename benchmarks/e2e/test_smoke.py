"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at ``--smoke`` size, plain and traced, and checks
the result contract: every metric BENCHMARK.json names is emitted with
its unit, no operation fails, and the trace's layer self times plus the
unattributed residual account for the traced total time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace, tmp_path):
    out = tmp_path / "set.json"
    proc = run_benchmark(
        ROOT, "--workload", workload, "--seed", "1", "--smoke",
        "--trace", str(trace), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected

    (report,) = json.loads(out.read_text())
    assert report["failed_frac"] == 0
    if trace:
        for identity in report["trace_identity"]:
            assert identity["relative_gap"] < 0.05
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(
            "__pycache__", ".work"))
    proc = run_benchmark(tmp_path, "--workload", "pipeline", "--seed", "1", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_a_change_beyond_its_bound(tmp_path):
    same = tmp_path / "a.json"
    proc = run_benchmark(
        ROOT, "--workload", "pipeline", "--seed", "1", "--smoke", "--out", str(same)
    )
    assert proc.returncode == 0, proc.stderr
    (report,) = json.loads(same.read_text())
    report["smoke"] = False  # compare.py ignores smoke reports
    same.write_text(json.dumps([report]))
    slower = tmp_path / "b.json"
    report["metrics"]["save_s"]["value"] *= 1.5
    slower.write_text(json.dumps([report]))

    def compare(a, b):
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(a), str(b)],
            capture_output=True, text=True, timeout=60,
        )

    assert compare(same, same).returncode == 0
    worse = compare(same, slower)
    assert worse.returncode == 1
    assert "WORSE" in worse.stdout
