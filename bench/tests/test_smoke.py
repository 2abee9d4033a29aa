"""Smoke test of the benchmark harness: no timing, correctness only.

    python3 -m pytest bench/tests -q

Each workload runs in --smoke mode on tiny seed-0 inputs through one plain
and one traced iteration and the whole correctness gate. Its output digests
must equal those recorded in bench/baseline.json, so a change to the
program's output bytes shows up here. When a change to the bytes is
intended, copy the `digests` line that --smoke prints into that file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BASELINE = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(BASELINE["smoke_digests"]))
def test_smoke_gate_passes_and_outputs_match_recorded_digests(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--smoke")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    digests = json.loads(next(line for line in lines if line.startswith("digests "))[len("digests "):])
    assert digests == BASELINE["smoke_digests"][workload]


def test_metric_tables_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(BASELINE["smoke_digests"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "build_mock", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
