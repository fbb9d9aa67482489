"""Smoke test of the benchmark itself: every workload at tiny size, with and
without tracing, the correctness gate, and a checkout without the package.

Run from the repository root: python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_ARGS = ["--seed", "3", "--seconds", "1", "--size", "smoke"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), *SMOKE_ARGS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    record = json.loads((BENCH_DIR / "results" /
                         f"{workload}-smoke-seed3-trace{trace}.json").read_text())
    env = record["environment"]
    assert {"machine", "nproc", "python", "numpy", "commit", "seed"} <= set(env)
    if trace:
        spans = record["spans"]
        assert spans["count"] == result["metrics"]["trace.spans"]["value"] > 0
        assert (BENCH_DIR / "results" / spans["file"]).stat().st_size == \
            spans["count"] * sum(size for _, size, _ in spans["layout"])


def _corrupt_sweep_digest(expected):
    expected["sweep"]["smoke"]["digest"] = "0" * 64


def _corrupt_sweep_count(expected):
    expected["sweep"]["smoke"]["requests"] += 1


def _corrupt_pool_digest(expected):
    for choice in expected["big_gamma"]["surfaces"][0]["choices"]:
        choice["digest"] = "0" * 16


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep", _corrupt_sweep_digest),
    ("sweep", _corrupt_sweep_count),
    ("big_gamma", _corrupt_pool_digest),
])
def test_gate_refuses_a_wrong_result(workload, corrupt, monkeypatch, capsys):
    expected = workloads.load_expected()
    corrupt(expected)
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    assert run.main(["--workload", workload, "--trace", "0", *SMOKE_ARGS]) == 3
    captured = capsys.readouterr()
    assert "correctness gate failed" in captured.err
    assert '"correct"' not in captured.out


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "sweep", *SMOKE_ARGS, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
