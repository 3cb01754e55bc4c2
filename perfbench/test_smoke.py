"""Smoke configuration of the benchmark: it checks the output schema only.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at smoke scale (``--smoke``: tiny plans and datasets)
with ``--trace 0`` and ``--trace 1``.  The result line must carry exactly the
metrics BENCHMARK.json names, each with its unit, and the recorded report
must carry the derived end-to-end figures.  No timing is ever checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_result_line_names_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    record = json.loads(
        (ROOT / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    assert {name: d["unit"] for name, d in record["derived"].items()} == {
        "steps_per_s": "1/s", "cases_per_s": "1/s", "fail_frac": "ratio"
    }
    assert set(record["host"]) >= {"nproc", "cpu_model", "python", "numpy", "scipy", "blas",
                                   "thread_env"}


def test_refuses_to_run_without_the_program():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "tort-train", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
