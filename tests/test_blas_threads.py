"""Importing ``rationale_lab`` gives OpenBLAS one thread unless the user set
``OPENBLAS_NUM_THREADS``, and a plan's report bytes do not depend on that
count.  OpenBLAS reads the variable only when numpy loads it, so each check
runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rationale_lab

SRC = str(Path(rationale_lab.__file__).resolve().parent.parent)

# what the child reports: the variable after import, and its OS threads
PROBE = """import json, os, rationale_lab
tasks = "/proc/self/task"
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"],
                  len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))
"""

# the welfare plan whose 40,000-case test sets are large enough for OpenBLAS to thread
PLAN = {
    "domain": "welfare",
    "train": [{"kind": "type-b", "size": 130}],
    "test": [{"kind": "type-b", "size": 130}, {"kind": "age-gender"},
             {"kind": "patient-distance"}],
    "architectures": [[12], [24, 6], [24, 10, 3]],
    "repetitions": 2,
    "iterations": 60,
}

RUN = """import sys, rationale_lab as lab
lab.emit_report(lab.run_plan(lab.load_plan(sys.argv[1])), sys.argv[2])
"""


def run_child(code: str, blas_threads: str | None, *args: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_sets_one_blas_thread():
    setting, tasks = json.loads(run_child(PROBE, None))
    assert setting == "1"
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == 1


def test_user_setting_wins():
    setting, _ = json.loads(run_child(PROBE, "2"))
    assert setting == "2"


def test_report_bytes_independent_of_blas_threads(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(PLAN))
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        run_child(RUN, threads, str(plan), str(out))
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
