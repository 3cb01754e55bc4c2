"""Anchor the benchmark to the real desk plan.

Runs the full ``plans/tort-desk.json`` once at parallelism 2 through the
benchmark's plan runner and writes its wall time, its ``summary.json``
sha256, and whether that hash starts with the published baseline prefix to
``perfbench/anchor.json``.  A mismatch is recorded as found.  It takes a few
minutes on a 2-core host:

    python3 perfbench/anchor.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from host import ROOT, host_record, import_program

BASELINE_PREFIX = "ce963a20"
PLAN = ROOT / "plans" / "tort-desk.json"


def main() -> int:
    lab = import_program()
    import workloads

    work_dir = ROOT / "perfbench" / "out" / "anchor"
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = workloads.PlanWorkload("tort-desk", lab.load_plan(PLAN), parallelism=2)
    outcome = runner.run_pass(workloads.untraced_api(), work_dir)
    digest = outcome.fingerprint.get("summary_sha256", "")
    record = {
        "plan": "plans/tort-desk.json",
        "parallelism": 2,
        "wall_s": outcome.wall_s,
        "summary_sha256": digest,
        "baseline_prefix": BASELINE_PREFIX,
        "matches_baseline": digest.startswith(BASELINE_PREFIX),
        "failed": outcome.failed,
        "fingerprint": outcome.fingerprint,
        "measured_unix": int(time.time()),
        "host": host_record(),
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    (ROOT / "perfbench" / "anchor.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
