"""The rationale-lab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tort-train --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``tort-train``, ``welfare-probe``,
``data-roundtrip``.  The program is imported from this checkout's ``src/``.

``--trace 0`` runs untraced passes for ``--seconds`` (at least three) and
reports the end-to-end metrics: ``wall_s``, the median pass; ``setup_s``, the
median of seven fresh interpreters brought to the point where the workload is
ready to run; ``peak_rss_mb``, the peak resident memory of this process plus
its pool workers over set-up and the first pass.

``--trace 1`` alternates untraced and traced passes at parallelism 1 for
``--seconds`` and reports the per-layer metrics of the traced passes
(medians), the direct step timings, and ``trace.overhead_frac``.

Every pass is checked: datasets must pass the audit and read back equal,
summaries must have the plan's shape, and each pass's fingerprint (summary or
data sha256, plus exact counts) must equal the run's reference.  The
reference holds the fingerprints committed in ``expected.json`` (default
seed, same platform only) and those recorded by earlier runs of the same
source tree and seed.  ``tort-train`` also runs once at the other
parallelism, which must give the same hash.  A pass that fails a check
counts all its operations as failed.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(host, passes, fingerprints) goes to ``perfbench/out/``.  ``--smoke`` shrinks
every workload to seconds, for checking the output schema only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from host import ROOT, SRC, ProgramMissing, host_record, import_program, platform_key

BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_SAMPLES = 7
WORKLOADS = ("tort-train", "welfare-probe", "data-roundtrip")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# End-to-end figures that are printed and recorded but are not in the result
# line: each applies to some workloads only, or reads 0 on a correct run.
DERIVED_UNITS = {"steps_per_s": "1/s", "cases_per_s": "1/s", "fail_frac": "ratio"}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    part = name.split(".")[1]
    if part.endswith("_us") or part == "us_per_step":
        return "us"
    if part.endswith("_s"):
        return "s"
    if part.endswith("_frac"):
        return "ratio"
    return "bytes" if part == "bytes" else "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, for checking the output schema only")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Reference fingerprints
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """sha256 of the program and benchmark sources: one value per commit."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Reference:
    """The fingerprint every pass of a run must match, key by key."""

    def __init__(self, values: dict):
        self.values = dict(values)
        self.mismatches: list[str] = []

    def check(self, label: str, outcome) -> None:
        if outcome.failed:
            return
        for key, value in outcome.fingerprint.items():
            want = self.values.setdefault(key, value)
            if want != value:
                self.mismatches.append(f"{label}: {key} = {value!r}, reference {want!r}")
                outcome.failed = outcome.attempted


def committed_reference(args, workload: str, host: dict) -> tuple[dict, str]:
    """The committed fingerprint for this run, and whether it applies."""
    if args.smoke or args.seed != DEFAULT_SEED:
        return {}, "none at this seed"
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if workload not in expected.get("workloads", {}):
        return {}, "none committed"
    if expected.get("platform") != platform_key(host):
        return {}, "not comparable: committed on another platform"
    return expected["workloads"][workload], "compared"


class RecordedFingerprints:
    """Fingerprints of earlier runs of the same sources, workload and seed."""

    path = OUT_DIR / "fingerprints.json"

    def __init__(self, args):
        scale = "smoke" if args.smoke else "full"
        self.key = f"{source_digest()}/{args.workload}/{args.seed}/{scale}"
        self.all = json.loads(self.path.read_text()) if self.path.exists() else {}

    def get(self) -> dict:
        return self.all.get(self.key, {})

    def save(self, values: dict) -> None:
        self.all[self.key] = values
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Seconds from launching a fresh interpreter until it reports that the
    workload is ready to run, once per sample."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(ready)
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process plus its largest
    waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def checks_parallelism(workload) -> bool:
    """The determinism contract: tort-train must hash the same at
    parallelism 1 and 2, so each run tries the parallelism it did not time."""
    return workload.name == "tort-train"


def run_untraced(workload, args, work_dir, reference) -> dict:
    from workloads import untraced_api

    api = untraced_api()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        outcome = workload.run_pass(api, work_dir)
        reference.check(f"pass {len(passes) + 1}", outcome)
        passes.append(outcome)
        if len(passes) == 1:
            # Set-up plus one pass is what one CLI invocation holds.  Later
            # passes only add allocator noise to the peak.
            rss = peak_rss_mb()
    checks = []
    if checks_parallelism(workload):
        checks.append(workload.run_pass(api, work_dir, parallelism=1))
        reference.check("parallelism 1", checks[-1])
    setup = measure_setup(args)
    walls = [p.wall_s for p in passes]
    return {
        "passes": passes,
        "checks": checks,
        "wall_s": statistics.median(walls),
        "metrics": {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                    "peak_rss_mb": rss},
        "samples": {"wall_s": walls, "setup_s": setup},
    }


def run_traced(workload, args, work_dir, reference) -> dict:
    from tracing import EXACT_COUNTS, Tracer, layer_metrics, step_timings
    from workloads import untraced_api

    tracer, api = Tracer(), untraced_api()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(workload.run_pass(api, work_dir, parallelism=1))
        reference.check(f"untraced pass {len(untraced)}", untraced[-1])
        with tracer.traced_pass() as traced_api:
            outcome = workload.run_pass(traced_api, work_dir, parallelism=1)
        layers.append(layer_metrics([s for s in tracer.spans if s["pass"] == tracer.pass_id]))
        outcome.fingerprint.update({k: layers[-1][k] for k in EXACT_COUNTS})
        reference.check(f"traced pass {len(traced) + 1}", outcome)
        traced.append(outcome)
    checks = []
    if checks_parallelism(workload):
        checks.append(workload.run_pass(api, work_dir, parallelism=2))
        reference.check("parallelism 2", checks[-1])
    # Exact counts are equal in every traced pass (a pass that differs has
    # failed); times and ratios are medians.
    metrics = {name: layers[0][name] if name in EXACT_COUNTS
               else statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics.update(step_timings(args.smoke))
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {
        "passes": untraced + traced,
        "checks": checks,
        "wall_s": untraced_wall,
        "metrics": metrics,
        "samples": {"untraced_wall_s": [p.wall_s for p in untraced],
                    "traced_wall_s": [p.wall_s for p in traced]},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def derived_metrics(wall: float, reference: dict, attempted: int, failed: int) -> dict:
    """Throughput over the median untraced pass, and the failure fraction."""
    steps, cases = reference.get("steps"), reference.get("cases")
    return {
        "steps_per_s": steps / wall if steps is not None else None,
        "cases_per_s": cases / wall if cases is not None else None,
        "fail_frac": failed / attempted,
    }


def print_report(args, workload, result, derived, reference, status, host) -> None:
    mode = "traced, parallelism 1" if args.trace else f"parallelism {workload.parallelism}"
    print(f"perfbench {args.workload}  seed {args.seed}  {len(result['passes'])} passes "
          f"({mode})")
    for name, samples in result["samples"].items():
        q1, q2, q3 = quartiles(samples)
        print(f"  {name:<28} median {q2:.6f} s  quartiles {q1:.6f} .. {q3:.6f}  "
              f"n={len(samples)}")
    units = {**END_TO_END_UNITS, **DERIVED_UNITS}
    for name, value in list(result["metrics"].items()) + list(derived.items()):
        unit = units.get(name) or unit_of(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    for key in ("summary_sha256", "data_sha256"):
        if key in reference.values:
            print(f"  {key}  {reference.values[key]}  (committed reference: {status})")
    for line in reference.mismatches:
        print(f"  MISMATCH {line}")
    print(f"  host: nproc {host['nproc']}, {host['cpu_model']}, python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}, blas {host['blas'].get('name')} "
          f"{host['blas'].get('version')}, threads {host['thread_env']}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    host = host_record()
    OUT_DIR.mkdir(exist_ok=True)
    recorded = RecordedFingerprints(args)
    committed, status = committed_reference(args, args.workload, host)
    if committed and recorded.get() and committed != recorded.get():
        status += "; earlier runs of these sources recorded another fingerprint"
    reference = Reference({**recorded.get(), **committed})

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        result = run(workload, args, work_dir, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = result["passes"] + result["checks"]
    attempted = sum(p.attempted for p in outcomes)
    failed = sum(p.failed for p in outcomes)
    if not reference.mismatches:
        recorded.save(reference.values)
    derived = derived_metrics(result["wall_s"], reference.values, attempted, failed)
    print_report(args, workload, result, derived, reference, status, host)

    units = END_TO_END_UNITS if args.trace == 0 else {}
    metrics = {name: {"value": value, "unit": units.get(name) or unit_of(name)}
               for name, value in result["metrics"].items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "parallelism": workload.parallelism,
        "host": host, "metrics": metrics,
        "derived": {name: {"value": value, "unit": DERIVED_UNITS[name]}
                    for name, value in derived.items()},
        "samples": result["samples"],
        "fingerprint": reference.values, "committed_reference": status,
        "mismatches": reference.mismatches,
        "attempted": attempted, "failed": failed,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
