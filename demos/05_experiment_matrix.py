"""A complete (miniature) experiment: plan -> repetitions -> report files.

The bundled plans under plans/ reproduce the full matrices; this demo runs
a shrunken tort plan so the whole pipeline finishes in about a minute.

Run:  python demos/05_experiment_matrix.py
"""
from pathlib import Path

from rationale_lab import (
    ExperimentPlan,
    GeneratorRequest,
    emit_report,
    replay,
    run_plan,
)

plan = ExperimentPlan(
    domain_id="tort",
    train_specs=(
        GeneratorRequest("tort", "regular", 5000),
        GeneratorRequest("tort", "regular", 500),
    ),
    test_specs=(
        GeneratorRequest("tort", "regular", 5000),
        GeneratorRequest("tort", "unique"),
        GeneratorRequest("tort", "unlawfulness"),
        GeneratorRequest("tort", "imputability"),
    ),
    architectures=((12,), (24, 6)),
    repetitions=3,        # bundled plans use 50 (full) / 10 (desk)
    iterations=4000,      # bundled plans use 50,000 (full) / 20,000 (desk)
    master_seed=1234,
)

print(f"running {plan.cell_count} cells x {plan.repetitions} repetitions...")
report = run_plan(plan, parallelism=2)

print(f"\n{'train':14s} {'test':14s} {'arch':8s} {'accuracy':>16s}")
for cell in report.cells:
    print(f"{cell.train:14s} {cell.test:14s} {cell.arch:8s} "
          f"{100 * cell.mean:7.2f} +- {100 * cell.std:5.2f}")

print("\ncondition tables (mean output when the condition is false / true):")
for name, table in sorted(report.tables.items()):
    doc = table.to_dict()
    print(f"  {name:44s} {doc['false']['mean_output']:.3f} / "
          f"{doc['true']['mean_output']:.3f}")

out_dir = Path("demo-output/tort-mini")
paths = emit_report(report, out_dir)
print(f"\nreport files under {out_dir}:")
for key in ("summary", "accuracy_matrix", "manifest"):
    print(f"  {paths[key]}")

replay_dir = Path("demo-output/tort-mini-replay")
replay(paths["manifest"], replay_dir)
identical = (
    (out_dir / "summary.json").read_bytes()
    == (replay_dir / "summary.json").read_bytes()
)
print(f"\nmanifest replay reproduces summary.json byte-for-byte: {identical}")
