"""Generate every dataset kind and audit each one with the brute-force oracle.

Run:  python demos/02_generate_and_audit.py
"""
from rationale_lab import (
    GeneratorRequest,
    build_domain,
    expected_stats,
    generate,
    verify_dataset,
)
from rationale_lab.generation import KINDS

SEED = 20_08


def audit(dataset):
    schema = build_domain(dataset.schema_id)
    report = verify_dataset(dataset, schema)
    status = "ok" if report.passed else "FAILED"
    print(
        f"  {dataset.schema_id:10s} {dataset.kind:17s} "
        f"n={len(dataset):6d}  positive={report.positive_fraction:6.2%}  "
        f"mismatches={report.label_mismatches}  [{status}]"
    )
    return report


print("training-style sets (stochastic, balanced by construction):")
audit(generate(GeneratorRequest("welfare", "type-a", 2400, seed=SEED)))
audit(generate(GeneratorRequest("welfare", "type-b", 2400, seed=SEED)))
audit(generate(GeneratorRequest("simplified", "type-a", 2400, seed=SEED)))
audit(generate(GeneratorRequest("tort", "regular", 5000, seed=SEED)))
audit(generate(GeneratorRequest("tort", "regular", 500, seed=SEED)))

print("\ndedicated test sets (each isolates a single condition):")
audit(generate(GeneratorRequest("welfare", "age-gender", seed=SEED)))
audit(generate(GeneratorRequest("welfare", "patient-distance", seed=SEED)))
audit(generate(GeneratorRequest("simplified", "age-gender")))
audit(generate(GeneratorRequest("simplified", "patient-distance")))
audit(generate(GeneratorRequest("tort", "unique")))
audit(generate(GeneratorRequest("tort", "unlawfulness")))
audit(generate(GeneratorRequest("tort", "imputability")))

print("\nenumerated expectations (computed, not hard-coded):")
for (domain, kind), spec in KINDS.items():
    if spec.sized:
        continue
    stats = expected_stats(domain, kind)
    print(f"  {domain:10s} {kind:17s} size={stats.size:6d} "
          f"positive={stats.positive_fraction:.4f}")

print("\nwhy type A negatives matter: a negative fails every condition it")
print("happens to miss, about four on average, so a lazy model can score")
print("well while ignoring most of the rule:")
report = verify_dataset(generate(GeneratorRequest("welfare", "type-a", 20_000, seed=SEED)),
                        build_domain("welfare"))
hist = report.failed_condition_histogram
mean_fails = sum(k * n for k, n in hist.items()) / sum(hist.values())
print(f"  failed-condition histogram over negatives: {hist}")
print(f"  mean conditions failed: {mean_fails:.2f}")
