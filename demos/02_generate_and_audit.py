"""Generate every dataset kind and audit each one with the brute-force oracle.

Run:  python demos/02_generate_and_audit.py
"""
from rationale_lab import (
    build_domain,
    expected_stats,
    gen_tort,
    gen_welfare,
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
audit(gen_welfare("type-a", size=2400, seed=SEED))
audit(gen_welfare("type-b", size=2400, seed=SEED))
audit(gen_welfare("type-a", size=2400, seed=SEED, simplified=True))
audit(gen_tort("regular", size=5000, seed=SEED))
audit(gen_tort("regular", size=500, seed=SEED))

print("\ndedicated test sets (each isolates a single condition):")
audit(gen_welfare("age-gender", seed=SEED))
audit(gen_welfare("patient-distance", seed=SEED))
audit(gen_welfare("age-gender", simplified=True))
audit(gen_welfare("patient-distance", simplified=True))
audit(gen_tort("unique"))
audit(gen_tort("unlawfulness"))
audit(gen_tort("imputability"))

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
report = verify_dataset(gen_welfare("type-a", size=20_000, seed=SEED),
                        build_domain("welfare"))
hist = report.failed_condition_histogram
mean_fails = sum(k * n for k, n in hist.items()) / sum(hist.values())
print(f"  failed-condition histogram over negatives: {hist}")
print(f"  mean conditions failed: {mean_fails:.2f}")
