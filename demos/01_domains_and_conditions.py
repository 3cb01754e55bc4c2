"""Tour of the three rule domains: features, named conditions, label rules.

Run:  python demos/01_domains_and_conditions.py
"""
import numpy as np

from rationale_lab import build_domain, complete_case, eval_condition, eval_label

# ---------------------------------------------------------------------------
# The welfare benefit domain: 12 substantive features, 52 noise features,
# and six conditions that must all hold for eligibility.
# ---------------------------------------------------------------------------
welfare = build_domain("welfare")
print(f"welfare: {welfare.n_features} features, {len(welfare.conditions)} conditions")
for cond in welfare.conditions:
    print(f"  {cond.id} ({cond.notion}): reads {', '.join(cond.involved)}")

applicant = complete_case(
    welfare,
    {
        "Age": 61, "Gender": "female", "Con1": 1, "Con2": 1, "Con3": 1, "Con4": 1,
        "Con5": 0, "Spouse": 1, "Absent": 0, "Resources": 1200, "Type": "out",
        "Distance": 80,
    },
)
print("\napplicant (61, female, out-patient at 80 miles):")
for cond in welfare.conditions:
    print(f"  {cond.id}: {eval_condition(welfare, cond.id, applicant)}")
print(f"  => {welfare.label_name} = {eval_label(welfare, applicant)}")

# Moving her 40 miles closer breaks the patient-distance condition: an
# out-patient visit only qualifies from 50 miles out.
closer = dict(applicant, Distance=40)
print(f"same applicant at 40 miles => {eval_label(welfare, closer)}")

# ---------------------------------------------------------------------------
# Tort law: ten booleans, five conditions, with one feature (vst) shared
# between the unlawfulness condition c3 and the exception c5.
# ---------------------------------------------------------------------------
tort = build_domain("tort")
print(f"\ntort: {tort.n_features} boolean features -> {tort.label_name}")
case = {name: 0 for name in tort.feature_names}
case.update(cau=1, ift=1, vun=1, dmg=1)
print(f"cau & ift & vun & dmg: dut = {eval_label(tort, case)}")

# A justification defeats statutory/rights violations inside c3...
violation = dict(case, vun=0, vst=1, prp=1)
print(f"violation instead of vun:        dut = {eval_label(tort, violation)}")
print(f"...but justified:                dut = {eval_label(tort, dict(violation, jus=1))}")

# Vectorised evaluation over many cases at once:
rng = np.random.default_rng(0)
batch = rng.integers(0, 2, size=(100_000, 10))
labels = tort.label_matrix(batch)
print(f"\nrandom tort cases with a duty to repair: {labels.mean():.4f}"
      f" (exact rate is 112/1024 = {112 / 1024:.4f})")
