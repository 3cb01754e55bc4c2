"""Tour of the three rule domains: features, named conditions, label rules.

Run:  python demos/01_domains_and_conditions.py
"""
import numpy as np

from rationale_lab import build_domain
from rationale_lab.domains import FEMALE, OUT_PATIENT


def one_case(schema, **codes):
    """A one-row matrix in the schema's value dtype, as a dataset holds its
    rows; features left out (the welfare noise among them) are 0."""
    row = np.zeros((1, schema.n_features), dtype=schema.value_dtype)
    for name, code in codes.items():
        row[0, schema.index_of(name)] = code
    return row


# ---------------------------------------------------------------------------
# The welfare benefit domain: 12 substantive features, 52 noise features,
# and six conditions that must all hold for eligibility.
# ---------------------------------------------------------------------------
welfare = build_domain("welfare")
print(f"welfare: {welfare.n_features} features, {len(welfare.conditions)} conditions")
for cond in welfare.conditions:
    print(f"  {cond.id} ({cond.notion}): reads {', '.join(cond.involved)}")

applicant = one_case(
    welfare, Age=61, Gender=FEMALE, Con1=1, Con2=1, Con3=1, Con4=1, Con5=0, Spouse=1,
    Absent=0, Resources=1200, Type=OUT_PATIENT, Distance=80,
)
print("\napplicant (61, female, out-patient at 80 miles):")
for cond, holds in zip(welfare.conditions, welfare.condition_matrix(applicant)[0]):
    print(f"  {cond.id}: {holds}")
print(f"  => {welfare.label_name} = {welfare.label_matrix(applicant)[0]}")

# Moving the applicant 40 miles closer breaks the patient-distance condition:
# an out-patient visit only qualifies from 50 miles out.
closer = applicant.copy()
closer[0, welfare.index_of("Distance")] = 40
print(f"same applicant at 40 miles => {welfare.label_matrix(closer)[0]}")

# ---------------------------------------------------------------------------
# Tort law: ten booleans, five conditions, with one feature (vst) shared
# between the unlawfulness condition c3 and the exception c5.
# ---------------------------------------------------------------------------
tort = build_domain("tort")
print(f"\ntort: {tort.n_features} boolean features -> {tort.label_name}")
case = one_case(tort, cau=1, ift=1, vun=1, dmg=1)
print(f"cau & ift & vun & dmg: dut = {tort.label_matrix(case)[0]}")

# A justification defeats statutory/rights violations inside c3...
violation = one_case(tort, cau=1, ift=1, vst=1, dmg=1, prp=1)
justified = one_case(tort, cau=1, ift=1, vst=1, dmg=1, prp=1, jus=1)
print(f"violation instead of vun:        dut = {tort.label_matrix(violation)[0]}")
print(f"...but justified:                dut = {tort.label_matrix(justified)[0]}")

# Vectorised evaluation over many cases at once:
rng = np.random.default_rng(0)
batch = rng.integers(0, 2, size=(100_000, 10))
labels = tort.label_matrix(batch)
print(f"\nrandom tort cases with a duty to repair: {labels.mean():.4f}"
      f" (exact rate is 112/1024 = {112 / 1024:.4f})")
