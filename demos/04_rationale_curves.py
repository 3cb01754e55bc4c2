"""Mean-output curves on the simplified domain: learned vs ideal thresholds.

Trains one network per training-set type, sweeps the dedicated test sets,
and prints where each output curve crosses 0.5 next to the true rule
thresholds (60/65 for age, 50 for distance).

Run:  python demos/04_rationale_curves.py   (about a minute)
"""
from pathlib import Path

from rationale_lab import (
    GeneratorRequest,
    NetworkConfig,
    TrainConfig,
    curve_deviation,
    generate,
    ideal_curve,
    output_curve,
    train,
    write_curve_tsv,
)

OUT = Path("demo-output")
OUT.mkdir(exist_ok=True)

age_gender = generate(GeneratorRequest("simplified", "age-gender"))
patient_distance = generate(GeneratorRequest("simplified", "patient-distance"))

for kind in ("type-a", "type-b"):
    train_set = generate(GeneratorRequest("simplified", kind, 50_000, seed=5))
    model = train(
        train_set,
        NetworkConfig(input_width=4, hidden_layers=(24, 6), init_seed=7),
        TrainConfig(iterations=20_000, shuffle_seed=8),
    )
    print(f"\ntrained on simplified {kind} (50,000 cases):")
    for name, dataset, cond, x, group in (
        ("age-gender", age_gender, "C1", "Age", "Gender"),
        ("patient-distance", patient_distance, "C6", "Distance", "Type"),
    ):
        curve = output_curve(model, dataset, x, group)
        ideal = ideal_curve("simplified", cond)
        dev = curve_deviation(curve, ideal)
        crossings = ", ".join(
            f"{g.label} at {g.first:.1f}" if g.first is not None else f"{g.label}: none"
            for g in curve.groups
        )
        print(f"  {name}: crossings {crossings}")
        print(f"    deviation from ideal: max={dev.max_abs:.3f} mean={dev.mean_abs:.3f}")
        path = write_curve_tsv(curve, OUT / f"{kind}-{name}.tsv")
        print(f"    curve written to {path}")

ideal = ideal_curve("simplified", "C1")
print("\nideal crossings for the age-gender condition:",
      ", ".join(f"{g.label} at {g.first:.1f}" for g in ideal.groups))
print("(interpolation on the unit grid puts the jump half a step before the")
print(" threshold; the rule itself switches at 60 for women and 65 for men)")
