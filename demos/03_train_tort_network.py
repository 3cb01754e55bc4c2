"""Train networks on tort law and expose a hidden rationale failure.

A network trained on a small balanced sample keeps a high test accuracy
while almost completely ignoring one condition of the rule that generated
its data.  The dedicated test sets make that visible.

Run:  python demos/03_train_tort_network.py   (about a minute)
"""
from rationale_lab import (
    GeneratorRequest,
    NetworkConfig,
    TrainConfig,
    accuracy,
    condition_table,
    generate,
    train,
)

ITERATIONS = 20_000  # the published budget is 50,000; this keeps the demo short

unique = generate(GeneratorRequest("tort", "unique"))
regular_test = generate(GeneratorRequest("tort", "regular", 5000, seed=2))
unlawfulness = generate(GeneratorRequest("tort", "unlawfulness"))
imputability = generate(GeneratorRequest("tort", "imputability"))


def fit(train_set, tag):
    model = train(
        train_set,
        NetworkConfig(input_width=10, hidden_layers=(24, 6), init_seed=11),
        TrainConfig(iterations=ITERATIONS, shuffle_seed=12),
    )
    print(f"\n{tag}:")
    print(f"  regular test accuracy:  {accuracy(model, regular_test):.4f}")
    print(f"  unique cases:           {accuracy(model, unique):.4f}")
    print(f"  unlawfulness set:       {accuracy(model, unlawfulness):.4f}")
    print(f"  imputability set:       {accuracy(model, imputability):.4f}")
    for name, dataset, cond in (
        ("unlawfulness", unlawfulness, "c3"),
        ("imputability", imputability, "c2"),
    ):
        table = condition_table(model, dataset, cond)
        print(
            f"  mean output on {name:13s} false={table.false.mean_output:.3f} "
            f"true={table.true.mean_output:.3f}   (ideal: 0 / 1)"
        )
    return model


fit(unique, "trained on all 1024 unique cases")
fit(generate(GeneratorRequest("tort", "regular", 500, seed=1)),
    "trained on a 500-case balanced sample")

print(
    "\nNote the last line: with scarce data the mean output on"
    "\nimputability-false cases rises far above 0 even though the regular"
    "\ntest accuracy stays high. The network decides those cases are"
    "\npositive, i.e. it never learned the condition the set isolates."
)
