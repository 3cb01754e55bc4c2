"""Second calibration round: longer budgets for C5/C6/C8/C9 (not shipped)."""
import time

import numpy as np

from rationale_lab import ExperimentPlan, GeneratorRequest, run_plan


def spec(d, k, s=None):
    return GeneratorRequest(d, k, s)


def show(tag, report):
    print(f"== {tag}")
    for c in report.cells:
        accs = " ".join(f"{100*a:.1f}" for a in c.accuracies)
        print(f"   {c.train:14s} {c.test:18s} {c.arch:8s} "
              f"mean={100*c.mean:6.2f} std={100*c.std:5.2f} [{accs}]")
    for name, t in sorted(report.tables.items()):
        d = t.to_dict()
        print(f"   table {name}: false={d['false']['mean_output']:.4f} "
              f"true={d['true']['mean_output']:.4f}")
    for name, curve in sorted(report.curves.items()):
        print(f"   curve {name}: " + ", ".join(
            f"{g.label}->{None if g.first is None else round(g.first,2)}" for g in curve.groups))


t0 = time.time()

c5 = ExperimentPlan(
    domain_id="tort",
    train_specs=(spec("tort", "unique"),),
    test_specs=(spec("tort", "unlawfulness"), spec("tort", "imputability")),
    architectures=((12,), (24, 6)), repetitions=10, iterations=30000, master_seed=505)
show("C5 tort full-info @30k", run_plan(c5, parallelism=2))
print(f"[{time.time()-t0:.0f}s]", flush=True)

c6 = ExperimentPlan(
    domain_id="tort",
    train_specs=(spec("tort", "regular", 500),),
    test_specs=(spec("tort", "regular", 5000), spec("tort", "unlawfulness"),
                spec("tort", "imputability")),
    architectures=((12,), (24, 6), (24, 10, 3)), repetitions=10, iterations=50000,
    master_seed=606)
show("C6 tort small-data @50k", run_plan(c6, parallelism=2))
print(f"[{time.time()-t0:.0f}s]", flush=True)

c8 = ExperimentPlan(
    domain_id="welfare",
    train_specs=(spec("welfare", "type-b", 50000),),
    test_specs=(spec("welfare", "age-gender"), spec("welfare", "patient-distance")),
    architectures=((12,),), repetitions=10, iterations=50000, master_seed=808)
show("C8 welfare 50k B @50k", run_plan(c8, parallelism=2))
print(f"[{time.time()-t0:.0f}s]", flush=True)

c9 = ExperimentPlan(
    domain_id="simplified",
    train_specs=(spec("simplified", "type-a", 50000), spec("simplified", "type-b", 50000)),
    test_specs=(spec("simplified", "type-a", 50000), spec("simplified", "type-b", 50000),
                spec("simplified", "age-gender"), spec("simplified", "patient-distance")),
    architectures=((12,), (24, 6), (24, 10, 3)), repetitions=10, iterations=50000,
    master_seed=909)
show("C9 simplified @50k", run_plan(c9, parallelism=2))
print(f"[{time.time()-t0:.0f}s] done", flush=True)
