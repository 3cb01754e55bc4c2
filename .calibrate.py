"""Calibration run for the desk-scale acceptance thresholds (not shipped)."""
import time

from rationale_lab import ExperimentPlan, GeneratorRequest, run_plan

ARCH12, ARCH246 = (12,), (24, 6)


def spec(d, k, s=None):
    return GeneratorRequest(d, k, s)


def show(tag, report):
    print(f"== {tag}")
    for c in report.cells:
        print(f"   {c.train:16s} {c.test:20s} {c.arch:8s} "
              f"mean={100*c.mean:6.2f} std={100*c.std:5.2f} excl={c.excluded}")
    for name, t in sorted(report.tables.items()):
        d = t.to_dict()
        print(f"   table {name}: false={d['false']['mean_output']:.4f} "
              f"true={d['true']['mean_output']:.4f}")
    for name, curve in sorted(report.curves.items()):
        print(f"   curve {name}: " + ", ".join(
            f"{g.label}->{g.first}" for g in curve.groups))


t0 = time.time()

c5 = ExperimentPlan(
    domain_id="tort",
    train_specs=(spec("tort", "unique"),),
    test_specs=(spec("tort", "unique"), spec("tort", "unlawfulness"), spec("tort", "imputability")),
    architectures=(ARCH12, ARCH246), repetitions=10, iterations=20000, master_seed=505)
show("C5 tort full-information", run_plan(c5, parallelism=2))
print(f"[{time.time()-t0:.0f}s]")

c6 = ExperimentPlan(
    domain_id="tort",
    train_specs=(spec("tort", "regular", 500),),
    test_specs=(spec("tort", "regular", 5000), spec("tort", "unlawfulness"), spec("tort", "imputability")),
    architectures=(ARCH12, ARCH246), repetitions=10, iterations=20000, master_seed=606)
show("C6 tort small-data", run_plan(c6, parallelism=2))
print(f"[{time.time()-t0:.0f}s]")

c7 = ExperimentPlan(
    domain_id="welfare",
    train_specs=(spec("welfare", "type-a", 2400), spec("welfare", "type-b", 2400)),
    test_specs=(spec("welfare", "type-a", 2400), spec("welfare", "type-b", 2400),
                spec("welfare", "age-gender"), spec("welfare", "patient-distance")),
    architectures=(ARCH12,), repetitions=10, iterations=20000, master_seed=707)
show("C7 welfare 2400", run_plan(c7, parallelism=2))
print(f"[{time.time()-t0:.0f}s]")

c8 = ExperimentPlan(
    domain_id="welfare",
    train_specs=(spec("welfare", "type-b", 50000),),
    test_specs=(spec("welfare", "age-gender"), spec("welfare", "patient-distance")),
    architectures=(ARCH12,), repetitions=10, iterations=20000, master_seed=808)
show("C8 welfare 50000 B", run_plan(c8, parallelism=2))
print(f"[{time.time()-t0:.0f}s]")

c9 = ExperimentPlan(
    domain_id="simplified",
    train_specs=(spec("simplified", "type-a", 50000), spec("simplified", "type-b", 50000)),
    test_specs=(spec("simplified", "type-a", 50000), spec("simplified", "type-b", 50000),
                spec("simplified", "age-gender"), spec("simplified", "patient-distance")),
    architectures=(ARCH12, ARCH246, (24, 10, 3)), repetitions=10, iterations=20000, master_seed=909)
show("C9 simplified", run_plan(c9, parallelism=2))
print(f"[{time.time()-t0:.0f}s] done")
