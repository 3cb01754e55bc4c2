"""The benchmark's three workloads, built from a seed and run against the
public API of ``rationale_lab``.

``tort-train``
    The shape of ``plans/tort-desk.json`` (2 train sets, 4 test sets, the 3
    standard architectures) cut to 2 repetitions x 1,000 iterations, run
    through ``run_plan`` + ``emit_report`` at parallelism 2.
``welfare-probe``
    The shape of ``plans/welfare-desk.json`` (64 inputs; 2,400- and
    50,000-case train sets; 40,000-case dedicated test sets) cut to 1
    repetition x 1,000 iterations, run at parallelism 1.
``data-roundtrip``
    Every dataset kind of every domain: generate -> verify_dataset ->
    write_dataset -> read_dataset -> accuracy / output_curve /
    condition_table with a fixed probe model per domain.  Sized kinds use
    50,000 cases (tort ``regular``: 5,000).  No training happens in a pass.

Every seed the program sees is derived from the benchmark's ``--seed``.  A
pass returns its wall time and a fingerprint of its exact outputs and counts,
which must be equal for equal inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import rationale_lab as lab
from rationale_lab import harness

ARCHITECTURES = ((12,), (24, 6), (24, 10, 3))
CURVE_AXES = {"age-gender": ("Age", "Gender"), "patient-distance": ("Distance", "Type")}

# The probe models of data-roundtrip are fixed: they do not depend on --seed.
PROBE_SEED = 20210514
PROBE_TRAIN = {"welfare": ("type-b", 2400), "simplified": ("type-b", 2400),
               "tort": ("regular", 500)}

# The entry points the benchmark itself calls.
PUBLIC_CALLS = {
    "generation.generate": lab.generate,
    "network.train": lab.train,
    "oracle.verify_dataset": lab.verify_dataset,
    "dataset_io.write_dataset": lab.write_dataset,
    "dataset_io.read_dataset": lab.read_dataset,
    "evaluation.accuracy": lab.accuracy,
    "evaluation.output_curve": lab.output_curve,
    "evaluation.condition_table": lab.condition_table,
    "harness.run_plan": lab.run_plan,
    "harness.emit_report": lab.emit_report,
}


def child_seed(seed: int, *tags) -> int:
    """A 63-bit seed for (benchmark seed, role tags), stable on any host."""
    digest = hashlib.blake2b(repr((int(seed),) + tags).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def untraced_api() -> SimpleNamespace:
    """The public calls under their short names, unwrapped."""
    return SimpleNamespace(**{name.split(".")[1]: fn for name, fn in PUBLIC_CALLS.items()})


@dataclass
class PassOutcome:
    wall_s: float
    attempted: int
    failed: int
    fingerprint: dict  # exact outputs and counts of the pass


def _report_error(workload: str, err: BaseException) -> None:
    print(f"{workload}: pass failed: {err!r}", file=sys.stderr)
    traceback.print_exception(err, file=sys.stderr)


# ---------------------------------------------------------------------------
# Plan workloads
# ---------------------------------------------------------------------------

def _specs(domain: str, entries) -> tuple:
    return tuple(lab.GeneratorRequest(domain, kind, size) for kind, size in entries)


def tort_plan(seed: int, smoke: bool) -> lab.ExperimentPlan:
    return lab.ExperimentPlan(
        domain_id="tort",
        train_specs=_specs("tort", [("regular", 5000), ("regular", 500)]),
        test_specs=_specs("tort", [("regular", 5000), ("unique", None),
                                   ("unlawfulness", None), ("imputability", None)]),
        architectures=ARCHITECTURES,
        repetitions=2,
        iterations=20 if smoke else 1000,
        master_seed=child_seed(seed, "tort-train"),
    )


def welfare_plan(seed: int, smoke: bool) -> lab.ExperimentPlan:
    if smoke:
        train = [("type-a", 200), ("type-b", 200)]
        test = [("type-b", 200), ("age-gender", None)]
    else:
        train = [("type-a", 2400), ("type-b", 2400), ("type-a", 50000), ("type-b", 50000)]
        test = [("type-a", 2400), ("type-b", 2400), ("age-gender", None),
                ("patient-distance", None)]
    return lab.ExperimentPlan(
        domain_id="welfare",
        train_specs=_specs("welfare", train),
        test_specs=_specs("welfare", test),
        architectures=ARCHITECTURES,
        repetitions=1,
        iterations=10 if smoke else 1000,
        master_seed=child_seed(seed, "welfare-probe"),
    )


def _reset_dataset_cache() -> None:
    """Empty the harness's cache of enumerated datasets, so that every pass
    starts as a fresh ``rationale-lab experiment`` process does."""
    cache = getattr(harness, "_dataset_cache", None)
    if cache is not None:
        cache.clear()


def _summary_counts(plan: lab.ExperimentPlan, doc: dict) -> dict:
    """Models and diverged models read off summary.json; raises ValueError
    when the summary does not have the plan's shape."""
    cells = doc["cells"]
    if len(cells) != plan.cell_count:
        raise ValueError(f"summary has {len(cells)} cells, plan has {plan.cell_count}")
    first_test = plan.test_specs[0].label()
    diverged = 0
    for cell in cells:
        accs = cell["accuracies"]
        missing = sum(a is None for a in accs)
        if len(accs) != plan.repetitions or cell["excluded"] != missing:
            raise ValueError(f"cell {cell['train']}/{cell['test']}/{cell['arch']} is malformed")
        if any(a is not None and not 0.0 <= a <= 1.0 for a in accs):
            raise ValueError(f"cell {cell['train']}/{cell['test']}/{cell['arch']}: "
                             "accuracy outside [0, 1]")
        if cell["test"] == first_test:
            diverged += missing
    models = plan.repetitions * len(plan.train_specs) * len(plan.architectures)
    return {"models": models, "diverged": diverged,
            "steps": (models - diverged) * plan.iterations}


class PlanWorkload:
    """One experiment plan run through ``run_plan`` and ``emit_report``."""

    def __init__(self, name: str, plan: lab.ExperimentPlan, parallelism: int):
        self.name = name
        self.plan = plan
        self.parallelism = parallelism
        self.ops = plan.repetitions * len(plan.train_specs) * len(plan.architectures)
        lab.build_domain(plan.domain_id)  # building the schema is part of set-up

    def run_pass(self, api: SimpleNamespace, work_dir: Path,
                 parallelism: int | None = None) -> PassOutcome:
        parallelism = parallelism or self.parallelism
        out_dir = work_dir / "report"
        _reset_dataset_cache()
        start = time.perf_counter()
        try:
            report = api.run_plan(self.plan, parallelism=parallelism)
            paths = api.emit_report(report, out_dir)
            wall = time.perf_counter() - start
            summary = Path(paths["summary"]).read_bytes()
            fingerprint = {"summary_sha256": hashlib.sha256(summary).hexdigest()}
            fingerprint.update(_summary_counts(self.plan, json.loads(summary)))
        except Exception as err:  # a failed pass is counted, and the run goes on
            _report_error(self.name, err)
            return PassOutcome(time.perf_counter() - start, self.ops, self.ops,
                               {"error": repr(err)})
        return PassOutcome(wall, self.ops, 0, fingerprint)


# ---------------------------------------------------------------------------
# data-roundtrip
# ---------------------------------------------------------------------------

def roundtrip_requests(seed: int, smoke: bool) -> list:
    sized = 200 if smoke else 50000
    kinds = [
        ("welfare", "type-a", sized), ("welfare", "type-b", sized),
        ("welfare", "age-gender", None), ("welfare", "patient-distance", None),
        ("simplified", "type-a", sized), ("simplified", "type-b", sized),
        ("simplified", "age-gender", None), ("simplified", "patient-distance", None),
        ("tort", "unique", None), ("tort", "regular", 200 if smoke else 5000),
        ("tort", "unlawfulness", None), ("tort", "imputability", None),
    ]
    if smoke:  # the 40,000-case welfare sets are fixed in size
        kinds = [k for k in kinds if not (k[0] == "welfare" and k[2] is None)]
    return [lab.GeneratorRequest(d, k, s, child_seed(seed, "data", d, k)) for d, k, s in kinds]


def train_probe(api: SimpleNamespace, domain: str, smoke: bool) -> lab.TrainedModel:
    kind, size = PROBE_TRAIN[domain]
    data = api.generate(lab.GeneratorRequest(domain, kind, size, PROBE_SEED))
    return api.train(
        data,
        lab.NetworkConfig(data.schema.n_features, (12,), init_seed=PROBE_SEED),
        lab.TrainConfig(iterations=20 if smoke else 300, shuffle_seed=PROBE_SEED),
    )


def _evaluate(api: SimpleNamespace, model, dataset: lab.Dataset) -> dict:
    """The evaluation the harness applies to a test set of this kind."""
    result = {"accuracy": api.accuracy(model, dataset)}
    target = lab.DEDICATED_TARGET.get((dataset.schema_id, dataset.kind))
    if target is None:
        return result
    if dataset.kind in CURVE_AXES:
        curve = api.output_curve(model, dataset, *CURVE_AXES[dataset.kind])
        result["curve"] = [[g.label, g.xs.tolist(), g.means.tolist(), g.counts.tolist()]
                           for g in curve.groups]
    else:
        result["table"] = api.condition_table(model, dataset, target).to_dict()
    return result


class RoundTripWorkload:
    """Generate, audit, write, read back and evaluate every dataset kind."""

    name = "data-roundtrip"
    parallelism = 1

    def __init__(self, seed: int, smoke: bool):
        self.requests = roundtrip_requests(seed, smoke)
        api = untraced_api()
        self.probes = {d: train_probe(api, d, smoke) for d in PROBE_TRAIN}
        self.ops = len(self.requests)

    def run_pass(self, api: SimpleNamespace, work_dir: Path,
                 parallelism: int | None = None) -> PassOutcome:
        """One round trip per request.  Only the calls into the program are
        timed; the benchmark's own checks run between them."""
        work_dir.mkdir(parents=True, exist_ok=True)
        wall, failed, cases, csv_bytes = 0.0, 0, 0, 0
        digest = hashlib.sha256()
        for request in self.requests:
            schema = lab.build_domain(request.domain_id)
            path = work_dir / f"{request.domain_id}-{request.label()}.csv"
            start = time.perf_counter()
            try:
                dataset = api.generate(request)
                audit = api.verify_dataset(dataset, schema)
                api.write_dataset(dataset, path)
                back = api.read_dataset(path, schema)
                results = _evaluate(api, self.probes[request.domain_id], back)
            except Exception as err:  # a failed round trip is counted, and the pass goes on
                wall += time.perf_counter() - start
                _report_error(self.name, err)
                failed += 1
                continue
            wall += time.perf_counter() - start
            if not (audit.passed and back.equals(dataset)):
                print(f"{self.name}: {request.domain_id}/{request.label()}: audit passed="
                      f"{audit.passed}, read-back equal={back.equals(dataset)}", file=sys.stderr)
                failed += 1
            meta = lab.dataset_io.meta_path(path)
            csv = path.read_bytes()
            digest.update(csv)
            digest.update(meta.read_bytes())
            digest.update(json.dumps(results, sort_keys=True).encode())
            cases += len(dataset)
            csv_bytes += len(csv)
            path.unlink()
            meta.unlink()
        fingerprint = {"data_sha256": digest.hexdigest(), "cases": cases, "csv_bytes": csv_bytes}
        return PassOutcome(wall, self.ops, failed, fingerprint)


def build(name: str, seed: int, smoke: bool):
    """Everything a workload needs before its first pass: the set-up that
    ``setup_s`` times."""
    if name == "tort-train":
        return PlanWorkload(name, tort_plan(seed, smoke), parallelism=2)
    if name == "welfare-probe":
        return PlanWorkload(name, welfare_plan(seed, smoke), parallelism=1)
    if name == "data-roundtrip":
        return RoundTripWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
