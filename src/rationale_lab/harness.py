"""Orchestration of full train x test experiment matrices.

A plan names a domain, training and test set recipes, network architectures,
and a repetition count.  Each repetition regenerates every stochastic
dataset from seeds derived off the master seed, trains each architecture on
each training set, and evaluates every model on every test set.  Cells
aggregate to mean +- population standard deviation over repetitions.

Repetitions are independent jobs and may run in parallel processes; results
are folded in repetition order, so reports are identical at any parallelism.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from .domains import build_domain
from .evaluation import (
    CURVE_GRIDS,
    ConditionOutputTable,
    ConditionTableRow,
    CurveGroup,
    RationaleCurve,
    accuracy,
    condition_table,
    output_curve,
)
from .generation import (
    DEDICATED_TARGET,
    GENERATOR_VERSION,
    Dataset,
    GeneratorRequest,
    generate,
)
from .network import NetworkConfig, TrainConfig, TrainingDivergedError, train
from .network import _scaled_outputs, schema_scaling


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 64-bit child seed for (master seed, role tags), any platform."""
    digest = hashlib.blake2b(
        repr((int(master_seed),) + tuple(tags)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one train x test x architecture matrix.

    The training constants default to :class:`TrainConfig`'s.  A plan whose
    architectures or training constants the network would refuse is
    rejected here, before any of it runs.
    """

    domain_id: str
    train_specs: tuple[GeneratorRequest, ...]
    test_specs: tuple[GeneratorRequest, ...]
    architectures: tuple[tuple[int, ...], ...]
    repetitions: int = 50
    iterations: int = TrainConfig.iterations
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_specs", tuple(self.train_specs))
        object.__setattr__(self, "test_specs", tuple(self.test_specs))
        object.__setattr__(
            self, "architectures", tuple(tuple(int(w) for w in a) for a in self.architectures)
        )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.train_specs or not self.test_specs or not self.architectures:
            raise ValueError("plan needs at least one train set, test set, and architecture")
        for spec in self.train_specs + self.test_specs:
            if spec.domain_id != self.domain_id:
                raise ValueError(
                    f"spec {spec.label()} belongs to {spec.domain_id!r}, "
                    f"plan is for {self.domain_id!r}"
                )
            spec.validate()
        for what, labels in (
            ("train set", [s.label() for s in self.train_specs]),
            ("test set", [s.label() for s in self.test_specs]),
            ("architecture", [_arch_label(a) for a in self.architectures]),
        ):
            for label in labels:
                if labels.count(label) > 1:
                    raise ValueError(f"plan lists {what} {label!r} more than once")
        self._train_config()
        for arch in self.architectures:
            self._network_config(arch)

    def _network_config(self, arch: tuple[int, ...], init_seed: int = 0) -> NetworkConfig:
        return NetworkConfig(
            input_width=build_domain(self.domain_id).n_features,
            hidden_layers=arch,
            init_seed=init_seed,
        )

    def _train_config(self, shuffle_seed: int = 0) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            iterations=self.iterations,
            shuffle_seed=shuffle_seed,
        )

    @property
    def cell_count(self) -> int:
        return len(self.train_specs) * len(self.test_specs) * len(self.architectures)

    def to_dict(self) -> dict:
        def spec_dict(s: GeneratorRequest) -> dict:
            d = {"kind": s.kind}
            if s.size is not None:
                d["size"] = s.size
            return d

        return {
            "domain": self.domain_id,
            "train": [spec_dict(s) for s in self.train_specs],
            "test": [spec_dict(s) for s in self.test_specs],
            "architectures": [list(a) for a in self.architectures],
            "repetitions": self.repetitions,
            "iterations": self.iterations,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "master_seed": self.master_seed,
        }


_OPTIONAL_PLAN_KEYS = {
    "repetitions": int,
    "iterations": int,
    "learning_rate": float,
    "batch_size": int,
    "master_seed": int,
}


def plan_from_dict(doc: dict) -> ExperimentPlan:
    """A plan from its JSON form; keys the document omits take the
    :class:`ExperimentPlan` defaults."""
    domain = doc["domain"]

    def specs(entries) -> tuple[GeneratorRequest, ...]:
        return tuple(
            GeneratorRequest(domain, e["kind"], e.get("size")) for e in entries
        )

    return ExperimentPlan(
        domain_id=domain,
        train_specs=specs(doc["train"]),
        test_specs=specs(doc["test"]),
        architectures=tuple(tuple(a) for a in doc["architectures"]),
        **{key: cast(doc[key]) for key, cast in _OPTIONAL_PLAN_KEYS.items() if key in doc},
    )


def load_plan(path: str | Path) -> ExperimentPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))


def save_plan(plan: ExperimentPlan, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
    return path


def _arch_label(arch: tuple[int, ...]) -> str:
    return "-".join(str(w) for w in arch)


@dataclass(frozen=True)
class CellAggregate:
    """One (train set, test set, architecture) cell of the result matrix."""

    train: str
    test: str
    arch: str
    mean: float
    std: float
    repetitions: int
    excluded: int
    accuracies: tuple[float, ...]  # per repetition; NaN where training diverged


@dataclass(frozen=True)
class AggregateReport:
    plan: ExperimentPlan
    cells: tuple[CellAggregate, ...]
    curves: dict[str, RationaleCurve] = field(default_factory=dict)
    tables: dict[str, ConditionOutputTable] = field(default_factory=dict)


@dataclass(frozen=True)
class _RepSeeds:
    """Every seed one repetition uses.  ``init`` and ``shuffle`` are keyed by
    (train set index, architecture index)."""

    train_data: tuple[int, ...]
    test_data: tuple[int, ...]
    init: dict[tuple[int, int], int]
    shuffle: dict[tuple[int, int], int]


def _schedule(plan: ExperimentPlan) -> list[_RepSeeds]:
    """The run schedule: the only place a plan's seeds are derived.  Running
    the plan and writing its manifest both read it."""
    m = plan.master_seed
    n_train, n_test = len(plan.train_specs), len(plan.test_specs)
    jobs = [(ti, ai) for ti in range(n_train) for ai in range(len(plan.architectures))]
    return [
        _RepSeeds(
            train_data=tuple(derive_seed(m, "train-data", rep, ti) for ti in range(n_train)),
            test_data=tuple(derive_seed(m, "test-data", rep, si) for si in range(n_test)),
            init={job: derive_seed(m, "init", rep, *job) for job in jobs},
            shuffle={job: derive_seed(m, "shuffle", rep, *job) for job in jobs},
        )
        for rep in range(plan.repetitions)
    ]


@dataclass
class _RepResult:
    accuracies: np.ndarray  # (n_train, n_arch, n_test); NaN where training diverged
    curves: dict[tuple[int, int, int], RationaleCurve]  # keyed (train, arch, test)
    tables: dict[tuple[int, int, int], ConditionOutputTable]


_dataset_cache: dict[tuple, Dataset] = {}


def _dataset(spec: GeneratorRequest, seed: int) -> Dataset:
    """Generate a dataset; fully deterministic kinds are built once and reused."""
    if spec.deterministic:
        key = (spec.domain_id, spec.kind, spec.size)
        if key not in _dataset_cache:
            _dataset_cache[key] = generate(spec)
        return _dataset_cache[key]
    return generate(
        GeneratorRequest(spec.domain_id, spec.kind, spec.size, seed)
    )


class _FixedOutputs:
    """A model's outputs on one test set, computed once and handed to every
    evaluation of that set; ``outputs`` ignores its argument."""

    def __init__(self, schema_id: str, outputs: np.ndarray):
        self.schema_id = schema_id
        self._outputs = outputs

    def outputs(self, values) -> np.ndarray:
        return self._outputs


def _run_repetition(plan: ExperimentPlan, seeds: _RepSeeds) -> _RepResult:
    accs = np.full(
        (len(plan.train_specs), len(plan.architectures), len(plan.test_specs)), np.nan
    )
    curves: dict[tuple[int, int, int], RationaleCurve] = {}
    tables: dict[tuple[int, int, int], ConditionOutputTable] = {}
    train_sets = [_dataset(spec, seed) for spec, seed in zip(plan.train_specs, seeds.train_data)]
    test_sets = [_dataset(spec, seed) for spec, seed in zip(plan.test_specs, seeds.test_data)]

    models = {}
    for ti, train_set in enumerate(train_sets):
        for ai, arch in enumerate(plan.architectures):
            try:
                models[ti, ai] = train(
                    train_set,
                    plan._network_config(arch, seeds.init[ti, ai]),
                    plan._train_config(seeds.shuffle[ti, ai]),
                )
            except TrainingDivergedError:
                continue

    # Every model scales with the plan's schema_scaling, so each test set is
    # scaled once, and only one scaled copy is held at a time.
    scaling = schema_scaling(plan.domain_id)
    for si, test_set in enumerate(test_sets):
        x = scaling.apply(test_set.values)
        target = DEDICATED_TARGET.get((plan.domain_id, test_set.kind))
        grid = CURVE_GRIDS.get((plan.domain_id, target))
        for (ti, ai), model in models.items():
            model_outputs = _FixedOutputs(model.schema_id, _scaled_outputs(model.params, x))
            accs[ti, ai, si] = accuracy(model_outputs, test_set)
            if target is None:
                continue
            if grid is not None:  # read as a curve on the grid's two axes
                curves[ti, ai, si] = output_curve(model_outputs, test_set, *grid[:2])
            else:
                tables[ti, ai, si] = condition_table(model_outputs, test_set, target)
    return _RepResult(accs, curves, tables)


def _mean_curve(curves: list[RationaleCurve]) -> RationaleCurve:
    """Mean over repetitions; each group's means are averaged pointwise."""
    first = curves[0]
    return RationaleCurve(
        first.x_feature,
        first.group_feature,
        tuple(
            CurveGroup(g.label, g.xs, np.mean([c.groups[i].means for c in curves], axis=0),
                       g.counts)
            for i, g in enumerate(first.groups)
        ),
    )


def _mean_table(tables: list[ConditionOutputTable]) -> ConditionOutputTable:
    """Mean over repetitions of each row's mean output and positive rate."""
    first = tables[0]
    return ConditionOutputTable(
        first.condition_id,
        {
            value: ConditionTableRow(
                float(np.mean([t.rows[value].mean_output for t in tables])),
                row.count,
                float(np.mean([t.rows[value].positive_rate for t in tables])),
            )
            for value, row in first.rows.items()
        },
    )


def run_plan(plan: ExperimentPlan, parallelism: int = 1) -> AggregateReport:
    """Execute every repetition of a plan and aggregate the matrix.

    Training divergence in one repetition excludes that repetition from the
    affected cells' statistics; the exclusion count is reported per cell.
    """
    schedule = _schedule(plan)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_run_repetition, [plan] * len(schedule), schedule))
    else:
        results = [_run_repetition(plan, seeds) for seeds in schedule]

    accs = np.stack([r.accuracies for r in results], axis=-1)

    cells = []
    curves: dict[str, RationaleCurve] = {}
    tables: dict[str, ConditionOutputTable] = {}
    for ti, train_spec in enumerate(plan.train_specs):
        for si, test_spec in enumerate(plan.test_specs):
            for ai, arch in enumerate(plan.architectures):
                key = (ti, ai, si)
                name = f"{train_spec.label()}__{_arch_label(arch)}__{test_spec.label()}"
                rep_curves = [r.curves[key] for r in results if key in r.curves]
                if rep_curves:
                    curves[name] = _mean_curve(rep_curves)
                rep_tables = [r.tables[key] for r in results if key in r.tables]
                if rep_tables:
                    tables[name] = _mean_table(rep_tables)
                per_rep = accs[ti, ai, si, :]
                finite = per_rep[np.isfinite(per_rep)]
                cells.append(
                    CellAggregate(
                        train=train_spec.label(),
                        test=test_spec.label(),
                        arch=_arch_label(arch),
                        mean=float(finite.mean()) if len(finite) else float("nan"),
                        std=float(finite.std()) if len(finite) else float("nan"),
                        repetitions=plan.repetitions,
                        excluded=int(plan.repetitions - len(finite)),
                        accuracies=tuple(float(a) for a in per_rep),
                    )
                )
    return AggregateReport(plan=plan, cells=tuple(cells), curves=curves, tables=tables)


# ---------------------------------------------------------------------------
# Report emission and replay
# ---------------------------------------------------------------------------

def _seed_table(plan: ExperimentPlan) -> list[dict]:
    """The run schedule as the manifest records it, keyed by labels."""
    train = [spec.label() for spec in plan.train_specs]
    test = [spec.label() for spec in plan.test_specs]
    job = {
        (ti, ai): f"{train[ti]}__{_arch_label(arch)}"
        for ti in range(len(train))
        for ai, arch in enumerate(plan.architectures)
    }
    return [
        {
            "repetition": rep,
            "train_data": dict(zip(train, seeds.train_data)),
            "test_data": dict(zip(test, seeds.test_data)),
            "init": {job[k]: seed for k, seed in seeds.init.items()},
            "shuffle": {job[k]: seed for k, seed in seeds.shuffle.items()},
        }
        for rep, seeds in enumerate(_schedule(plan))
    ]


def _json_safe(value: float) -> float | None:
    return None if not np.isfinite(value) else float(value)


def summary_dict(report: AggregateReport) -> dict:
    """The content of ``summary.json``; ``condition_tables.json`` holds its
    ``condition_tables``."""
    return {
        "plan": report.plan.to_dict(),
        "generator_version": GENERATOR_VERSION,
        "package_version": _package_version,
        "cells": [
            {
                "train": c.train,
                "test": c.test,
                "arch": c.arch,
                "mean": _json_safe(c.mean),
                "std": _json_safe(c.std),
                "repetitions": c.repetitions,
                "excluded": c.excluded,
                "accuracies": [_json_safe(a) for a in c.accuracies],
            }
            for c in report.cells
        ],
        "condition_tables": {k: t.to_dict() for k, t in sorted(report.tables.items())},
    }


def emit_report(report: AggregateReport, out_dir: str | Path) -> dict[str, Path]:
    """Write summary JSON, the accuracy matrix CSV, curve TSVs, condition
    tables, and a seed manifest; returns the paths written.

    Every file except the manifest is byte-deterministic for a given plan;
    the manifest additionally carries a wall-clock timestamp.
    """
    from .evaluation import write_curve_tsv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    doc = summary_dict(report)
    summary = out / "summary.json"
    summary.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    paths["summary"] = summary

    matrix = out / "accuracy_matrix.csv"
    lines = ["train,test,arch,mean_pct,std_pct,repetitions,excluded"]
    for c in report.cells:
        mean = f"{100 * c.mean:.2f}" if np.isfinite(c.mean) else ""
        std = f"{100 * c.std:.2f}" if np.isfinite(c.std) else ""
        lines.append(f"{c.train},{c.test},{c.arch},{mean},{std},{c.repetitions},{c.excluded}")
    matrix.write_text("\n".join(lines) + "\n")
    paths["accuracy_matrix"] = matrix

    if report.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for name, curve in sorted(report.curves.items()):
            paths[f"curve:{name}"] = write_curve_tsv(curve, curve_dir / f"{name}.tsv")

    if report.tables:
        tables = out / "condition_tables.json"
        tables.write_text(json.dumps(doc["condition_tables"], sort_keys=True, indent=2) + "\n")
        paths["condition_tables"] = tables

    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "plan": report.plan.to_dict(),
                "master_seed": report.plan.master_seed,
                "generator_version": GENERATOR_VERSION,
                "package_version": _package_version,
                "created_unix": int(time.time()),
                "seeds": _seed_table(report.plan),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    paths["manifest"] = manifest
    return paths


def replay(manifest_path: str | Path, out_dir: str | Path,
           parallelism: int = 1) -> AggregateReport:
    """Re-run the plan recorded in a manifest; same platform, same numbers.

    Raises ValueError, before anything is written, when the manifest was made
    by another generator or package version or its seeds are not the ones
    its plan derives.
    """
    doc = json.loads(Path(manifest_path).read_text())
    plan = plan_from_dict(doc["plan"])
    for key, running in (("generator_version", GENERATOR_VERSION),
                         ("package_version", _package_version)):
        if doc.get(key) != running:
            raise ValueError(f"manifest {key} is {doc.get(key)!r}, running {running!r}")
    if doc.get("seeds") != _seed_table(plan):
        raise ValueError("manifest seeds differ from the schedule its plan derives")
    report = run_plan(plan, parallelism=parallelism)
    emit_report(report, out_dir)
    return report
