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
from .evaluation import (
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

_CURVE_AXES = {"age-gender": ("Age", "Gender"), "patient-distance": ("Distance", "Type")}


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 64-bit child seed for (master seed, role tags), any platform."""
    digest = hashlib.blake2b(
        repr((int(master_seed),) + tuple(tags)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one train x test x architecture matrix."""

    domain_id: str
    train_specs: tuple[GeneratorRequest, ...]
    test_specs: tuple[GeneratorRequest, ...]
    architectures: tuple[tuple[int, ...], ...]
    repetitions: int = 50
    iterations: int = 50_000
    learning_rate: float = 0.001
    batch_size: int = 50
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


def plan_from_dict(doc: dict) -> ExperimentPlan:
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
        repetitions=int(doc.get("repetitions", 50)),
        iterations=int(doc.get("iterations", 50_000)),
        learning_rate=float(doc.get("learning_rate", 0.001)),
        batch_size=int(doc.get("batch_size", 50)),
        master_seed=int(doc.get("master_seed", 0)),
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

    def cell(self, train: str, test: str, arch: str) -> CellAggregate:
        for c in self.cells:
            if (c.train, c.test, c.arch) == (train, test, arch):
                return c
        raise KeyError(f"no cell ({train!r}, {test!r}, {arch!r})")


@dataclass
class _RepResult:
    accuracies: np.ndarray  # (n_train, n_arch, n_test)
    diverged: np.ndarray  # (n_train, n_arch) bool
    curves: dict[tuple[int, int, int], tuple[np.ndarray, ...]]
    tables: dict[tuple[int, int, int], tuple[float, float, float, float, int, int]]


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


def _run_repetition(plan: ExperimentPlan, rep: int) -> _RepResult:
    n_train, n_arch = len(plan.train_specs), len(plan.architectures)
    n_test = len(plan.test_specs)
    accs = np.full((n_train, n_arch, n_test), np.nan)
    diverged = np.zeros((n_train, n_arch), dtype=bool)
    curves: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}
    tables: dict[tuple[int, int, int], tuple] = {}

    train_sets = [
        _dataset(spec, derive_seed(plan.master_seed, "train-data", rep, ti))
        for ti, spec in enumerate(plan.train_specs)
    ]
    test_sets = [
        _dataset(spec, derive_seed(plan.master_seed, "test-data", rep, si))
        for si, spec in enumerate(plan.test_specs)
    ]

    for ti, train_set in enumerate(train_sets):
        for ai, arch in enumerate(plan.architectures):
            net_cfg = NetworkConfig(
                input_width=train_set.schema.n_features,
                hidden_layers=arch,
                init_seed=derive_seed(plan.master_seed, "init", rep, ti, ai),
            )
            train_cfg = TrainConfig(
                learning_rate=plan.learning_rate,
                batch_size=plan.batch_size,
                iterations=plan.iterations,
                shuffle_seed=derive_seed(plan.master_seed, "shuffle", rep, ti, ai),
            )
            try:
                model = train(train_set, net_cfg, train_cfg)
            except TrainingDivergedError:
                diverged[ti, ai] = True
                continue
            for si, test_set in enumerate(test_sets):
                model_outputs = _FixedOutputs(model.schema_id, model.outputs(test_set.values))
                accs[ti, ai, si] = accuracy(model_outputs, test_set)
                target = DEDICATED_TARGET.get((plan.domain_id, test_set.kind))
                if target is None:
                    continue
                if test_set.kind in _CURVE_AXES:
                    x_feat, g_feat = _CURVE_AXES[test_set.kind]
                    curve = output_curve(model_outputs, test_set, x_feat, g_feat)
                    curves[(ti, ai, si)] = (
                        curve.groups[0].xs,
                        curve.groups[0].means,
                        curve.groups[0].counts,
                        curve.groups[1].xs,
                        curve.groups[1].means,
                        curve.groups[1].counts,
                    )
                else:
                    tbl = condition_table(model_outputs, test_set, target)
                    tables[(ti, ai, si)] = (
                        tbl.rows[False].mean_output,
                        tbl.rows[True].mean_output,
                        tbl.rows[False].positive_rate,
                        tbl.rows[True].positive_rate,
                        tbl.rows[False].count,
                        tbl.rows[True].count,
                    )
    return _RepResult(accs, diverged, curves, tables)


def _worker(args: tuple[ExperimentPlan, int]) -> _RepResult:
    return _run_repetition(*args)


def run_plan(plan: ExperimentPlan, parallelism: int = 1) -> AggregateReport:
    """Execute every repetition of a plan and aggregate the matrix.

    Training divergence in one repetition excludes that repetition from the
    affected cells' statistics; the exclusion count is reported per cell.
    """
    reps = range(plan.repetitions)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_worker, [(plan, r) for r in reps]))
    else:
        results = [_run_repetition(plan, r) for r in reps]

    n_train, n_arch = len(plan.train_specs), len(plan.architectures)
    n_test = len(plan.test_specs)
    accs = np.stack([r.accuracies for r in results], axis=-1)

    cells = []
    for ti, train_spec in enumerate(plan.train_specs):
        for si, test_spec in enumerate(plan.test_specs):
            for ai, arch in enumerate(plan.architectures):
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

    curves: dict[str, RationaleCurve] = {}
    tables: dict[str, ConditionOutputTable] = {}
    for ti, train_spec in enumerate(plan.train_specs):
        for ai, arch in enumerate(plan.architectures):
            for si, test_spec in enumerate(plan.test_specs):
                key = (ti, ai, si)
                name = f"{train_spec.label()}__{_arch_label(arch)}__{test_spec.label()}"
                reps_with = [r for r in results if key in r.curves]
                if reps_with:
                    first = reps_with[0].curves[key]
                    g_labels = _curve_group_labels(plan.domain_id, test_spec.kind)
                    means0 = np.mean([r.curves[key][1] for r in reps_with], axis=0)
                    means1 = np.mean([r.curves[key][4] for r in reps_with], axis=0)
                    x_feat, g_feat = _CURVE_AXES[test_spec.kind]
                    curves[name] = RationaleCurve(
                        x_feature=x_feat,
                        group_feature=g_feat,
                        groups=(
                            CurveGroup(g_labels[0], first[0], means0, first[2]),
                            CurveGroup(g_labels[1], first[3], means1, first[5]),
                        ),
                    )
                reps_with = [r for r in results if key in r.tables]
                if reps_with:
                    rows = np.array([r.tables[key][:4] for r in reps_with])
                    counts = reps_with[0].tables[key][4:]
                    tables[name] = ConditionOutputTable(
                        condition_id=DEDICATED_TARGET[(plan.domain_id, test_spec.kind)],
                        rows={
                            False: ConditionTableRow(
                                float(rows[:, 0].mean()), counts[0], float(rows[:, 2].mean())
                            ),
                            True: ConditionTableRow(
                                float(rows[:, 1].mean()), counts[1], float(rows[:, 3].mean())
                            ),
                        },
                    )
    return AggregateReport(plan=plan, cells=tuple(cells), curves=curves, tables=tables)


def _curve_group_labels(domain_id: str, kind: str) -> tuple[str, str]:
    from .domains import build_domain

    schema = build_domain(domain_id)
    g_spec = schema.feature(_CURVE_AXES[kind][1])
    return (str(g_spec.decode(0)), str(g_spec.decode(1)))


# ---------------------------------------------------------------------------
# Report emission and replay
# ---------------------------------------------------------------------------

def _seed_table(plan: ExperimentPlan) -> list[dict]:
    rows = []
    for rep in range(plan.repetitions):
        rows.append(
            {
                "repetition": rep,
                "train_data": {
                    spec.label(): derive_seed(plan.master_seed, "train-data", rep, ti)
                    for ti, spec in enumerate(plan.train_specs)
                },
                "test_data": {
                    spec.label(): derive_seed(plan.master_seed, "test-data", rep, si)
                    for si, spec in enumerate(plan.test_specs)
                },
                "init": {
                    f"{spec.label()}__{_arch_label(arch)}": derive_seed(
                        plan.master_seed, "init", rep, ti, ai
                    )
                    for ti, spec in enumerate(plan.train_specs)
                    for ai, arch in enumerate(plan.architectures)
                },
                "shuffle": {
                    f"{spec.label()}__{_arch_label(arch)}": derive_seed(
                        plan.master_seed, "shuffle", rep, ti, ai
                    )
                    for ti, spec in enumerate(plan.train_specs)
                    for ai, arch in enumerate(plan.architectures)
                },
            }
        )
    return rows


def _json_safe(value: float) -> float | None:
    return None if not np.isfinite(value) else float(value)


def summary_dict(report: AggregateReport) -> dict:
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

    summary = out / "summary.json"
    summary.write_text(json.dumps(summary_dict(report), sort_keys=True, indent=2) + "\n")
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
        tables.write_text(
            json.dumps(
                {k: t.to_dict() for k, t in sorted(report.tables.items())},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
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
    """Re-run the plan recorded in a manifest; same platform, same numbers."""
    doc = json.loads(Path(manifest_path).read_text())
    plan = plan_from_dict(doc["plan"])
    report = run_plan(plan, parallelism=parallelism)
    emit_report(report, out_dir)
    return report
