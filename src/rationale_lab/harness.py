"""Orchestration of full train x test experiment matrices.

A plan names a domain, training and test set recipes, network architectures,
and a repetition count.  Each repetition regenerates every stochastic
dataset from seeds derived off the master seed, trains each architecture on
each training set, and evaluates every model on every test set.  Cells
aggregate to mean +- population standard deviation over repetitions.

A plan builds its seed-independent sets once and hands them to every
repetition; nothing outlives the plan.  A repetition holds one large dataset
at a time: each train set is generated just before its models are trained
and dropped before the next is generated; each test set is generated, scaled
and evaluated only after every model is trained, and dropped before the next.

Repetitions are independent jobs and may run in parallel processes; results
are folded in repetition order, so reports are identical at any parallelism.

A plan file holds ``domain``, ``train``, ``test`` and ``architectures``, plus
any of ``ExperimentPlan``'s scalar fields, each of its field's JSON type.
An unknown key, a value of the wrong type, or a file that is not valid JSON
is rejected, naming the key or the file, before anything runs.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from ._jsonfile import read_json, typed_fields, write_json
from .domains import build_domain
from .evaluation import (
    ConditionOutputTable,
    RationaleCurve,
    accuracy,
    condition_table,
    output_curve,
    write_curve_tsv,
)
from .generation import (
    CURVE_GRIDS,
    DEDICATED_TARGET,
    GENERATOR_VERSION,
    KINDS,
    Dataset,
    GeneratorRequest,
    generate,
)
from .network import NetworkConfig, TrainConfig, TrainingDivergedError, train
from .network import _forward_scaled, schema_scaling


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
            **{name: getattr(self, name) for name in _PLAN_SCALARS},
        }


# the plan keys that fill ExperimentPlan's scalar fields: those with a default
_PLAN_SCALARS = tuple(f.name for f in fields(ExperimentPlan) if f.default is not MISSING)


def _is_spec(entry) -> bool:
    return (isinstance(entry, dict) and set(entry) <= {"kind", "size"}
            and type(entry.get("kind")) is str and type(entry.get("size")) in (int, type(None)))


def _is_arch(entry) -> bool:
    return isinstance(entry, list) and all(type(w) is int for w in entry)


def plan_from_dict(doc: dict) -> ExperimentPlan:
    """A plan from its JSON form; scalar keys the document omits take the
    :class:`ExperimentPlan` defaults.  A missing or unknown key, or a value
    of the wrong JSON type, raises ValueError naming its key."""
    if not isinstance(doc, dict):
        raise ValueError(f"a plan must be a JSON object, got {type(doc).__name__}")

    def checked(key: str, ok):
        if key not in doc:
            raise ValueError(f"plan key {key!r} is missing")
        if not ok(doc[key]):
            raise ValueError(f"plan key {key!r} is malformed: {doc[key]!r}")
        return doc[key]

    def listed(key: str, ok) -> list:
        return checked(key, lambda v: isinstance(v, list) and all(map(ok, v)))

    lists = ("domain", "train", "test", "architectures")
    scalars = {key: value for key, value in doc.items() if key not in lists}
    domain = checked("domain", lambda v: isinstance(v, str))
    train, test = listed("train", _is_spec), listed("test", _is_spec)
    architectures = tuple(tuple(a) for a in listed("architectures", _is_arch))
    scalars = typed_fields(ExperimentPlan, scalars, "plan", names=_PLAN_SCALARS)
    # a request checks its kind's rules when it is built: after every key
    train_specs, test_specs = ([GeneratorRequest(domain, e["kind"], e.get("size"))
                                for e in entries] for entries in (train, test))
    return ExperimentPlan(domain, train_specs, test_specs, architectures, **scalars)


def load_plan(path: str | Path) -> ExperimentPlan:
    doc = read_json(path, "a plan")
    try:
        return plan_from_dict(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _arch_label(arch: tuple[int, ...]) -> str:
    return "-".join(str(w) for w in arch)


def _model_label(train_spec: GeneratorRequest, arch: tuple[int, ...]) -> str:
    """``train__arch``: names a model in the seed schedule and its cells."""
    return f"{train_spec.label()}__{_arch_label(arch)}"


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
    """Every seed one repetition uses, as the manifest records it: data seeds
    keyed by set label, ``init`` and ``shuffle`` by :func:`_model_label`."""

    repetition: int
    train_data: dict[str, int]
    test_data: dict[str, int]
    init: dict[str, int]
    shuffle: dict[str, int]


def _schedule(plan: ExperimentPlan) -> list[_RepSeeds]:
    """The run schedule: the only place a plan's seeds are derived.  Running
    the plan and writing its manifest both read it.  A seed is derived from
    the indices of its sets and architecture in the plan, not their labels."""
    m = plan.master_seed
    jobs = {
        _model_label(spec, arch): (ti, ai)
        for ti, spec in enumerate(plan.train_specs)
        for ai, arch in enumerate(plan.architectures)
    }
    return [
        _RepSeeds(
            repetition=rep,
            train_data={s.label(): derive_seed(m, "train-data", rep, i)
                        for i, s in enumerate(plan.train_specs)},
            test_data={s.label(): derive_seed(m, "test-data", rep, i)
                       for i, s in enumerate(plan.test_specs)},
            init={job: derive_seed(m, "init", rep, *at) for job, at in jobs.items()},
            shuffle={job: derive_seed(m, "shuffle", rep, *at) for job, at in jobs.items()},
        )
        for rep in range(plan.repetitions)
    ]


def _run_repetition(plan: ExperimentPlan, seeds: _RepSeeds,
                    fixed: dict[GeneratorRequest, Dataset]) -> dict[str, tuple]:
    """One repetition's cells, keyed ``train__arch__test``: (accuracy, a curve
    or condition table on a dedicated set, else None); a diverged model has
    none.  ``fixed`` holds the plan's seed-independent sets."""

    def dataset(spec: GeneratorRequest, seed: int) -> Dataset:
        return fixed[spec] if spec in fixed else generate(replace(spec, seed=seed))

    models = {}
    for train_spec in plan.train_specs:
        train_set = dataset(train_spec, seeds.train_data[train_spec.label()])
        for arch in plan.architectures:
            job = _model_label(train_spec, arch)
            try:
                models[job] = train(
                    train_set,
                    plan._network_config(arch, seeds.init[job]),
                    plan._train_config(seeds.shuffle[job]),
                )
            except TrainingDivergedError:
                continue
        del train_set  # before the next one is generated

    # Every model scales with the plan's schema_scaling, so each test set is
    # scaled once.
    scaling = schema_scaling(plan.domain_id)
    cells: dict[str, tuple] = {}
    for test_spec in plan.test_specs:
        test_set = dataset(test_spec, seeds.test_data[test_spec.label()])
        x = scaling.apply(test_set.values)
        target = DEDICATED_TARGET.get((plan.domain_id, test_set.kind))
        grid = CURVE_GRIDS.get((plan.domain_id, target))
        for job, model in models.items():
            outputs = _forward_scaled(model.params, x)[0][-1][:, 0]
            acc, reading = accuracy(outputs, test_set), None
            if grid is not None:  # read as a curve on the grid's two axes
                reading = output_curve(outputs, test_set, *grid[:2])
            elif target is not None:
                reading = condition_table(outputs, test_set, target)
            cells[f"{job}__{test_spec.label()}"] = (acc, reading)
        del test_set, x  # before the next one is generated
    return cells


def _mean_curve(curves: list[RationaleCurve]) -> RationaleCurve:
    """Mean over repetitions; each group's means are averaged pointwise."""
    return replace(curves[0], groups=tuple(
        replace(g, means=np.mean([c.groups[i].means for c in curves], axis=0))
        for i, g in enumerate(curves[0].groups)))


def _mean_table(tables: list[ConditionOutputTable]) -> ConditionOutputTable:
    """Mean over repetitions of each row's mean output and positive rate."""

    def mean_row(rows):
        return replace(rows[0], mean_output=float(np.mean([r.mean_output for r in rows])),
                       positive_rate=float(np.mean([r.positive_rate for r in rows])))

    return replace(tables[0], false=mean_row([t.false for t in tables]),
                   true=mean_row([t.true for t in tables]))


def run_plan(plan: ExperimentPlan, parallelism: int = 1) -> AggregateReport:
    """Execute every repetition of a plan and aggregate the matrix.

    Training divergence in one repetition excludes that repetition from the
    affected cells' statistics; the exclusion count is reported per cell.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    schedule = _schedule(plan)
    fixed = {spec: generate(spec) for spec in dict.fromkeys(plan.train_specs + plan.test_specs)
             if KINDS[spec.domain_id, spec.kind].seed_independent}
    jobs = ([plan] * len(schedule), schedule, [fixed] * len(schedule))
    workers = min(parallelism, plan.repetitions)  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_repetition, *jobs))
    else:
        results = list(map(_run_repetition, *jobs))

    cells = []
    curves: dict[str, RationaleCurve] = {}
    tables: dict[str, ConditionOutputTable] = {}
    for train_spec in plan.train_specs:
        for test_spec in plan.test_specs:
            for arch in plan.architectures:
                name = f"{_model_label(train_spec, arch)}__{test_spec.label()}"
                rep_cells = [r.get(name, (np.nan, None)) for r in results]
                readings = [reading for _, reading in rep_cells if reading is not None]
                if readings and isinstance(readings[0], RationaleCurve):
                    curves[name] = _mean_curve(readings)
                elif readings:
                    tables[name] = _mean_table(readings)
                per_rep = np.array([acc for acc, _ in rep_cells])
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

# the versions a report records, and a replay must run under
_VERSIONS = {"generator_version": GENERATOR_VERSION, "package_version": _package_version}


def _seed_table(plan: ExperimentPlan) -> list[dict]:
    """The manifest's seeds, which a replay checks against its own."""
    return [asdict(seeds) for seeds in _schedule(plan)]


def _json_safe(value: float) -> float | None:
    return None if not np.isfinite(value) else float(value)


# accuracy_matrix.csv has a column for each CellAggregate field but those it
# omits; the _MATRIX_PCT fields are written as <name>_pct, in percent
_MATRIX_OMITTED = ("accuracies",)
_MATRIX_PCT = ("mean", "std")
_MATRIX_FIELDS = tuple(f.name for f in fields(CellAggregate) if f.name not in _MATRIX_OMITTED)


def _matrix_field(name: str, value) -> str:
    if name not in _MATRIX_PCT:
        return str(value)
    return f"{100 * value:.2f}" if np.isfinite(value) else ""


def emit_report(report: AggregateReport, out_dir: str | Path) -> dict[str, Path]:
    """Write summary JSON (its ``condition_tables`` included), the accuracy
    matrix CSV, curve TSVs, and a seed manifest; returns the paths written.

    Every file except the manifest is byte-deterministic for a given plan;
    the manifest additionally carries a wall-clock timestamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["summary"] = write_json(out / "summary.json", {
        "plan": report.plan.to_dict(),
        **_VERSIONS,
        "cells": [
            {**asdict(c), "mean": _json_safe(c.mean), "std": _json_safe(c.std),
             "accuracies": [_json_safe(a) for a in c.accuracies]}
            for c in report.cells
        ],
        "condition_tables": {k: t.to_dict() for k, t in sorted(report.tables.items())},
    })

    matrix = out / "accuracy_matrix.csv"
    lines = [",".join(f"{name}_pct" if name in _MATRIX_PCT else name
                      for name in _MATRIX_FIELDS)]
    for c in report.cells:
        lines.append(",".join(_matrix_field(name, getattr(c, name)) for name in _MATRIX_FIELDS))
    matrix.write_text("\n".join(lines) + "\n")
    paths["accuracy_matrix"] = matrix

    if report.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for name, curve in sorted(report.curves.items()):
            paths[f"curve:{name}"] = write_curve_tsv(curve, curve_dir / f"{name}.tsv")

    paths["manifest"] = write_json(out / "manifest.json", {
        "plan": report.plan.to_dict(),
        **_VERSIONS,
        "created_unix": int(time.time()),
        "seeds": _seed_table(report.plan),
    })
    return paths


def replay(manifest_path: str | Path, out_dir: str | Path,
           parallelism: int = 1) -> AggregateReport:
    """Re-run the plan recorded in a manifest; same platform, same numbers.

    Raises ValueError, before anything is written, when the manifest was made
    by another generator or package version or its seeds are not the ones
    its plan derives.
    """
    doc = read_json(manifest_path, "a manifest")
    try:
        plan = plan_from_dict(doc.get("plan"))
        for key, running in _VERSIONS.items():
            if doc.get(key) != running:
                raise ValueError(f"manifest {key} is {doc.get(key)!r}, running {running!r}")
        seeds = doc.get("seeds")  # its length first: a plan's repetitions may be any integer
        if (not isinstance(seeds, list) or len(seeds) != plan.repetitions
                or seeds != _seed_table(plan)):
            raise ValueError("manifest seeds differ from the schedule its plan derives")
    except ValueError as err:
        raise ValueError(f"{manifest_path}: {err}") from None
    report = run_plan(plan, parallelism=parallelism)
    emit_report(report, out_dir)
    return report
