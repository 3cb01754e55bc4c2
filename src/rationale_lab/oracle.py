"""Independent brute-force ground truth for auditing generated datasets.

Everything here re-derives labels and counts from scratch: the condition
formulas are transcribed again in a different style instead of reusing
:mod:`rationale_lab.domains`, so that an audit never shares code with the
system it audits.  Expected sizes and label fractions of the enumerated
dataset kinds are computed by enumeration, never copied in as constants.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .domains import DomainSchema, SchemaValidationError, build_domain
from .generation import Dataset, DatasetMeta, GENERATOR_VERSION

_WELFARE_CONDITION_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")
_TORT_CONDITION_IDS = ("c1", "c2", "c3", "c4", "c5")


def _age_gender_ok(cols: dict[str, np.ndarray]) -> np.ndarray:
    return np.where(cols["Gender"] == 1, cols["Age"] >= 60, cols["Age"] >= 65)


def _patient_distance_ok(cols: dict[str, np.ndarray]) -> np.ndarray:
    return np.where(cols["Type"] == 0, cols["Distance"] < 50, cols["Distance"] >= 50)


def _welfare_conditions(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Truth of C1..C6 per row, columns in condition order."""
    paid = sum(cols[f"Con{i}"] for i in range(1, 6))
    return np.stack(
        [
            _age_gender_ok(cols),
            paid >= 4,
            cols["Spouse"] == 1,
            cols["Absent"] == 0,
            cols["Resources"] < 3000,
            _patient_distance_ok(cols),
        ],
        axis=-1,
    )


def _tort_conditions(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Truth of c1..c5 per row, columns in condition order."""
    c1 = cols["cau"] == 1
    c2 = (cols["ico"] + cols["ila"] + cols["ift"]) >= 1
    c3 = (cols["vun"] == 1) | (
        (cols["jus"] == 0) & ((cols["vst"] == 1) | (cols["vrt"] == 1))
    )
    c4 = cols["dmg"] == 1
    c5 = (cols["vst"] == 0) | (cols["prp"] == 1)
    return np.stack([c1, c2, c3, c4, c5], axis=-1)


def condition_ids(domain_id: str) -> tuple[str, ...]:
    return _TORT_CONDITION_IDS if domain_id == "tort" else _WELFARE_CONDITION_IDS[
        : 2 if domain_id == "simplified" else 6
    ]


def condition_truth(schema: DomainSchema, values: np.ndarray) -> np.ndarray:
    """Per-row condition truth table via the oracle's own transcription."""
    cols = {name: values[:, i] for i, name in enumerate(schema.feature_names)}
    if schema.domain_id == "tort":
        return _tort_conditions(cols)
    if schema.domain_id == "simplified":
        return np.stack([_age_gender_ok(cols), _patient_distance_ok(cols)], axis=-1)
    return _welfare_conditions(cols)


def labels_of(schema: DomainSchema, values: np.ndarray) -> np.ndarray:
    return condition_truth(schema, values).all(axis=1)


def enumerate_tort() -> Dataset:
    """All 1024 tort cases with oracle labels, lexicographic case order."""
    schema = build_domain("tort")
    values = np.array(
        list(itertools.product((0, 1), repeat=schema.n_features)), dtype=schema.value_dtype
    )
    labels = labels_of(schema, values).astype(np.uint8)
    meta = DatasetMeta(
        seed=0,
        generator_version=GENERATOR_VERSION,
        size=len(values),
        positive_fraction=float(labels.mean()),
    )
    return Dataset("tort", "unique", values, labels, meta)


@dataclass(frozen=True)
class ExpectedStats:
    size: int
    positive_fraction: float


def expected_stats(domain_id: str, kind: str) -> ExpectedStats:
    """Closed-form size and label fraction of an enumerated dataset kind.

    Values are computed by enumerating the defining grid against the
    oracle's condition transcription.  Sampled kinds (type-a, type-b,
    regular) have no enumeration and are rejected.
    """
    if domain_id == "tort":
        if kind not in ("unique", "unlawfulness", "imputability"):
            raise ValueError(f"tort kind {kind!r} has no enumerated statistics")
        universe = enumerate_tort()
        truth = condition_truth(universe.schema, universe.values)
        if kind == "unique":
            keep = np.ones(len(universe), dtype=bool)
        else:
            target = "c3" if kind == "unlawfulness" else "c2"
            others = [i for i, cid in enumerate(_TORT_CONDITION_IDS) if cid != target]
            keep = truth[:, others].all(axis=1)
        labels = truth[keep].all(axis=1)
        return ExpectedStats(int(keep.sum()), float(labels.mean()))

    if domain_id in ("welfare", "simplified"):
        if kind not in ("age-gender", "patient-distance"):
            raise ValueError(f"{domain_id} kind {kind!r} has no enumerated statistics")
        if kind == "age-gender":
            if domain_id == "welfare":
                ages, multiplicity = np.arange(5, 101, 5), 1000
            else:
                ages, multiplicity = np.arange(0, 101), 21
            grid = np.array([(a, g) for a in ages for g in (0, 1)], dtype=np.int64)
            truth = _age_gender_ok({"Age": grid[:, 0], "Gender": grid[:, 1]})
        else:
            if domain_id == "welfare":
                distances, multiplicity = np.arange(5, 101, 5), 1000
            else:
                distances, multiplicity = np.arange(0, 101, 5), 77
            grid = np.array(
                [(d, t) for d in distances for t in (0, 1)], dtype=np.int64
            )
            truth = _patient_distance_ok({"Distance": grid[:, 0], "Type": grid[:, 1]})
        size = len(grid) * multiplicity
        positives = int(truth.sum()) * multiplicity
        return ExpectedStats(size, positives / size)

    raise ValueError(f"unknown domain {domain_id!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a full dataset audit."""

    dataset_kind: str
    size_ok: bool
    label_mismatches: int
    mismatch_rows: tuple[int, ...]
    positive_fraction: float
    per_condition_failure_counts: dict[str, int] = field(default_factory=dict)
    failed_condition_histogram: dict[int, int] = field(default_factory=dict)
    duplicate_count: int = 0

    @property
    def passed(self) -> bool:
        return self.size_ok and self.label_mismatches == 0

    def to_dict(self) -> dict:
        """Every field and ``passed``; JSON writes the histogram's keys as strings."""
        return {**asdict(self), "passed": self.passed}


def verify_dataset(dataset: Dataset, schema: DomainSchema) -> VerificationReport:
    """Audit a dataset: labels, size, distribution, and negative structure.

    Labels are recomputed twice, once through the schema's condition objects
    and once through this module's transcription; a stored label counts as a
    mismatch if it disagrees with either.  Duplicates are counted on the rows
    as C-contiguous ``schema.value_dtype``, each row compared as one
    ``np.void`` item: generated and read-back rows already are, so only rows
    of another dtype or layout are copied.
    """
    if dataset.schema_id != schema.domain_id:
        raise SchemaValidationError(
            f"dataset carries schema {dataset.schema_id!r}, expected "
            f"{schema.domain_id!r}"
        )
    schema.validate_matrix(dataset.values)
    stored = dataset.labels.astype(bool)

    truth = condition_truth(schema, dataset.values)
    transcribed = truth.all(axis=1)
    recomputed = schema.label_matrix(dataset.values)
    bad = (stored != recomputed) | (recomputed != transcribed)
    mismatch_rows = tuple(int(i) for i in np.flatnonzero(bad))

    negatives = truth[~stored]
    fails_per_case = (~negatives).sum(axis=1)
    ids = condition_ids(schema.domain_id)
    per_condition = {
        cid: int((~negatives[:, j]).sum()) for j, cid in enumerate(ids)
    }
    histogram = {
        int(k): int(n) for k, n in zip(*np.unique(fails_per_case, return_counts=True))
    }

    n = len(dataset)
    size_ok = dataset.meta.size == n
    try:
        size_ok = size_ok and expected_stats(schema.domain_id, dataset.kind).size == n
    except ValueError:
        pass  # sampled kind: no enumerated size to compare against

    # the cells are validated, so the narrow cast makes no two rows equal
    rows = dataset.values.astype(schema.value_dtype, order="C", copy=False)
    duplicate_count = n - len(np.unique(rows.view((np.void, rows.itemsize * rows.shape[1]))))
    return VerificationReport(
        dataset_kind=dataset.kind,
        size_ok=size_ok,
        label_mismatches=len(mismatch_rows),
        mismatch_rows=mismatch_rows,
        positive_fraction=float(stored.mean()) if n else 0.0,
        per_condition_failure_counts=per_condition,
        failed_condition_histogram=histogram,
        duplicate_count=duplicate_count,
    )

