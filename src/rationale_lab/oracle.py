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
from .generation import Dataset


# domain -> {condition id: truth over a dict of columns}, in condition order
_CONDITIONS = {
    "welfare": {
        "C1": lambda cols: np.where(cols["Gender"] == 1, cols["Age"] >= 60, cols["Age"] >= 65),
        "C2": lambda cols: sum(cols[f"Con{i}"] for i in range(1, 6)) >= 4,
        "C3": lambda cols: cols["Spouse"] == 1,
        "C4": lambda cols: cols["Absent"] == 0,
        "C5": lambda cols: cols["Resources"] < 3000,
        "C6": lambda cols: np.where(cols["Type"] == 0, cols["Distance"] < 50,
                                    cols["Distance"] >= 50),
    },
    "tort": {
        "c1": lambda cols: cols["cau"] == 1,
        "c2": lambda cols: (cols["ico"] + cols["ila"] + cols["ift"]) >= 1,
        "c3": lambda cols: (cols["vun"] == 1) | (
            (cols["jus"] == 0) & ((cols["vst"] == 1) | (cols["vrt"] == 1))),
        "c4": lambda cols: cols["dmg"] == 1,
        "c5": lambda cols: (cols["vst"] == 0) | (cols["prp"] == 1),
    },
}
_CONDITIONS["simplified"] = {cid: _CONDITIONS["welfare"][cid] for cid in ("C1", "C6")}

# (domain, kind) -> (the condition the kind isolates, its curve grid).  A tort
# kind is the unique cases on which every condition but its own holds (all of
# them for ``unique``); a curve grid is (x feature, group feature, xs, cases
# per cell), every other condition holding in each cell.  A simplified cell
# holds a case for each true cell of the other simplified kind's grid.
_ENUMERATED = {
    ("tort", "unique"): (None, None),
    ("tort", "unlawfulness"): ("c3", None),
    ("tort", "imputability"): ("c2", None),
    ("welfare", "age-gender"): ("C1", ("Age", "Gender", np.arange(5, 101, 5), 1000)),
    ("welfare", "patient-distance"): ("C6", ("Distance", "Type", np.arange(5, 101, 5), 1000)),
    ("simplified", "age-gender"): ("C1", ("Age", "Gender", np.arange(101), "patient-distance")),
    ("simplified", "patient-distance"): ("C6", ("Distance", "Type", np.arange(0, 101, 5),
                                                "age-gender")),
}


def condition_truth(schema: DomainSchema, values: np.ndarray) -> np.ndarray:
    """Per-row condition truth table via the oracle's own transcription,
    columns in condition order."""
    cols = {name: values[:, i] for i, name in enumerate(schema.feature_names)}
    return np.stack([ok(cols) for ok in _CONDITIONS[schema.domain_id].values()], axis=-1)


def enumerate_tort() -> np.ndarray:
    """All 1024 tort cases as ``value_dtype`` rows, lexicographic case order."""
    schema = build_domain("tort")
    return np.array(list(itertools.product((0, 1), repeat=schema.n_features)),
                    dtype=schema.value_dtype)


@dataclass(frozen=True)
class ExpectedStats:
    size: int
    positive_fraction: float


def expected_stats(domain_id: str, kind: str) -> ExpectedStats:
    """Closed-form size and label fraction of an enumerated dataset kind.

    Values are computed by enumerating the kind's grid, or the tort cases,
    against the oracle's condition transcription.  Sampled kinds (type-a,
    type-b, regular) have no enumeration and are rejected.
    """
    if domain_id not in _CONDITIONS:
        raise ValueError(f"unknown domain {domain_id!r}")
    if (domain_id, kind) not in _ENUMERATED:
        raise ValueError(f"{domain_id} kind {kind!r} has no enumerated statistics")
    target, grid = _ENUMERATED[(domain_id, kind)]
    if grid is None:
        truth = condition_truth(build_domain("tort"), enumerate_tort())
        held = [j for j, cid in enumerate(_CONDITIONS["tort"]) if target not in (None, cid)]
        labels = truth[truth[:, held].all(axis=1)].all(axis=1)
        return ExpectedStats(len(labels), float(labels.mean()))

    def grid_truth(kind: str) -> np.ndarray:  # the kind's condition in each cell of its grid
        cid, (x, group, xs, _) = _ENUMERATED[(domain_id, kind)]
        return _CONDITIONS[domain_id][cid]({x: xs.repeat(2), group: np.tile([0, 1], len(xs))})

    per_cell = grid[3] if isinstance(grid[3], int) else int(grid_truth(grid[3]).sum())
    return ExpectedStats(len(grid_truth(kind)) * per_cell, float(grid_truth(kind).mean()))


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

    Cells and labels are range-checked as ``write_dataset`` checks them.
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
    schema.validate_labels(dataset.labels)
    stored = dataset.labels.astype(bool)

    truth = condition_truth(schema, dataset.values)
    transcribed = truth.all(axis=1)
    recomputed = schema.label_matrix(dataset.values)
    bad = (stored != recomputed) | (recomputed != transcribed)
    mismatch_rows = tuple(int(i) for i in np.flatnonzero(bad))

    negatives = truth[~stored]
    fails_per_case = (~negatives).sum(axis=1)
    per_condition = {
        cid: int((~negatives[:, j]).sum()) for j, cid in enumerate(_CONDITIONS[schema.domain_id])
    }
    histogram = {
        int(k): int(n) for k, n in zip(*np.unique(fails_per_case, return_counts=True))
    }

    n = len(dataset)
    size_ok = dataset.meta.size == n
    if (schema.domain_id, dataset.kind) in _ENUMERATED:  # a sampled kind has no fixed size
        size_ok = size_ok and expected_stats(schema.domain_id, dataset.kind).size == n

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

