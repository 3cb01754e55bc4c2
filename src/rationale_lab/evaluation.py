"""Measurement of what a trained classifier internalized, condition by
condition: accuracy, mean-output curves and their turning points against
ideal curves, and per-condition output tables.

All functions are pure over immutable models and datasets.  Each
measurement takes as its first argument either a model, anything exposing
``outputs(values) -> probabilities`` over raw case rows in the dataset's
canonical feature order, or the array of outputs already computed on the
dataset, one per case.  Predictions threshold the output at 0.5, ties
counting as positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .domains import SchemaValidationError
from .generation import CURVE_GRIDS, DEDICATED_TARGET, Dataset, GeneratorRequest, generate


def _outputs(model, dataset: Dataset) -> np.ndarray:
    """The outputs on ``dataset``: a model's, which must be built for the
    dataset's schema, or an array of one output per case as given."""
    if not hasattr(model, "outputs"):
        outputs = np.asarray(model, dtype=np.float64)
        if outputs.shape != (len(dataset),):
            raise ValueError(
                f"outputs of shape {outputs.shape} for a dataset of {len(dataset)} "
                "cases; expected one output per case"
            )
        return outputs
    model_schema = getattr(model, "schema_id", None)
    if model_schema is not None and model_schema != dataset.schema_id:
        raise SchemaValidationError(
            f"model was built for {model_schema!r} but dataset is "
            f"{dataset.schema_id!r}"
        )
    return np.asarray(model.outputs(dataset.values), dtype=np.float64)


def accuracy(model, dataset: Dataset) -> float:
    """Fraction of cases whose thresholded output equals the stored label.
    Raises ValueError on a dataset of no cases, where it is undefined."""
    outputs = _outputs(model, dataset)
    if len(dataset) == 0:
        raise ValueError("accuracy is undefined on a dataset of no cases")
    predicted = outputs >= 0.5
    return float((predicted == dataset.labels.astype(bool)).mean())


# ---------------------------------------------------------------------------
# Mean-output curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveGroup:
    """One plotted line: mean output at every x for a fixed group value."""

    label: str
    xs: np.ndarray
    means: np.ndarray
    counts: np.ndarray

    @property
    def crossings(self) -> tuple[float, ...]:
        """Every 0.5-crossing in x order, by linear interpolation, computed
        from ``means`` on each read.  A segment crosses when its endpoints lie
        strictly on opposite sides of 0.5, so a flat 0.5 curve has none."""
        if len(self.xs) == 0:
            raise ValueError(f"group {self.label!r} has no points")
        rel, xs = self.means - 0.5, self.xs
        crossings = []
        for i in range(len(xs) - 1):
            if rel[i] * rel[i + 1] < 0:
                frac = rel[i] / (rel[i] - rel[i + 1])
                crossings.append(float(xs[i] + frac * (xs[i + 1] - xs[i])))
        return tuple(crossings)

    @property
    def first(self) -> float | None:
        """The turning point: the smallest crossing; None if there is none."""
        crossings = self.crossings
        return crossings[0] if crossings else None


@dataclass(frozen=True)
class RationaleCurve:
    """Mean model output as a function of one feature, split by another."""

    x_feature: str
    group_feature: str
    groups: tuple[CurveGroup, ...]

    def group(self, label: str) -> CurveGroup:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(f"no group {label!r} (have {[g.label for g in self.groups]})")


def output_curve(
    model, dataset: Dataset, x_feature: str, group_feature: str
) -> RationaleCurve:
    """Average model outputs over the cases at each (group, x) grid value."""
    outputs = _outputs(model, dataset)
    schema = dataset.schema
    x_spec = schema.feature(x_feature)
    g_spec = schema.feature(group_feature)
    if x_spec.kind != "int_range":
        raise SchemaValidationError(f"{x_feature}: curve x-feature must be numeric")
    if g_spec.kind not in ("boolean", "categorical"):
        raise SchemaValidationError(f"{group_feature}: group feature must be binary")

    xcol = dataset.values[:, schema.index_of(x_feature)]
    gcol = dataset.values[:, schema.index_of(group_feature)]

    groups = []
    for code in (0, 1):
        mask = gcol == code
        xs, inverse = np.unique(xcol[mask], return_inverse=True)
        counts = np.bincount(inverse, minlength=len(xs))
        sums = np.bincount(inverse, weights=outputs[mask], minlength=len(xs))
        groups.append(
            CurveGroup(
                label=str(g_spec.decode(code)),
                xs=xs.astype(np.int64),
                means=sums / counts,
                counts=counts.astype(np.int64),
            )
        )
    return RationaleCurve(x_feature, group_feature, tuple(groups))


def ideal_curve(domain_id: str, cond_id: str) -> RationaleCurve:
    """The 0/1 curve a perfect learner of one condition would produce.

    Supported for the two curve-testable conditions, C1 and C6, on the
    welfare and simplified domains: the curve of the condition's truth on
    its dedicated test set.
    """
    try:
        x_feature, group_feature = CURVE_GRIDS[(domain_id, cond_id)][:2]
    except KeyError:
        raise ValueError(
            f"no ideal curve for condition {cond_id!r} in domain {domain_id!r}; "
            "supported: C1 and C6 on welfare/simplified"
        ) from None
    (kind,) = [k for (d, k), target in DEDICATED_TARGET.items()
               if (d, target) == (domain_id, cond_id)]
    dataset = generate(GeneratorRequest(domain_id, kind))
    schema = dataset.schema
    truth = schema._truth(schema.condition(cond_id), dataset.values)
    return output_curve(truth, dataset, x_feature, group_feature)


# ---------------------------------------------------------------------------
# Condition-output tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionTableRow:
    mean_output: float
    count: int
    positive_rate: float  # fraction of cases predicted positive at 0.5


@dataclass(frozen=True)
class ConditionOutputTable:
    condition: str
    false: ConditionTableRow  # the cases where the condition is false
    true: ConditionTableRow

    def to_dict(self) -> dict:
        return asdict(self)


def condition_table(model, dataset: Dataset, cond_id: str) -> ConditionOutputTable:
    """Mean output among cases where a condition is true versus false."""
    outputs = _outputs(model, dataset)
    schema = dataset.schema
    truth = schema._truth(schema.condition(cond_id), dataset.values)
    if truth.all() or not truth.any():
        raise ValueError(
            f"condition {cond_id!r} never varies in this dataset; a dedicated "
            "set must contain both outcomes"
        )

    def row(mask: np.ndarray) -> ConditionTableRow:
        return ConditionTableRow(
            mean_output=float(outputs[mask].mean()),
            count=int(mask.sum()),
            positive_rate=float((outputs[mask] >= 0.5).mean()),
        )

    return ConditionOutputTable(cond_id, row(~truth), row(truth))


# ---------------------------------------------------------------------------
# Curve deviation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveDeviation:
    max_abs: float
    mean_abs: float
    per_group: dict[str, tuple[float, float]]  # label -> (max_abs, mean_abs)


def curve_deviation(curve: RationaleCurve, ideal: RationaleCurve) -> CurveDeviation:
    """Pointwise |curve - ideal| aggregated per group and overall."""
    if [g.label for g in curve.groups] != [g.label for g in ideal.groups]:
        raise ValueError("curves have different groups")
    per_group = {}
    all_diffs = []
    for got, want in zip(curve.groups, ideal.groups):
        if not np.array_equal(got.xs, want.xs):
            raise ValueError(f"group {got.label!r}: x grids differ")
        diff = np.abs(got.means - want.means)
        per_group[got.label] = (float(diff.max()), float(diff.mean()))
        all_diffs.append(diff)
    stacked = np.concatenate(all_diffs)
    return CurveDeviation(
        max_abs=float(stacked.max()),
        mean_abs=float(stacked.mean()),
        per_group=per_group,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_curve_tsv(curve: RationaleCurve, path: str | Path) -> Path:
    """Plot-ready TSV: one row per (group, x) with mean output and count."""
    path = Path(path)
    lines = ["group\tx\tmean_output\tn"]
    for g in curve.groups:
        for x, mean, n in zip(g.xs, g.means, g.counts):
            lines.append(f"{g.label}\t{int(x)}\t{float(mean)!r}\t{int(n)}")
    path.write_text("\n".join(lines) + "\n")
    return path

