"""CSV serialization of datasets with a JSON metadata sidecar.

The CSV carries a header row in the schema's canonical feature order plus a
final ``label`` column, one case per row, integer cells only.  The sidecar
(same basename, ``.meta.json``) records domain, kind, seed, generator
version, size, and positive fraction, making a written dataset fully
reconstructable.  Writes are deterministic byte-for-byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .domains import DomainSchema, SchemaValidationError
from .generation import Dataset, DatasetMeta

LABEL_COLUMN = "label"


class DatasetFormatError(ValueError):
    """A dataset file does not match the expected layout."""


def meta_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV plus its ``.meta.json`` sidecar."""
    path = Path(path)
    header = list(dataset.schema.feature_names) + [LABEL_COLUMN]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        rows = np.column_stack([dataset.values, dataset.labels.astype(np.int64)])
        writer.writerows(rows.tolist())
    sidecar = {
        "schema_id": dataset.schema_id,
        "kind": dataset.kind,
        "seed": dataset.meta.seed,
        "generator_version": dataset.meta.generator_version,
        "size": dataset.meta.size,
        "positive_fraction": dataset.meta.positive_fraction,
    }
    meta_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def read_dataset(path: str | Path, schema: DomainSchema) -> Dataset:
    """Read a dataset written by :func:`write_dataset`.

    The header must match the schema's feature order exactly; every cell
    must be an integer within its feature's range, and labels must be 0 or 1.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        expected = list(schema.feature_names) + [LABEL_COLUMN]
        if header != expected:
            missing = [c for c in expected if c not in header]
            if missing:
                shown = ", ".join(repr(c) for c in missing[:5])
                more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
                raise DatasetFormatError(
                    f"{path}: missing column(s) {shown}{more}; header must be "
                    f"the {schema.domain_id} feature order plus {LABEL_COLUMN!r}"
                )
            raise DatasetFormatError(
                f"{path}: header does not match the {schema.domain_id} "
                f"feature order; got {header[:4]}..."
            )
        rows: list[list[int]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {len(expected)} cells, got {len(row)}"
                )
            try:
                rows.append([int(cell) for cell in row])
            except ValueError:
                bad = next(c for c in row if not _is_int(c))
                col = expected[row.index(bad)]
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-numeric cell {bad!r} in column {col!r}"
                ) from None

    data = np.array(rows, dtype=np.int64).reshape(len(rows), len(expected))
    values, labels = data[:, :-1], data[:, -1]
    try:
        schema.validate_matrix(values)
    except SchemaValidationError as err:
        raise DatasetFormatError(f"{path}: {err}") from None
    if np.any((labels != 0) & (labels != 1)):
        bad_row = int(np.flatnonzero((labels != 0) & (labels != 1))[0])
        raise DatasetFormatError(
            f"{path}: label {int(labels[bad_row])} at data row {bad_row} is "
            "outside {0, 1}"
        )

    mp = meta_path(path)
    sidecar = json.loads(mp.read_text()) if mp.exists() else {}
    kind = sidecar.get("kind", "unknown")
    meta = DatasetMeta(
        seed=int(sidecar.get("seed", 0)),
        generator_version=str(sidecar.get("generator_version", "unknown")),
        size=int(sidecar.get("size", len(values))),
        positive_fraction=float(
            sidecar.get("positive_fraction", labels.mean() if len(labels) else 0.0)
        ),
    )
    return Dataset(schema.domain_id, kind, values, labels.astype(np.uint8), meta)


def _is_int(cell: str) -> bool:
    try:
        int(cell)
        return True
    except ValueError:
        return False
