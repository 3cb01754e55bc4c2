"""CSV serialization of datasets with a JSON metadata sidecar.

The CSV carries a header row in the schema's canonical feature order plus a
final ``label`` column, one case per row, integer cells only.  The sidecar
(same basename, ``.meta.json``) records domain, kind, seed, generator
version, size, and positive fraction, making a written dataset fully
reconstructable.  Writes are deterministic byte-for-byte, and range-check
every cell before the file is opened: a dataset that reading would reject
is never written.  Reading rejects a sidecar key of the wrong JSON type
(``seed`` and ``size`` integers, ``positive_fraction`` a number, ``kind``
and ``generator_version`` strings) with an error naming the sidecar.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .domains import DomainSchema, SchemaValidationError
from .generation import Dataset, DatasetMeta

LABEL_COLUMN = "label"
# the Python types json.loads gives each sidecar key's JSON type (a bool is no integer)
_SIDECAR_TYPES = {
    "kind": ((str,), "a string"),
    "generator_version": ((str,), "a string"),
    "seed": ((int,), "an integer"),
    "size": ((int,), "an integer"),
    "positive_fraction": ((int, float), "a number"),
}


class DatasetFormatError(ValueError):
    """A dataset file does not match the expected layout."""


def meta_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV plus its ``.meta.json`` sidecar.  Each cell is
    gathered from one table of the strings of every value a column can hold."""
    path = Path(path)
    schema = dataset.schema
    schema.validate_matrix(dataset.values)
    if np.any(bad := (dataset.labels != 0) & (dataset.labels != 1)):
        row = int(np.argmax(bad))
        raise SchemaValidationError(f"label {dataset.labels[row]} at row {row} outside {{0, 1}}")
    lo, hi = min(0, *(f.lo for f in schema.features)), max(1, *(f.hi for f in schema.features))
    # the strings of 0..hi, then of lo..-1: a negative value indexes its string from the end
    cells = np.array([str(i) for i in (*range(hi + 1), *range(lo, 0))], dtype=object)
    rows = cells[np.column_stack([dataset.values, dataset.labels])]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(schema.feature_names) + [LABEL_COLUMN])
        fh.writelines(",".join(row) + "\n" for row in rows.tolist())
    sidecar = {"schema_id": dataset.schema_id, "kind": dataset.kind, **asdict(dataset.meta)}
    meta_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def read_dataset(path: str | Path, schema: DomainSchema) -> Dataset:
    """Read a dataset written by :func:`write_dataset`.

    The header must match the schema's feature order exactly.  The body is
    parsed by one ``np.loadtxt`` call: blank lines are skipped, and every
    cell must be a plain base-10 int64 within its feature's range (labels 0
    or 1).  A file holding only the header reads as a dataset of 0 cases.
    """
    path = Path(path)
    expected = list(schema.feature_names) + [LABEL_COLUMN]
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
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
        body = fh.read()
    if not body.isascii():  # np.loadtxt 2.4.6 can crash on code points above U+3FFFF
        cell = re.search(r"[^,\n]*[^\x00-\x7f][^,\n]*", body)[0]
        raise DatasetFormatError(f"{path}: cell {cell[:100]!r} is not a base-10 int64")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(io.StringIO(body), np.int64, comments=None, delimiter=",", ndmin=2)
    except ValueError as err:
        raise _body_error(path, str(err), expected) from None
    if data.size and data.shape[1] != len(expected):
        raise DatasetFormatError(f"{path}: every data row has {data.shape[1]} cells, "
                                 f"expected {len(expected)}")
    data = data.reshape(-1, len(expected))
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
    if not isinstance(sidecar, dict):
        raise DatasetFormatError(f"{mp}: a dataset sidecar must be a JSON object")
    for key, (types, what) in _SIDECAR_TYPES.items():
        if key in sidecar and type(sidecar[key]) not in types:
            raise DatasetFormatError(f"{mp}: sidecar key {key!r} must be {what}")
    kind = sidecar.get("kind", "unknown")
    meta = DatasetMeta(
        seed=sidecar.get("seed", 0),
        generator_version=sidecar.get("generator_version", "unknown"),
        size=sidecar.get("size", len(values)),
        positive_fraction=float(
            sidecar.get("positive_fraction", labels.mean() if len(labels) else 0.0)
        ),
    )
    return Dataset(schema.domain_id, kind, values, labels.astype(np.uint8), meta)


def _body_error(path: Path, message: str, columns: list[str]) -> DatasetFormatError:
    """The error for np.loadtxt's ``message``, counting data rows from 0:
    loadtxt does in conversion errors, but from 1 in column-count errors."""
    if cell := re.search(r"convert string (.*) to int64 at row (\d+), column (\d+)", message):
        col = int(cell[3])
        name = repr(columns[col - 1]) if col <= len(columns) else f"{col} of {len(columns)}"
        return DatasetFormatError(f"{path}: cell {cell[1]} at data row {cell[2]}, "
                                  f"column {name}, is not a base-10 int64")
    if width := re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", message):
        first, got, row = (int(g) for g in width.groups())
        if first != len(columns):  # the first data row is already the wrong width
            got, row = first, 1
        return DatasetFormatError(f"{path}: data row {row - 1} has {got} cells, "
                                  f"expected {len(columns)}")
    return DatasetFormatError(f"{path}: every cell must be a base-10 int64")
