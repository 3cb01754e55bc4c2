"""CSV serialization of datasets with a JSON metadata sidecar.

The CSV carries a header row in the schema's canonical feature order plus a
final ``label`` column, one case per row, integer cells only.  The sidecar
(same basename, ``.meta.json``) records domain, kind, seed, generator
version, size, and positive fraction, making a written dataset fully
reconstructable.  Writes are deterministic byte-for-byte, and range-check
every cell before the file is opened: a dataset that reading would reject
is never written.  The body is ASCII bytes both ways, never decoded to
text: written from one gather of each cell's text out of a NUL-padded byte
table, its NULs dropped by ``bytes.translate``; read by ``np.loadtxt`` over
a ``BytesIO`` of the file's bytes.  Reading takes each sidecar key's JSON
type from the field it fills (``DatasetMeta``'s, and ``Dataset``'s
``schema_id`` and ``kind``): ``seed`` and ``size`` integers,
``positive_fraction`` a number, the rest strings.  A key of the wrong
type, an unknown key, a sidecar that is not a JSON object or not valid JSON
is rejected with an error naming the sidecar; a missing sidecar, or a
missing key, reads as its default.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._jsonfile import read_json, typed_fields, write_json
from .domains import DomainSchema, SchemaValidationError
from .generation import Dataset, DatasetMeta

LABEL_COLUMN = "label"

class DatasetFormatError(ValueError):
    """A dataset file does not match the expected layout."""


def meta_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV plus its ``.meta.json`` sidecar.  The body is each
    cell's text and separator, gathered from one NUL-padded ``S`` table of
    every value a column can hold, with the NULs dropped by one
    ``bytes.translate``."""
    path = Path(path)
    schema = dataset.schema
    schema.validate_matrix(dataset.values)
    if np.any(bad := (dataset.labels != 0) & (dataset.labels != 1)):
        row = int(np.argmax(bad))
        raise SchemaValidationError(f"label {dataset.labels[row]} at row {row} outside {{0, 1}}")
    lo, hi = min(0, *(f.lo for f in schema.features)), max(0, *(f.hi for f in schema.features))
    # each cell's text and separator, NUL-padded: "0," .. "hi,", the labels' "0\n" and "1\n",
    # then "lo," .. "-1,", so that a negative value indexes its entry from the end
    table = np.array([f"{i}," for i in range(hi + 1)] + ["0\n", "1\n"]
                     + [f"{i}," for i in range(lo, 0)], dtype="S")
    # one intp index matrix, the values widened into it and the labels shifted past them
    index = np.empty((len(dataset), schema.n_features + 1), dtype=np.intp)
    index[:, :-1] = dataset.values
    np.add(dataset.labels, hi + 1, out=index[:, -1], dtype=np.intp)
    cells = table[index]
    del index
    body = cells.tobytes()
    del cells
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(list(schema.feature_names) + [LABEL_COLUMN])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode())
        fh.write(body.translate(None, b"\0"))
    write_json(meta_path(path), {"schema_id": dataset.schema_id, "kind": dataset.kind,
                                 **asdict(dataset.meta)})
    return path


def read_dataset(path: str | Path, schema: DomainSchema) -> Dataset:
    """Read a dataset written by :func:`write_dataset`.

    The file is read as bytes.  Its first line, ended by ``"\\r\\n"``,
    ``"\\r"`` or ``"\\n"``, is decoded and parsed by ``csv`` as the header,
    which must match the schema's feature order exactly.  The body may hold
    only the bytes ``0-9``, ``,``, ``-`` and ``\\n``, and ``\\r`` directly
    before ``\\n``; it is parsed, undecoded, by one ``np.loadtxt`` call over
    a ``BytesIO`` of it, which ends lines at ``"\\n"`` only.  Blank lines are
    skipped, and every cell must be a base-10 int64 within its feature's range
    (labels 0 or 1): ``"01"`` reads as 1 and ``"-0"`` as 0, but a sign ``+``
    or a space is rejected.  A file holding only the header reads as 0 cases.
    The int64 matrix that ``loadtxt`` parses is range-checked, and only then
    narrowed: ``values`` is a C-contiguous ``schema.value_dtype`` copy.
    """
    path = Path(path)
    expected = list(schema.feature_names) + [LABEL_COLUMN]
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise DatasetFormatError(f"{path}: empty file")
        # the header line ends where csv's text mode would end it, at a lone
        # "\r" too; a byte that is not UTF-8 reads as a surrogate
        end = m.end() if (m := re.search(rb"\r\n?|\n", first)) else len(first)
        header = next(csv.reader([first[:end].decode("utf-8", "surrogateescape")]))
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
        fh.seek(end)
        body = fh.read()
    # np.loadtxt reads " 1", "+1" and "1\x1c" as 1, and numpy 2.4.6's can crash on
    # code points above U+3FFFF, so it sees only the bytes write_dataset writes,
    # and a "\r" only where a CRLF line ends
    other = body.translate(None, b"0123456789,-\n")
    if other and (other.strip(b"\r") or len(other) != body.count(b"\r\n")):
        bad = re.search(rb"[^0-9,\n\r-]|\r(?!\n)", body)
        raise _cell_error(path, body, bad.start(), expected)
    # a bound on the rows (blank lines are not rows), so that loadtxt allocates its
    # matrix once: grown by realloc, its last copy lands in fresh pages whenever
    # the heap has no hole that large, a full extra matrix in the peak RSS
    rows = body.count(b"\n") + (not body.endswith(b"\n"))
    # a BytesIO yields lines split at "\n" only, which loadtxt decodes one at a time
    stream = io.BytesIO(body)
    del body  # the stream shares the bytes: the one copy of the body that loadtxt needs
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
            data = np.loadtxt(stream, np.int64, comments=None, delimiter=",", ndmin=2,
                              max_rows=rows, encoding="ascii")
    except ValueError as err:
        raise _body_error(path, str(err), expected) from None
    del stream  # the body's bytes, no longer needed beside the matrix and its narrow copy
    if data.size and data.shape[1] != len(expected):
        raise DatasetFormatError(f"{path}: every data row has {data.shape[1]} cells, "
                                 f"expected {len(expected)}")
    data = data.reshape(-1, len(expected))
    values, labels = data[:, :-1], data[:, -1]
    try:
        schema.validate_matrix(values)
    except SchemaValidationError as err:
        raise DatasetFormatError(f"{path}: {err}") from None
    if np.any(bad := (labels != 0) & (labels != 1)):
        row = int(np.argmax(bad))
        raise DatasetFormatError(f"{path}: label {labels[row]} at data row {row} "
                                 "is outside {0, 1}")
    # range-checked above, so the narrowing copies are exact
    values = np.ascontiguousarray(values, dtype=schema.value_dtype)
    labels = labels.astype(np.uint8)
    del data

    mp = meta_path(path)
    try:
        sidecar = read_json(mp, "a dataset sidecar") if mp.exists() else {}
        head = {key: sidecar.pop(key) for key in ("schema_id", "kind") if key in sidecar}
        head = typed_fields(Dataset, head, f"{mp}: sidecar", names=("schema_id", "kind"))
        meta = DatasetMeta(**{
            "seed": 0, "generator_version": "unknown", "size": len(values),
            "positive_fraction": float(labels.mean()) if len(labels) else 0.0,
            **typed_fields(DatasetMeta, sidecar, f"{mp}: sidecar"),
        })
    except ValueError as err:
        raise DatasetFormatError(str(err)) from None
    kind = head.get("kind", "unknown")
    return Dataset(schema.domain_id, kind, values, labels, meta)


def _bad_cell(path: Path, cell: str, row: int, col: int,
              columns: list[str]) -> DatasetFormatError:
    """The error for ``cell`` (already quoted), in data row ``row`` from 0 and
    column ``col`` from 1."""
    name = repr(columns[col - 1]) if col <= len(columns) else f"{col} of {len(columns)}"
    return DatasetFormatError(f"{path}: cell {cell} at data row {row}, column {name}, "
                              "is not a base-10 int64")


def _cell_error(path: Path, body: bytes, pos: int, columns: list[str]) -> DatasetFormatError:
    """The error for the cell holding byte ``pos`` of ``body``, its data row
    counted as loadtxt counts it, without the blank lines before it."""
    start, end = body.rfind(b"\n", 0, pos) + 1, body.find(b"\n", pos)
    line = body[start:end if end >= 0 else None]
    col = line.count(b",", 0, pos - start) + 1
    cell = line.split(b",")[col - 1].removesuffix(b"\r").decode("utf-8", "backslashreplace")
    row = sum(1 for text in body[:start].split(b"\n") if text.strip(b"\r"))
    return _bad_cell(path, repr(cell[:100]), row, col, columns)


def _body_error(path: Path, message: str, columns: list[str]) -> DatasetFormatError:
    """The error for np.loadtxt's ``message``, counting data rows from 0:
    loadtxt does in conversion errors, but from 1 in column-count errors."""
    if cell := re.search(r"convert string (.*) to int64 at row (\d+), column (\d+)", message):
        return _bad_cell(path, cell[1], int(cell[2]), int(cell[3]), columns)
    if width := re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", message):
        first, got, row = (int(g) for g in width.groups())
        if first != len(columns):  # the first data row is already the wrong width
            got, row = first, 1
        return DatasetFormatError(f"{path}: data row {row - 1} has {got} cells, "
                                  f"expected {len(columns)}")
    return DatasetFormatError(f"{path}: every cell must be a base-10 int64")
