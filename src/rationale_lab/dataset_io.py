"""CSV serialization of datasets with a JSON metadata sidecar.

The CSV carries a header row in the schema's canonical feature order plus a
final ``label`` column, one case per row, integer cells only.  The sidecar
(same basename, ``.meta.json``) records domain, kind, seed, generator
version, size, and positive fraction, making a written dataset fully
reconstructable.  Writes are deterministic byte-for-byte, and range-check
every cell before the file is opened: a dataset that reading would reject
is never written.  The body is ASCII bytes both ways, never decoded to
text: written ``_BLOCK_ROWS`` rows at a time from a NUL-padded byte table;
read by one ``np.loadtxt`` straight into the schema's ``value_dtype``,
naming the first of several faults in :func:`read_dataset`'s order, which
a scan of the refused body finds, never numpy's error text: a bad cell is
shown with any ``\r`` in it, cut to 100 characters.
Reading takes each sidecar key's JSON type from the field it fills
(``DatasetMeta``'s, and ``Dataset``'s ``schema_id`` and ``kind``): ``seed``
and ``size`` integers, ``positive_fraction`` a number, the rest strings.  A
key of the wrong type, an unknown key, a ``schema_id`` other than the
schema's, a sidecar that is not a JSON object or not valid JSON is rejected
with an error naming the sidecar; a missing sidecar, or a missing key, reads
as its default.
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
_BLOCK_ROWS = 2048  # rows that ``write_dataset`` encodes per block
_TEXT_BYTES = b"0123456789,-\n"  # the bytes of a body's lines, its CRLFs made LFs

class DatasetFormatError(ValueError):
    """A dataset file does not match the expected layout."""


def meta_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV plus its ``.meta.json`` sidecar.  The body is
    written ``_BLOCK_ROWS`` rows at a time: each cell's text and separator,
    gathered from one NUL-padded ``S`` table of every value a column can hold,
    with the NULs dropped by one ``bytes.translate`` a block."""
    path = Path(path)
    schema = dataset.schema
    schema.validate_matrix(dataset.values)
    schema.validate_labels(dataset.labels)
    lo, hi = min(0, *(f.lo for f in schema.features)), max(0, *(f.hi for f in schema.features))
    # each cell's text and separator, NUL-padded: "0," .. "hi,", the labels' "0\n" and "1\n",
    # then "lo," .. "-1,", so that a negative value indexes its entry from the end
    table = np.array([f"{i}," for i in range(hi + 1)] + ["0\n", "1\n"]
                     + [f"{i}," for i in range(lo, 0)], dtype="S")
    # one intp index block, the values widened into it and the labels shifted past them
    index = np.empty((min(len(dataset), _BLOCK_ROWS), schema.n_features + 1), dtype=np.intp)
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(list(schema.feature_names) + [LABEL_COLUMN])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode())
        for start in range(0, len(dataset), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = index[:len(dataset.labels[rows])]
            block[:, :-1] = dataset.values[rows]
            np.add(dataset.labels[rows], hi + 1, out=block[:, -1], dtype=np.intp)
            fh.write(table[block].tobytes().translate(None, b"\0"))
    write_json(meta_path(path), {"schema_id": dataset.schema_id, "kind": dataset.kind,
                                 **asdict(dataset.meta)})
    return path


def read_dataset(path: str | Path, schema: DomainSchema) -> Dataset:
    """Read a dataset written by :func:`write_dataset`.

    The file is read as bytes.  Its first line, ended by ``"\\r\\n"``,
    ``"\\r"`` or ``"\\n"``, is decoded and parsed by ``csv`` as the header,
    which must match the schema's feature order exactly.  The body may hold
    only the bytes ``0-9``, ``,``, ``-`` and ``\\n``, and ``\\r`` directly
    before ``\\n``.  It is parsed, undecoded, by one ``np.loadtxt`` call over
    a ``BytesIO`` of it, which ends lines at ``"\\n"`` only, straight into
    ``schema.value_dtype``, rejecting a cell beyond it, never wrapping it.
    Blank lines are skipped, and every cell must be a base-10 integer within
    its feature's range (labels 0 or 1): ``"01"`` reads as 1 and ``"-0"`` as
    0, but a sign ``+`` or a space is rejected.  A header-only file reads as
    0 cases.  ``values`` is a C-contiguous copy, ``labels`` is ``uint8``.

    An error names the data row counted from 0, blank lines not counted.  Of
    several faults, the first of these is reported: a byte the writer never
    writes, anywhere in the body; the first parse fault in file order (a cell
    that is not an integer, a row wider or narrower than the first data row,
    or a value beyond ``value_dtype``, which the range check names when it is
    an int64); the first bad feature, then its first row; the first bad label.
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
    other = body.translate(None, _TEXT_BYTES)
    if other and (other.strip(b"\r") or len(other) != body.count(b"\r\n")):
        raise _first_fault(path, schema, body)
    # a bound on the rows (blank lines are not rows), so that loadtxt allocates its matrix
    # once; values comes before it, which keeps the peak RSS down.  loadtxt parses the lines
    # of a BytesIO, split at "\n" only, straight into value_dtype, and rejects a cell beyond it
    rows = body.count(b"\n") + (not body.endswith(b"\n"))
    values = np.empty((rows, schema.n_features), dtype=schema.value_dtype)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
            # numpy 1.23-1.26 re-parse a cell beyond value_dtype as a float, warn and wrap it;
            # as an error, the warning makes loadtxt report a cell it could not convert
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            data = np.loadtxt(io.BytesIO(body), schema.value_dtype, comments=None, delimiter=",",
                              ndmin=2, encoding="ascii", max_rows=rows)
    except ValueError:
        raise _first_fault(path, schema, body) from None
    if data.size and data.shape[1] != len(expected):
        raise _width_error(path, "every data row", data.shape[1], expected)
    data = data.reshape(-1, len(expected))
    if err := _range_error(path, schema, data):
        raise err
    values = values[:len(data)]
    values[...] = data[:, :-1]
    labels = data[:, -1].astype(np.uint8)

    mp = meta_path(path)
    try:
        sidecar = read_json(mp, "a dataset sidecar") if mp.exists() else {}
        head = {key: sidecar.pop(key) for key in ("schema_id", "kind") if key in sidecar}
        head = typed_fields(Dataset, head, f"{mp}: sidecar", names=("schema_id", "kind"))
        if head.get("schema_id", schema.domain_id) != schema.domain_id:
            raise ValueError(f"{mp}: sidecar schema_id {head['schema_id']!r}, expected "
                             f"{schema.domain_id!r}")
        meta = DatasetMeta(**{
            "seed": 0, "generator_version": "unknown", "size": len(values),
            "positive_fraction": float(labels.mean()) if len(labels) else 0.0,
            **typed_fields(DatasetMeta, sidecar, f"{mp}: sidecar"),
        })
    except ValueError as err:
        raise DatasetFormatError(str(err)) from None
    kind = head.get("kind", "unknown")
    return Dataset(schema.domain_id, kind, values, labels, meta)


def _width_error(path: Path, rows: str, got: int, columns: list[str]) -> DatasetFormatError:
    return DatasetFormatError(f"{path}: {rows} has {got} cells, expected {len(columns)}")


def _range_error(path: Path, schema: DomainSchema, data: np.ndarray,
                 first_row: int = 0) -> DatasetFormatError | None:
    """The error for the first bad feature of the parsed rows ``data``, then
    its first row counted from ``first_row``, else for the first bad label."""
    try:
        schema.validate_matrix(data[:, :-1], first_row)
        schema.validate_labels(data[:, -1], first_row)
    except SchemaValidationError as err:
        return DatasetFormatError(f"{path}: {err}")
    return None


def _first_fault(path: Path, schema: DomainSchema, body: bytes) -> DatasetFormatError:
    """The error for the first fault of a refused ``body``, its non-blank lines
    taken without the ``"\r"`` of a CRLF, data rows counted from 0: a cell
    holding a byte other than ``0-9`` and ``-``, wherever it is; else the
    first in loadtxt's order, row by row, each row's width (data row 0's)
    before its cells, and its cells from the left."""
    columns = list(schema.feature_names) + [LABEL_COLUMN]
    text = body.replace(b"\r\n", b"\n")  # the body itself when it has no CRLF
    lines = [line for line in text.split(b"\n") if line]

    def bad_cell(row: int, cells: list[bytes], col: int) -> DatasetFormatError:
        name = repr(columns[col]) if col < len(columns) else f"{col + 1} of {len(columns)}"
        cell = cells[col].decode("utf-8", "backslashreplace")
        return DatasetFormatError(f"{path}: cell {cell[:100]!r} at data row {row}, column "
                                  f"{name}, is not a base-10 int64")

    if other := text.translate(None, _TEXT_BYTES):
        at = min(map(text.find, set(other)))  # the first byte no line may hold
        start = text.rfind(b"\n", 0, at) + 1
        line = text[start:].split(b"\n", 1)[0]
        # before ``at`` only "\n" is whitespace, so split() yields the rows above
        row = len(text[:start].split())
        return bad_cell(row, line.split(b","), line.count(b",", 0, at - start))
    width, dtype = lines[0].count(b",") + 1, np.iinfo(schema.value_dtype)
    # a row of cells too short to lie beyond value_dtype needs no cell-by-cell look
    short = len(str(dtype.max)) - 1
    clean = re.compile(rb"-?[0-9]{1,%d}(?:,-?[0-9]{1,%d}){%d}" % (short, short, width - 1))
    for row, line in enumerate(lines):
        if clean.fullmatch(line):
            continue
        cells = line.split(b",")
        if len(cells) != width:  # data row 0 is named when it already has the wrong width
            at, got = (0, width) if width != len(columns) else (row, len(cells))
            return _width_error(path, f"data row {at}", got, columns)
        for col, cell in enumerate(cells):
            # at most 19 significant digits, so that int() never meets its digit limit
            digits = re.fullmatch(rb"(-?)0*([0-9]{1,19})", cell)
            if not digits or not -2**63 <= (value := int(digits[1] + digits[2])) < 2**63:
                return bad_cell(row, cells, col)
            if not dtype.min <= value <= dtype.max:
                if col >= len(columns):  # an int64 past the header: data row 0 is too wide
                    return _width_error(path, "data row 0", width, columns)
                one = np.array([[f.lo for f in schema.features] + [0]])
                one[0, col] = value
                return _range_error(path, schema, one, row)
    # a refusal this scan does not model, from another numpy's loadtxt
    return DatasetFormatError(f"{path}: every cell must be a base-10 int64")
