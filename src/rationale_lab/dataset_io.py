"""CSV serialization of datasets with a JSON metadata sidecar.

The CSV carries a header row in the schema's canonical feature order plus a
final ``label`` column, one case per row, integer cells only.  The sidecar
(same basename, ``.meta.json``) records domain, kind, seed, generator
version, size, and positive fraction, making a written dataset fully
reconstructable.  Writes are deterministic byte-for-byte, and range-check
every cell before the file is opened: a dataset that reading would reject
is never written.  The body is ASCII bytes both ways, never decoded to
text, and goes in blocks, so that no whole-set temporary sits beside the
rows: written ``_BLOCK_ROWS`` rows at a time, each one gather of its cells'
text out of a NUL-padded byte table; read by ``np.loadtxt`` over a
``BytesIO`` of each cut of the body at a line end.  Reading takes each
sidecar key's JSON type from the field it fills (``DatasetMeta``'s, and
``Dataset``'s ``schema_id`` and ``kind``): ``seed`` and ``size`` integers,
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
_BLOCK_ROWS = 2048  # rows that ``write_dataset`` encodes per block
_BLOCK_BYTES = 1 << 18  # body bytes, then on to a line end, that ``read_dataset`` parses per block

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
    if np.any(bad := (dataset.labels != 0) & (dataset.labels != 1)):
        row = int(np.argmax(bad))
        raise SchemaValidationError(f"label {dataset.labels[row]} at row {row} outside {{0, 1}}")
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
    before ``\\n``.  It is then cut at line ends into blocks of about
    ``_BLOCK_BYTES``, and each is parsed, undecoded, by one ``np.loadtxt``
    call over a ``BytesIO`` of it, which ends lines at ``"\\n"`` only.  Blank
    lines are skipped, and every cell must be a base-10 int64 within its
    feature's range (labels 0 or 1): ``"01"`` reads as 1 and ``"-0"`` as 0,
    but a sign ``+`` or a space is rejected.  A file holding only the header
    reads as 0 cases.  Each int64 block is range-checked, labels included,
    and only then narrowed into ``values``, a C-contiguous
    ``schema.value_dtype`` matrix sized once from the body's line count.

    An error names the data row counted from 0 in the whole file, blank lines
    not counted, so a file with one fault gets the same error wherever it
    sits.  In a file with several, the whole body's bytes are checked first,
    and then the first block holding a fault decides which is reported: a
    later block's fault is not named, even one a whole-body parse would have
    met first, and every row of one wrong width in several blocks is named as
    data row 0.
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
    # a bound on the rows (blank lines are not rows), which sizes the narrow matrix and
    # labels once; loadtxt is given each block's own bound, so that it allocates its
    # int64 block once and not by realloc
    rows = body.count(b"\n") + (not body.endswith(b"\n"))
    values = np.empty((rows, schema.n_features), dtype=schema.value_dtype)
    labels = np.empty(rows, dtype=np.uint8)
    lo, hi = np.array([(f.lo, f.hi) for f in schema.features] + [(0, 1)]).T
    done = start = 0
    while start < len(body):
        # a block ends at the first line end past _BLOCK_BYTES more bytes, or at the body's end
        end = body.find(b"\n", start + _BLOCK_BYTES) + 1 or len(body)
        piece, start = body[start:end], end
        # loadtxt takes a block's width from its first data row: check that row as a
        # parse of the whole body would, against the rows before it
        if done and (first := re.search(rb"[^\r\n][^\n]*", piece)):
            if (got := first[0].count(b",") + 1) != len(expected):
                raise _width_error(path, f"data row {done}", got, expected)
        # a BytesIO yields lines split at "\n" only, which loadtxt decodes one at a time
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
                block = np.loadtxt(io.BytesIO(piece), np.int64, comments=None, delimiter=",",
                                   ndmin=2, encoding="ascii",
                                   max_rows=piece.count(b"\n") + (not piece.endswith(b"\n")))
        except ValueError as err:
            raise _body_error(path, str(err), expected, done) from None
        if not block.size:  # blank lines only
            continue
        if block.shape[1] != len(expected):  # the first block's rows, all of one width
            every = not body[start:].strip()  # as a whole-body parse says: no data row follows
            raise _width_error(path, "every data row" if every else "data row 0",
                               block.shape[1], expected)
        if ((block.min(axis=0) < lo) | (block.max(axis=0) > hi)).any():
            try:  # the first bad feature as validate_matrix names it, else the first bad label
                schema.validate_matrix(block[:, :-1], first_row=done)
            except SchemaValidationError as err:
                raise DatasetFormatError(f"{path}: {err}") from None
            row = int(np.argmax((block[:, -1] < 0) | (block[:, -1] > 1)))
            raise DatasetFormatError(f"{path}: label {block[row, -1]} at data row "
                                     f"{done + row} is outside {{0, 1}}")
        # range-checked, so the narrowing is exact
        values[done:done + len(block)] = block[:, :-1]
        labels[done:done + len(block)] = block[:, -1]
        done += len(block)
    values, labels = values[:done], labels[:done]

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


def _width_error(path: Path, rows: str, got: int, columns: list[str]) -> DatasetFormatError:
    return DatasetFormatError(f"{path}: {rows} has {got} cells, expected {len(columns)}")


def _body_error(path: Path, message: str, columns: list[str], done: int) -> DatasetFormatError:
    """The error for np.loadtxt's ``message`` on a block whose first data row
    is data row ``done`` of the file: loadtxt counts the block's data rows
    from 0 in conversion errors, but from 1 in column-count errors."""
    if cell := re.search(r"convert string (.*) to int64 at row (\d+), column (\d+)", message):
        return _bad_cell(path, cell[1], done + int(cell[2]), int(cell[3]), columns)
    if width := re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", message):
        first, got, row = (int(g) for g in width.groups())
        if first != len(columns):  # the block's first data row is already the wrong width
            got, row = first, 1
        return _width_error(path, f"data row {done + row - 1}", got, columns)
    return DatasetFormatError(f"{path}: every cell must be a base-10 int64")

