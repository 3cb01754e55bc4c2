import csv
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_lab import (
    DatasetFormatError,
    DatasetMeta,
    DomainSchema,
    SchemaValidationError,
    build_domain,
    dataset_io,
    gen_tort,
    gen_welfare,
    generate,
    read_dataset,
    write_dataset,
)
from rationale_lab.cli import main
from rationale_lab.dataset_io import LABEL_COLUMN, meta_path
from rationale_lab.domains import FeatureSpec
from rationale_lab.generation import KINDS, Dataset, GeneratorRequest


def test_round_trip_tort_unique(tmp_path, tort_schema):
    ds = gen_tort("unique")
    path = tmp_path / "unique.csv"
    write_dataset(ds, path)
    back = read_dataset(path, tort_schema)
    assert back.equals(ds)
    assert meta_path(path).exists()


def test_round_trip_welfare(tmp_path, welfare_schema):
    ds = gen_welfare("type-b", size=400, seed=13)
    path = tmp_path / "b.csv"
    write_dataset(ds, path)
    assert read_dataset(path, welfare_schema).equals(ds)


def test_writes_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(gen_welfare("type-a", size=300, seed=8), a)
    write_dataset(gen_welfare("type-a", size=300, seed=8), b)
    assert a.read_bytes() == b.read_bytes()
    assert meta_path(a).read_bytes() == meta_path(b).read_bytes()


def _reference_csv(dataset: Dataset) -> bytes:
    """The CSV as ``csv.writer`` writes it from Python ints, cell by cell."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(dataset.schema.feature_names) + [LABEL_COLUMN])
    writer.writerows([*map(int, row), int(label)]
                     for row, label in zip(dataset.values, dataset.labels))
    return out.getvalue().encode()


@pytest.mark.parametrize("domain,kind", list(KINDS))
def test_written_bytes_match_csv_writer_reference(tmp_path, domain, kind):
    size = 300 if KINDS[domain, kind].sized else None
    dataset = generate(GeneratorRequest(domain, kind, size, 5))
    path = write_dataset(dataset, tmp_path / "d.csv")
    assert path.read_bytes() == _reference_csv(dataset)


def test_zero_row_and_non_contiguous_writes_match_reference(tmp_path, welfare_schema):
    ds = gen_welfare("type-b", size=200, seed=3)
    for values, labels in ((ds.values[:0], ds.labels[:0]),
                           (ds.values[::3], ds.labels[::3]),
                           (np.asfortranarray(ds.values), ds.labels.astype(bool))):
        dataset = Dataset(ds.schema_id, ds.kind, values, labels, ds.meta)
        path = write_dataset(dataset, tmp_path / "d.csv")
        assert path.read_bytes() == _reference_csv(dataset)
        assert np.array_equal(read_dataset(path, welfare_schema).values, values)


def test_negative_cells_written_as_their_own_strings(tmp_path, monkeypatch):
    schema = DomainSchema("signed", (FeatureSpec("t", "int_range", -3, 2),
                                     FeatureSpec("u", "int_range", 0, 4)), (), "label")
    monkeypatch.setattr(Dataset, "schema", property(lambda self: schema))
    values = np.array([[-3, 0], [-1, 4], [0, 1], [2, 2], [-2, 3]])
    labels = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    dataset = Dataset("signed", "kind", values, labels, DatasetMeta(0, "v", 5, 0.6))
    path = write_dataset(dataset, tmp_path / "d.csv")
    assert path.read_bytes() == _reference_csv(dataset)
    assert path.read_text().splitlines()[1:3] == ["-3,0,0", "-1,4,1"]
    assert read_dataset(path, schema).equals(dataset)


@st.composite
def _stand_in_datasets(draw):
    """A dataset of a stand-in schema with ranges inside [-50, 3000]: 0-40
    rows, C or Fortran order or a ``[::k]`` slice, bool or uint8 labels."""
    ranges = draw(st.lists(st.lists(st.integers(-50, 3000), min_size=2, max_size=2).map(sorted),
                           min_size=1, max_size=6))
    schema = DomainSchema("stand-in", tuple(FeatureSpec(f"f{i}", "int_range", lo, hi)
                                            for i, (lo, hi) in enumerate(ranges)), (), "label")
    rows, layout = draw(st.integers(0, 40)), draw(st.sampled_from(["C", "F", "slice"]))
    step = draw(st.integers(2, 4)) if layout == "slice" else 1
    values = np.column_stack([draw(st.lists(st.integers(lo, hi), min_size=rows * step,
                                            max_size=rows * step)) for lo, hi in ranges])
    values = values.astype(np.int64)[::step]
    if layout == "F":
        values = np.asfortranarray(values)
    labels = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                      dtype=draw(st.sampled_from([np.bool_, np.uint8])))
    meta = DatasetMeta(0, "v", rows, float(labels.mean()) if rows else 0.0)
    return schema, Dataset("stand-in", "kind", values, labels, meta)


@settings(max_examples=150, deadline=None)
@given(drawn=_stand_in_datasets())
def test_written_bytes_of_any_schema_match_reference_and_read_back(tmp_path_factory, drawn):
    schema, dataset = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dataset, "schema", property(lambda self: schema))
        path = write_dataset(dataset, tmp_path_factory.getbasetemp() / "stand-in.csv")
        assert path.read_bytes() == _reference_csv(dataset)
        assert read_dataset(path, schema).equals(dataset)


@pytest.mark.parametrize("column,value,message", [
    (0, 7, r"cau: value 7 at row 5 outside \[0, 1\]"),
    (3, -1, r"ift: value -1 at row 5 outside \[0, 1\]"),
    (-1, 2, r"label 2 at row 5 outside \{0, 1\}"),
    (-1, -1, r"label -1 at row 5 outside \{0, 1\}"),
], ids=["value-above", "value-below", "label-2", "label-negative"])
def test_out_of_range_cell_is_not_written(tmp_path, column, value, message):
    ds = gen_tort("unique")
    rows = np.column_stack([ds.values, ds.labels]).astype(np.int64)
    rows[5, column] = value
    broken = Dataset(ds.schema_id, ds.kind, rows[:, :-1], rows[:, -1], ds.meta)
    path = tmp_path / "bad.csv"
    with pytest.raises(SchemaValidationError, match=message):
        write_dataset(broken, path)
    assert not path.exists() and not meta_path(path).exists()


def test_missing_label_column_named(tmp_path, tort_schema):
    path = tmp_path / "broken.csv"
    write_dataset(gen_tort("unique"), path)
    lines = path.read_text().splitlines()
    header = lines[0].rsplit(",", 1)[0]
    rows = [line.rsplit(",", 1)[0] for line in lines[1:]]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(DatasetFormatError, match="'label'"):
        read_dataset(path, tort_schema)


def test_header_schema_mismatch(tmp_path, welfare_schema):
    path = tmp_path / "tort.csv"
    write_dataset(gen_tort("unique"), path)
    with pytest.raises(DatasetFormatError, match="missing column"):
        read_dataset(path, welfare_schema)


def test_non_numeric_cell_named(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(gen_tort("unique"), path)
    text = path.read_text().splitlines()
    text[3] = text[3].replace("0", "maybe", 1)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(DatasetFormatError, match="'maybe'"):
        read_dataset(path, tort_schema)


def test_label_outside_binary_rejected(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(gen_tort("unique"), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + "2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="outside"):
        read_dataset(path, tort_schema)


def test_cell_outside_feature_range_rejected(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(gen_tort("unique"), path)
    lines = path.read_text().splitlines()
    lines[4] = "7" + lines[4][1:]  # cau is boolean
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"cau: value 7 at row 3 outside \[0, 1\]"):
        read_dataset(path, tort_schema)


def test_read_without_sidecar_still_works(tmp_path, tort_schema):
    ds = gen_tort("unique")
    for sidecar in (None, "{}"):  # a missing and an empty sidecar read the same
        path = tmp_path / "u.csv"
        write_dataset(ds, path)
        if sidecar is None:
            meta_path(path).unlink()
        else:
            meta_path(path).write_text(sidecar)
        back = read_dataset(path, tort_schema)
        assert np.array_equal(back.values, ds.values)
        assert back.kind == "unknown"
        assert back.meta == DatasetMeta(
            seed=0,
            generator_version="unknown",
            size=len(ds),
            positive_fraction=float(ds.labels.mean()),
        )


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        read_dataset(path, build_domain("tort"))


def _tort_lines(tmp_path) -> list[str]:
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    return path.read_text().splitlines()


def _without_last_cell(line: str) -> str:
    return line.rsplit(",", 1)[0]


def _first_cell_of_row_2(cell: str):
    """An edit that sets data row 2's first cell (a "0", column 'cau')."""
    return lambda ls: ls[:3] + [cell + ls[3][1:]] + ls[4:]


# edits of the lines of a tort `unique` file (10 features plus the label):
# ls[0] is the header, ls[1] data row 0
MALFORMED_BODIES = {
    "non-numeric": (lambda ls: ls[:3] + ["maybe" + ls[3][1:]] + ls[4:],
                    r"cell 'maybe' at data row 2, column 'cau'"),
    "beyond-int64": (lambda ls: ls[:3] + ["9" * 20 + ls[3][1:]] + ls[4:],
                     r"cell '9{20}' at data row 2, column 'cau'"),
    "non-ascii": (_first_cell_of_row_2("\U000e0000"),
                  r"cell '\\U000e0000' at data row 2, column 'cau', is not a base-10 int64"),
    "leading-space": (_first_cell_of_row_2(" 1"), r"cell ' 1' at data row 2, column 'cau'"),
    "trailing-space": (_first_cell_of_row_2("1 "), r"cell '1 ' at data row 2, column 'cau'"),
    "plus-sign": (_first_cell_of_row_2("+1"), r"cell '\+1' at data row 2, column 'cau'"),
    "tab": (_first_cell_of_row_2("\t1"), r"cell '\\t1' at data row 2, column 'cau'"),
    "file-separator": (_first_cell_of_row_2("1\x1c"),
                       r"cell '1\\x1c' at data row 2, column 'cau'"),
    "lone-cr": (_first_cell_of_row_2("1\r1"), r"cell '1\\r1' at data row 2, column 'cau'"),
    "after-blank-lines": (lambda ls: ls[:3] + ["", "\r"] + [ls[3][:4] + "+1" + ls[3][5:]]
                          + ls[4:], r"cell '\+1' at data row 2, column 'ila'"),
    "hash": (lambda ls: ls[:3] + ["#" + ls[3]] + ls[4:], r"cell '#\d' at data row 2"),
    "quoted": (lambda ls: ls[:3] + ['"' + ls[3].replace(",", '",', 1)] + ls[4:],
               r"""cell '"\d"' at data row 2"""),
    "short-row": (lambda ls: ls[:3] + [_without_last_cell(ls[3])] + ls[4:],
                  "data row 2 has 10 cells, expected 11"),
    "long-row": (lambda ls: ls[:3] + [ls[3] + ",0"] + ls[4:],
                 "data row 2 has 12 cells, expected 11"),
    "short-first-row": (lambda ls: ls[:1] + [_without_last_cell(ls[1])] + ls[2:],
                        "data row 0 has 10 cells, expected 11"),
    "bad-cell-past-header": (lambda ls: ls[:1] + [ls[1] + ",x"] + ls[2:],
                             "cell 'x' at data row 0, column 12 of 11"),
    "every-row-short": (lambda ls: ls[:1] + [_without_last_cell(line) for line in ls[1:]],
                        "every data row has 10 cells, expected 11"),
}


@pytest.mark.parametrize("name", MALFORMED_BODIES)
def test_malformed_body_rejected_and_verify_exits_3(tmp_path, tort_schema, capsys, name):
    edit, message = MALFORMED_BODIES[name]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(edit(_tort_lines(tmp_path))) + "\n")
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}")


def test_leading_zero_and_negative_zero_read_as_their_values(tmp_path, tort_schema):
    ds = gen_tort("unique")
    lines = _tort_lines(tmp_path)
    assert lines[3].startswith("0,0,") and lines[-1].startswith("1,")
    lines[3] = "00,-0" + lines[3][3:]
    lines[-1] = "0" + lines[-1]
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_text("\n".join(lines) + "\n")
    assert read_dataset(path, tort_schema).equals(ds)


def test_byte_that_is_not_utf8_named(tmp_path, tort_schema):
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\n0,", b"\n\xff0,", 1))
    with pytest.raises(DatasetFormatError,
                       match=r"cell '\\\\xff0' at data row 0, column 'cau'"):
        read_dataset(path, tort_schema)


def test_sidecar_that_is_not_an_object_rejected(tmp_path, tort_schema, capsys):
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    meta_path(path).write_text("[]")
    with pytest.raises(DatasetFormatError, match="JSON object"):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3


@pytest.mark.parametrize("key,value,what", [
    ("seed", [1], "an integer"),
    ("seed", "x", "an integer"),
    ("seed", True, "an integer"),
    ("size", 1.5, "an integer"),
    ("positive_fraction", "0.5", "a number"),
    ("kind", 3, "a string"),
    ("generator_version", None, "a string"),
], ids=["seed-list", "seed-string", "seed-bool", "size-float", "fraction-string", "kind-int",
        "version-null"])
def test_sidecar_key_of_wrong_json_type_rejected(tmp_path, tort_schema, capsys, key, value,
                                                 what):
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    sidecar = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps({**sidecar, key: value}))
    message = f"{meta_path(path)}: sidecar key '{key}' must be {what}"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sidecar_with_unknown_key_rejected(tmp_path, tort_schema):
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    sidecar = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps({**sidecar, "sede": 3}))
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{meta_path(path)}: sidecar key 'sede' is unknown")):
        read_dataset(path, tort_schema)


def test_header_only_file_reads_as_zero_cases(tmp_path, tort_schema):
    path = tmp_path / "h.csv"
    path.write_text(_tort_lines(tmp_path)[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_dataset(path, tort_schema)
    assert back.values.shape == (0, tort_schema.n_features) and len(back.labels) == 0


def test_blank_lines_skipped(tmp_path, tort_schema):
    ds = gen_tort("unique")
    path = tmp_path / "u.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["", ""] + lines[5:]) + "\n\n")
    assert read_dataset(path, tort_schema).equals(ds)


@pytest.mark.parametrize("tail", [b"", b"\n\n\n", b"\r\n"])
def test_every_row_read_whatever_the_file_ends_with(tmp_path, tort_schema, tail):
    """The row bound given to loadtxt counts a last row without a newline."""
    ds = gen_tort("unique")
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_bytes(path.read_bytes().rstrip(b"\n") + tail)
    assert read_dataset(path, tort_schema).equals(ds)


def test_header_line_ended_by_a_lone_cr_reads(tmp_path, tort_schema):
    """The header line ends where csv's text mode ends it, at a lone "\r"
    too; the body still splits at "\n" only."""
    ds = gen_tort("unique")
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r", 1))
    assert read_dataset(path, tort_schema).equals(ds)


def test_read_peak_memory_stays_below_six_times_the_file(tmp_path, welfare_schema):
    path = write_dataset(gen_welfare("type-b", size=20_000, seed=2), tmp_path / "b.csv")
    read_dataset(path, welfare_schema)  # first-call allocations are not the read's own
    tracemalloc.start()
    try:
        read_dataset(path, welfare_schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * path.stat().st_size


@pytest.mark.parametrize("name", ["crlf", "cr-only", "form-feed-line"])
def test_line_endings(tmp_path, tort_schema, capsys, name):
    """Lines split at "\n" only: "\r\n" reads as the original, a lone "\r"
    ends no line and a line holding only "\x0c" is not a blank line."""
    ds = gen_tort("unique")
    path = write_dataset(ds, tmp_path / "u.csv")
    text = path.read_bytes()
    if name == "crlf":
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        assert read_dataset(path, tort_schema).equals(ds)
        return
    lines = text.split(b"\n")
    path.write_bytes(text.replace(b"\n", b"\r") if name == "cr-only"
                     else b"\n".join(lines[:3] + [b"\x0c"] + lines[3:]))
    with pytest.raises(DatasetFormatError, match=re.escape(str(path))):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}")


def _traced_peak(call) -> int:
    call()  # first-call allocations are not the call's own
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def welfare_20k():
    return gen_welfare("type-b", size=20_000, seed=2)


def test_write_peak_memory_below_half_the_int64_rows(tmp_path, welfare_20k):
    """The writer holds one block of index, cell and byte temporaries, never
    a whole-set copy: a whole-set intp index matrix alone would be 1.0x."""
    peak = _traced_peak(lambda: write_dataset(welfare_20k, tmp_path / "b.csv"))
    assert peak < 0.5 * 8 * welfare_20k.values.size


def test_read_peak_memory_below_the_int64_rows(tmp_path, welfare_20k):
    """The reader holds the body, the narrow rows and one parsed int64 block:
    a whole int64 matrix alone would be 1.0x."""
    path = write_dataset(welfare_20k, tmp_path / "b.csv")
    peak = _traced_peak(lambda: read_dataset(path, welfare_20k.schema))
    assert peak < 1.0 * 8 * welfare_20k.values.size


@pytest.fixture(scope="module")
def simplified_2b_plus_1():
    """A simplified `type-a` set of 2B + 1 rows, B the writer's block (the
    kind's sizes are even, so one row is cut off)."""
    ds = gen_welfare("type-a", size=2 * dataset_io._BLOCK_ROWS + 2, seed=6, simplified=True)
    return Dataset(ds.schema_id, ds.kind, ds.values[:-1], ds.labels[:-1], ds.meta)


@pytest.mark.parametrize("read_block", [None, 100])
@pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "2B+1"])
def test_round_trip_across_block_boundaries(tmp_path, monkeypatch, simplified_2b_plus_1,
                                            simplified_schema, rows, read_block):
    """Sets of 0, 1, B-1, B, B+1 and 2B+1 rows are written as the reference
    bytes, and read back equal in the reader's own blocks and in blocks of
    about 100 bytes."""
    block = dataset_io._BLOCK_ROWS
    n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}
    full = simplified_2b_plus_1
    dataset = Dataset(full.schema_id, full.kind, full.values[:n[rows]], full.labels[:n[rows]],
                      full.meta)
    path = write_dataset(dataset, tmp_path / "d.csv")
    assert path.read_bytes() == _reference_csv(dataset)
    if read_block is not None:
        monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", read_block)
    assert read_dataset(path, simplified_schema).equals(dataset)


@settings(max_examples=60, deadline=None)
@given(read_block=st.integers(1, 300), crlf=st.booleans(), final_newline=st.booleans())
def test_any_read_block_size_reads_the_same_rows(fuzz_sources, read_block, crlf, final_newline):
    """Cut points of any size, with blank lines, CRLF lines and a last line
    without a newline, give the rows of the whole-file parse."""
    root, sources = fuzz_sources
    schema, text = sources[0]
    lines = text.splitlines()
    lines = lines[:4] + ["", ""] + lines[4:40] + [""] + lines[40:80]
    edited = ("\r\n" if crlf else "\n").join(lines) + ("\n" if final_newline else "")
    path = root / "blocks.csv"
    path.write_text(edited, newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_io, "_BLOCK_BYTES", read_block)
        back = read_dataset(path, schema)
    rows = np.array(_reference_rows(edited), dtype=np.int64)
    assert np.array_equal(back.values, rows[:, :-1]) and np.array_equal(back.labels, rows[:, -1])


# edits of one data row of a tort `unique` file, each with the message that
# names it at data row {row}; the edits whose bytes pass the whole-body byte
# check fail in the parse or the range check of the block that holds them
FAULTS_IN_A_ROW = {
    "beyond-int64": (lambda line: "9" * 20 + line[1:],
                     r"cell '9{20}' at data row {row}, column 'cau'"),
    "empty-cell": (lambda line: line[1:], r"cell '' at data row {row}, column 'cau'"),
    "bare-minus": (lambda line: "-" + line[1:], r"cell '-' at data row {row}, column 'cau'"),
    "short-row": (_without_last_cell, "data row {row} has 10 cells, expected 11"),
    "long-row": (lambda line: line + ",0", "data row {row} has 12 cells, expected 11"),
    # a wrong width beside a cell that does not parse: the width is named
    "trailing-comma": (lambda line: line + ",", "data row {row} has 12 cells, expected 11"),
    "value-above": (lambda line: "7" + line[1:], r"cau: value 7 at row {row} outside \[0, 1\]"),
    "value-below": (lambda line: "-1" + line[1:],
                    r"cau: value -1 at row {row} outside \[0, 1\]"),
    "label-2": (lambda line: line[:-1] + "2", r"label 2 at data row {row} is outside \{0, 1\}"),
    "label-negative": (lambda line: line[:-1] + "-1",
                       r"label -1 at data row {row} is outside \{0, 1\}"),
    "non-numeric": (lambda line: "maybe" + line[1:],
                    r"cell 'maybe' at data row {row}, column 'cau'"),
    "plus-sign": (lambda line: "+1" + line[1:], r"cell '\+1' at data row {row}, column 'cau'"),
    "lone-cr": (lambda line: "1\r1" + line[1:], r"cell '1\\r1' at data row {row}, column 'cau'"),
}
_BYTE_CHECKED = {"non-numeric", "plus-sign", "lone-cr"}
_READ_BLOCK = 1000  # bytes of a block in the tests below: about 40 rows of a tort file


def _blank_and_crlf_lines(tmp_path) -> list[str]:
    """The lines of a tort `unique` file with blank lines among its first
    rows, the data rows unchanged and in order."""
    lines = _tort_lines(tmp_path)
    return lines[:3] + ["", ""] + lines[3:50] + [""] + lines[50:]


def _write_crlf(path, lines: list[str]) -> None:
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())


def _rows_per_block(monkeypatch, path, schema) -> list[int]:
    """The data rows that each block of a read of ``path`` parses."""
    rows, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        rows.append(len(block := loadtxt(*args, **kwargs)))
        return block

    monkeypatch.setattr(np, "loadtxt", counted)
    read_dataset(path, schema)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return rows


@pytest.mark.parametrize("where", ["first", "middle"])
@pytest.mark.parametrize("name", FAULTS_IN_A_ROW)
def test_fault_in_the_third_block_named_at_its_file_row(tmp_path, monkeypatch, tort_schema,
                                                        capsys, name, where):
    """A fault in the first or a middle data row of the third block, after
    blank lines and CRLF lines, gets the message that the same edit gets in a
    read of the whole body as one block, naming its data row in the file."""
    monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", _READ_BLOCK)
    edit, message = FAULTS_IN_A_ROW[name]
    lines = _blank_and_crlf_lines(tmp_path)
    path = tmp_path / "bad.csv"
    _write_crlf(path, lines)
    blocks = _rows_per_block(monkeypatch, path, tort_schema)
    assert len(blocks) > 3
    row = blocks[0] + blocks[1] + (0 if where == "first" else blocks[2] // 2)
    data_lines = [i for i, line in enumerate(lines) if i and line.strip("\r")]
    lines[data_lines[row]] = edit(lines[data_lines[row]])
    _write_crlf(path, lines)
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    with pytest.raises(DatasetFormatError, match=message.replace("{row}", str(row))) as err:
        read_dataset(path, tort_schema)
    # the bytes are checked before any block is parsed, and a block's first row's
    # width before the block is
    width_first = where == "first" and "cells" in message
    assert len(calls) == (0 if name in _BYTE_CHECKED else 2 if width_first else 3)
    monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", path.stat().st_size)
    with pytest.raises(DatasetFormatError) as whole:
        read_dataset(path, tort_schema)
    assert str(err.value) == str(whole.value)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_first_faulty_block_decides_between_faults(tmp_path, monkeypatch, tort_schema):
    """A bad label in the second block is reported, not the bad feature value
    in the third that a range check of the whole matrix would name first."""
    monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", _READ_BLOCK)
    lines = _tort_lines(tmp_path)
    path = tmp_path / "bad.csv"
    _write_crlf(path, lines)
    blocks = _rows_per_block(monkeypatch, path, tort_schema)
    second, third = blocks[0] + 1, blocks[0] + blocks[1] + 1  # line numbers: the header is 0
    lines[second] = lines[second][:-1] + "2"
    lines[third] = "7" + lines[third][1:]
    _write_crlf(path, lines)
    with pytest.raises(DatasetFormatError, match=f"label 2 at data row {blocks[0]} is outside"):
        read_dataset(path, tort_schema)


def test_every_row_of_one_wrong_width(tmp_path, monkeypatch, tort_schema):
    """Every row one cell short is named as every data row in one block, and
    as data row 0 when the rows span several blocks."""
    lines = _tort_lines(tmp_path)
    path = tmp_path / "short.csv"
    _write_crlf(path, lines[:1] + [_without_last_cell(line) for line in lines[1:]] + ["", ""])
    with pytest.raises(DatasetFormatError, match="every data row has 10 cells, expected 11"):
        read_dataset(path, tort_schema)
    monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", _READ_BLOCK)
    with pytest.raises(DatasetFormatError, match="data row 0 has 10 cells, expected 11"):
        read_dataset(path, tort_schema)


def _reference_rows(text: str) -> list[list[int]]:
    """The body parsed cell by cell with ``csv`` and ``int``, blank lines
    skipped; every cell must be an optional "-" and digits."""
    rows = [row for row in list(csv.reader(io.StringIO(text)))[1:] if row]
    assert all(re.fullmatch("-?[0-9]+", cell) for row in rows for cell in row), rows
    return [[int(cell) for cell in row] for row in rows]


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    """The text of a written tort `unique` and simplified `type-b` CSV."""
    root = tmp_path_factory.mktemp("fuzz")
    sources = []
    for dataset in (gen_tort("unique"), gen_welfare("type-b", size=60, seed=4, simplified=True)):
        write_dataset(dataset, root / f"{dataset.schema_id}.csv")
        text = (root / f"{dataset.schema_id}.csv").read_text()
        sources.append((build_domain(dataset.schema_id), text))
    return root, sources


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_file_reads_or_raises_format_error(fuzz_sources, data):
    root, sources = fuzz_sources
    schema, text = data.draw(st.sampled_from(sources))
    lines = [line.split(",") for line in text.splitlines()]
    edit = data.draw(st.sampled_from(["replace", "drop", "duplicate", "truncate"]))
    if edit == "truncate":
        edited = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        cells = lines[data.draw(st.integers(0, len(lines) - 1))]
        i = data.draw(st.integers(0, len(cells) - 1))
        if edit == "replace":
            cells[i] = data.draw(st.text(st.characters(codec="ascii"))
                                 | st.text(st.characters(codec="utf-8")))
        elif edit == "drop":
            del cells[i]
        else:
            cells.insert(i, cells[i])
        edited = "\n".join(",".join(row) for row in lines) + "\n"
    path = root / "edited.csv"
    path.write_text(edited)
    try:
        back = read_dataset(path, schema)
    except DatasetFormatError:
        return
    rows = np.array(_reference_rows(edited), dtype=np.int64).reshape(-1, schema.n_features + 1)
    assert np.array_equal(back.values, rows[:, :-1]) and np.array_equal(back.labels, rows[:, -1])
