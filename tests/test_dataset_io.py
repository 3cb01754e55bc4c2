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
    generate,
    read_dataset,
    write_dataset,
)
from rationale_lab.cli import main
from rationale_lab.dataset_io import LABEL_COLUMN, meta_path
from rationale_lab.domains import FeatureSpec
from rationale_lab.generation import KINDS, Dataset, GeneratorRequest


def test_round_trip_tort_unique(tmp_path, tort_schema):
    ds = generate(GeneratorRequest("tort", "unique"))
    path = tmp_path / "unique.csv"
    write_dataset(ds, path)
    back = read_dataset(path, tort_schema)
    assert back.equals(ds)
    assert meta_path(path).exists()


def test_round_trip_welfare(tmp_path, welfare_schema):
    three_blocks = 2 * dataset_io._BLOCK_ROWS + 2
    ds = generate(GeneratorRequest("welfare", "type-b", three_blocks, seed=13))
    path = write_dataset(ds, tmp_path / "b.csv")
    back = read_dataset(path, welfare_schema)
    assert back.equals(ds)
    # the int16 rows read back and written again give the same bytes
    again = write_dataset(back, tmp_path / "again.csv")
    assert again.read_bytes() == path.read_bytes()
    assert meta_path(again).read_bytes() == meta_path(path).read_bytes()


def test_writes_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(generate(GeneratorRequest("welfare", "type-a", 300, seed=8)), a)
    write_dataset(generate(GeneratorRequest("welfare", "type-a", 300, seed=8)), b)
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
    ds = generate(GeneratorRequest("welfare", "type-b", 200, seed=3))
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
    ds = generate(GeneratorRequest("tort", "unique"))
    rows = np.column_stack([ds.values, ds.labels]).astype(np.int64)
    rows[5, column] = value
    broken = Dataset(ds.schema_id, ds.kind, rows[:, :-1], rows[:, -1], ds.meta)
    path = tmp_path / "bad.csv"
    with pytest.raises(SchemaValidationError, match=message):
        write_dataset(broken, path)
    assert not path.exists() and not meta_path(path).exists()


def test_missing_label_column_named(tmp_path, tort_schema):
    path = tmp_path / "broken.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    lines = path.read_text().splitlines()
    header = lines[0].rsplit(",", 1)[0]
    rows = [line.rsplit(",", 1)[0] for line in lines[1:]]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(DatasetFormatError, match="'label'"):
        read_dataset(path, tort_schema)


def test_header_schema_mismatch(tmp_path, welfare_schema):
    path = tmp_path / "tort.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    with pytest.raises(DatasetFormatError, match="missing column"):
        read_dataset(path, welfare_schema)


def test_non_numeric_cell_named(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    text = path.read_text().splitlines()
    text[3] = text[3].replace("0", "maybe", 1)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(DatasetFormatError, match="'maybe'"):
        read_dataset(path, tort_schema)


def test_label_outside_binary_rejected(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + "2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="outside"):
        read_dataset(path, tort_schema)


def test_cell_outside_feature_range_rejected(tmp_path, tort_schema):
    path = tmp_path / "bad.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    lines = path.read_text().splitlines()
    lines[4] = "7" + lines[4][1:]  # cau is boolean
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"cau: value 7 at row 3 outside \[0, 1\]"):
        read_dataset(path, tort_schema)


def test_read_without_sidecar_still_works(tmp_path, tort_schema):
    ds = generate(GeneratorRequest("tort", "unique"))
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
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    return path.read_text().splitlines()


def _welfare_lines(tmp_path) -> list[str]:
    path = tmp_path / "w.csv"
    write_dataset(generate(GeneratorRequest("welfare", "type-b", 10, seed=3)), path)
    return path.read_text().splitlines()


def _without_last_cell(line: str) -> str:
    return line.rsplit(",", 1)[0]


def _first_cell_of_row_2(cell: str):
    """An edit that sets data row 2's first cell (a "0", column 'cau')."""
    return lambda ls: ls[:3] + [cell + ls[3][1:]] + ls[4:]


def _cell_of_row_2(column: str, cell: str):
    """An edit that sets data row 2's cell in ``column``."""
    def edit(ls):
        row = ls[3].split(",")
        row[ls[0].split(",").index(column)] = cell
        return ls[:3] + [",".join(row)] + ls[4:]
    return edit


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
    # int64 cells beyond the int8 rows: named as the range check names them
    "cau-200": (_first_cell_of_row_2("200"), r"cau: value 200 at row 2 outside \[0, 1\]"),
    "label-300": (_cell_of_row_2(LABEL_COLUMN, "300"),
                  r"label 300 at row 2 outside \{0, 1\}"),
    "int8-max": (_first_cell_of_row_2("127"), r"cau: value 127 at row 2 outside \[0, 1\]"),
    "int8-max-plus-1": (_first_cell_of_row_2("128"),
                        r"cau: value 128 at row 2 outside \[0, 1\]"),
    "int8-min-minus-1": (_first_cell_of_row_2("-129"),
                         r"cau: value -129 at row 2 outside \[0, 1\]"),
    "beyond-int8-past-header": (lambda ls: ls[:1] + [ls[1] + ",300"] + ls[2:],
                                "data row 0 has 12 cells, expected 11"),
    # loadtxt quotes the first 100 characters of this cell
    "zero-padded-cau-200": (_first_cell_of_row_2("0" * 120 + "200"),
                            r"cau: value 200 at row 2 outside \[0, 1\]"),
    # longer than the 4,300 digits that int() of a string takes: quoted to 100
    # characters, or read as its value without its leading zeros
    "beyond-int64-5000-digits": (_first_cell_of_row_2("9" * 5000),
                                 r"cell '9{100}' at data row 2, column 'cau'"),
    "zero-padded-5000-cau-200": (_first_cell_of_row_2("0" * 5000 + "200"),
                                 r"cau: value 200 at row 2 outside \[0, 1\]"),
}
# edits of the lines of a welfare `type-b` file, whose rows are int16
WELFARE_MALFORMED_BODIES = {
    "resources-40000": (_cell_of_row_2("Resources", "40000"),
                        r"Resources: value 40000 at row 2 outside \[0, 10000\]"),
    "int16-max": (_cell_of_row_2("Resources", "32767"),
                  r"Resources: value 32767 at row 2 outside \[0, 10000\]"),
    "int16-max-plus-1": (_cell_of_row_2("Resources", "32768"),
                         r"Resources: value 32768 at row 2 outside \[0, 10000\]"),
}


@pytest.mark.parametrize("name", [*MALFORMED_BODIES, *WELFARE_MALFORMED_BODIES])
def test_malformed_body_rejected_and_verify_exits_3(tmp_path, capsys, name):
    domain = "tort" if name in MALFORMED_BODIES else "welfare"
    edit, message = {**MALFORMED_BODIES, **WELFARE_MALFORMED_BODIES}[name]
    lines = _tort_lines(tmp_path) if domain == "tort" else _welfare_lines(tmp_path)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset(path, build_domain(domain))
    assert main(["verify", "--in", str(path), "--domain", domain]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}")


def test_overflow_rejected_where_loadtxt_parses_it_via_a_float(tmp_path, monkeypatch):
    """numpy 1.23-1.26's loadtxt re-parses a cell beyond a narrow integer dtype
    as a float, warns, and casts it, wrapping it; the reader makes the warning
    an error, which loadtxt reports as a cell it could not convert."""
    loadtxt = np.loadtxt

    def loadtxt_via_float(fname, dtype, **kwargs):
        wide = loadtxt(fname, np.int64, **kwargs)
        beyond = (wide < np.iinfo(dtype).min) | (wide > np.iinfo(dtype).max)
        for row, col in np.argwhere(beyond)[:1]:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as err:
                raise ValueError(f"could not convert string '{wide[row, col]}' to "
                                 f"{np.dtype(dtype)} at row {row}, column {col + 1}.") from err
        return wide.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
    path = tmp_path / "w.csv"
    path.write_text("\n".join(_cell_of_row_2("Resources", "70536")(_welfare_lines(tmp_path))))
    with pytest.raises(DatasetFormatError,  # 70536 wraps to 5000 in int16
                       match=r"Resources: value 70536 at row 2 outside \[0, 10000\]"):
        read_dataset(path, build_domain("welfare"))


def test_leading_zero_and_negative_zero_read_as_their_values(tmp_path, tort_schema):
    ds = generate(GeneratorRequest("tort", "unique"))
    lines = _tort_lines(tmp_path)
    assert lines[3].startswith("0,0,") and lines[-1].startswith("1,")
    lines[3] = "00,-0" + lines[3][3:]
    lines[-1] = "0" + lines[-1]
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_text("\n".join(lines) + "\n")
    assert read_dataset(path, tort_schema).equals(ds)


def test_byte_that_is_not_utf8_named(tmp_path, tort_schema):
    path = tmp_path / "u.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\n0,", b"\n\xff0,", 1))
    with pytest.raises(DatasetFormatError,
                       match=r"cell '\\\\xff0' at data row 0, column 'cau'"):
        read_dataset(path, tort_schema)


def test_sidecar_that_is_not_an_object_rejected(tmp_path, tort_schema, capsys):
    path = tmp_path / "u.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
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
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    sidecar = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps({**sidecar, key: value}))
    message = f"{meta_path(path)}: sidecar key '{key}' must be {what}"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sidecar_with_unknown_key_rejected(tmp_path, tort_schema):
    path = tmp_path / "u.csv"
    write_dataset(generate(GeneratorRequest("tort", "unique")), path)
    sidecar = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps({**sidecar, "sede": 3}))
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{meta_path(path)}: sidecar key 'sede' is unknown")):
        read_dataset(path, tort_schema)


def test_sidecar_of_another_domain_rejected(tmp_path, capsys):
    """A welfare CSV whose sidecar names tort is refused, naming the sidecar."""
    path = write_dataset(generate(GeneratorRequest("welfare", "type-b", 20, seed=1)),
                         tmp_path / "b.csv")
    sidecar = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps({**sidecar, "schema_id": "tort"}))
    message = f"{meta_path(path)}: sidecar schema_id 'tort', expected 'welfare'"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        read_dataset(path, build_domain("welfare"))
    assert main(["verify", "--in", str(path), "--domain", "welfare"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_header_only_file_reads_as_zero_cases(tmp_path, tort_schema):
    path = tmp_path / "h.csv"
    path.write_text(_tort_lines(tmp_path)[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_dataset(path, tort_schema)
    assert back.values.shape == (0, tort_schema.n_features) and len(back.labels) == 0


def test_blank_lines_skipped(tmp_path, tort_schema):
    ds = generate(GeneratorRequest("tort", "unique"))
    path = tmp_path / "u.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["", ""] + lines[5:]) + "\n\n")
    assert read_dataset(path, tort_schema).equals(ds)


@pytest.mark.parametrize("tail", [b"", b"\n\n\n", b"\r\n"])
def test_every_row_read_whatever_the_file_ends_with(tmp_path, tort_schema, tail):
    """The row bound given to loadtxt counts a last row without a newline."""
    ds = generate(GeneratorRequest("tort", "unique"))
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_bytes(path.read_bytes().rstrip(b"\n") + tail)
    assert read_dataset(path, tort_schema).equals(ds)


def test_header_line_ended_by_a_lone_cr_reads(tmp_path, tort_schema):
    """The header line ends where csv's text mode ends it, at a lone "\r"
    too; the body still splits at "\n" only."""
    ds = generate(GeneratorRequest("tort", "unique"))
    path = write_dataset(ds, tmp_path / "u.csv")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r", 1))
    assert read_dataset(path, tort_schema).equals(ds)


def test_read_peak_memory_stays_below_six_times_the_file(tmp_path, welfare_schema):
    path = write_dataset(generate(GeneratorRequest("welfare", "type-b", 20_000, seed=2)),
                         tmp_path / "b.csv")
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
    ds = generate(GeneratorRequest("tort", "unique"))
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
    return generate(GeneratorRequest("welfare", "type-b", 20_000, seed=2))


def test_write_peak_memory_below_half_the_int64_rows(tmp_path, welfare_20k):
    """The writer holds one block of index, cell and byte temporaries, never
    a whole-set copy: a whole-set intp index matrix alone would be 1.0x."""
    peak = _traced_peak(lambda: write_dataset(welfare_20k, tmp_path / "b.csv"))
    assert peak < 0.5 * 8 * welfare_20k.values.size


def test_read_peak_memory_below_the_int64_rows(tmp_path, welfare_20k):
    """The reader holds the body, the narrow rows and the matrix that loadtxt
    parses into value_dtype: a whole int64 matrix alone would be 1.0x."""
    path = write_dataset(welfare_20k, tmp_path / "b.csv")
    peak = _traced_peak(lambda: read_dataset(path, welfare_20k.schema))
    assert peak < 1.0 * 8 * welfare_20k.values.size


@pytest.fixture(scope="module")
def simplified_2b_plus_1():
    """A simplified `type-a` set of 2B + 1 rows, B the writer's block (the
    kind's sizes are even, so one row is cut off)."""
    ds = generate(GeneratorRequest("simplified", "type-a", 2 * dataset_io._BLOCK_ROWS + 2, seed=6))
    return Dataset(ds.schema_id, ds.kind, ds.values[:-1], ds.labels[:-1], ds.meta)


@pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "2B+1"])
def test_round_trip_across_block_boundaries(tmp_path, simplified_2b_plus_1, simplified_schema,
                                            rows):
    """Sets of 0, 1, B-1, B, B+1 and 2B+1 rows are written as the reference
    bytes and read back equal."""
    block = dataset_io._BLOCK_ROWS
    n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}
    full = simplified_2b_plus_1
    dataset = Dataset(full.schema_id, full.kind, full.values[:n[rows]], full.labels[:n[rows]],
                      full.meta)
    path = write_dataset(dataset, tmp_path / "d.csv")
    assert path.read_bytes() == _reference_csv(dataset)
    assert read_dataset(path, simplified_schema).equals(dataset)


# edits of one data row of a tort file, each with the message that names it at
# data row {row}; the edits whose bytes pass the whole-body byte check fail in
# the parse or the range check
FAULTS_IN_A_ROW = {
    "beyond-int64": (lambda line: "9" * 20 + line[1:],
                     r"cell '9{20}' at data row {row}, column 'cau'"),
    "empty-cell": (lambda line: line[1:], r"cell '' at data row {row}, column 'cau'"),
    "bare-minus": (lambda line: "-" + line[1:], r"cell '-' at data row {row}, column 'cau'"),
    "short-row": (_without_last_cell, "data row {row} has 10 cells, expected 11"),
    "long-row": (lambda line: line + ",0", "data row {row} has 12 cells, expected 11"),
    # a wrong width beside a cell that does not parse: the width is named, but
    # in the first data row, which sets the width, the empty cell is
    "trailing-comma": (lambda line: line + ",", "data row {row} has 12 cells, expected 11"),
    "value-above": (lambda line: "7" + line[1:], r"cau: value 7 at row {row} outside \[0, 1\]"),
    "value-below": (lambda line: "-1" + line[1:],
                    r"cau: value -1 at row {row} outside \[0, 1\]"),
    "label-2": (lambda line: line[:-1] + "2", r"label 2 at row {row} outside \{0, 1\}"),
    "label-negative": (lambda line: line[:-1] + "-1",
                       r"label -1 at row {row} outside \{0, 1\}"),
    "non-numeric": (lambda line: "maybe" + line[1:],
                    r"cell 'maybe' at data row {row}, column 'cau'"),
    "plus-sign": (lambda line: "+1" + line[1:], r"cell '\+1' at data row {row}, column 'cau'"),
    "lone-cr": (lambda line: "1\r1" + line[1:], r"cell '1\\r1' at data row {row}, column 'cau'"),
    # a "\r" that ends a cell other than the last is shown with the cell
    "cr-after-first-cell": (lambda line: line[0] + "\r" + line[1:],
                            r"cell '\d\\r' at data row {row}, column 'cau'"),
}
_BYTE_CHECKED = {"non-numeric", "plus-sign", "lone-cr", "cr-after-first-cell"}


def _write_crlf(path, lines: list[str]) -> None:
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())


@pytest.fixture(scope="module")
def tort_2000_lines(tmp_path_factory) -> list[str]:
    """The lines of a 2,000-case tort `regular` file with blank lines before
    its first data row and among its rows, the data rows unchanged and in
    order."""
    path = write_dataset(generate(GeneratorRequest("tort", "regular", 2000, seed=8)),
                         tmp_path_factory.mktemp("tort") / "r.csv")
    lines = path.read_text().splitlines()
    return lines[:1] + ["", ""] + lines[1:3] + [""] + lines[3:1000] + ["", ""] + lines[1000:]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("name", FAULTS_IN_A_ROW)
def test_fault_in_one_row_named_at_its_file_row(tmp_path, monkeypatch, tort_schema,
                                                tort_2000_lines, capsys, name, where):
    """A fault in the first, a middle or the last data row of a file of CRLF
    lines, after blank lines, is named at its data row, counted without the
    blank lines, by one parse of the whole body, or by none when the body's
    bytes already fail."""
    edit, message = FAULTS_IN_A_ROW[name]
    lines = list(tort_2000_lines)
    data_lines = [i for i, line in enumerate(lines) if i and line]
    row = {"first": 0, "middle": len(data_lines) // 2, "last": len(data_lines) - 1}[where]
    lines[data_lines[row]] = edit(lines[data_lines[row]])
    if (name, where) == ("trailing-comma", "first"):
        message = "cell '' at data row {row}, column 12 of 11"
    path = tmp_path / "bad.csv"
    _write_crlf(path, lines)
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    with pytest.raises(DatasetFormatError, match=message.replace("{row}", str(row))) as err:
        read_dataset(path, tort_schema)
    assert len(calls) == (0 if name in _BYTE_CHECKED else 1)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_several_faults_reported_in_order(tmp_path, tort_schema):
    """Of several faults, a byte the writer never writes is named first
    wherever it sits; then the first parse fault in file order, a value
    beyond int8 included; then the first bad feature and its first row; then
    the first bad label."""
    original = _tort_lines(tmp_path)
    columns = original[0].split(",")
    # (data row, column, cell, message): each is named while the faults after it remain
    faults = [(20, "cau", "+1", r"cell '\+1' at data row 20, column 'cau'"),
              (10, "ila", "200", r"ila: value 200 at row 10 outside \[0, 1\]"),
              (12, "ift", "", r"cell '' at data row 12, column 'ift'"),
              (3, "cau", "7", r"cau: value 7 at row 3 outside \[0, 1\]"),
              (2, "ico", "5", r"ico: value 5 at row 2 outside \[0, 1\]"),
              (1, LABEL_COLUMN, "2", r"label 2 at row 1 outside \{0, 1\}")]
    path = tmp_path / "bad.csv"
    for k, (*_, message) in enumerate(faults):
        lines = list(original)
        for row, column, cell, _ in faults[k:]:
            cells = lines[row + 1].split(",")
            cells[columns.index(column)] = cell
            lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path, tort_schema)


def test_every_row_of_one_wrong_width(tmp_path, tort_schema):
    """Every row one cell short is named as every data row."""
    lines = _tort_lines(tmp_path)
    path = tmp_path / "short.csv"
    _write_crlf(path, lines[:1] + [_without_last_cell(line) for line in lines[1:]] + ["", ""])
    with pytest.raises(DatasetFormatError, match="every data row has 10 cells, expected 11"):
        read_dataset(path, tort_schema)


def _reference_rows(text: str) -> list[list[int]]:
    """The body parsed cell by cell with ``csv`` and ``int``, blank lines
    skipped; every cell must be an optional "-" and digits."""
    rows = [row for row in list(csv.reader(io.StringIO(text)))[1:] if row]
    assert all(re.fullmatch("-?[0-9]+", cell) for row in rows for cell in row), rows
    # leading zeros dropped, as int() takes 4,300 digits at most
    return [[int(re.sub("^(-?)0+(?=[0-9])", r"\1", cell)) for cell in row] for row in rows]


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    """The text of a written tort `unique`, simplified `type-b` and welfare
    `type-b` CSV: int8 and int16 rows."""
    root = tmp_path_factory.mktemp("fuzz")
    sources = []
    for request in (GeneratorRequest("tort", "unique"),
                    GeneratorRequest("simplified", "type-b", 60, seed=4),
                    GeneratorRequest("welfare", "type-b", 12, seed=4)):
        dataset = generate(request)
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
                                 | st.text(st.characters(codec="utf-8"))
                                 | st.integers(-2**70, 2**70).map(str)
                                 # digit runs about int()'s 4,300-digit limit
                                 | st.integers(4290, 4400).map(lambda n: "9" * n)
                                 | st.builds(lambda zeros, value: "0" * zeros + str(value),
                                             st.integers(1000, 5000), st.integers(0, 300)))
        elif edit == "drop":
            del cells[i]
        else:
            cells.insert(i, cells[i])
        edited = "\n".join(",".join(row) for row in lines) + "\n"
    path = root / "edited.csv"
    path.write_text(edited)
    try:
        back = read_dataset(path, schema)
    except DatasetFormatError as err:
        assert str(err).startswith(f"{path}: "), err
        return
    rows = np.array(_reference_rows(edited), dtype=np.int64).reshape(-1, schema.n_features + 1)
    assert np.array_equal(back.values, rows[:, :-1]) and np.array_equal(back.labels, rows[:, -1])
