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
