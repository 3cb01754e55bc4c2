import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_lab import (
    DatasetFormatError,
    DatasetMeta,
    build_domain,
    gen_tort,
    gen_welfare,
    read_dataset,
    write_dataset,
)
from rationale_lab.cli import main
from rationale_lab.dataset_io import meta_path


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


# edits of the lines of a tort `unique` file (10 features plus the label):
# ls[0] is the header, ls[1] data row 0
MALFORMED_BODIES = {
    "non-numeric": (lambda ls: ls[:3] + ["maybe" + ls[3][1:]] + ls[4:],
                    r"cell 'maybe' at data row 2, column 'cau'"),
    "beyond-int64": (lambda ls: ls[:3] + ["9" * 20 + ls[3][1:]] + ls[4:],
                     r"cell '9{20}' at data row 2, column 'cau'"),
    "non-ascii": (lambda ls: ls[:3] + ["\U000e0000" + ls[3][1:]] + ls[4:],
                  r"cell '\\U000e0000' is not a base-10 int64"),
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


def test_sidecar_that_is_not_an_object_rejected(tmp_path, tort_schema, capsys):
    path = tmp_path / "u.csv"
    write_dataset(gen_tort("unique"), path)
    meta_path(path).write_text("[]")
    with pytest.raises(DatasetFormatError, match="JSON object"):
        read_dataset(path, tort_schema)
    assert main(["verify", "--in", str(path), "--domain", "tort"]) == 3


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


def _reference_rows(text: str) -> list[list[int]]:
    """The body parsed cell by cell with ``csv`` and ``int``, blank lines skipped."""
    return [[int(cell) for cell in row] for row in list(csv.reader(io.StringIO(text)))[1:] if row]


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
