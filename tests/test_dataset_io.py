import numpy as np
import pytest

from rationale_lab import (
    DatasetFormatError,
    DatasetMeta,
    build_domain,
    gen_tort,
    gen_welfare,
    read_dataset,
    write_dataset,
)
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
