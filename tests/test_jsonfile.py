"""The shared JSON file helpers: one byte format, one reader, and each key's
JSON type read from the annotation of the dataclass field it fills."""

import re
from dataclasses import dataclass

import pytest

from rationale_lab._jsonfile import read_json, typed_fields, write_json


@dataclass
class Fields:
    count: int
    rate: float
    name: str
    flag: bool
    widths: tuple[int, ...]


@pytest.mark.parametrize("key,value,cast", [
    ("count", 3, 3), ("rate", 2, 2.0), ("rate", 0.5, 0.5), ("name", "x", "x"),
    ("flag", False, False), ("widths", [24, 6], (24, 6)), ("widths", [], ()),
])
def test_value_of_its_fields_json_type_is_cast(key, value, cast):
    out = typed_fields(Fields, {key: value}, "doc")
    assert out == {key: cast} and type(out[key]) is type(cast)


@pytest.mark.parametrize("key,value,message", [
    ("count", 2.0, "doc key 'count' must be an integer"),
    ("count", True, "doc key 'count' must be an integer"),
    ("rate", True, "doc key 'rate' must be a number"),
    ("rate", "1", "doc key 'rate' must be a number"),
    ("name", 1, "doc key 'name' must be a string"),
    ("flag", 0, "doc key 'flag' must be a bool"),
    ("widths", 24, "doc key 'widths' must be a list, each item an integer"),
    ("widths", [24, True], "doc key 'widths' must be a list, each item an integer"),
    ("rate", 10**400, "doc value is out of range: 'rate' is too large for a float"),
    ("size", 1, "doc key 'size' is unknown"),
])
def test_value_of_another_json_type_raises(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        typed_fields(Fields, {key: value}, "doc")


def test_names_limit_the_keys_a_block_may_hold():
    assert typed_fields(Fields, {"count": 1}, "doc", names=("count",)) == {"count": 1}
    with pytest.raises(ValueError, match="'rate' is unknown"):
        typed_fields(Fields, {"rate": 1.0}, "doc", names=("count",))


def test_written_bytes_and_read_back(tmp_path):
    doc = {"b": [1, 2], "a": {"y": None, "x": 1.5}}
    path = write_json(tmp_path / "d.json", doc)
    assert path.read_text() == (
        '{\n  "a": {\n    "x": 1.5,\n    "y": null\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )
    assert read_json(path, "a doc") == doc


@pytest.mark.parametrize("text,message", [
    ("[1]", "a doc must be a JSON object, got list"),
    ('{"a": ', "not valid JSON: Expecting value"),
    ('{"seed": 5, "seed": 6}', "not valid JSON: key 'seed' is repeated"),
    ('{"a": [{"b": {"c": 1, "d": 2, "c": 1}}]}', "not valid JSON: key 'c' is repeated"),
])
def test_read_rejects_other_documents_naming_the_file(tmp_path, text, message):
    path = tmp_path / "d.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        read_json(path, "a doc")
