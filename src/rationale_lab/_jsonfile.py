"""The package's JSON files: one byte format, one reader, and one check of
each key's JSON type against the annotation of the dataclass field it fills."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

# the Python types json.loads gives each annotation's JSON type (a bool is no number)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "a bool")}


def write_json(path: str | Path, doc) -> Path:
    """Write ``doc`` with sorted keys, two-space indents and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _unique_keys(pairs: list) -> dict:
    """An object's pairs as a dict; a key given twice raises ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; ``what`` (``"a plan"``) names it when the
    file holds another value.  A syntax error or a key repeated in any object
    raises ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except ValueError as err:  # a syntax error, a repeated key, or bytes that are not UTF-8
        raise ValueError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def typed_fields(cls, block: dict, where: str, names=None) -> dict:
    """The keys of ``block``, each one of ``names`` (by default every field of
    dataclass ``cls``) holding its field's JSON type, cast to the field's type.
    A ``tuple[int, ...]`` field takes a list of integers.  Raises ValueError
    whose message starts with ``where``."""
    names = [f.name for f in fields(cls)] if names is None else names
    hints = get_type_hints(cls)
    out = {}
    for name, value in block.items():
        if name not in names:
            raise ValueError(f"{where} key {name!r} is unknown")
        hint = hints[name]
        if get_origin(hint) is tuple:
            types, what = _JSON_TYPES[get_args(hint)[0]]
            if type(value) is not list or any(type(v) not in types for v in value):
                raise ValueError(f"{where} key {name!r} must be a list, each item {what}")
            out[name] = tuple(value)
            continue
        types, what = _JSON_TYPES[hint]
        if type(value) not in types:
            raise ValueError(f"{where} key {name!r} must be {what}")
        try:
            out[name] = hint(value)
        except OverflowError:  # an integer too large for a float field
            raise ValueError(f"{where} value is out of range: {name!r} is too large "
                             "for a float") from None
    return out
