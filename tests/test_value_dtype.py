"""Dataset rows are held in the schema's narrowest integer dtype.

Every consumer must give the same results on those rows as on the same rows
widened to int64, also with every feature at the ends of its range, where a
narrow-int overflow or a value-based cast would show.
"""

from __future__ import annotations

import numpy as np
import pytest

from rationale_lab import (
    Dataset,
    DomainSchema,
    FeatureSpec,
    GeneratorRequest,
    accuracy,
    build_domain,
    condition_table,
    generate,
    output_curve,
    read_dataset,
    write_dataset,
)
from rationale_lab.generation import DatasetMeta, KINDS
from rationale_lab.network import schema_scaling
from rationale_lab.oracle import condition_truth

from conftest import ConditionOracleModel, ConstantOutputModel, LabelOracleModel


def _request(domain: str, kind: str) -> GeneratorRequest:
    return GeneratorRequest(domain, kind, 200 if KINDS[domain, kind].sized else None, seed=3)


def _edge_rows(schema: DomainSchema) -> np.ndarray:
    """Every feature at ``lo`` and at ``hi``, all together and one at a time."""
    lo = np.array([f.lo for f in schema.features])
    hi = np.array([f.hi for f in schema.features])
    one_hi = np.where(np.eye(schema.n_features, dtype=bool), hi, lo)
    one_lo = np.where(np.eye(schema.n_features, dtype=bool), lo, hi)
    return np.vstack([lo, hi, one_hi, one_lo]).astype(schema.value_dtype)


def _outcome(fn):
    """``fn()``'s result in comparable form, or the error it raises."""
    try:
        result = fn()
    except ValueError as err:
        return type(err), str(err)
    if hasattr(result, "groups"):  # a RationaleCurve
        return [(g.label, g.xs.dtype, g.xs.tolist(), g.means.tolist(), g.counts.tolist())
                for g in result.groups]
    return result.to_dict() if hasattr(result, "to_dict") else result


def _assert_same_results(narrow: Dataset) -> None:
    """Every consumer gives the same results on ``narrow`` as on its rows widened to int64."""
    schema = narrow.schema
    wide = Dataset(narrow.schema_id, narrow.kind, narrow.values.astype(np.int64),
                   narrow.labels, narrow.meta)
    assert np.array_equal(schema.condition_matrix(narrow.values),
                          schema.condition_matrix(wide.values))
    assert np.array_equal(schema.label_matrix(narrow.values), schema.label_matrix(wide.values))
    assert np.array_equal(condition_truth(schema, narrow.values),
                          condition_truth(schema, wide.values))
    scaling = schema_scaling(schema.domain_id)
    assert scaling.apply(narrow.values).tobytes() == scaling.apply(wide.values).tobytes()

    models = [LabelOracleModel(schema), ConstantOutputModel(0.7)]
    models += [ConditionOracleModel(schema, c.id) for c in schema.conditions]
    curve_axes = [("Age", "Gender"), ("Distance", "Type")] if schema.domain_id != "tort" else []
    for model in models:
        assert accuracy(model, narrow) == accuracy(model, wide)
        for axes in curve_axes:
            assert (_outcome(lambda: output_curve(model, narrow, *axes))
                    == _outcome(lambda: output_curve(model, wide, *axes)))
        for cond in schema.conditions:
            assert (_outcome(lambda: condition_table(model, narrow, cond.id))
                    == _outcome(lambda: condition_table(model, wide, cond.id)))


@pytest.mark.parametrize("domain,dtype", [("tort", np.int8), ("simplified", np.int8),
                                          ("welfare", np.int16)])
def test_domain_value_dtypes(domain, dtype):
    assert build_domain(domain).value_dtype == dtype


@pytest.mark.parametrize("lo,hi,dtype", [
    (-5, 100, np.int8),
    (-128, 127, np.int8),
    (-129, 1, np.int16),
    (0, 128, np.int16),
    (0, 32_767, np.int16),
    (-7, 32_768, np.int32),
    (0, 2**31, np.int64),
])
def test_value_dtype_is_the_smallest_that_holds_every_range(lo, hi, dtype):
    features = (FeatureSpec("flag", "boolean"), FeatureSpec("x", "int_range", lo, hi))
    assert DomainSchema("stand-in", features, (), "y").value_dtype == dtype


def test_a_value_dtype_row_holds_every_feature_at_its_bounds(welfare_schema):
    for bound in ("lo", "hi"):
        codes = [getattr(spec, bound) for spec in welfare_schema.features]
        row = np.array([codes], dtype=welfare_schema.value_dtype)
        welfare_schema.validate_matrix(row)
        assert row.tolist() == [codes]


@pytest.mark.parametrize("domain,kind", list(KINDS))
def test_generated_and_read_back_rows_are_c_contiguous_value_dtype(domain, kind, tmp_path):
    ds = generate(_request(domain, kind))
    back = read_dataset(write_dataset(ds, tmp_path / "d.csv"), ds.schema)
    for values in (ds.values, back.values):
        assert values.dtype == ds.schema.value_dtype
        assert values.flags.c_contiguous and not values.flags.writeable
    assert back.equals(ds)


@pytest.mark.parametrize("domain,kind", list(KINDS))
def test_narrow_rows_give_the_int64_results(domain, kind):
    _assert_same_results(generate(_request(domain, kind)))


@pytest.mark.parametrize("domain", ["tort", "simplified", "welfare"])
def test_narrow_rows_give_the_int64_results_at_the_range_edges(domain):
    schema = build_domain(domain)
    values = _edge_rows(schema)
    top = {"welfare": ("Resources", 10_000), "simplified": ("Age", 100), "tort": ("cau", 1)}
    name, hi = top[domain]
    assert values[1, schema.index_of(name)] == hi
    labels = schema.label_matrix(values).astype(np.uint8)
    meta = DatasetMeta(0, "1", len(values), float(labels.mean()))
    _assert_same_results(Dataset(domain, "edges", values, labels, meta))
