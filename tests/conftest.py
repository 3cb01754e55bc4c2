from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from rationale_lab import DomainSchema, network
from rationale_lab.domains import FEMALE, IN_PATIENT


def finite_difference_grads(
    params: network.ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    step: float = 1e-5,
) -> network.ModelParams:
    """Central-difference loss gradients, the oracle for backpropagation."""
    grads = params.empty_like()  # every entry is written below
    for arrays, out in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for a, g in zip(arrays, out):
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = a[idx]
                a[idx] = original + step
                loss_plus, _ = network.loss_and_grads(params, x, y)
                a[idx] = original - step
                loss_minus, _ = network.loss_and_grads(params, x, y)
                a[idx] = original
                g[idx] = (loss_plus - loss_minus) / (2 * step)
    return grads


def max_relative_error(got: network.ModelParams, want: network.ModelParams) -> float:
    """max |got - want| / max(1, |want|) over every parameter entry."""
    worst = 0.0
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    return worst


def write_plan(plan, path):
    """A plan file as ``load_plan`` reads it."""
    path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# JSON fuzzing: one value of a document, at any key path, replaced by any
# JSON value.
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8,
)


def key_paths(value, path=()):
    """The path of every value inside a JSON document, its own root excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from key_paths(inner, path + (key,))


def replaced(doc, key_path, value):
    """A deep copy of a JSON document with the value at ``key_path`` replaced."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# Reference stubs.  These give the evaluation functions fixed points: the
# condition stub reproduces ideal curves exactly, the label stub has
# accuracy 1.0 on every correctly labelled dataset.
# ---------------------------------------------------------------------------

class ConstantOutputModel:
    """Outputs the same probability for every case."""

    def __init__(self, value: float):
        self.value = float(value)
        self.schema_id = None

    def outputs(self, values) -> np.ndarray:
        return np.full(np.asarray(values).shape[0], self.value)


class ConditionOracleModel:
    """Outputs 1.0 where a named condition holds and 0.0 elsewhere."""

    def __init__(self, schema: DomainSchema, cond_id: str):
        self.schema = schema
        self.schema_id = schema.domain_id
        self.condition = schema.condition(cond_id)

    def outputs(self, values) -> np.ndarray:
        return self.schema._truth(self.condition, np.asarray(values)).astype(np.float64)


class LabelOracleModel:
    """Outputs the true label rule, i.e. a perfect classifier."""

    def __init__(self, schema: DomainSchema):
        self.schema = schema
        self.schema_id = schema.domain_id

    def outputs(self, values) -> np.ndarray:
        return self.schema.label_matrix(np.asarray(values)).astype(np.float64)


# ---------------------------------------------------------------------------
# Shift mutants: a label rule with one condition's threshold moved, read by
# the probe adequacy tests as stub models and by the generation tests as
# schemas to generate from.
# ---------------------------------------------------------------------------

# mutant -> (the condition it moves, the moved condition's truth over its columns)
SHIFT_MUTANTS = {
    "C1-five-years-later": ("C1", lambda v: np.where(v["Gender"] == FEMALE, v["Age"] >= 65,
                                                     v["Age"] >= 70)),
    "C1-gender-blind": ("C1", lambda v: v["Age"] >= 60),
    "C6-five-units-later": ("C6", lambda v: np.where(v["Type"] == IN_PATIENT, v["Distance"] < 55,
                                                     v["Distance"] >= 55)),
    "C5-at-3500": ("C5", lambda v: v["Resources"] < 3500),
    "C2-three-of-five": ("C2", lambda v: sum(v[f"Con{i}"] for i in range(1, 6)) >= 3),
    "c3-without-jus": ("c3", lambda v: (v["vun"] == 1) | (v["vst"] == 1) | (v["vrt"] == 1)),
}


def shifted_schema(schema: DomainSchema, name: str) -> DomainSchema:
    """``schema`` with the condition a shift mutant moves replaced by the moved one."""
    cond_id, moved = SHIFT_MUTANTS[name]
    return dataclasses.replace(schema, conditions=tuple(
        dataclasses.replace(c, fn=moved) if c.id == cond_id else c for c in schema.conditions))


@pytest.fixture(scope="session")
def tort_schema():
    from rationale_lab import build_domain

    return build_domain("tort")


@pytest.fixture(scope="session")
def welfare_schema():
    from rationale_lab import build_domain

    return build_domain("welfare")


@pytest.fixture(scope="session")
def simplified_schema():
    from rationale_lab import build_domain

    return build_domain("simplified")
