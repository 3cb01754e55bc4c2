"""Mutation adequacy of the desk plans' probes (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978).

A mutant is the label rule with one condition dropped, or with one
condition's threshold moved (``conftest.SHIFT_MUTANTS``), run as a stub model
in the style of ``conftest.ConditionOracleModel``.  The probe is what a plan reads from each
dedicated test set: the condition table's false-row mean output, or the
first turning points of the curve on the set's grid.  A mutant is killed
when its probe differs from the true rule's.  The pinned kill sets say which
wrong rules the desk plans can tell from the right one, so a change that
widens the probe updates them.  Nothing here trains.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from rationale_lab import (
    DomainSchema,
    GeneratorRequest,
    accuracy,
    build_domain,
    condition_table,
    generate,
    load_plan,
    output_curve,
)
from rationale_lab.generation import CURVE_GRIDS, DEDICATED_TARGET
from rationale_lab.harness import _schedule

from conftest import SHIFT_MUTANTS, LabelOracleModel, shifted_schema

PLANS = Path(__file__).resolve().parent.parent / "plans"
DESK_PLANS = {plan.domain_id: plan for plan in map(load_plan, sorted(PLANS.glob("*-desk.json")))}

# (domain, dedicated test set) -> the drop-one mutants its probe kills
KILLED_BY = {
    ("welfare", "age-gender"): {"C1"},
    ("welfare", "patient-distance"): {"C6"},
    ("tort", "unlawfulness"): {"c3"},
    ("tort", "imputability"): {"c2"},
    ("simplified", "age-gender"): {"C1"},
    ("simplified", "patient-distance"): {"C6"},
}


# (domain, dedicated test set) -> {shift mutant: its probe's reading} for every
# shift mutant of the domain's conditions.  The true rule reads (62.5, 57.5) on
# welfare age-gender, (64.5, 59.5) on simplified age-gender, (47.5, 47.5) on
# both patient-distance sets and 0.0 on both tort sets: a mutant that reads the
# same survives the set.  No desk set is a curve over Resources or the
# contributions, so the shifts of C5 and C2 survive every set.
SHIFT_READINGS = {
    ("welfare", "age-gender"): {
        "C1-five-years-later": (67.5, 62.5),
        "C1-gender-blind": (57.5, 57.5),
        "C6-five-units-later": (62.6427, 57.6288),
        "C5-at-3500": (62.5, 57.5),
        "C2-three-of-five": (62.5, 57.5),
    },
    ("welfare", "patient-distance"): {
        "C1-five-years-later": (47.0554, 47.8539),
        "C1-gender-blind": (47.5, 47.5),
        "C6-five-units-later": (52.5, 52.5),
        "C5-at-3500": (47.5, 47.5),
        "C2-three-of-five": (47.5, 47.5),
    },
    ("simplified", "age-gender"): {
        "C1-five-years-later": (69.5, 64.5),
        "C1-gender-blind": (59.5, 59.5),
        "C6-five-units-later": (64.525, 59.525),
    },
    ("simplified", "patient-distance"): {
        "C1-five-years-later": (47.1269, 47.8731),
        "C1-gender-blind": (47.5, 47.5),
        "C6-five-units-later": (52.5, 52.5),
    },
    ("tort", "unlawfulness"): {"c3-without-jus": 0.5},
    ("tort", "imputability"): {"c3-without-jus": 0.0},
}

# (domain, dedicated test set) -> the shift mutants its probe kills
SHIFT_KILLED_BY = {
    ("welfare", "age-gender"): {"C1-five-years-later", "C1-gender-blind",
                                "C6-five-units-later"},
    ("welfare", "patient-distance"): {"C1-five-years-later", "C6-five-units-later"},
    ("simplified", "age-gender"): {"C1-five-years-later", "C1-gender-blind",
                                   "C6-five-units-later"},
    ("simplified", "patient-distance"): {"C1-five-years-later", "C6-five-units-later"},
    ("tort", "unlawfulness"): {"c3-without-jus"},
    ("tort", "imputability"): set(),
}

# drop-one mutant -> its accuracy on the tort desk plan's regular-5000, in cases of 5000
TORT_DROP_ONE_CORRECT = {"c1": 4698, "c2": 4951, "c3": 4845, "c4": 4678, "c5": 4890}


class DropOneMutant:
    """The label rule without one condition: outputs 1.0 where every other
    condition holds and 0.0 elsewhere."""

    def __init__(self, schema: DomainSchema, cond_id: str):
        self.schema = schema
        self.schema_id = schema.domain_id
        self.kept = [j for j, c in enumerate(schema.conditions) if c.id != cond_id]

    def outputs(self, values) -> np.ndarray:
        truth = self.schema.condition_matrix(np.asarray(values))
        return truth[:, self.kept].all(axis=1).astype(np.float64)


class ShiftMutant:
    """The label rule with one condition moved (``conftest.shifted_schema``):
    outputs 1.0 where the moved condition and every other condition hold and
    0.0 elsewhere."""

    def __init__(self, schema: DomainSchema, name: str):
        self.schema_id = schema.domain_id
        self.shifted = shifted_schema(schema, name)

    def outputs(self, values) -> np.ndarray:
        return self.shifted.label_matrix(np.asarray(values)).astype(np.float64)


@cache
def desk_test_set(domain_id: str, label: str):
    """A desk plan's test set as its repetition 0 generates it."""
    plan = DESK_PLANS[domain_id]
    (spec,) = [s for s in plan.test_specs if s.label() == label]
    seed = _schedule(plan)[0].test_data[label]
    return generate(GeneratorRequest(spec.domain_id, spec.kind, spec.size, seed))


def probe(model, dataset):
    """The plan's reading of a dedicated set, as the harness takes it."""
    target = DEDICATED_TARGET[dataset.schema_id, dataset.kind]
    grid = CURVE_GRIDS.get((dataset.schema_id, target))
    if grid is None:
        return condition_table(model, dataset, target).false.mean_output
    return tuple(g.first for g in output_curve(model, dataset, *grid[:2]).groups)


def test_kill_sets_cover_every_dedicated_desk_set():
    dedicated = {(d, s.label()) for d, plan in DESK_PLANS.items() for s in plan.test_specs
                 if (d, s.kind) in DEDICATED_TARGET}
    assert dedicated == set(KILLED_BY)


@pytest.mark.parametrize("domain_id,label", sorted(KILLED_BY))
def test_dedicated_set_kills_exactly_its_mutants(domain_id, label):
    schema = build_domain(domain_id)
    dataset = desk_test_set(domain_id, label)
    truth = probe(LabelOracleModel(schema), dataset)
    killed = {c.id for c in schema.conditions
              if probe(DropOneMutant(schema, c.id), dataset) != truth}
    assert killed == KILLED_BY[domain_id, label]


@pytest.mark.parametrize("cond_id", [c.id for c in build_domain("welfare").conditions])
def test_accuracy_kills_no_welfare_mutant(cond_id):
    """The paper's headline, shown exactly: a rule missing a condition scores
    11/12 on type-b (each negative fails one condition, a sixth of them this
    one) and at least 0.99 on type-a (a negative seldom fails only this one)."""
    mutant = DropOneMutant(build_domain("welfare"), cond_id)
    assert accuracy(mutant, desk_test_set("welfare", "type-b-2400")) == 11 / 12
    assert accuracy(mutant, desk_test_set("welfare", "type-a-2400")) >= 0.99


def test_shift_readings_cover_every_shift_of_each_dedicated_set():
    assert set(SHIFT_READINGS) == set(SHIFT_KILLED_BY) == set(KILLED_BY)
    for domain_id, label in SHIFT_READINGS:
        ids = {c.id for c in build_domain(domain_id).conditions}
        assert set(SHIFT_READINGS[domain_id, label]) == {
            name for name, (cond_id, _) in SHIFT_MUTANTS.items() if cond_id in ids}


@pytest.mark.parametrize("domain_id,label", sorted(SHIFT_READINGS))
def test_dedicated_set_reads_each_shift_mutant(domain_id, label):
    """Each shift mutant's reading on the set, pinned to 1e-4, and the set's
    kill set: the mutants whose reading is not exactly the true rule's."""
    schema = build_domain(domain_id)
    dataset = desk_test_set(domain_id, label)
    truth = probe(LabelOracleModel(schema), dataset)
    readings = {name: probe(ShiftMutant(schema, name), dataset)
                for name in SHIFT_READINGS[domain_id, label]}
    assert readings == {name: pytest.approx(reading, abs=1e-4)
                        for name, reading in SHIFT_READINGS[domain_id, label].items()}
    assert {name for name, reading in readings.items() if reading != truth} == (
        SHIFT_KILLED_BY[domain_id, label])


@pytest.mark.parametrize("cond_id", sorted(TORT_DROP_ONE_CORRECT))
def test_tort_drop_one_accuracy_on_regular_5000(cond_id):
    """Drop-c2, which only imputability kills, scores 99.02% on the plan's
    ordinary test set; drop-c5, which no dedicated set kills, scores 97.8%."""
    mutant = DropOneMutant(build_domain("tort"), cond_id)
    assert accuracy(mutant, desk_test_set("tort", "regular-5000")) == (
        TORT_DROP_ONE_CORRECT[cond_id] / 5000)
