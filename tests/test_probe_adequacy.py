"""Mutation adequacy of the desk plans' probes (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978).

A mutant is the label rule with one condition dropped, run as a stub model
in the style of ``conftest.ConditionOracleModel``.  The probe is what a plan
reads from each dedicated test set: the condition table's false-row mean
output, or the first turning points of the curve on the set's grid.  A
mutant is killed when its probe differs from the true rule's.  The pinned
kill sets say which wrong rules the desk plans can tell from the right one,
so a change that widens the probe updates them.  Nothing here trains.
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
    turning_points,
)
from rationale_lab.generation import CURVE_GRIDS, DEDICATED_TARGET
from rationale_lab.harness import _schedule

from conftest import LabelOracleModel

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
        return condition_table(model, dataset, target).rows[False].mean_output
    return tuple(g.first for g in turning_points(output_curve(model, dataset, *grid[:2])).groups)


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
