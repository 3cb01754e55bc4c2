"""Executable encodings of the three legal knowledge structures.

Each domain is a fixed schema: an ordered list of features, an ordered list
of named boolean conditions, and a label defined as the conjunction of all
conditions.

``welfare``
    Eligibility for a benefit covering hospital visits to a spouse; six
    conditions (C1..C6) over 12 substantive features plus 52 noise features.
``simplified``
    The same eligibility rule cut down to the age-gender condition (C1) and
    the patient-distance condition (C6) over 4 features, no noise.
``tort``
    Duty to repair damages under Dutch tort law; five conditions (c1..c5)
    over 10 boolean features.

Schemas and conditions are immutable after construction and safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

# Canonical categorical encodings, fixed project-wide.
MALE, FEMALE = 0, 1
IN_PATIENT, OUT_PATIENT = 0, 1

N_NOISE_FEATURES = 52


class SchemaValidationError(ValueError):
    """Input that does not fit a domain: an unknown domain, feature or
    condition name; a value matrix of the wrong shape or dtype, or with a
    value outside its feature's range; a label that is not 0 or 1; or a
    dataset or model of another domain."""


@dataclass(frozen=True)
class FeatureSpec:
    """One input feature: name, value kind, admissible range, and role.

    Kinds:
      * ``boolean``      -- values 0 (false) and 1 (true)
      * ``int_range``    -- integers in [lo, hi]
      * ``categorical``  -- two distinct named values encoded 0 and 1
    """

    name: str
    kind: str
    lo: int = 0
    hi: int = 1
    value_names: tuple[str, str] | None = None
    role: str = "substantive"

    def __post_init__(self) -> None:
        if self.kind not in ("boolean", "int_range", "categorical"):
            raise ValueError(f"{self.name}: unknown feature kind {self.kind!r}")
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: empty range [{self.lo}, {self.hi}]")
        if self.kind == "categorical":
            if self.value_names is None or len(set(self.value_names)) != 2:
                raise ValueError(
                    f"{self.name}: a categorical feature needs exactly two "
                    "distinct named values"
                )
        elif self.value_names is not None:
            raise ValueError(f"{self.name}: value_names only apply to categoricals")
        if self.kind in ("boolean", "categorical") and (self.lo, self.hi) != (0, 1):
            raise ValueError(f"{self.name}: binary features are encoded over [0, 1]")
        if self.role not in ("substantive", "noise"):
            raise ValueError(f"{self.name}: unknown role {self.role!r}")

    def decode(self, code: int) -> Any:
        """The display value of a code: a categorical's name, a boolean's
        bool, an integer as itself."""
        if self.kind == "categorical":
            return self.value_names[int(code)]
        if self.kind == "boolean":
            return bool(code)
        return int(code)


@dataclass(frozen=True)
class Condition:
    """A named boolean condition over a fixed set of features.

    ``fn`` receives a mapping holding exactly the involved features as
    aligned integer columns and must return a boolean array built from
    elementwise operators only.  Passing only the involved features
    guarantees the predicate cannot read anything else.
    """

    id: str
    notion: str
    involved: tuple[str, ...]
    fn: Callable[[Mapping[str, Any]], Any] = field(repr=False)


@dataclass(frozen=True)
class DomainSchema:
    """Feature declarations, named conditions, and the label rule of a domain."""

    domain_id: str
    features: tuple[FeatureSpec, ...]
    conditions: tuple[Condition, ...]
    label_name: str

    @cached_property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {f.name: i for i, f in enumerate(self.features)}

    @cached_property
    def _condition_index(self) -> dict[str, Condition]:
        return {c.id: c for c in self.conditions}

    @property
    def n_features(self) -> int:
        return len(self.features)

    @cached_property
    def value_dtype(self) -> np.dtype:
        """The smallest of int8, int16, int32 and int64 that holds every
        feature's ``[lo, hi]``: the dtype of the ``values`` of every dataset
        that ``generate`` and ``read_dataset`` build."""
        lo = min((f.lo for f in self.features), default=0)
        hi = max((f.hi for f in self.features), default=0)
        for dtype in map(np.dtype, (np.int8, np.int16, np.int32)):
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
                return dtype
        return np.dtype(np.int64)

    def feature(self, name: str) -> FeatureSpec:
        try:
            return self.features[self._index[name]]
        except KeyError:
            raise SchemaValidationError(
                f"{self.domain_id}: no feature named {name!r}"
            ) from None

    def index_of(self, name: str) -> int:
        self.feature(name)
        return self._index[name]

    def condition(self, cond_id: str) -> Condition:
        try:
            return self._condition_index[cond_id]
        except KeyError:
            known = ", ".join(c.id for c in self.conditions)
            raise SchemaValidationError(
                f"{self.domain_id}: no condition {cond_id!r} (known: {known})"
            ) from None

    # -- vectorised evaluation ----------------------------------------------

    def validate_matrix(self, values: np.ndarray, first_row: int = 0) -> None:
        """Range-check a (n_cases, n_features) integer matrix; an error counts
        its rows from ``first_row``."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != self.n_features:
            raise SchemaValidationError(
                f"{self.domain_id}: expected shape (n, {self.n_features}), "
                f"got {values.shape}"
            )
        if not np.issubdtype(values.dtype, np.integer):
            raise SchemaValidationError(
                f"{self.domain_id}: expected integer values, got dtype {values.dtype}"
            )
        lo, hi = np.array([(f.lo, f.hi) for f in self.features]).T
        if len(values) and ((values.min(axis=0) < lo) | (values.max(axis=0) > hi)).any():
            bad = (values < lo) | (values > hi)  # name the first bad feature, then its first row
            i = int(np.argmax(bad.any(axis=0)))
            row, spec = int(np.argmax(bad[:, i])), self.features[i]
            raise SchemaValidationError(
                f"{spec.name}: value {int(values[row, i])} at row {first_row + row} outside "
                f"[{spec.lo}, {spec.hi}]"
            )

    def validate_labels(self, labels: np.ndarray, first_row: int = 0) -> None:
        """Check that bool or integer labels are 0 or 1, counting rows from ``first_row``."""
        labels = np.asarray(labels)
        if labels.dtype != bool and not np.issubdtype(labels.dtype, np.integer):
            raise SchemaValidationError(f"{self.domain_id}: expected bool or integer labels, "
                                        f"got dtype {labels.dtype}")
        if np.any(bad := (labels != 0) & (labels != 1)):
            row = int(np.argmax(bad))
            raise SchemaValidationError(
                f"label {int(labels[row])} at row {first_row + row} outside {{0, 1}}"
            )

    def _truth(self, cond: Condition, values: np.ndarray) -> np.ndarray:
        """Truth of one of this schema's conditions on every row of a
        (n, n_features) matrix: the only code that feeds a condition its
        columns."""
        return cond.fn({name: values[:, self._index[name]] for name in cond.involved})

    def condition_matrix(self, values: np.ndarray) -> np.ndarray:
        """Truth of every condition on every row: bool array (n, n_conditions)."""
        values = np.asarray(values)
        out = np.empty((values.shape[0], len(self.conditions)), dtype=bool)
        for j, cond in enumerate(self.conditions):
            out[:, j] = self._truth(cond, values)
        return out

    def label_matrix(self, values: np.ndarray) -> np.ndarray:
        """Label of every row: the conjunction of all conditions."""
        return self.condition_matrix(values).all(axis=1)


# ---------------------------------------------------------------------------
# Welfare benefit conditions
#
#   Eligible <=> C1 & C2 & C3 & C4 & C5 & C6
# ---------------------------------------------------------------------------

# C1: (Gender = female & Age >= 60) | (Gender = male & Age >= 65)
def _welfare_c1(v):
    return ((v["Gender"] == FEMALE) & (v["Age"] >= 60)) | (
        (v["Gender"] == MALE) & (v["Age"] >= 65)
    )


# C2: at least 4 of the 5 contributions Con1..Con5 paid
def _welfare_c2(v):
    return (v["Con1"] + v["Con2"] + v["Con3"] + v["Con4"] + v["Con5"]) >= 4


# C3: Spouse
def _welfare_c3(v):
    return v["Spouse"] == 1


# C4: not Absent
def _welfare_c4(v):
    return ~(v["Absent"] == 1)


# C5: not (Resources >= 3000)
def _welfare_c5(v):
    return ~(v["Resources"] >= 3000)


# C6: (Type = in & Distance < 50) | (Type = out & Distance >= 50)
def _welfare_c6(v):
    return ((v["Type"] == IN_PATIENT) & (v["Distance"] < 50)) | (
        (v["Type"] == OUT_PATIENT) & (v["Distance"] >= 50)
    )


# ---------------------------------------------------------------------------
# Tort law conditions
#
#   dut <=> c1 & c2 & c3 & c4 & c5
# ---------------------------------------------------------------------------

def _tort_c1(v):  # cau
    return v["cau"] == 1


def _tort_c2(v):  # ico | ila | ift
    return (v["ico"] == 1) | (v["ila"] == 1) | (v["ift"] == 1)


def _tort_c3(v):  # vun | (vst & ~jus) | (vrt & ~jus)
    return (
        (v["vun"] == 1)
        | ((v["vst"] == 1) & ~(v["jus"] == 1))
        | ((v["vrt"] == 1) & ~(v["jus"] == 1))
    )


def _tort_c4(v):  # dmg
    return v["dmg"] == 1


def _tort_c5(v):  # ~(vst & ~prp)
    return ~((v["vst"] == 1) & ~(v["prp"] == 1))


_WELFARE_CONDITIONS = (
    Condition("C1", "age-gender", ("Age", "Gender"), _welfare_c1),
    Condition("C2", "contributions", ("Con1", "Con2", "Con3", "Con4", "Con5"), _welfare_c2),
    Condition("C3", "spouse", ("Spouse",), _welfare_c3),
    Condition("C4", "absent", ("Absent",), _welfare_c4),
    Condition("C5", "resources", ("Resources",), _welfare_c5),
    Condition("C6", "patient-distance", ("Type", "Distance"), _welfare_c6),
)

_TORT_CONDITIONS = (
    Condition("c1", "causation", ("cau",), _tort_c1),
    Condition("c2", "imputability", ("ico", "ila", "ift"), _tort_c2),
    Condition("c3", "unlawfulness", ("vun", "vst", "vrt", "jus"), _tort_c3),
    Condition("c4", "damages", ("dmg",), _tort_c4),
    Condition("c5", "violation-exception", ("vst", "prp"), _tort_c5),
)

_WELFARE_FEATURES = (
    FeatureSpec("Age", "int_range", 0, 100),
    FeatureSpec("Gender", "categorical", value_names=("male", "female")),
    *(FeatureSpec(f"Con{i}", "boolean") for i in range(1, 6)),
    FeatureSpec("Spouse", "boolean"),
    FeatureSpec("Absent", "boolean"),
    FeatureSpec("Resources", "int_range", 0, 10_000),
    FeatureSpec("Type", "categorical", value_names=("in", "out")),
    FeatureSpec("Distance", "int_range", 0, 100),
)

# domain id -> its schema; simplified keeps welfare's order of the features it has
_SCHEMAS = {
    "welfare": DomainSchema("welfare", _WELFARE_FEATURES + tuple(
        FeatureSpec(f"noise_{i}", "int_range", 0, 100, role="noise")
        for i in range(1, N_NOISE_FEATURES + 1)), _WELFARE_CONDITIONS, "Eligible"),
    "simplified": DomainSchema("simplified", tuple(
        f for f in _WELFARE_FEATURES if f.name in ("Age", "Gender", "Type", "Distance")
    ), tuple(c for c in _WELFARE_CONDITIONS if c.id in ("C1", "C6")), "Eligible"),
    "tort": DomainSchema("tort", tuple(FeatureSpec(name, "boolean") for name in (
        "cau", "ico", "ila", "ift", "vun", "vst", "vrt", "jus", "dmg", "prp")),
        _TORT_CONDITIONS, "dut"),
}

DOMAIN_IDS = tuple(_SCHEMAS)


def build_domain(domain_id: str) -> DomainSchema:
    """Return the fully populated schema for ``welfare``, ``simplified`` or ``tort``."""
    if domain_id not in _SCHEMAS:
        raise SchemaValidationError(f"unknown domain {domain_id!r}; expected one of {DOMAIN_IDS}")
    return _SCHEMAS[domain_id]
