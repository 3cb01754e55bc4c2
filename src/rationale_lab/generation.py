"""Seeded generators for the ten dataset recipes, one per domain and kind.

Welfare / simplified kinds
    ``type-a``            balanced; ineligible cases fail >= 1 condition
    ``type-b``            balanced; ineligible cases fail exactly 1 condition
    ``age-gender``        dedicated test set isolating the age-gender condition
    ``patient-distance``  dedicated test set isolating the patient-distance condition

Tort kinds
    ``unique``            all 2^10 feature assignments, labelled
    ``regular``           balanced resample of the unique cases
    ``unlawfulness``      dedicated test set isolating condition c3
    ``imputability``      dedicated test set isolating condition c2

Generators are pure functions of (request, seed): the same request yields an
identical dataset on any host.  Grid and enumeration kinds ignore the seed
entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .domains import (
    FEMALE,
    IN_PATIENT,
    MALE,
    OUT_PATIENT,
    DomainSchema,
    build_domain,
)

GENERATOR_VERSION = "1"

WELFARE_KINDS = ("type-a", "type-b", "age-gender", "patient-distance")
TORT_KINDS = ("unique", "regular", "unlawfulness", "imputability")

# Kinds that take a --size; all others are fixed by their grid or enumeration.
SIZED_KINDS = ("type-a", "type-b", "regular")

# Kinds whose cases are fully determined (no random features at all).
DETERMINISTIC_KINDS = {
    ("simplified", "age-gender"),
    ("simplified", "patient-distance"),
    ("tort", "unique"),
    ("tort", "unlawfulness"),
    ("tort", "imputability"),
}

# Which condition each dedicated test set isolates.  The unlawfulness set
# varies c3's features and the imputability set varies c2's: the pairing
# under which the enumerations have 168 and 128 unique rows.
DEDICATED_TARGET = {
    ("welfare", "age-gender"): "C1",
    ("welfare", "patient-distance"): "C6",
    ("simplified", "age-gender"): "C1",
    ("simplified", "patient-distance"): "C6",
    ("tort", "unlawfulness"): "c3",
    ("tort", "imputability"): "c2",
}

# The dedicated sets read as curves rather than condition tables, keyed by
# the condition they isolate (DEDICATED_TARGET):
# (domain, condition) -> (x feature, group feature, xs, cases per grid cell).
# The welfare sets are built from their entries.
CURVE_GRIDS = {
    ("welfare", "C1"): ("Age", "Gender", np.arange(5, 101, 5), 1000),
    ("welfare", "C6"): ("Distance", "Type", np.arange(5, 101, 5), 1000),
    ("simplified", "C1"): ("Age", "Gender", np.arange(0, 101), 21),
    ("simplified", "C6"): ("Distance", "Type", np.arange(0, 101, 5), 77),
}


class GenerationError(ValueError):
    """A generator request violates the kind's size or domain rules."""


@dataclass(frozen=True)
class DatasetMeta:
    seed: int
    generator_version: str
    size: int
    positive_fraction: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of labelled cases plus generation metadata.

    ``values`` holds one case per row in the schema's canonical feature
    order; ``labels`` holds the matching 0/1 labels.
    """

    schema_id: str
    kind: str
    values: np.ndarray
    labels: np.ndarray
    meta: DatasetMeta

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def schema(self) -> DomainSchema:
        return build_domain(self.schema_id)

    def equals(self, other: "Dataset") -> bool:
        """Case-for-case equality, metadata included."""
        return (
            self.schema_id == other.schema_id
            and self.kind == other.kind
            and self.meta == other.meta
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values))
            and bool(np.array_equal(self.labels, other.labels))
        )


@dataclass(frozen=True)
class GeneratorRequest:
    """A fully specified generation order: domain, kind, size, seed."""

    domain_id: str
    kind: str
    size: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.domain_id in ("welfare", "simplified"):
            kinds = WELFARE_KINDS
        elif self.domain_id == "tort":
            kinds = TORT_KINDS
        else:
            raise GenerationError(f"unknown domain {self.domain_id!r}")
        if self.kind not in kinds:
            raise GenerationError(
                f"unknown kind {self.kind!r} for domain {self.domain_id!r} "
                f"(expected one of {kinds})"
            )
        if self.kind in SIZED_KINDS:
            if self.size is None:
                raise GenerationError(f"kind {self.kind!r} requires a size")
            if self.size <= 0 or self.size % 2 != 0:
                raise GenerationError(
                    f"kind {self.kind!r} needs a positive even size, got {self.size}"
                )
        elif self.size is not None:
            raise GenerationError(
                f"kind {self.kind!r} is fixed by enumeration; size must not be given"
            )

    @property
    def deterministic(self) -> bool:
        return (self.domain_id, self.kind) in DETERMINISTIC_KINDS

    def label(self) -> str:
        return self.kind if self.size is None else f"{self.kind}-{self.size}"


def _finish(schema: DomainSchema, kind: str, values: np.ndarray,
            seed: int) -> Dataset:
    values = np.ascontiguousarray(values, dtype=np.int64)
    labels = schema.label_matrix(values).astype(np.uint8)
    meta = DatasetMeta(
        seed=int(seed),
        generator_version=GENERATOR_VERSION,
        size=values.shape[0],
        positive_fraction=float(labels.mean()) if len(labels) else 0.0,
    )
    return Dataset(schema.domain_id, kind, values, labels, meta)


# ---------------------------------------------------------------------------
# Welfare feature samplers.  Uniform within the constraint set throughout:
# satisfy-C1 picks a gender then an age at or above its threshold, fail-C1 an
# age below it; C2 picks uniformly among the qualifying (>=4 paid) or failing
# (<=3 paid) contribution patterns; C5 splits Resources at 3000; C6 picks a
# patient type then a distance in the qualifying or complementary half-range.
# ---------------------------------------------------------------------------

_C1_THRESHOLDS = {FEMALE: 60, MALE: 65}

_CON_PATTERNS = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.int64)
_CONS_SATISFYING = _CON_PATTERNS[_CON_PATTERNS.sum(axis=1) >= 4]  # 6 patterns
_CONS_FAILING = _CON_PATTERNS[_CON_PATTERNS.sum(axis=1) <= 3]  # 26 patterns


def _gender_age(rng: np.random.Generator, n: int, satisfy: bool) -> tuple[np.ndarray, np.ndarray]:
    gender = rng.integers(0, 2, n)
    threshold = np.where(gender == FEMALE, _C1_THRESHOLDS[FEMALE], _C1_THRESHOLDS[MALE])
    if satisfy:
        age = rng.integers(threshold, 101)
    else:
        age = rng.integers(0, threshold)
    return gender, age


def _contributions(rng: np.random.Generator, n: int, satisfy: bool) -> np.ndarray:
    table = _CONS_SATISFYING if satisfy else _CONS_FAILING
    return table[rng.integers(0, len(table), n)]


def _resources(rng: np.random.Generator, n: int, satisfy: bool) -> np.ndarray:
    return rng.integers(0, 3000, n) if satisfy else rng.integers(3000, 10_001, n)


def _type_distance(rng: np.random.Generator, n: int, satisfy: bool) -> tuple[np.ndarray, np.ndarray]:
    ptype = rng.integers(0, 2, n)
    near = ptype == IN_PATIENT if satisfy else ptype == OUT_PATIENT
    distance = rng.integers(np.where(near, 0, 50), np.where(near, 50, 101))
    return ptype, distance


_WELFARE_UNIFORM_HIGH = {
    "Age": 101, "Gender": 2, "Con1": 2, "Con2": 2, "Con3": 2, "Con4": 2,
    "Con5": 2, "Spouse": 2, "Absent": 2, "Resources": 10_001, "Type": 2,
    "Distance": 101,
}


def _welfare_block(
    schema: DomainSchema,
    rng: np.random.Generator,
    n: int,
    force: dict[str, bool],
) -> np.ndarray:
    """Sample n cases; conditions in ``force`` are made true/false, the rest
    of the substantive features are uniform over their full ranges."""
    cols: dict[str, np.ndarray] = {}
    if "C1" in force:
        cols["Gender"], cols["Age"] = _gender_age(rng, n, force["C1"])
    if "C2" in force:
        cons = _contributions(rng, n, force["C2"])
        for i in range(5):
            cols[f"Con{i + 1}"] = cons[:, i]
    if "C3" in force:
        cols["Spouse"] = np.full(n, 1 if force["C3"] else 0, dtype=np.int64)
    if "C4" in force:
        cols["Absent"] = np.full(n, 0 if force["C4"] else 1, dtype=np.int64)
    if "C5" in force:
        cols["Resources"] = _resources(rng, n, force["C5"])
    if "C6" in force:
        cols["Type"], cols["Distance"] = _type_distance(rng, n, force["C6"])

    out = np.empty((n, schema.n_features), dtype=np.int64)
    for j, spec in enumerate(schema.features):
        if spec.name in cols:
            out[:, j] = cols[spec.name]
        elif spec.role == "noise":
            out[:, j] = rng.integers(0, 101, n)
        else:
            out[:, j] = rng.integers(0, _WELFARE_UNIFORM_HIGH[spec.name], n)
    return out


def _bucket_sizes(total: int, buckets: int) -> list[int]:
    base, rem = divmod(total, buckets)
    return [base + (1 if i < rem else 0) for i in range(buckets)]


def _gen_welfare_ab(schema: DomainSchema, kind: str, size: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    cond_ids = [c.id for c in schema.conditions]
    all_true = {cid: True for cid in cond_ids}

    n_pos = size // 2
    blocks = [_welfare_block(schema, rng, n_pos, all_true)]
    for cid, m in zip(cond_ids, _bucket_sizes(size - n_pos, len(cond_ids))):
        if kind == "type-b":
            force = dict(all_true, **{cid: False})
        else:
            force = {cid: False}
        blocks.append(_welfare_block(schema, rng, m, force))
    values = np.concatenate(blocks, axis=0)
    values = values[rng.permutation(values.shape[0])]
    return _finish(schema, kind, values, seed)


def _gen_welfare_dedicated(schema: DomainSchema, kind: str, seed: int) -> Dataset:
    if schema.domain_id == "simplified" and kind == "age-gender":
        # Exhaustive: every (age, gender) x every distance grid value,
        # patient type chosen so C6 holds.
        rows = [
            (age, gender, IN_PATIENT if dist < 50 else OUT_PATIENT, dist)
            for age in range(0, 101)
            for gender in (MALE, FEMALE)
            for dist in range(0, 101, 5)
        ]
        return _finish(schema, kind, np.array(rows, dtype=np.int64), seed)
    if schema.domain_id == "simplified":
        # Exhaustive: every (distance, type) grid cell x all 77
        # (age, gender) pairs satisfying C1.
        pairs = [
            (age, g)
            for g in (MALE, FEMALE)
            for age in range(_C1_THRESHOLDS[g], 101)
        ]
        rows = [
            (age, gender, ptype, dist)
            for dist in range(0, 101, 5)
            for ptype in (IN_PATIENT, OUT_PATIENT)
            for age, gender in pairs
        ]
        return _finish(schema, kind, np.array(rows, dtype=np.int64), seed)

    # Welfare: the curve grid's (x, group) cells, each cell's cases in one
    # block, group 0 before group 1; every condition but the target holds.
    target = DEDICATED_TARGET[(schema.domain_id, kind)]
    x_feature, group_feature, xs, per_cell = CURVE_GRIDS[(schema.domain_id, target)]
    values = _welfare_block(schema, np.random.default_rng(seed), len(xs) * 2 * per_cell,
                            {c.id: True for c in schema.conditions if c.id != target})
    values[:, schema.index_of(x_feature)] = np.repeat(xs, 2 * per_cell)
    values[:, schema.index_of(group_feature)] = np.tile(np.repeat([0, 1], per_cell), len(xs))
    return _finish(schema, kind, values, seed)


def gen_welfare(kind: str, size: int | None = None, seed: int = 0,
                simplified: bool = False) -> Dataset:
    """Generate one welfare-domain dataset (or its simplified-domain variant)."""
    domain_id = "simplified" if simplified else "welfare"
    GeneratorRequest(domain_id, kind, size, seed).validate()
    schema = build_domain(domain_id)
    if kind in ("type-a", "type-b"):
        return _gen_welfare_ab(schema, kind, size, seed)
    return _gen_welfare_dedicated(schema, kind, seed)


# ---------------------------------------------------------------------------
# Tort generators
# ---------------------------------------------------------------------------

def _tort_universe(schema: DomainSchema) -> np.ndarray:
    """All 1024 assignments, lexicographic over the canonical feature order."""
    n = schema.n_features
    codes = np.arange(2 ** n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    return (codes[:, None] >> shifts) & 1


def gen_tort(kind: str, size: int | None = None, seed: int = 0) -> Dataset:
    """Generate one tort-law dataset."""
    GeneratorRequest("tort", kind, size, seed).validate()
    schema = build_domain("tort")
    universe = _tort_universe(schema)

    if kind == "unique":
        return _finish(schema, kind, universe, seed)

    truth = schema.condition_matrix(universe)
    cond = {c.id: truth[:, j] for j, c in enumerate(schema.conditions)}

    if kind == "regular":
        labels = truth.all(axis=1)
        positives = universe[labels]
        negatives = universe[~labels]
        rng = np.random.default_rng(seed)
        half = size // 2
        rows = np.concatenate(
            [
                positives[rng.integers(0, len(positives), half)],
                negatives[rng.integers(0, len(negatives), half)],
            ],
            axis=0,
        )
        rows = rows[rng.permutation(size)]
        return _finish(schema, kind, rows, seed)

    # Dedicated subsets of the unique cases: all conditions other than the
    # target hold, so the label tracks the target condition alone.
    target = DEDICATED_TARGET[("tort", kind)]
    keep = np.ones(len(universe), dtype=bool)
    for cid in cond:
        if cid != target:
            keep &= cond[cid]
    return _finish(schema, kind, universe[keep], seed)


def generate(request: GeneratorRequest) -> Dataset:
    """Dispatch a validated request to the owning domain generator."""
    request.validate()
    if request.domain_id == "tort":
        return gen_tort(request.kind, request.size, request.seed)
    return gen_welfare(
        request.kind,
        request.size,
        request.seed,
        simplified=request.domain_id == "simplified",
    )
