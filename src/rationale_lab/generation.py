"""Seeded generators for every dataset kind, one recipe per (domain, kind).

``KINDS`` is the registry: for each (domain, kind) pair it says whether the
kind takes a size, whether it is seed-independent, which condition a
dedicated test set isolates, and which builder makes its cases.  The README's
dataset table describes each kind.

Generators are pure functions of (request, seed): the same request yields an
identical dataset on any host.  Seed-independent kinds ignore the seed
entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .domains import Condition, DomainSchema, FeatureSpec, build_domain

GENERATOR_VERSION = "1"

# The dedicated sets read as curves rather than condition tables, keyed by
# the condition they isolate (DEDICATED_TARGET):
# (domain, condition) -> (x feature, group feature, xs, cases per grid cell).
# All four curve sets are built from their entries.  A seed-independent
# (simplified) set has no count of its own: each cell holds the cells of the
# other condition's grid where that condition holds.
CURVE_GRIDS = {
    ("welfare", "C1"): ("Age", "Gender", np.arange(5, 101, 5), 1000),
    ("welfare", "C6"): ("Distance", "Type", np.arange(5, 101, 5), 1000),
    ("simplified", "C1"): ("Age", "Gender", np.arange(0, 101), None),
    ("simplified", "C6"): ("Distance", "Type", np.arange(0, 101, 5), None),
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
    order; ``labels`` holds the matching 0/1 labels, one per row, or
    construction raises ``ValueError``.  Both are read-only.
    ``generate`` and ``read_dataset`` give ``values`` as a C-contiguous
    ``schema.value_dtype`` matrix (int8 for tort and simplified, int16 for
    welfare), so arithmetic on it that can leave a feature's range must
    upcast first.
    """

    schema_id: str
    kind: str
    values: np.ndarray
    labels: np.ndarray
    meta: DatasetMeta

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.labels.shape != (self.values.shape[0],):
            raise ValueError(
                f"a dataset needs a 2-D values matrix and one label per row: values "
                f"{self.values.shape}, labels {self.labels.shape}"
            )
        self.values.setflags(write=False)
        self.labels.setflags(write=False)

    def __reduce__(self):  # unpickled through __post_init__, so read-only again
        return (Dataset, (self.schema_id, self.kind, self.values, self.labels, self.meta))

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
    """A fully specified generation order: domain, kind, size, seed.
    A request the kind's size or domain rules refuse raises
    ``GenerationError`` at construction."""

    domain_id: str
    kind: str
    size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        known = tuple(k for d, k in KINDS if d == self.domain_id)
        if not known:
            raise GenerationError(f"unknown domain {self.domain_id!r}")
        kind = KINDS.get((self.domain_id, self.kind))
        if kind is None:
            raise GenerationError(
                f"unknown kind {self.kind!r} for domain {self.domain_id!r} "
                f"(expected one of {known})"
            )
        if self.seed < 0:
            raise GenerationError(f"seed must be >= 0, got {self.seed}")
        if kind.sized:
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

    def label(self) -> str:
        return self.kind if self.size is None else f"{self.kind}-{self.size}"


# ---------------------------------------------------------------------------
# Welfare and simplified samplers.  The generator holds no rule of its own:
# a forced condition's cases are sampled from a table read off the condition
# through ``DomainSchema._truth``.  Its binary features take, uniformly, one
# of the patterns that can give the wanted truth; its integer feature, if it
# has one, then takes a value uniformly within the run of values that gives
# that truth under the pattern.  Every other feature is uniform over its
# schema range.
# ---------------------------------------------------------------------------

@cache
def _sampling_table(cond: Condition, specs: tuple[FeatureSpec, ...], truth: bool):
    """The table a condition over features ``specs`` is sampled from for one
    truth: the binary features' names, their patterns that can give ``truth``
    (one row each), the integer feature's name (None if it has none), and
    each pattern's run ``[lo, hi)`` of integer values that gives it.  Cached
    by the condition object, so a changed condition gets its own table."""
    binary = [i for i, s in enumerate(specs) if s.kind != "int_range"]
    integer = [i for i, s in enumerate(specs) if s.kind == "int_range"]  # at most one
    patterns = np.array(list(itertools.product((0, 1), repeat=len(binary))), dtype=np.int64)
    start, stop = (specs[integer[0]].lo, specs[integer[0]].hi + 1) if integer else (0, 1)
    grid = np.zeros((len(patterns), stop - start, len(specs)), dtype=np.int64)
    grid[:, :, binary] = patterns[:, None, :]
    grid[:, :, integer] = np.arange(start, stop)[:, None]
    # a schema of the condition's own features feeds it the grid's columns
    ok = DomainSchema("", specs, (cond,), "")._truth(cond, grid.reshape(-1, len(specs)))
    ok = ok.reshape(grid.shape[:2]) == truth
    keep = ok.any(axis=1)
    lo, hi = start + ok.argmax(axis=1), stop - ok[:, ::-1].argmax(axis=1)
    return ([specs[i].name for i in binary], patterns[keep],
            specs[integer[0]].name if integer else None, lo[keep], hi[keep])


def _welfare_block(
    schema: DomainSchema,
    rng: np.random.Generator,
    force: dict[str, bool],
    out: np.ndarray,
) -> np.ndarray:
    """Sample ``len(out)`` cases into ``out``; conditions in ``force`` are
    made true/false, every other feature is uniform over its schema range.
    Each column is drawn into one contiguous row of a feature-major buffer,
    which one transposed copy then writes into ``out``; the buffer has
    ``out``'s dtype, and the draws are the same whatever it is."""
    n = len(out)
    cols: dict[str, np.ndarray] = {}
    for cond in schema.conditions:
        if cond.id in force:
            binary, patterns, integer, lo, hi = _sampling_table(
                cond, tuple(map(schema.feature, cond.involved)), force[cond.id])
            picks = rng.integers(0, len(patterns), n)
            cols.update(zip(binary, patterns[picks].T))
            if integer is not None:
                cols[integer] = rng.integers(lo[picks], hi[picks])

    by_feature = np.empty((schema.n_features, n), dtype=out.dtype)
    for row, spec in zip(by_feature, schema.features):
        row[...] = cols[spec.name] if spec.name in cols else rng.integers(spec.lo, spec.hi + 1, n)
    out[...] = by_feature.T
    return out


def _balanced(schema: DomainSchema, request: GeneratorRequest,
              kind: DatasetKind) -> np.ndarray:
    """type-a / type-b: half eligible, the other half split evenly over the
    conditions; each negative fails its condition (type-b: only that one).
    Each block is sampled into its slice of one ``value_dtype`` matrix."""
    rng = np.random.default_rng(request.seed)
    cond_ids = [c.id for c in schema.conditions]
    all_true = {cid: True for cid in cond_ids}

    values = np.empty((request.size, schema.n_features), dtype=schema.value_dtype)
    n_pos = request.size // 2
    _welfare_block(schema, rng, all_true, values[:n_pos])
    base, rem = divmod(request.size - n_pos, len(cond_ids))
    start = n_pos
    for i, cid in enumerate(cond_ids):
        m = base + (1 if i < rem else 0)
        force = dict(all_true if request.kind == "type-b" else {}, **{cid: False})
        _welfare_block(schema, rng, force, values[start:start + m])
        start += m
    return values[rng.permutation(values.shape[0])]


def _curve_set(schema: DomainSchema, request: GeneratorRequest,
               kind: DatasetKind) -> np.ndarray:
    """A dedicated set on its curve grid: the (x, group) cells in x order,
    group 0 before group 1, each cell's cases in one block, with every
    condition but the target holding.

    A seeded set samples each cell's other features.  A seed-independent
    (simplified) set gives every cell the same cases: the cells of the other
    condition's grid where that condition holds, group-major."""
    x_feature, group_feature, xs, per_cell = CURVE_GRIDS[(schema.domain_id, kind.target)]
    if kind.seed_independent:
        (other,) = [c for c in schema.conditions if c.id != kind.target]
        ox, og, oxs, _ = CURVE_GRIDS[(schema.domain_id, other.id)]
        cells = np.zeros((2 * len(oxs), schema.n_features), dtype=schema.value_dtype)
        cells[:, schema.index_of(og)] = np.repeat([0, 1], len(oxs))
        cells[:, schema.index_of(ox)] = np.tile(oxs, 2)
        cells = cells[schema._truth(other, cells)]
        per_cell = len(cells)
        values = np.tile(cells, (2 * len(xs), 1))
    else:
        values = _welfare_block(schema, np.random.default_rng(request.seed),
                                {c.id: True for c in schema.conditions if c.id != kind.target},
                                np.empty((len(xs) * 2 * per_cell, schema.n_features),
                                         dtype=schema.value_dtype))
    values[:, schema.index_of(x_feature)] = np.repeat(xs, 2 * per_cell)
    values[:, schema.index_of(group_feature)] = np.tile(np.repeat([0, 1], per_cell), len(xs))
    return values


# ---------------------------------------------------------------------------
# Tort generators
# ---------------------------------------------------------------------------

def _tort_universe(schema: DomainSchema, *_) -> np.ndarray:
    """All 1024 assignments, lexicographic over the canonical feature order."""
    n = schema.n_features
    codes = np.arange(2 ** n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    return ((codes[:, None] >> shifts) & 1).astype(schema.value_dtype)


def _tort_regular(schema: DomainSchema, request: GeneratorRequest,
                  kind: DatasetKind) -> np.ndarray:
    """A balanced resample of the unique cases."""
    universe = _tort_universe(schema)
    labels = schema.label_matrix(universe)
    positives = universe[labels]
    negatives = universe[~labels]
    rng = np.random.default_rng(request.seed)
    half = request.size // 2
    rows = np.concatenate(
        [
            positives[rng.integers(0, len(positives), half)],
            negatives[rng.integers(0, len(negatives), half)],
        ],
        axis=0,
    )
    return rows[rng.permutation(request.size)]


def _tort_dedicated(schema: DomainSchema, request: GeneratorRequest,
                    kind: DatasetKind) -> np.ndarray:
    """The unique cases on which every condition but the target holds, so
    the label tracks the target condition alone."""
    universe = _tort_universe(schema)
    truth = schema.condition_matrix(universe)
    others = [j for j, c in enumerate(schema.conditions) if c.id != kind.target]
    return universe[truth[:, others].all(axis=1)]


# ---------------------------------------------------------------------------
# The kind registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetKind:
    """One (domain, kind) entry of ``KINDS``."""

    build: Callable[[DomainSchema, GeneratorRequest, "DatasetKind"], np.ndarray]
    sized: bool = False  # takes a size; otherwise fixed by its grid or enumeration
    seed_independent: bool = False  # no random feature at all
    target: str | None = None  # the condition a dedicated test set isolates


# The unlawfulness set varies c3's features and the imputability set varies
# c2's: the pairing under which the enumerations have 168 and 128 unique rows.
KINDS: dict[tuple[str, str], DatasetKind] = {
    ("welfare", "type-a"): DatasetKind(_balanced, sized=True),
    ("welfare", "type-b"): DatasetKind(_balanced, sized=True),
    ("welfare", "age-gender"): DatasetKind(_curve_set, target="C1"),
    ("welfare", "patient-distance"): DatasetKind(_curve_set, target="C6"),
    ("simplified", "type-a"): DatasetKind(_balanced, sized=True),
    ("simplified", "type-b"): DatasetKind(_balanced, sized=True),
    ("simplified", "age-gender"): DatasetKind(_curve_set, seed_independent=True, target="C1"),
    ("simplified", "patient-distance"): DatasetKind(_curve_set, seed_independent=True,
                                                    target="C6"),
    ("tort", "unique"): DatasetKind(_tort_universe, seed_independent=True),
    ("tort", "regular"): DatasetKind(_tort_regular, sized=True),
    ("tort", "unlawfulness"): DatasetKind(_tort_dedicated, seed_independent=True, target="c3"),
    ("tort", "imputability"): DatasetKind(_tort_dedicated, seed_independent=True, target="c2"),
}

# Which condition each dedicated test set isolates.
DEDICATED_TARGET = {key: kind.target for key, kind in KINDS.items() if kind.target}


def generate(request: GeneratorRequest) -> Dataset:
    """Build a request's dataset with the kind's builder; ``values`` is
    C-contiguous ``schema.value_dtype``, as the builders allocate it."""
    kind = KINDS[(request.domain_id, request.kind)]
    schema = build_domain(request.domain_id)
    values = np.ascontiguousarray(kind.build(schema, request, kind), dtype=schema.value_dtype)
    labels = schema.label_matrix(values).astype(np.uint8)
    meta = DatasetMeta(
        seed=int(request.seed),
        generator_version=GENERATOR_VERSION,
        size=values.shape[0],
        positive_fraction=float(labels.mean()) if len(labels) else 0.0,
    )
    return Dataset(schema.domain_id, request.kind, values, labels, meta)
