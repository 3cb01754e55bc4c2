import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from rationale_lab import (
    Dataset,
    GenerationError,
    GeneratorRequest,
    build_domain,
    domains,
    generate,
)
from rationale_lab.generation import DEDICATED_TARGET, KINDS

from conftest import SHIFT_MUTANTS, shifted_schema


class TestRequestValidation:
    @pytest.mark.parametrize(
        "domain,kind,size",
        [
            ("welfare", "type-a", None),  # size required
            ("welfare", "type-a", 2401),  # odd
            ("tort", "regular", 501),  # odd
            ("tort", "unique", 10),  # size forbidden
            ("welfare", "age-gender", 100),  # size forbidden
            ("welfare", "unique", None),  # tort kind on welfare
            ("tort", "type-a", 100),  # welfare kind on tort
            ("maritime", "type-a", 100),  # unknown domain
        ],
    )
    def test_invalid_requests_rejected(self, domain, kind, size):
        with pytest.raises(GenerationError):
            GeneratorRequest(domain, kind, size)

    def test_generate_dispatches(self):
        ds = generate(GeneratorRequest("simplified", "type-b", 200, seed=5))
        assert ds.schema_id == "simplified" and len(ds) == 200


class TestDatasetShape:
    @pytest.mark.parametrize(
        "edit,shapes",
        [
            ("label-short", r"values \(1024, 10\), labels \(1023,\)"),
            ("labels-2d", r"labels \(1024, 1\)"),
            ("values-1d", r"values \(1024,\), labels"),
        ],
    )
    def test_mismatched_shapes_refused_at_construction(self, edit, shapes):
        ds = generate(GeneratorRequest("tort", "unique"))
        values, labels = {
            "label-short": (ds.values, ds.labels[:-1]),
            "labels-2d": (ds.values, ds.labels[:, None]),
            "values-1d": (ds.values[:, 0], ds.labels),
        }[edit]
        with pytest.raises(ValueError, match=shapes):
            Dataset(ds.schema_id, ds.kind, values, labels, ds.meta)

    @pytest.mark.parametrize("request_", [GeneratorRequest("tort", "unique"),
                                          GeneratorRequest("welfare", "type-b", 200, seed=3)])
    def test_pickled_dataset_stays_read_only(self, request_):
        """A dataset crosses the process pool by pickle and comes back through
        its constructor: the same cases and metadata, read-only."""
        ds = generate(request_)
        back = pickle.loads(pickle.dumps(ds))
        assert back.equals(ds)
        assert not back.values.flags.writeable and not back.labels.flags.writeable
        assert back.values.dtype == ds.values.dtype and back.values.flags.c_contiguous


class TestBalancedSets:
    @pytest.mark.parametrize("kind", ["type-a", "type-b"])
    @pytest.mark.parametrize("domain", ["welfare", "simplified"])
    def test_exact_balance(self, kind, domain):
        ds = generate(GeneratorRequest(domain, kind, 2400, seed=7))
        assert len(ds) == 2400
        assert int(ds.labels.sum()) == 1200
        assert ds.meta.positive_fraction == 0.5

    def test_labels_match_rule(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "type-a", 2000, seed=3))
        assert np.array_equal(
            ds.labels.astype(bool), welfare_schema.label_matrix(ds.values)
        )

    def test_type_b_negatives_fail_exactly_one(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "type-b", 4000, seed=11))
        truth = welfare_schema.condition_matrix(ds.values)
        negatives = truth[~ds.labels.astype(bool)]
        assert np.array_equal((~negatives).sum(axis=1), np.ones(len(negatives)))

    def test_type_b_buckets_near_equal(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "type-b", 2400, seed=1))
        truth = welfare_schema.condition_matrix(ds.values)
        negatives = truth[~ds.labels.astype(bool)]
        per_condition = (~negatives).sum(axis=0)
        assert per_condition.tolist() == [200] * 6

    def test_type_a_negatives_fail_at_least_one(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "type-a", 4000, seed=11))
        truth = welfare_schema.condition_matrix(ds.values)
        negatives = truth[~ds.labels.astype(bool)]
        fails = (~negatives).sum(axis=1)
        assert fails.min() >= 1

    def test_type_a_mean_failures_near_four(self, welfare_schema):
        """Chance failures on the free features push the average to ~4."""
        ds = generate(GeneratorRequest("welfare", "type-a", 24_000, seed=5))
        truth = welfare_schema.condition_matrix(ds.values)
        negatives = truth[~ds.labels.astype(bool)]
        assert len(negatives) >= 10_000
        mean_fails = float((~negatives).sum(axis=1).mean())
        assert 3.8 <= mean_fails <= 4.3

    def test_simplified_type_a_fails_at_most_two(self, simplified_schema):
        ds = generate(GeneratorRequest("simplified", "type-a", 4000, seed=2))
        truth = simplified_schema.condition_matrix(ds.values)
        negatives = truth[~ds.labels.astype(bool)]
        assert set((~negatives).sum(axis=1).tolist()) <= {1, 2}

    def test_generate_peak_memory_below_the_int64_rows(self):
        """A 50,000-case welfare type-b set is sampled and permuted as int16
        rows: the traced peak of ``generate`` stays below 0.75 times the rows'
        int64-equivalent bytes (int64 rows and their permuted copy held it
        at about 2 times)."""
        request = GeneratorRequest("welfare", "type-b", 50_000, seed=6)
        generate(request)  # first-call allocations are not the generator's own
        tracemalloc.start()
        try:
            ds = generate(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * ds.values.size


class TestGeneratorFollowsTheSchema:
    """The welfare and simplified sets are sampled from the schema's own
    conditions: with a shift mutant's condition in the schema, every sampled
    set keeps its structure under the moved rule."""

    @pytest.mark.parametrize("domain,name", [
        (domain, name) for domain in ("welfare", "simplified")
        for name, (cond_id, _) in SHIFT_MUTANTS.items()
        if cond_id in {c.id for c in build_domain(domain).conditions}])
    def test_sets_hold_under_a_shifted_condition(self, monkeypatch, domain, name):
        schema = shifted_schema(build_domain(domain), name)
        monkeypatch.setitem(domains._SCHEMAS, domain, schema)
        per_condition = 300 // len(schema.conditions)
        for kind in ("type-a", "type-b"):
            ds = generate(GeneratorRequest(domain, kind, 600, seed=1))
            truth = schema.condition_matrix(ds.values)
            assert np.array_equal(ds.labels.astype(bool), truth.all(axis=1))
            assert ds.meta.positive_fraction == 0.5
            fails = (~truth[~truth.all(axis=1)]).sum(axis=1)
            if kind == "type-b":
                assert set(fails.tolist()) == {1}
                assert (~truth).sum(axis=0).tolist() == [per_condition] * len(schema.conditions)
            else:
                assert fails.min() >= 1
                assert ((~truth).sum(axis=0) >= per_condition).all()
        for kind in ("age-gender", "patient-distance"):
            ds = generate(GeneratorRequest(domain, kind, seed=1))
            truth = schema.condition_matrix(ds.values)
            others = [c.id != DEDICATED_TARGET[domain, kind] for c in schema.conditions]
            assert truth[:, others].all()


class TestDedicatedWelfareSets:
    def test_age_gender_full(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=9))
        assert len(ds) == 40_000
        assert ds.meta.positive_fraction == 0.425
        ages = ds.values[:, welfare_schema.index_of("Age")]
        genders = ds.values[:, welfare_schema.index_of("Gender")]
        cells, counts = np.unique(np.stack([ages, genders], 1), axis=0, return_counts=True)
        assert len(cells) == 40 and set(counts.tolist()) == {1000}
        assert set(ages.tolist()) == set(range(5, 101, 5))
        # all conditions except the target hold everywhere
        truth = welfare_schema.condition_matrix(ds.values)
        others = [j for j, c in enumerate(welfare_schema.conditions) if c.id != "C1"]
        assert truth[:, others].all()
        assert np.array_equal(ds.labels.astype(bool), truth[:, 0])

    def test_patient_distance_full(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "patient-distance", seed=9))
        assert len(ds) == 40_000
        assert ds.meta.positive_fraction == 0.5
        truth = welfare_schema.condition_matrix(ds.values)
        others = [j for j, c in enumerate(welfare_schema.conditions) if c.id != "C6"]
        assert truth[:, others].all()

    def test_age_gender_simplified(self):
        ds = generate(GeneratorRequest("simplified", "age-gender"))
        assert len(ds) == 4242
        # one unique instance per (age, gender, distance-grid) combination
        assert len(np.unique(ds.values, axis=0)) == 4242
        assert ds.meta.positive_fraction == 77 / 202

    def test_patient_distance_simplified(self):
        ds = generate(GeneratorRequest("simplified", "patient-distance"))
        assert len(ds) == 3234
        assert len(np.unique(ds.values, axis=0)) == 3234
        assert ds.meta.positive_fraction == 0.5

    @pytest.mark.parametrize("kind", ["age-gender", "patient-distance"])
    def test_dedicated_label_tracks_target_condition(self, kind, simplified_schema):
        ds = generate(GeneratorRequest("simplified", kind))
        target = DEDICATED_TARGET[("simplified", kind)]
        j = [c.id for c in simplified_schema.conditions].index(target)
        truth = simplified_schema.condition_matrix(ds.values)
        assert np.array_equal(ds.labels.astype(bool), truth[:, j])


class TestTortSets:
    def test_unique_enumeration(self):
        ds = generate(GeneratorRequest("tort", "unique"))
        assert len(ds) == 1024
        assert int(ds.labels.sum()) == 112
        assert ds.meta.positive_fraction == 112 / 1024
        assert len(np.unique(ds.values, axis=0)) == 1024
        # lexicographic over the canonical feature order
        first_as_int = [int("".join(map(str, row)), 2) for row in ds.values[:5]]
        assert first_as_int == [0, 1, 2, 3, 4]

    def test_unlawfulness_set(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "unlawfulness"))
        assert (len(ds), int(ds.labels.sum())) == (168, 112)
        truth = tort_schema.condition_matrix(ds.values)
        others = [j for j, c in enumerate(tort_schema.conditions) if c.id != "c3"]
        assert truth[:, others].all()
        assert np.array_equal(ds.labels.astype(bool), truth[:, 2])

    def test_imputability_set(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "imputability"))
        assert (len(ds), int(ds.labels.sum())) == (128, 112)
        truth = tort_schema.condition_matrix(ds.values)
        others = [j for j, c in enumerate(tort_schema.conditions) if c.id != "c2"]
        assert truth[:, others].all()
        assert np.array_equal(ds.labels.astype(bool), truth[:, 1])

    @pytest.mark.parametrize("kind", ["unlawfulness", "imputability"])
    def test_dedicated_set_isolates_the_condition_it_is_named_for(self, tort_schema, kind):
        assert tort_schema.condition(DEDICATED_TARGET[("tort", kind)]).notion == kind

    def test_regular_is_balanced_resample(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "regular", 5000, seed=21))
        assert int(ds.labels.sum()) == 2500
        # every row is one of the 1024 unique cases with its true label
        assert np.array_equal(ds.labels.astype(bool), tort_schema.label_matrix(ds.values))

    def test_regular_small(self):
        ds = generate(GeneratorRequest("tort", "regular", 500, seed=21))
        assert (len(ds), int(ds.labels.sum())) == (500, 250)


class TestDeterminism:
    @pytest.mark.parametrize("domain,kind,size", [
        ("welfare", "type-a", 600),
        ("simplified", "type-b", 600),
        ("welfare", "age-gender", None),
        ("tort", "regular", 600),
    ])
    def test_same_seed_same_dataset(self, domain, kind, size):
        a, b = (generate(GeneratorRequest(domain, kind, size, seed=99)) for _ in range(2))
        assert a.equals(b)

    @pytest.mark.parametrize("domain,kind,size", [
        ("welfare", "type-a", 600),
        ("tort", "regular", 600),
    ])
    def test_different_seed_different_cases(self, domain, kind, size):
        a, b = (generate(GeneratorRequest(domain, kind, size, seed)) for seed in (1, 2))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("domain,kind", [
        ("tort", "unique"),
        ("tort", "unlawfulness"),
        ("tort", "imputability"),
        ("simplified", "age-gender"),
        ("simplified", "patient-distance"),
    ])
    def test_enumerated_kinds_seed_independent(self, domain, kind):
        a, b = (generate(GeneratorRequest(domain, kind, seed=seed)) for seed in (1, 2))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)
        assert len(np.unique(a.values, axis=0)) == len(a)

    @pytest.mark.parametrize("domain,kind", list(KINDS))
    def test_seed_independence_matches_registry_flag(self, domain, kind):
        """Two seeds give the same cases exactly when the registry says the
        kind is seed-independent: the flag on which the harness reuses one
        dataset across repetitions."""
        size = 600 if KINDS[domain, kind].sized else None
        a, b = (generate(GeneratorRequest(domain, kind, size, seed)) for seed in (1, 2))
        assert np.array_equal(a.values, b.values) == KINDS[domain, kind].seed_independent

    # sha256 of the little-endian int64 values followed by the uint8 labels
    @pytest.mark.parametrize("domain,kind,digest", [
        ("simplified", "age-gender",
         "df80c0a80b8f7a9c9fcd0986244e2a82e9fddd8c2517a4a2e1081686d501353b"),
        ("simplified", "patient-distance",
         "b4b93b92814a65e22a9c9d3afbd32d46155208893d46a8d9d1f8aba232a601a6"),
        ("tort", "unique", "67692d305fd414c6299b2e27371f68e4140c3f5dd83055e118379c80193bf69a"),
        ("tort", "unlawfulness",
         "37049fdea26a32c4ee613b8aad9b4db143f1a94a67564ea63a716e34844e9923"),
        ("tort", "imputability",
         "5122493453ab2dcacdf1f06b8e0a5ecd75f6d9f0bc96b782f35c2476ed6b2d9b"),
    ])
    def test_seed_independent_rows_pinned(self, domain, kind, digest):
        ds = generate(GeneratorRequest(domain, kind))
        data = ds.values.astype("<i8").tobytes() + ds.labels.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # the same digest at seed 5; 2,414 cases leave a remainder both in the
    # positive half and in the split of the negatives across the conditions
    @pytest.mark.parametrize("domain,kind,digest", [
        ("welfare", "type-a", "2b6205890d7687afadf90fce3a34fd67f18a0fff15eee1069758a89fd0a25776"),
        ("welfare", "type-b", "8aa2414e8cf6adc36f262558fc5baf54a22d295811e9777d950220df44ab779d"),
        ("welfare", "age-gender",
         "05b48d833db01dc16ee6df496c495cba94cce019d064755b1e3d7fa24d07eb7e"),
        ("welfare", "patient-distance",
         "199c4bffd965160d4775ffc1e0d104f366a9781f094fc89753a3cc0f5e53829d"),
        ("simplified", "type-a",
         "623ab77d54e63945bbf740196f94b6b243cfcfec9ace982133c3bb564ae6bf3c"),
        ("simplified", "type-b",
         "593c36899f33491f9622d06d55b369202945f7da51c4804ecf4cc11038ca68d4"),
        ("tort", "regular", "0129680292b32e0ee8485c16e87721d0db9ac6b4e67b39835c9c3cd6118010d1"),
    ])
    def test_seeded_rows_pinned(self, domain, kind, digest):
        size = 2414 if KINDS[domain, kind].sized else None
        ds = generate(GeneratorRequest(domain, kind, size, seed=5))
        data = ds.values.astype("<i8").tobytes() + ds.labels.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_meta_consistency(self):
        ds = generate(GeneratorRequest("welfare", "type-b", 800, seed=4))
        assert ds.meta.size == len(ds)
        assert ds.meta.positive_fraction == float(ds.labels.mean())
        assert ds.meta.seed == 4
