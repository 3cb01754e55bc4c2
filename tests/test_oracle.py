import itertools
import tracemalloc

import numpy as np
import pytest

from rationale_lab import (
    SchemaValidationError,
    build_domain,
    expected_stats,
    generate,
    read_dataset,
    verify_dataset,
    write_dataset,
)
from rationale_lab.generation import KINDS, Dataset, DatasetMeta, GeneratorRequest
from rationale_lab.oracle import condition_truth, enumerate_tort

# every kind the generator knows, split by whether it takes a size: a kind added
# without an oracle entry fails the expected-statistics tests
ENUMERATED_KINDS = [key for key, kind in KINDS.items() if not kind.sized]
SAMPLED_KINDS = [key for key, kind in KINDS.items() if kind.sized]


class TestEnumerateTort:
    def test_positive_count(self, tort_schema):
        values = enumerate_tort()
        assert values.shape == (1024, 10) and values.dtype == tort_schema.value_dtype
        assert int(condition_truth(tort_schema, values).all(axis=1).sum()) == 112

    def test_agrees_with_rule_module_on_all_cases(self, tort_schema):
        """Two independent transcriptions of the formulas, one verdict."""
        values = enumerate_tort()
        labels = condition_truth(tort_schema, values).all(axis=1)
        assert np.array_equal(labels, tort_schema.label_matrix(values))
        # and one case at a time, as one-row matrices, on a stride of cases
        for i in range(0, 1024, 101):
            assert bool(tort_schema.label_matrix(values[i : i + 1])[0]) == bool(labels[i])

    def test_all_false_case_is_negative(self, tort_schema):
        values = enumerate_tort()
        assert values[0].tolist() == [0] * 10
        assert not condition_truth(tort_schema, values[:1]).all(axis=1)[0]

    def test_sixteen_contexts_satisfy_both_dependent_conditions(self):
        """Brute force over the 32 (vun,vst,vrt,jus,prp) assignments."""
        count = 0
        for vun, vst, vrt, jus, prp in itertools.product((0, 1), repeat=5):
            c3 = vun or (vst and not jus) or (vrt and not jus)
            c5 = not (vst and not prp)
            count += c3 and c5
        assert count == 16


class TestExpectedStats:
    @pytest.mark.parametrize(
        "domain,kind,size,fraction",
        [
            ("tort", "unique", 1024, 112 / 1024),
            ("tort", "unlawfulness", 168, 112 / 168),
            ("tort", "imputability", 128, 112 / 128),
            ("welfare", "age-gender", 40_000, 0.425),
            ("welfare", "patient-distance", 40_000, 0.5),
            ("simplified", "age-gender", 4242, 77 / 202),
            ("simplified", "patient-distance", 3234, 0.5),
        ],
    )
    def test_closed_form_values(self, domain, kind, size, fraction):
        stats = expected_stats(domain, kind)
        assert stats.size == size
        assert stats.positive_fraction == fraction

    @pytest.mark.parametrize("domain,kind", ENUMERATED_KINDS)
    def test_matches_generated_datasets_exactly(self, domain, kind):
        ds = generate(GeneratorRequest(domain, kind, seed=123))
        stats = expected_stats(domain, kind)
        assert len(ds) == stats.size
        assert ds.meta.positive_fraction == stats.positive_fraction

    @pytest.mark.parametrize("domain,kind", SAMPLED_KINDS)
    def test_sampled_kinds_rejected(self, domain, kind):
        with pytest.raises(ValueError, match="no enumerated statistics"):
            expected_stats(domain, kind)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain 'nope'"):
            expected_stats("nope", "unique")


class TestVerifyDataset:
    def test_unlawfulness_audit(self, tort_schema):
        report = verify_dataset(generate(GeneratorRequest("tort", "unlawfulness")), tort_schema)
        assert report.passed
        assert report.size_ok
        assert report.label_mismatches == 0
        assert report.positive_fraction == 112 / 168
        assert report.duplicate_count == 0

    @pytest.mark.parametrize("case", ["simplified-type-a", "repeated-rows", "fortran-order",
                                      "read-back"])
    def test_duplicate_count_matches_a_set_of_row_tuples(self, case, tmp_path):
        if case == "simplified-type-a":
            ds = generate(GeneratorRequest("simplified", "type-a", 5000, seed=2))
        else:
            base = generate(GeneratorRequest("welfare", "type-b", 300, seed=4))
            take = np.r_[np.arange(300), [7, 7, 7, 120, 299, 0]]  # 6 repeats of 4 rows
            values, labels = base.values[take], base.labels[take]
            if case == "fortran-order":
                values = np.asfortranarray(values)
            ds = Dataset(base.schema_id, base.kind, values, labels, base.meta)
            if case == "read-back":  # the read-back rows as a strided int64 column view
                back = read_dataset(write_dataset(ds, tmp_path / "b.csv"), ds.schema)
                stacked = np.column_stack([back.values, back.labels]).astype(np.int64)
                ds = Dataset(back.schema_id, back.kind, stacked[:, :-1], back.labels, back.meta)
                assert not ds.values.flags.c_contiguous and ds.values.dtype == np.int64
        report = verify_dataset(ds, build_domain(ds.schema_id))
        rows = ds.values.tolist()
        assert report.duplicate_count == len(rows) - len(set(map(tuple, rows)))
        if case != "simplified-type-a":
            assert report.duplicate_count == 6
        else:
            assert report.duplicate_count > 0

    def test_read_back_audit_peak_memory_below_the_rows(self, tmp_path, welfare_schema):
        """Read-back rows are already C-contiguous ``value_dtype``, so the
        duplicate count copies nothing before ``np.unique``: the traced peak
        stays below 0.7 times the rows' int64-equivalent bytes (a copy of the
        int16 rows would take it past 0.75)."""
        path = write_dataset(generate(GeneratorRequest("welfare", "type-b", 20_000, seed=2)),
                             tmp_path / "b.csv")
        ds = read_dataset(path, welfare_schema)
        verify_dataset(ds, welfare_schema)  # first-call allocations are not the audit's own
        tracemalloc.start()
        try:
            verify_dataset(ds, welfare_schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * 8 * ds.values.size

    def test_flipped_label_detected(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "unique"))
        labels = ds.labels.copy()
        labels[37] ^= 1
        broken = Dataset(ds.schema_id, ds.kind, ds.values.copy(), labels, ds.meta)
        report = verify_dataset(broken, tort_schema)
        assert not report.passed
        assert report.label_mismatches == 1
        assert report.mismatch_rows == (37,)

    def test_label_outside_binary_refused_as_write_refuses_it(self, tmp_path, tort_schema):
        """A label of 2 is not counted as positive: the audit raises the
        error that ``write_dataset`` raises for the same set."""
        ds = generate(GeneratorRequest("tort", "unique"))
        doubled = Dataset(ds.schema_id, ds.kind, ds.values.copy(), ds.labels * 2, ds.meta)
        first = int(np.argmax(ds.labels))
        with pytest.raises(SchemaValidationError,
                           match=rf"^label 2 at row {first} outside \{{0, 1\}}$") as audit:
            verify_dataset(doubled, tort_schema)
        with pytest.raises(SchemaValidationError) as write:
            write_dataset(doubled, tmp_path / "doubled.csv")
        assert str(audit.value) == str(write.value)

    def test_wrong_size_detected(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "unique"))
        truncated = Dataset(
            ds.schema_id,
            ds.kind,
            ds.values[:1000].copy(),
            ds.labels[:1000].copy(),
            DatasetMeta(0, "1", 1000, float(ds.labels[:1000].mean())),
        )
        report = verify_dataset(truncated, tort_schema)
        assert not report.size_ok and not report.passed

    def test_type_b_histogram_mass_at_one(self, welfare_schema):
        report = verify_dataset(generate(GeneratorRequest("welfare", "type-b", 10_000, seed=5)),
                                welfare_schema)
        assert report.passed
        assert set(report.failed_condition_histogram) == {1}
        assert report.failed_condition_histogram[1] == 5000

    def test_type_a_mean_failures(self, welfare_schema):
        report = verify_dataset(generate(GeneratorRequest("welfare", "type-a", 24_000, seed=5)),
                                welfare_schema)
        hist = report.failed_condition_histogram
        mean = sum(k * n for k, n in hist.items()) / sum(hist.values())
        assert 3.8 <= mean <= 4.3

    @pytest.mark.parametrize("domain,size", [("welfare", 2400), ("simplified", 200)])
    def test_per_condition_counts_cover_all_negatives(self, domain, size):
        schema = build_domain(domain)
        report = verify_dataset(generate(GeneratorRequest(domain, "type-b", size, seed=1)),
                                schema)
        # type B: each negative fails exactly one condition, buckets equal,
        # keyed by the schema's condition ids in condition order
        counts = report.per_condition_failure_counts
        assert list(counts) == [c.id for c in schema.conditions]
        assert set(counts.values()) == {size // 2 // len(schema.conditions)}

    def test_schema_mismatch_rejected(self, welfare_schema):
        with pytest.raises(SchemaValidationError, match="schema"):
            verify_dataset(generate(GeneratorRequest("tort", "unique")), welfare_schema)

    def test_report_serialises(self, tort_schema):
        report = verify_dataset(generate(GeneratorRequest("tort", "imputability")), tort_schema)
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["dataset_kind"] == "imputability"


def test_uniform_welfare_positives_are_rare():
    """The 50/50 balance of type A/B is engineered, not chance: a uniform
    draw over all 64 features is almost never eligible."""
    schema = build_domain("welfare")
    rng = np.random.default_rng(97)
    values = np.column_stack(
        [rng.integers(spec.lo, spec.hi + 1, 1_000_000) for spec in schema.features]
    )
    rate = float(condition_truth(schema, values).all(axis=1).mean())
    assert rate < 0.05
    assert rate > 0  # but not impossible
