import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from rationale_lab import (
    GeneratorRequest,
    NetworkConfig,
    SchemaValidationError,
    TrainConfig,
    accuracy,
    build_domain,
    condition_table,
    curve_deviation,
    generate,
    ideal_curve,
    output_curve,
    train,
    write_curve_tsv,
)
from rationale_lab.evaluation import CurveGroup, RationaleCurve

from conftest import ConditionOracleModel, ConstantOutputModel, LabelOracleModel


def make_curve(points_by_group, x_feature="Age", group_feature="Gender"):
    groups = []
    for label, pts in points_by_group.items():
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        means = np.array([p[1] for p in pts], dtype=np.float64)
        groups.append(CurveGroup(label, xs, means, np.ones(len(xs), dtype=np.int64)))
    return RationaleCurve(x_feature, group_feature, tuple(groups))


GENERATED = [
    ("tort", "unique", None),
    ("tort", "regular", 600),
    ("tort", "unlawfulness", None),
    ("tort", "imputability", None),
    ("welfare", "type-a", 600),
    ("welfare", "type-b", 600),
    ("welfare", "age-gender", None),
    ("simplified", "patient-distance", None),
]


class TestAccuracy:
    @pytest.mark.parametrize("domain_id,kind,size", GENERATED,
                             ids=[f"{d}-{k}" for d, k, _ in GENERATED])
    def test_label_oracle_is_perfect_everywhere(self, domain_id, kind, size):
        dataset = generate(GeneratorRequest(domain_id, kind, size, seed=3))
        assert accuracy(LabelOracleModel(build_domain(domain_id)), dataset) == 1.0

    def test_constant_positive_on_unique(self):
        ds = generate(GeneratorRequest("tort", "unique"))
        assert accuracy(ConstantOutputModel(1.0), ds) == 112 / 1024

    def test_constant_positive_on_imputability(self):
        ds = generate(GeneratorRequest("tort", "imputability"))
        assert accuracy(ConstantOutputModel(1.0), ds) == 0.875

    def test_empty_dataset_rejected(self):
        ds = generate(GeneratorRequest("tort", "unique"))
        empty = dataclasses.replace(ds, values=ds.values[:0], labels=ds.labels[:0])
        with pytest.raises(ValueError, match="no cases"):
            accuracy(ConstantOutputModel(1.0), empty)

    def test_schema_mismatch_rejected(self):
        model = LabelOracleModel(build_domain("welfare"))
        with pytest.raises(SchemaValidationError, match="built for"):
            accuracy(model, generate(GeneratorRequest("tort", "unique")))


class TestOutputCurve:
    def test_ideal_stub_steps_at_pension_ages(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=5))
        stub = ConditionOracleModel(welfare_schema, "C1")
        curve = output_curve(stub, ds, "Age", "Gender")
        female = curve.group("female")
        male = curve.group("male")
        assert dict(zip(female.xs, female.means))[55] == 0.0
        assert dict(zip(female.xs, female.means))[60] == 1.0
        assert dict(zip(male.xs, male.means))[60] == 0.0
        assert dict(zip(male.xs, male.means))[65] == 1.0
        assert set(female.counts.tolist()) == {1000}

    def test_ideal_stub_patient_distance_shapes(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "patient-distance", seed=5))
        stub = ConditionOracleModel(welfare_schema, "C6")
        curve = output_curve(stub, ds, "Distance", "Type")
        inp = dict(zip(curve.group("in").xs, curve.group("in").means))
        out = dict(zip(curve.group("out").xs, curve.group("out").means))
        assert inp[45] == 1.0 and inp[50] == 0.0
        assert out[45] == 0.0 and out[50] == 1.0

    @pytest.mark.parametrize("domain_id", ["welfare", "simplified"])
    @pytest.mark.parametrize("cond_id,kind,axes", [
        ("C1", "age-gender", ("Age", "Gender")),
        ("C6", "patient-distance", ("Distance", "Type")),
    ])
    def test_ideal_stub_reproduces_ideal_curve(self, domain_id, cond_id, kind, axes):
        schema = build_domain(domain_id)
        ds = generate(GeneratorRequest(domain_id, kind, seed=8))
        got = output_curve(ConditionOracleModel(schema, cond_id), ds, *axes)
        want = ideal_curve(domain_id, cond_id)
        for g, w in zip(got.groups, want.groups):
            assert g.label == w.label
            assert np.array_equal(g.xs, w.xs)
            assert np.array_equal(g.means, w.means)
            assert np.array_equal(g.counts, w.counts)

    def test_constant_stub_is_flat(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=5))
        curve = output_curve(ConstantOutputModel(0.5), ds, "Age", "Gender")
        for g in curve.groups:
            assert np.all(g.means == 0.5)

    def test_non_numeric_x_rejected(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=5))
        stub = ConstantOutputModel(0.5)
        with pytest.raises(SchemaValidationError, match="numeric"):
            output_curve(stub, ds, "Gender", "Type")

    def test_non_binary_group_rejected(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=5))
        with pytest.raises(SchemaValidationError, match="^Distance: group feature must be binary"):
            output_curve(ConstantOutputModel(0.5), ds, "Age", "Distance")

    def test_x_values_strictly_increasing(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=5))
        curve = output_curve(ConstantOutputModel(0.3), ds, "Age", "Gender")
        for g in curve.groups:
            assert np.all(np.diff(g.xs) > 0)
            assert np.all((g.means >= 0) & (g.means <= 1))


class TestIdealCurve:
    def test_pension_thresholds(self):
        curve = ideal_curve("welfare", "C1")
        female = dict(zip(curve.group("female").xs, curve.group("female").means))
        assert female[60] == 1.0 and female[55] == 0.0

    def test_distance_thresholds(self):
        curve = ideal_curve("welfare", "C6")
        inp = dict(zip(curve.group("in").xs, curve.group("in").means))
        out = dict(zip(curve.group("out").xs, curve.group("out").means))
        assert inp[45] == 1.0 and inp[50] == 0.0
        assert out[50] == 1.0  # boundary included for out-patients

    def test_unsupported_condition_rejected(self):
        with pytest.raises(ValueError, match="no ideal curve"):
            ideal_curve("welfare", "C2")


class TestTurningPoints:
    def test_synthetic_interpolation(self):
        curve = make_curve({"female": [(40, 0.2), (50, 0.8)]})
        assert curve.group("female").first == pytest.approx(45.0)

    def test_flat_half_curve_has_no_crossing(self):
        curve = make_curve({"female": [(10, 0.5), (20, 0.5), (30, 0.5)]})
        assert curve.group("female").first is None

    def test_ideal_curves_cross_near_true_thresholds(self):
        # interpolation on the 5-unit grid lands half a step early
        curve = ideal_curve("welfare", "C1")
        assert curve.group("female").first == pytest.approx(57.5)
        assert curve.group("male").first == pytest.approx(62.5)
        assert abs(curve.group("female").first - 60) <= 2.5
        assert abs(curve.group("male").first - 65) <= 2.5
        curve = ideal_curve("simplified", "C1")
        assert curve.group("female").first == pytest.approx(59.5)

    def test_downward_crossing_detected(self):
        curve = ideal_curve("welfare", "C6")
        assert curve.group("in").first == pytest.approx(47.5)
        assert curve.group("out").first == pytest.approx(47.5)

    def test_all_crossings_listed_first_reported(self):
        curve = make_curve({"g": [(0, 0.1), (10, 0.9), (20, 0.1), (30, 0.9)]})
        pts = curve.groups[0]
        assert len(pts.crossings) == 3
        assert pts.first == pts.crossings[0] == pytest.approx(5.0)

    def test_group_without_points_rejected(self):
        group = make_curve({"g": []}).group("g")
        for reading in ("crossings", "first"):
            with pytest.raises(ValueError, match="group 'g' has no points"):
                getattr(group, reading)

    def test_unknown_group_label_rejected(self):
        curve = make_curve({"female": [(40, 0.2), (50, 0.8)]})
        with pytest.raises(KeyError, match=r"no group 'male' \(have \['female'\]\)"):
            curve.group("male")


class TestConditionTable:
    def test_oracle_stub_on_unlawfulness(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "unlawfulness"))
        table = condition_table(LabelOracleModel(tort_schema), ds, "c3")
        assert table.false.mean_output == 0.0
        assert table.true.mean_output == 1.0
        assert table.false.count == 56 and table.true.count == 112

    def test_constant_positive_on_imputability(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "imputability"))
        table = condition_table(ConstantOutputModel(1.0), ds, "c2")
        assert table.false.mean_output == 1.0
        assert table.true.mean_output == 1.0

    def test_never_varying_condition_rejected(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "unlawfulness"))  # c1 is identically true there
        with pytest.raises(ValueError, match="never varies"):
            condition_table(ConstantOutputModel(0.5), ds, "c1")

    def test_means_are_convex_combinations(self, tort_schema):
        ds = generate(GeneratorRequest("tort", "imputability"))
        outputs = np.random.default_rng(1).random(len(ds))
        table = condition_table(outputs, ds, "c2")
        for row in (table.false, table.true):
            assert outputs.min() <= row.mean_output <= outputs.max()

    def test_accuracy_identity_on_dedicated_sets(self, tort_schema):
        """Accuracy is recoverable from the table's per-row positive rates:
        on a dedicated set the label is the isolated condition's truth."""
        ds = generate(GeneratorRequest("tort", "imputability"))
        for model in (LabelOracleModel(tort_schema), ConstantOutputModel(0.51)):
            table = condition_table(model, ds, "c2")
            t, f = table.true, table.false
            correct = t.positive_rate * t.count + (1.0 - f.positive_rate) * f.count
            assert correct / (t.count + f.count) == pytest.approx(
                accuracy(model, ds), abs=1e-12
            )


def trained_12(domain_id: str, kind: str):
    data = generate(GeneratorRequest(domain_id, kind, 200, seed=3))
    return train(data, NetworkConfig(data.schema.n_features, (12,), init_seed=4),
                 TrainConfig(iterations=60, shuffle_seed=5))


class TestOutputsArray:
    """Each measurement reads an array of one output per case as it reads
    the model that computed it."""

    def test_accuracy_reads_the_array_as_the_model(self):
        model = trained_12("tort", "regular")
        ds = generate(GeneratorRequest("tort", "regular", 600, seed=6))
        assert accuracy(model.outputs(ds.values), ds) == accuracy(model, ds)

    def test_curve_reads_the_array_as_the_model(self):
        model = trained_12("simplified", "type-b")
        ds = generate(GeneratorRequest("simplified", "age-gender"))
        got = output_curve(model.outputs(ds.values), ds, "Age", "Gender")
        want = output_curve(model, ds, "Age", "Gender")
        assert [g.label for g in got.groups] == [g.label for g in want.groups]
        for g, w in zip(got.groups, want.groups):
            for field in ("xs", "means", "counts"):
                assert getattr(g, field).tobytes() == getattr(w, field).tobytes()

    def test_table_reads_the_array_as_the_model(self):
        model = trained_12("tort", "regular")
        ds = generate(GeneratorRequest("tort", "imputability"))
        got = condition_table(model.outputs(ds.values), ds, "c2")
        assert got.to_dict() == condition_table(model, ds, "c2").to_dict()

    @pytest.mark.parametrize("shape,given", [("short", "array"), ("column", "array"),
                                             ("short", "model"), ("column", "model")],
                             ids=["short", "column", "short-model", "column-model"])
    @pytest.mark.parametrize("measure", [
        lambda outputs, ds: accuracy(outputs, ds),
        lambda outputs, ds: output_curve(outputs, ds, "Age", "Gender"),
        lambda outputs, ds: condition_table(outputs, ds, "C1"),
    ], ids=["accuracy", "output_curve", "condition_table"])
    def test_array_of_another_shape_rejected(self, measure, shape, given):
        """Outputs of another shape are refused, as an array or as what a
        model's ``outputs`` returns."""
        ds = generate(GeneratorRequest("simplified", "age-gender"))
        n = len(ds)
        array = {"short": np.full(n - 1, 0.5), "column": np.full((n, 1), 0.5)}[shape]
        outputs = {"array": array, "model": SimpleNamespace(schema_id=ds.schema_id,
                                                            outputs=lambda values: array)}[given]
        want = {"short": rf"\({n - 1},\)", "column": rf"\({n}, 1\)"}[shape]
        message = rf"outputs of shape {want} for a dataset of {n} cases"
        with pytest.raises(ValueError, match=message):
            measure(outputs, ds)


class TestCurveDeviation:
    def test_identical_curves_deviate_zero(self):
        ideal = ideal_curve("welfare", "C1")
        dev = curve_deviation(ideal, ideal)
        assert dev.max_abs == 0.0 and dev.mean_abs == 0.0

    def test_constant_half_deviates_half(self, welfare_schema):
        ds = generate(GeneratorRequest("welfare", "age-gender", seed=2))
        flat = output_curve(ConstantOutputModel(0.5), ds, "Age", "Gender")
        dev = curve_deviation(flat, ideal_curve("welfare", "C1"))
        assert dev.max_abs == 0.5

    def test_hand_computed_three_point_case(self):
        got = make_curve({"g": [(0, 0.2), (10, 0.6), (20, 0.9)]})
        want = make_curve({"g": [(0, 0.0), (10, 1.0), (20, 1.0)]})
        dev = curve_deviation(got, want)
        assert dev.max_abs == pytest.approx(0.4)
        assert dev.mean_abs == pytest.approx((0.2 + 0.4 + 0.1) / 3)
        assert dev.per_group["g"][0] == pytest.approx(0.4)

    def test_grid_mismatch_rejected(self):
        a = make_curve({"g": [(0, 0.2), (10, 0.6)]})
        b = make_curve({"g": [(0, 0.0), (20, 1.0)]})
        with pytest.raises(ValueError, match="grids differ"):
            curve_deviation(a, b)

    def test_group_mismatch_rejected(self):
        a = make_curve({"female": [(0, 0.2), (10, 0.6)]})
        b = make_curve({"male": [(0, 0.2), (10, 0.6)]})
        with pytest.raises(ValueError, match="curves have different groups"):
            curve_deviation(a, b)


def test_curve_tsv_round_trip(tmp_path):
    curve = ideal_curve("simplified", "C6")
    path = write_curve_tsv(curve, tmp_path / "curve.tsv")
    lines = path.read_text().splitlines()
    assert lines[0] == "group\tx\tmean_output\tn"
    assert len(lines) == 1 + sum(len(g.xs) for g in curve.groups)
    group, x, mean, n = lines[1].split("\t")
    assert group == "in" and int(x) == 0 and float(mean) == 1.0 and int(n) == 77
