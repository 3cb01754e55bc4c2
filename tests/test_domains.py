import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_lab import DomainSchema, SchemaValidationError, build_domain
from rationale_lab.domains import FEMALE, IN_PATIENT, MALE, OUT_PATIENT, FeatureSpec
from rationale_lab import oracle


def one_case(schema, **codes):
    """A one-row ``value_dtype`` matrix; features not given are 0."""
    row = np.zeros((1, schema.n_features), dtype=schema.value_dtype)
    for name, code in codes.items():
        row[0, schema.index_of(name)] = code
    return row


def welfare_case(**overrides):
    """A one-row welfare matrix satisfying all six conditions unless overridden."""
    codes = {
        "Age": 70, "Gender": FEMALE, "Con1": 1, "Con2": 1, "Con3": 1,
        "Con4": 1, "Con5": 0, "Spouse": 1, "Absent": 0, "Resources": 2000,
        "Type": IN_PATIENT, "Distance": 10,
    }
    return one_case(build_domain("welfare"), **dict(codes, **overrides))


def tort_case(**true_features):
    return one_case(build_domain("tort"), **true_features)


def holds(schema, cond_id, row):
    """Truth of one named condition on a one-row matrix, read from
    ``condition_matrix``."""
    j = schema.conditions.index(schema.condition(cond_id))
    return bool(schema.condition_matrix(row)[0, j])


def label(schema, row):
    return bool(schema.label_matrix(row)[0])


class TestSchemas:
    def test_welfare_shape(self, welfare_schema):
        assert welfare_schema.n_features == 64
        assert len(welfare_schema.conditions) == 6
        assert sum(f.role == "noise" for f in welfare_schema.features) == 52
        assert sum(f.role == "substantive" for f in welfare_schema.features) == 12
        assert welfare_schema.label_name == "Eligible"

    def test_simplified_shape(self, simplified_schema):
        assert simplified_schema.feature_names == ("Age", "Gender", "Type", "Distance")
        assert [c.id for c in simplified_schema.conditions] == ["C1", "C6"]
        assert all(f.role == "substantive" for f in simplified_schema.features)

    def test_tort_shape(self, tort_schema):
        assert tort_schema.n_features == 10
        assert all(f.kind == "boolean" for f in tort_schema.features)
        assert [c.id for c in tort_schema.conditions] == ["c1", "c2", "c3", "c4", "c5"]
        assert tort_schema.label_name == "dut"

    def test_noise_features_named_and_ranged(self, welfare_schema):
        noise = [f for f in welfare_schema.features if f.role == "noise"]
        assert [f.name for f in noise] == [f"noise_{i}" for i in range(1, 53)]
        assert all((f.lo, f.hi) == (0, 100) for f in noise)

    def test_unknown_domain_rejected(self):
        with pytest.raises(SchemaValidationError, match=r"^unknown domain 'trade-law'; expected "
                           r"one of \('welfare', 'simplified', 'tort'\)$"):
            build_domain("trade-law")

    @pytest.mark.parametrize("lookup", ["feature", "index_of"])
    def test_unknown_feature_name_rejected_and_named(self, tort_schema, lookup):
        with pytest.raises(SchemaValidationError,
                           match=r"^tort: no feature named 'bogus'$"):
            getattr(tort_schema, lookup)("bogus")

    def test_unknown_condition_lists_the_known_ids(self, tort_schema):
        with pytest.raises(SchemaValidationError,
                           match=r"^tort: no condition 'c9' \(known: c1, c2, c3, c4, c5\)$"):
            tort_schema.condition("c9")

    def test_categorical_codes_decode_to_their_names(self, welfare_schema):
        gender, ptype = welfare_schema.feature("Gender"), welfare_schema.feature("Type")
        assert (gender.decode(MALE), gender.decode(FEMALE)) == ("male", "female")
        assert (ptype.decode(IN_PATIENT), ptype.decode(OUT_PATIENT)) == ("in", "out")

    def test_feature_spec_invariants(self):
        with pytest.raises(ValueError, match="empty range"):
            FeatureSpec("bad", "int_range", 5, 4)
        with pytest.raises(ValueError, match="two distinct"):
            FeatureSpec("bad", "categorical", value_names=("x", "x"))
        with pytest.raises(ValueError, match="^bad: unknown feature kind 'real'"):
            FeatureSpec("bad", "real")
        with pytest.raises(ValueError, match="^bad: value_names only apply to categoricals"):
            FeatureSpec("bad", "boolean", value_names=("no", "yes"))
        with pytest.raises(ValueError, match=r"^bad: binary features are encoded over \[0, 1\]"):
            FeatureSpec("bad", "boolean", 0, 2)
        with pytest.raises(ValueError, match="^bad: unknown role 'decoy'"):
            FeatureSpec("bad", "boolean", role="decoy")

    def test_boolean_and_integer_codes_decode_to_python_values(self):
        flag, count = FeatureSpec("flag", "boolean"), FeatureSpec("n", "int_range", 0, 90)
        assert (flag.decode(np.int64(0)), flag.decode(np.int64(1))) == (False, True)
        assert type(flag.decode(np.int64(1))) is bool
        assert count.decode(np.int64(42)) == 42 and type(count.decode(np.int64(42))) is int


class TestConditionExamples:
    @pytest.mark.parametrize(
        "gender,age,expected",
        [
            (FEMALE, 60, True),
            (FEMALE, 59, False),
            (MALE, 65, True),
            (MALE, 64, False),
        ],
    )
    def test_pensionable_age_thresholds(self, welfare_schema, gender, age, expected):
        case = welfare_case(Gender=gender, Age=age)
        assert holds(welfare_schema, "C1", case) is expected

    @pytest.mark.parametrize(
        "ptype,distance,expected",
        [(OUT_PATIENT, 50, True), (OUT_PATIENT, 49, False),
         (IN_PATIENT, 49, True), (IN_PATIENT, 50, False)],
    )
    def test_patient_distance_boundaries(self, welfare_schema, ptype, distance, expected):
        case = welfare_case(Type=ptype, Distance=distance)
        assert holds(welfare_schema, "C6", case) is expected

    def test_contributions_cardinality(self, welfare_schema):
        assert holds(welfare_schema, "C2", welfare_case(Con5=1))
        assert holds(welfare_schema, "C2", welfare_case())  # 4 of 5
        assert not holds(welfare_schema, "C2", welfare_case(Con1=0, Con5=0))

    @pytest.mark.parametrize(
        "resources,expected", [(2999, True), (3000, False), (0, True), (10_000, False)]
    )
    def test_resources_boundary(self, welfare_schema, resources, expected):
        assert holds(welfare_schema, "C5", welfare_case(Resources=resources)) is expected

    def test_violation_exception(self, tort_schema):
        assert holds(tort_schema, "c5", tort_case(vst=1, prp=0)) is False
        assert holds(tort_schema, "c5", tort_case(vst=1, prp=1)) is True
        assert holds(tort_schema, "c5", tort_case()) is True

    def test_justification_defeats_violations(self, tort_schema):
        assert holds(tort_schema, "c3", tort_case(vst=1)) is True
        assert not holds(tort_schema, "c3", tort_case(vst=1, jus=1))
        assert holds(tort_schema, "c3", tort_case(vun=1, jus=1)) is True


class TestLabelExamples:
    def test_all_conditions_satisfied(self, welfare_schema):
        assert label(welfare_schema, welfare_case()) is True

    def test_one_failing_conjunct(self, tort_schema):
        case = tort_case(cau=1, ift=1, vun=1, dmg=0)
        assert label(tort_schema, case) is False

    def test_hand_evaluated_positive(self, tort_schema):
        # c1 from cau, c2 from ift, c3 from vun, c4 from dmg, c5 vacuous.
        case = tort_case(cau=1, ift=1, vun=1, dmg=1)
        assert label(tort_schema, case) is True

    @pytest.mark.parametrize("values,message", [
        (np.zeros((1, 63), dtype=np.int16), r"expected shape \(n, 64\), got \(1, 63\)"),
        (np.zeros(64, dtype=np.int16), r"expected shape \(n, 64\), got \(64,\)"),
        (np.zeros((1, 64)), "expected integer values, got dtype float64"),
    ], ids=["missing-column", "bare-row", "float"])
    def test_matrix_of_wrong_shape_or_dtype_rejected(self, welfare_schema, values, message):
        with pytest.raises(SchemaValidationError, match=f"^welfare: {message}$"):
            welfare_schema.validate_matrix(values)

    def test_out_of_range_names_it(self, welfare_schema):
        with pytest.raises(SchemaValidationError, match=r"^Age: value 101 at row 0 "):
            welfare_schema.validate_matrix(welfare_case(Age=101))

    def test_matrix_range_check_names_first_feature_then_its_first_row(self, welfare_schema):
        values = np.zeros((50, welfare_schema.n_features), dtype=np.int64)
        welfare_schema.validate_matrix(values)
        values[10, welfare_schema.index_of("Resources")] = -1  # an earlier row, a later feature
        values[40, welfare_schema.index_of("Age")] = -5
        values[30, welfare_schema.index_of("Age")] = 101
        with pytest.raises(SchemaValidationError,
                           match=r"^Age: value 101 at row 30 outside \[0, 100\]$"):
            welfare_schema.validate_matrix(values)
        values[:, welfare_schema.index_of("Age")] = 0
        with pytest.raises(SchemaValidationError, match=r"^Resources: value -1 at row 10 "):
            welfare_schema.validate_matrix(values)

    @pytest.mark.parametrize("seed", range(10))
    def test_matrix_range_check_agrees_with_a_per_column_loop(self, welfare_schema, seed):
        rng = np.random.default_rng(seed)
        specs = welfare_schema.features
        values = np.column_stack([rng.integers(f.lo, f.hi + 1, 300) for f in specs])
        for _ in range(rng.integers(1, 6)):  # a few cells one step outside their range
            row, col = rng.integers(300), rng.integers(len(specs))
            values[row, col] = specs[col].hi + 1 if rng.random() < 0.5 else specs[col].lo - 1
        with pytest.raises(SchemaValidationError) as err:
            welfare_schema.validate_matrix(values)
        assert str(err.value) == _per_column_message(welfare_schema, values)

    @pytest.mark.parametrize("case", ["zero-rows", "uint8-above-hi", "first-row", "last-row"])
    def test_matrix_range_check_edge_cases_agree_with_a_per_column_loop(self, welfare_schema,
                                                                        case):
        values = np.zeros((0 if case == "zero-rows" else 40, welfare_schema.n_features),
                          dtype=np.uint8 if case == "uint8-above-hi" else np.int64)
        age, resources = welfare_schema.index_of("Age"), welfare_schema.index_of("Resources")
        if case == "uint8-above-hi":
            values[17, age] = 255
        elif case == "first-row":
            values[0, resources], values[5, resources] = -1, 10_001
        elif case == "last-row":
            values[-1, age], values[-1, resources] = 101, 10_001
        want = _per_column_message(welfare_schema, values)
        if want is None:
            welfare_schema.validate_matrix(values)
            return
        with pytest.raises(SchemaValidationError) as err:
            welfare_schema.validate_matrix(values)
        assert str(err.value) == want

    def test_matrix_range_check_compares_each_column_with_its_own_bounds(self):
        schema = DomainSchema("stand-in", (FeatureSpec("a", "int_range", -5, 5),
                                           FeatureSpec("b", "int_range", 1, 9)), (), "label")
        values = np.array([[-5, 9], [5, 1], [0, 0], [1, 2]])  # b's 0 is above a's bound
        with pytest.raises(SchemaValidationError) as err:
            schema.validate_matrix(values)
        assert str(err.value) == _per_column_message(schema, values) == (
            "b: value 0 at row 2 outside [1, 9]")

    @pytest.mark.parametrize("labels,message", [
        (np.array([1, 0, 2, 3], dtype=np.uint8), r"label 2 at row 7 outside \{0, 1\}"),
        (np.array([0, -1, 1]), r"label -1 at row 6 outside \{0, 1\}"),
        (np.array([0.0, 1.0]), r"tort: expected bool or integer labels, got dtype float64"),
    ], ids=["uint8-2", "int64-negative", "float"])
    def test_bad_labels_rejected_counting_rows_from_first_row(self, tort_schema, labels,
                                                             message):
        with pytest.raises(SchemaValidationError, match=f"^{message}$"):
            tort_schema.validate_labels(labels, first_row=5)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int8, np.int64])
    def test_binary_labels_accepted(self, tort_schema, dtype):
        tort_schema.validate_labels(np.array([0, 1, 1, 0], dtype=dtype))
        tort_schema.validate_labels(np.array([], dtype=dtype))


def _per_column_message(schema, values):
    """The first out-of-range cell's message from the per-column loop the
    broadcast check replaced, or None when every cell is in range."""
    for i, f in enumerate(schema.features):
        bad = np.flatnonzero((values[:, i] < f.lo) | (values[:, i] > f.hi))
        if len(bad):
            row = bad[0]
            return f"{f.name}: value {values[row, i]} at row {row} outside [{f.lo}, {f.hi}]"
    return None


class TestConjunctionStructure:
    def test_tort_exhaustive(self, tort_schema):
        """Label equals the AND of all conditions on all 1024 cases."""
        values = np.array(
            [[(i >> s) & 1 for s in range(9, -1, -1)] for i in range(1024)],
            dtype=np.int64,
        )
        per_condition = tort_schema.condition_matrix(values)
        assert np.array_equal(tort_schema.label_matrix(values), per_condition.all(axis=1))
        # a one-row value_dtype matrix gets its row's verdicts from the batch
        for i in range(0, 1024, 37):
            case = tort_case(**dict(zip(tort_schema.feature_names, values[i].tolist())))
            assert label(tort_schema, case) == bool(per_condition[i].all())
            for j, cond in enumerate(tort_schema.conditions):
                assert holds(tort_schema, cond.id, case) == bool(per_condition[i, j])

    def test_welfare_random_sample(self, welfare_schema):
        """Vectorised labels match the independent oracle on 1e5 uniform cases."""
        rng = np.random.default_rng(2024)
        n = 100_000
        values = np.empty((n, welfare_schema.n_features), dtype=np.int64)
        for i, spec in enumerate(welfare_schema.features):
            values[:, i] = rng.integers(spec.lo, spec.hi + 1, n)
        assert np.array_equal(
            welfare_schema.label_matrix(values),
            oracle.condition_truth(welfare_schema, values).all(axis=1),
        )
        # spot-check one-row value_dtype matrices against the int64 batch
        labels = welfare_schema.label_matrix(values)
        for i in range(0, n, 9973):
            case = one_case(welfare_schema, **dict(zip(welfare_schema.feature_names,
                                                       values[i].tolist())))
            assert label(welfare_schema, case) == bool(labels[i])

    def test_noise_mutation_never_changes_label(self, welfare_schema):
        rng = np.random.default_rng(7)
        n = 2000
        values = np.empty((n, welfare_schema.n_features), dtype=np.int64)
        for i, spec in enumerate(welfare_schema.features):
            values[:, i] = rng.integers(spec.lo, spec.hi + 1, n)
        before = welfare_schema.label_matrix(values)
        mutated = values.copy()
        for i, spec in enumerate(welfare_schema.features):
            if spec.role == "noise":
                mutated[:, i] = rng.integers(spec.lo, spec.hi + 1, n)
        assert np.array_equal(before, welfare_schema.label_matrix(mutated))

    @pytest.mark.parametrize("domain_id", ["welfare", "simplified", "tort"])
    def test_involved_features_disjoint_except_vst(self, domain_id):
        """Only c3 and c5 share a feature (vst); every other pair is disjoint."""
        schema = build_domain(domain_id)
        overlapping = []
        conditions = schema.conditions
        for i in range(len(conditions)):
            for j in range(i + 1, len(conditions)):
                shared = set(conditions[i].involved) & set(conditions[j].involved)
                if shared:
                    overlapping.append((conditions[i].id, conditions[j].id, shared))
        if domain_id == "tort":
            assert overlapping == [("c3", "c5", {"vst"})]
        else:
            assert overlapping == []


class TestHypothesisProperties:
    @given(
        age=st.integers(0, 100),
        gender=st.sampled_from([MALE, FEMALE]),
    )
    def test_pensionable_age_formula(self, age, gender):
        schema = build_domain("welfare")
        expected = age >= (60 if gender == FEMALE else 65)
        assert holds(schema, "C1", welfare_case(Age=age, Gender=gender)) == expected

    @given(
        distance=st.integers(0, 100),
        ptype=st.sampled_from([IN_PATIENT, OUT_PATIENT]),
    )
    def test_patient_distance_is_xor_like(self, distance, ptype):
        schema = build_domain("simplified")
        case = one_case(schema, Age=70, Gender=FEMALE, Type=ptype, Distance=distance)
        expected = (distance < 50) == (ptype == IN_PATIENT)
        assert holds(schema, "C6", case) == expected

    @settings(max_examples=200)
    @given(bits=st.lists(st.integers(0, 1), min_size=10, max_size=10))
    def test_tort_label_is_conjunction(self, bits):
        schema = build_domain("tort")
        case = np.array([bits], dtype=schema.value_dtype)
        conjunction = all(
            holds(schema, c.id, case) for c in schema.conditions
        )
        truth = oracle.condition_truth(schema, case).all(axis=1)[0]
        assert label(schema, case) == conjunction == bool(truth)

