import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rationale_lab import (
    AggregateReport,
    CellAggregate,
    ExperimentPlan,
    GeneratorRequest,
    TrainConfig,
    TrainingDivergedError,
    derive_seed,
    emit_report,
    generate,
    load_plan,
    replay,
    run_plan,
)
from rationale_lab import harness as harness_module
from rationale_lab.evaluation import (
    ConditionOutputTable,
    ConditionTableRow,
    CurveGroup,
    RationaleCurve,
    write_curve_tsv,
)

from conftest import JSON_VALUES, key_paths, replaced, write_plan


def spec(domain, kind, size=None):
    return GeneratorRequest(domain, kind, size)


def tiny_tort_plan(**overrides):
    kwargs = dict(
        domain_id="tort",
        train_specs=(spec("tort", "regular", 200),),
        test_specs=(
            spec("tort", "unique"),
            spec("tort", "unlawfulness"),
            spec("tort", "imputability"),
        ),
        architectures=((12,),),
        repetitions=2,
        iterations=120,
        master_seed=77,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def assert_curves_equal(a, b):
    assert (a.x_feature, a.group_feature) == (b.x_feature, b.group_feature)
    assert [g.label for g in a.groups] == [g.label for g in b.groups]
    for ga, gb in zip(a.groups, b.groups):
        for field in ("xs", "means", "counts"):
            assert np.array_equal(getattr(ga, field), getattr(gb, field))


class TestSeedDerivation:
    def test_values_are_frozen(self):
        # golden values: a change here silently breaks manifest replay
        assert derive_seed(0, "train-data", 0, 0) == 2925016201361073435
        assert derive_seed(42, "init", 3, 1, 2) == 12466962334423319424
        assert derive_seed(2**63, "shuffle", 49, 0, 0) == 12421810777991139096

    def test_distinct_roles_distinct_seeds(self):
        seeds = {
            derive_seed(5, role, rep, 0)
            for role in ("train-data", "test-data", "init", "shuffle")
            for rep in range(10)
        }
        assert len(seeds) == 40


class TestPlanStructure:
    def test_table_shaped_cell_counts(self):
        welfare = ExperimentPlan(
            domain_id="welfare",
            train_specs=(
                spec("welfare", "type-a", 2400),
                spec("welfare", "type-b", 2400),
                spec("welfare", "type-a", 50_000),
                spec("welfare", "type-b", 50_000),
            ),
            test_specs=(
                spec("welfare", "type-a", 2400),
                spec("welfare", "type-b", 2400),
                spec("welfare", "age-gender"),
                spec("welfare", "patient-distance"),
            ),
            architectures=((12,), (24, 6), (24, 10, 3)),
            repetitions=50,
        )
        assert welfare.cell_count == 48
        tort = ExperimentPlan(
            domain_id="tort",
            train_specs=(spec("tort", "regular", 5000), spec("tort", "regular", 500)),
            test_specs=(
                spec("tort", "regular", 5000),
                spec("tort", "unique"),
                spec("tort", "unlawfulness"),
                spec("tort", "imputability"),
            ),
            architectures=((12,), (24, 6), (24, 10, 3)),
        )
        assert tort.cell_count == 24

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="belongs to"):
            tiny_tort_plan(train_specs=(spec("welfare", "type-a", 200),))

    @pytest.mark.parametrize(
        "overrides,what",
        [
            ({"train_specs": (spec("tort", "regular", 200), spec("tort", "regular", 200))},
             "train set 'regular-200'"),
            ({"test_specs": (spec("tort", "unique"), spec("tort", "unique"))},
             "test set 'unique'"),
            ({"architectures": ((12,), (24, 6), (12,))}, "architecture '12'"),
        ],
        ids=["train", "test", "architecture"],
    )
    def test_duplicate_entries_rejected(self, overrides, what):
        with pytest.raises(ValueError, match=f"plan lists {what} more than once"):
            tiny_tort_plan(**overrides)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"architectures": ((12,), (7,))}, "not one of the standard shapes"),
            ({"iterations": 0}, "iterations must be >= 1"),
            ({"learning_rate": 0.0}, "learning_rate must be positive"),
            ({"learning_rate": float("nan")}, "learning_rate must be positive and finite"),
            ({"learning_rate": float("inf")}, "learning_rate must be positive and finite"),
            ({"batch_size": 0}, "batch_size must be >= 1"),
        ],
        ids=["architecture", "iterations", "learning_rate", "learning_rate-nan",
             "learning_rate-inf", "batch_size"],
    )
    def test_plan_the_network_refuses_rejected_at_construction(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            tiny_tort_plan(**overrides)

    def test_plan_document_without_constants_takes_the_defaults(self):
        plan = harness_module.plan_from_dict({
            "domain": "tort",
            "train": [{"kind": "regular", "size": 200}],
            "test": [{"kind": "unique"}],
            "architectures": [[12]],
        })
        defaults = TrainConfig()
        assert (plan.iterations, plan.learning_rate, plan.batch_size) == (
            defaults.iterations, defaults.learning_rate, defaults.batch_size
        )
        assert (plan.repetitions, plan.master_seed) == (50, 0)

    def test_plan_file_round_trip(self, tmp_path):
        plan = tiny_tort_plan()
        path = write_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan


@pytest.fixture(scope="module")
def report():
    return run_plan(tiny_tort_plan())


class TestRunPlan:
    def test_cell_count_and_order(self, report):
        assert len(report.cells) == 3
        assert [c.test for c in report.cells] == ["unique", "unlawfulness", "imputability"]

    def test_mean_within_per_rep_range(self, report):
        for cell in report.cells:
            finite = [a for a in cell.accuracies if np.isfinite(a)]
            assert min(finite) <= cell.mean <= max(finite)
            assert cell.excluded == 0

    def test_single_repetition_has_zero_std(self):
        report = run_plan(tiny_tort_plan(repetitions=1))
        assert all(c.std == 0.0 for c in report.cells)

    def test_dedicated_artifacts_present(self, report):
        assert "regular-200__12__unlawfulness" in report.tables
        assert "regular-200__12__imputability" in report.tables
        table = report.tables["regular-200__12__unlawfulness"]
        assert table.condition == "c3"
        assert table.true.count == 112

    def test_welfare_plan_produces_curves(self):
        plan = ExperimentPlan(
            domain_id="simplified",
            train_specs=(spec("simplified", "type-b", 200),),
            test_specs=(spec("simplified", "age-gender"),),
            architectures=((12,),),
            repetitions=1,
            iterations=60,
            master_seed=3,
        )
        report = run_plan(plan)
        curve = report.curves["type-b-200__12__age-gender"]
        assert [g.label for g in curve.groups] == ["male", "female"]
        assert len(curve.group("female").xs) == 101

    def test_parallel_equals_serial(self):
        curve_plan = ExperimentPlan(
            domain_id="simplified",
            train_specs=(spec("simplified", "type-b", 200),),
            test_specs=(spec("simplified", "age-gender"), spec("simplified", "type-a", 200)),
            architectures=((12,),),
            repetitions=3,
            iterations=60,
            master_seed=3,
        )
        for plan in (tiny_tort_plan(repetitions=3), curve_plan):
            serial = run_plan(plan, parallelism=1)
            parallel = run_plan(plan, parallelism=2)
            assert serial.cells == parallel.cells
            assert serial.tables == parallel.tables
            assert serial.curves.keys() == parallel.curves.keys()
            for name, curve in serial.curves.items():
                assert_curves_equal(curve, parallel.curves[name])
        assert serial.curves  # the curve plan has one curve cell

    @pytest.mark.parametrize("parallelism,workers", [(1, []), (2, [2]), (8, [2])])
    def test_pool_is_sized_to_the_repetitions(self, monkeypatch, parallelism, workers):
        started = []

        class RecordingPool:  # runs the jobs in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness_module, "ProcessPoolExecutor", RecordingPool)
        plan = tiny_tort_plan(test_specs=(spec("tort", "unique"),), iterations=5)
        assert run_plan(plan, parallelism=parallelism).cells == run_plan(plan).cells
        assert started == workers

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_plan(tiny_tort_plan(), parallelism=parallelism)

    def test_each_model_is_evaluated_on_its_own_outputs(self, monkeypatch):
        trained, seen = [], []
        real_train, real_accuracy = harness_module.train, harness_module.accuracy

        def recording_train(*args):
            trained.append(real_train(*args))
            return trained[-1]

        def recording_accuracy(outputs, dataset):
            seen.append((dataset, outputs))
            return real_accuracy(outputs, dataset)

        monkeypatch.setattr(harness_module, "train", recording_train)
        monkeypatch.setattr(harness_module, "accuracy", recording_accuracy)
        run_plan(ExperimentPlan(  # a domain whose scaling is not the identity
            domain_id="simplified",
            train_specs=(spec("simplified", "type-b", 200),),
            test_specs=(spec("simplified", "age-gender"), spec("simplified", "type-a", 200)),
            architectures=((12,), (24, 6)),
            repetitions=1,
            iterations=60,
            master_seed=5,
        ))
        assert len(trained) == 2 and len(seen) == 2 * 2
        for dataset in {id(d): d for d, _ in seen}.values():
            outputs = [o for d, o in seen if d is dataset]
            for model in trained:
                want = model.outputs(dataset.values)
                assert sum(np.array_equal(o, want) for o in outputs) == 1

    def test_divergence_excluded_and_counted(self, monkeypatch):
        calls = {"n": 0}
        real_train = harness_module.train

        def flaky_train(dataset, net_cfg, train_cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingDivergedError("synthetic divergence")
            return real_train(dataset, net_cfg, train_cfg)

        # every table computed belongs to the one repetition that trained
        computed = {}
        real_table = harness_module.condition_table

        def recording_table(model, dataset, cond_id):
            table = real_table(model, dataset, cond_id)
            assert dataset.kind not in computed
            computed[dataset.kind] = table
            return table

        monkeypatch.setattr(harness_module, "train", flaky_train)
        monkeypatch.setattr(harness_module, "condition_table", recording_table)
        report = run_plan(tiny_tort_plan(repetitions=2))
        for cell in report.cells:
            assert cell.excluded == 1
            assert sum(np.isfinite(a) for a in cell.accuracies) == 1
            assert np.isfinite(cell.mean)
        assert sorted(computed) == ["imputability", "unlawfulness"]
        assert len(report.tables) == 2
        for name, table in report.tables.items():
            assert table == computed[name.rsplit("__", 1)[1]]

    def test_readings_are_the_mean_of_the_repetitions(self, monkeypatch):
        """A cell's table or curve is its first repetition's reading with the
        mean outputs and positive rates averaged over the repetitions; the
        condition, counts, labels and x grid are the first repetition's."""
        readings = {}
        for name in ("condition_table", "output_curve"):
            def recording(outputs, dataset, *args, real=getattr(harness_module, name)):
                readings.setdefault(dataset.kind, []).append(real(outputs, dataset, *args))
                return readings[dataset.kind][-1]

            monkeypatch.setattr(harness_module, name, recording)
        tables = run_plan(tiny_tort_plan(repetitions=3)).tables
        curves = run_plan(ExperimentPlan(
            domain_id="simplified",
            train_specs=(spec("simplified", "type-b", 200),),
            test_specs=(spec("simplified", "patient-distance"),),
            architectures=((12,),),
            repetitions=3,
            iterations=60,
            master_seed=3,
        )).curves
        assert len(tables) == 2 and len(curves) == 1
        for name, reading in {**tables, **curves}.items():
            reps = readings[name.rsplit("__", 1)[1]]
            assert len(reps) == 3
            if isinstance(reading, ConditionOutputTable):
                def mean_row(rows):
                    return ConditionTableRow(float(np.mean([r.mean_output for r in rows])),
                                             rows[0].count,
                                             float(np.mean([r.positive_rate for r in rows])))

                assert reading == ConditionOutputTable(
                    reps[0].condition, mean_row([t.false for t in reps]),
                    mean_row([t.true for t in reps]))
                assert reading.false.mean_output not in [t.false.mean_output for t in reps]
                continue
            assert_curves_equal(reading, RationaleCurve(
                reps[0].x_feature, reps[0].group_feature,
                tuple(CurveGroup(g.label, g.xs, np.mean([c.groups[i].means for c in reps], axis=0),
                                 g.counts) for i, g in enumerate(reps[0].groups))))


def test_mean_curve_turns_where_its_mean_crosses():
    """The turning point of a mean curve is read from its averaged means,
    not carried over from the first repetition's curve."""
    curves = [RationaleCurve("Age", "Gender", (CurveGroup(
        "female", np.array([0, 10]), np.array(means), np.ones(2, dtype=np.int64)),))
        for means in ([0.2, 0.8], [0.4, 1.0])]
    assert curves[0].group("female").first == pytest.approx(5.0)
    assert harness_module._mean_curve(curves).group("female").first == pytest.approx(10 / 3)


def test_repetition_holds_one_large_set_at_a_time():
    """A welfare repetition's traced peak stays below twice its largest
    dataset (the 40,000-case curve set) counted as int64 rows: each set is
    dropped before the next is generated, its rows are held as int16, and
    scaling and the epoch gathers make no spare full-size float copies."""
    plan = ExperimentPlan(
        domain_id="welfare",
        train_specs=(spec("welfare", "type-a", 20_000), spec("welfare", "type-b", 20_000)),
        test_specs=(spec("welfare", "type-a", 2400), spec("welfare", "age-gender")),
        architectures=((12,),),
        repetitions=1,
        iterations=5,
    )
    largest = max(8 * generate(s).values.size for s in plan.train_specs + plan.test_specs)
    tracemalloc.start()
    try:
        run_plan(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * largest


class TestEmitAndReplay:
    def test_report_files_and_replay_identical(self, tmp_path):
        report = run_plan(tiny_tort_plan())
        paths = emit_report(report, tmp_path / "out")
        summary = paths["summary"].read_bytes()
        assert (tmp_path / "out" / "accuracy_matrix.csv").exists()
        assert json.loads(summary)["condition_tables"]

        replay(paths["manifest"], tmp_path / "replayed")
        assert (tmp_path / "replayed" / "summary.json").read_bytes() == summary

    def test_curve_files_and_replay_identical(self, tmp_path):
        """A curve cell is written under ``curves/`` as its curve's TSV, and a
        replay of the manifest writes the same bytes."""
        plan = ExperimentPlan(
            domain_id="simplified",
            train_specs=(spec("simplified", "type-b", 200),),
            test_specs=(spec("simplified", "type-a", 200), spec("simplified", "age-gender")),
            architectures=((12,),),
            repetitions=2,
            iterations=60,
            master_seed=3,
        )
        report = run_plan(plan)
        paths = emit_report(report, tmp_path / "out")
        name = "type-b-200__12__age-gender"
        assert list(report.curves) == [name]
        written = paths[f"curve:{name}"]
        assert written == tmp_path / "out" / "curves" / f"{name}.tsv"
        direct = write_curve_tsv(report.curves[name], tmp_path / "direct.tsv")
        assert written.read_bytes() == direct.read_bytes()

        replay(paths["manifest"], tmp_path / "replayed")
        assert (tmp_path / "replayed" / "curves" / f"{name}.tsv").read_bytes() == (
            written.read_bytes())

    def test_accuracy_matrix_bytes(self, tmp_path):
        """Means and stds in percent to 2 places, empty where every
        repetition diverged; recorded from the hand-written CSV it replaced."""
        nan = float("nan")
        cells = (
            CellAggregate("regular-200", "unique", "12", 0.98765, 0.0125, 2, 0, (0.975, 1.0)),
            CellAggregate("regular-200", "imputability", "24-6", nan, nan, 2, 2, (nan, nan)),
            CellAggregate("regular-200", "unlawfulness", "24-10-3", 1 / 3, 0.0, 2, 1, (nan, 1 / 3)),
        )
        report = AggregateReport(plan=tiny_tort_plan(), cells=cells)
        paths = emit_report(report, tmp_path / "out")
        assert paths["accuracy_matrix"].read_bytes() == (
            b"train,test,arch,mean_pct,std_pct,repetitions,excluded\n"
            b"regular-200,unique,12,98.77,1.25,2,0\n"
            b"regular-200,imputability,24-6,,,2,2\n"
            b"regular-200,unlawfulness,24-10-3,33.33,0.00,2,1\n"
        )

    def test_accuracy_matrix_has_a_column_for_every_cell_field(self, tmp_path, report):
        """Each CellAggregate field is a column, mean and std as percentages,
        except the per-repetition accuracies; a new field must be one or the
        other."""
        paths = emit_report(report, tmp_path / "out")
        header = paths["accuracy_matrix"].read_text().splitlines()[0].split(",")
        renamed = {"mean": "mean_pct", "std": "std_pct"}
        assert header == [renamed.get(f.name, f.name) for f in dataclasses.fields(CellAggregate)
                          if f.name != "accuracies"]

    def test_condition_tables_are_a_summary_key(self, tmp_path):
        """The tables are written once, under ``summary.json``'s
        ``condition_tables``; no other report file repeats them."""
        paths = emit_report(run_plan(tiny_tort_plan(repetitions=1)), tmp_path / "out")
        tables = json.loads(paths["summary"].read_text())["condition_tables"]
        assert set(tables) == {
            "regular-200__12__unlawfulness", "regular-200__12__imputability"
        }
        assert "condition_tables" not in paths
        assert not (tmp_path / "out" / "condition_tables.json").exists()

    def test_manifest_lists_all_seeds(self, tmp_path):
        report = run_plan(tiny_tort_plan(repetitions=2))
        paths = emit_report(report, tmp_path / "out")
        manifest = json.loads(paths["manifest"].read_text())
        assert len(manifest["seeds"]) == 2
        entry = manifest["seeds"][0]
        assert entry["train_data"]["regular-200"] == derive_seed(77, "train-data", 0, 0)
        assert "created_unix" in manifest

    def test_run_uses_the_manifest_seeds(self, tmp_path, monkeypatch):
        plan = tiny_tort_plan(
            train_specs=(spec("tort", "regular", 200), spec("tort", "regular", 300)),
            test_specs=(spec("tort", "regular", 100), spec("tort", "unlawfulness")),
            architectures=((12,), (24, 6)),
            iterations=5,
        )
        generated, trained = [], []
        real_generate, real_train = harness_module.generate, harness_module.train

        def recording_generate(request):
            generated.append((request.label(), request.seed))
            return real_generate(request)

        def recording_train(dataset, net_cfg, train_cfg):
            trained.append((net_cfg.init_seed, train_cfg.shuffle_seed))
            return real_train(dataset, net_cfg, train_cfg)

        monkeypatch.setattr(harness_module, "generate", recording_generate)
        monkeypatch.setattr(harness_module, "train", recording_train)
        paths = emit_report(run_plan(plan), tmp_path / "out")
        seeds = json.loads(paths["manifest"].read_text())["seeds"]

        assert [entry["repetition"] for entry in seeds] == [0, 1]
        # the enumerated set comes from the plan's own spec, once, before any repetition
        enumerated = (plan.test_specs[1].label(), plan.test_specs[1].seed)
        assert enumerated == ("unlawfulness", 0)
        assert generated == [enumerated] + [
            pair
            for entry in seeds
            for pair in [*entry["train_data"].items(),
                         ("regular-100", entry["test_data"]["regular-100"])]
        ]
        jobs = ["regular-200__12", "regular-200__24-6", "regular-300__12", "regular-300__24-6"]
        assert trained == [
            (entry["init"][job], entry["shuffle"][job]) for entry in seeds for job in jobs
        ]
        assert all(sorted(entry["init"]) == sorted(jobs) for entry in seeds)
        assert len({seed for pair in trained for seed in pair}) == 16

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_plan_builds_its_seed_independent_sets(self, monkeypatch, parallelism):
        """Nothing is kept from one plan to the next: each run of a plan
        generates each seed-independent set once, in this process, and its
        repetitions share it."""
        generated = []
        real_generate = harness_module.generate

        def recording_generate(request):
            generated.append(request.kind)
            return real_generate(request)

        monkeypatch.setattr(harness_module, "generate", recording_generate)
        plan = tiny_tort_plan(test_specs=(spec("tort", "unique"),), iterations=5)
        reports = []
        for _ in range(2):
            generated.clear()
            reports.append(run_plan(plan, parallelism=parallelism))
            assert generated.count("unique") == 1
        assert reports[0].cells == reports[1].cells

    def test_measures_take_outputs_then_the_test_set(self, monkeypatch):
        """Each measurement is a call by name with a model's outputs array and
        then the test set's Dataset, positionally: one accuracy per (model,
        test set) and one table per model on a dedicated set, in repetition
        order.  The benchmark's tracer counts evaluated cases by this."""
        plan = tiny_tort_plan(
            train_specs=(spec("tort", "regular", 200), spec("tort", "regular", 300)),
            test_specs=(spec("tort", "regular", 100), spec("tort", "unique"),
                        spec("tort", "unlawfulness")),
            architectures=((12,), (24, 6)),
            iterations=5,
        )
        generated, calls = [], []
        real_generate = harness_module.generate

        def recording_generate(request):
            generated.append((request.label(), real_generate(request)))
            return generated[-1][1]

        def recorder(name, real):
            def recording(*args, **kwargs):
                assert not kwargs
                calls.append((name, args[0], args[1]))
                return real(*args)
            return recording

        monkeypatch.setattr(harness_module, "generate", recording_generate)
        for name in ("accuracy", "output_curve", "condition_table"):
            monkeypatch.setattr(harness_module, name,
                                recorder(name, getattr(harness_module, name)))
        run_plan(plan)

        test_sets = {label: [d for g, d in generated if g == label]
                     for label in ("regular-100", "unique", "unlawfulness")}
        assert [len(sets) for sets in test_sets.values()] == [2, 1, 1]
        want = [
            (name, test_sets[test.label()][rep if test.size else 0])
            for rep in range(plan.repetitions)
            for test in plan.test_specs
            for _model in range(4)
            for name in ("accuracy", "condition_table")
            if name == "accuracy" or test.kind == "unlawfulness"
        ]
        assert [name for name, _, _ in calls] == [name for name, _ in want]
        for (_, outputs, dataset), (_, test_set) in zip(calls, want):
            assert dataset is test_set
            assert isinstance(outputs, np.ndarray) and outputs.shape == (len(dataset),)

    def test_replay_rejects_edited_seed(self, tmp_path):
        paths = emit_report(run_plan(tiny_tort_plan(repetitions=1)), tmp_path / "out")
        manifest = json.loads(paths["manifest"].read_text())
        manifest["seeds"][0]["shuffle"]["regular-200__12"] += 1
        paths["manifest"].write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="seeds differ"):
            replay(paths["manifest"], tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_summary_has_no_timestamp(self, tmp_path):
        report = run_plan(tiny_tort_plan(repetitions=1))
        paths = emit_report(report, tmp_path / "out")
        doc = json.loads(paths["summary"].read_text())
        assert "created_unix" not in json.dumps(doc)
        assert doc["plan"]["master_seed"] == 77
        assert len(doc["cells"]) == 3

    def test_manifest_keeps_the_master_seed_in_its_plan_only(self, tmp_path):
        plan = tiny_tort_plan(repetitions=1, iterations=5)
        paths = emit_report(run_plan(plan), tmp_path / "out")
        manifest = json.loads(paths["manifest"].read_text())
        assert "master_seed" not in manifest and manifest["plan"]["master_seed"] == 77
        manifest["master_seed"] = 77  # as manifests written before it was dropped
        paths["manifest"].write_text(json.dumps(manifest))
        assert replay(paths["manifest"], tmp_path / "replayed").plan == plan


PLAN_DOC = tiny_tort_plan().to_dict()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(key_path=st.sampled_from(list(key_paths(PLAN_DOC))), value=JSON_VALUES)
@example(key_path=("learning_rate",), value=10**400)
def test_fuzzed_plan_loads_or_raises_value_error(fuzz_dir, key_path, value):
    """One JSON value of a plan, at any key path, replaced by any JSON value."""
    path = fuzz_dir / "plan.json"
    path.write_text(json.dumps(replaced(PLAN_DOC, key_path, value)))
    try:
        load_plan(path)
    except ValueError:
        pass


class _Replayed(Exception):
    """Raised in place of running a plan that a replay accepted."""


@pytest.fixture(scope="module")
def saved_manifest(report, fuzz_dir):
    """The path and document of the manifest of ``report``."""
    path = emit_report(report, fuzz_dir / "report")["manifest"]
    return path, json.loads(path.read_text())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_replays_or_raises_value_error(saved_manifest, data):
    """One JSON value of a manifest, at any key path, replaced by any JSON
    value.  A fuzzed ``iterations`` keeps the seeds, so the run is stubbed."""
    path, doc = saved_manifest
    key_path = data.draw(st.sampled_from(list(key_paths(doc))))
    edited = path.with_name("edited.json")
    edited.write_text(json.dumps(replaced(doc, key_path, data.draw(JSON_VALUES))))
    with mock.patch.object(harness_module, "run_plan", side_effect=_Replayed):
        try:
            replay(edited, path.parent / "replayed")
        except (ValueError, _Replayed):
            pass
    assert not (path.parent / "replayed").exists()
