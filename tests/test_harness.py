import json

import numpy as np
import pytest

from rationale_lab import (
    ExperimentPlan,
    GeneratorRequest,
    TrainConfig,
    TrainingDivergedError,
    derive_seed,
    emit_report,
    load_plan,
    replay,
    run_plan,
    save_plan,
)
from rationale_lab import harness as harness_module


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
            ({"batch_size": 0}, "batch_size must be >= 1"),
        ],
        ids=["architecture", "iterations", "learning_rate", "batch_size"],
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
        path = save_plan(plan, tmp_path / "plan.json")
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
        assert table.condition_id == "c3"
        assert table.rows[True].count == 112

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

    def test_each_model_is_evaluated_on_its_own_outputs(self, monkeypatch):
        trained, seen = [], []
        real_train, real_accuracy = harness_module.train, harness_module.accuracy

        def recording_train(*args):
            trained.append(real_train(*args))
            return trained[-1]

        def recording_accuracy(model, dataset):
            seen.append((dataset, model.outputs(dataset.values)))
            return real_accuracy(model, dataset)

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


class TestEmitAndReplay:
    def test_report_files_and_replay_identical(self, tmp_path):
        report = run_plan(tiny_tort_plan())
        paths = emit_report(report, tmp_path / "out")
        summary = paths["summary"].read_bytes()
        assert (tmp_path / "out" / "accuracy_matrix.csv").exists()
        assert (tmp_path / "out" / "condition_tables.json").exists()

        replay(paths["manifest"], tmp_path / "replayed")
        assert (tmp_path / "replayed" / "summary.json").read_bytes() == summary

    def test_condition_tables_file_matches_summary(self, tmp_path):
        paths = emit_report(run_plan(tiny_tort_plan(repetitions=1)), tmp_path / "out")
        tables = json.loads(paths["condition_tables"].read_text())
        assert set(tables) == {
            "regular-200__12__unlawfulness", "regular-200__12__imputability"
        }
        assert tables == json.loads(paths["summary"].read_text())["condition_tables"]

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
            if request.seed is not None:
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
        assert generated == [
            pair
            for entry in seeds
            for pair in [*entry["train_data"].items(), ("regular-100",
                                                        entry["test_data"]["regular-100"])]
        ]
        jobs = ["regular-200__12", "regular-200__24-6", "regular-300__12", "regular-300__24-6"]
        assert trained == [
            (entry["init"][job], entry["shuffle"][job]) for entry in seeds for job in jobs
        ]
        assert all(sorted(entry["init"]) == sorted(jobs) for entry in seeds)
        assert len({seed for pair in trained for seed in pair}) == 16

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
