import json
from pathlib import Path

import pytest

from rationale_lab import ExperimentPlan, GeneratorRequest, TrainConfig, save_plan
from rationale_lab import harness as harness_module
from rationale_lab.cli import _build_parser, main

from conftest import mismatched_model_doc

PLANS_DIR = Path(__file__).resolve().parent.parent / "plans"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_tort_unique(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        code, stdout, _ = run(
            ["gen", "--domain", "tort", "--kind", "unique", "--out", str(out)], capsys
        )
        assert code == 0
        assert "seed=" in stdout
        assert len(out.read_text().splitlines()) == 1025  # header + 1024 rows

    def test_welfare_type_b_is_balanced(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, _ = run(
            ["gen", "--domain", "welfare", "--kind", "type-b", "--size", "50000",
             "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        labels = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert labels.count("1") == 25_000

    def test_size_forbidden_for_enumerated_kind(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        code, _, stderr = run(
            ["gen", "--domain", "tort", "--kind", "unique", "--size", "10",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "enumeration" in stderr
        assert not out.exists()  # usage errors never leave partial files

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["gen", "--domain", "tort", "--frobnicate", "1"], capsys)
        assert code == 2

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["gen", "--domain", "tort", "--kind", "regular", "--size", "300",
                 "--seed", "9", "--out", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_unlawfulness_passes(self, tmp_path, capsys):
        out = tmp_path / "unl.csv"
        run(["gen", "--domain", "tort", "--kind", "unlawfulness", "--out", str(out)],
            capsys)
        code, stdout, _ = run(["verify", "--in", str(out), "--domain", "tort"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["passed"] is True
        assert doc["positive_fraction"] == pytest.approx(0.6667, abs=1e-4)

    def test_flipped_label_fails(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(out)], capsys)
        lines = out.read_text().splitlines()
        flipped = lines[5][:-1] + ("1" if lines[5].endswith("0") else "0")
        out.write_text("\n".join(lines[:5] + [flipped] + lines[6:]) + "\n")
        code, stdout, _ = run(["verify", "--in", str(out), "--domain", "tort"], capsys)
        assert code == 1
        doc = json.loads(stdout)
        assert doc["label_mismatches"] == 1
        assert doc["mismatch_rows"] == [4]

    def test_wrong_domain_exits_3(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(out)], capsys)
        code, _, stderr = run(["verify", "--in", str(out), "--domain", "welfare"], capsys)
        assert code == 3
        assert "missing column" in stderr

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cau,ico\n1,banana\n")
        code, _, _ = run(["verify", "--in", str(bad), "--domain", "tort"], capsys)
        assert code == 3


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        code, stdout, _ = run(
            ["train", "--in", str(data), "--domain", "tort", "--hidden", "12",
             "--iterations", "4000", "--seed", "5", "--out", str(model)],
            capsys,
        )
        assert code == 0
        assert "init_seed=" in stdout and "shuffle_seed=" in stdout

        table_args = [
            "eval", "--model", str(model), "--in", str(data),
            "--condition-table", "c2",
        ]
        code, stdout, _ = run(table_args, capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["cases"] == 1024
        assert doc["accuracy"] > 0.9
        assert set(doc["condition_table"]) == {"condition", "false", "true"}

    def test_eval_curve_output(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "simplified", "--kind", "type-b", "--size", "400",
             "--seed", "3", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "simplified", "--hidden", "12",
             "--iterations", "200", "--seed", "1", "--out", str(model)], capsys)
        test_data = tmp_path / "ag.csv"
        run(["gen", "--domain", "simplified", "--kind", "age-gender",
             "--out", str(test_data)], capsys)
        curve = tmp_path / "curve.tsv"
        code, stdout, _ = run(
            ["eval", "--model", str(model), "--in", str(test_data),
             "--curve", "Age:Gender", "--curve-out", str(curve)],
            capsys,
        )
        assert code == 0
        assert curve.read_text().startswith("group\tx\tmean_output\tn")

    @pytest.mark.parametrize("edit", ["unchained", "other-architecture"])
    def test_eval_of_mismatched_model_exits_3(self, tmp_path, capsys, edit):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "tort", "--hidden", "24,6",
             "--iterations", "5", "--seed", "1", "--out", str(model)], capsys)
        model.write_text(json.dumps(mismatched_model_doc(json.loads(model.read_text()), edit)))
        code, _, stderr = run(["eval", "--model", str(model), "--in", str(data)], capsys)
        assert code == 3 and "layer shapes" in stderr

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_eval_of_model_with_other_config_keys_exits_3(self, tmp_path, capsys, edit):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "tort", "--hidden", "12",
             "--iterations", "5", "--seed", "1", "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        if edit == "missing":
            del doc["training"]["epsilon"]
        else:
            doc["network"]["dropout"] = 0.5
        model.write_text(json.dumps(doc))
        code, _, stderr = run(["eval", "--model", str(model), "--in", str(data)], capsys)
        assert code == 3 and "differ from its fields" in stderr

    def test_train_defaults_are_the_train_config_defaults(self):
        args = _build_parser().parse_args(
            ["train", "--in", "d.csv", "--domain", "tort", "--out", "m.json"]
        )
        defaults = TrainConfig()
        assert (args.iterations, args.learning_rate, args.batch_size) == (
            defaults.iterations, defaults.learning_rate, defaults.batch_size
        )

    def test_bad_hidden_spec_exits_2(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        code, _, stderr = run(
            ["train", "--in", str(data), "--domain", "tort", "--hidden", "twelve",
             "--iterations", "10", "--seed", "1", "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2 and "hidden" in stderr


class TestExperiment:
    @pytest.fixture()
    def tiny_plan(self, tmp_path):
        plan = ExperimentPlan(
            domain_id="tort",
            train_specs=(GeneratorRequest("tort", "regular", 200),),
            test_specs=(GeneratorRequest("tort", "unique"),),
            architectures=((12,),),
            repetitions=2,
            iterations=80,
            master_seed=55,
        )
        return save_plan(plan, tmp_path / "plan.json")

    def test_experiment_and_report_replay(self, tmp_path, tiny_plan, capsys):
        out1 = tmp_path / "out1"
        code, stdout, _ = run(
            ["experiment", "--plan", str(tiny_plan), "--out-dir", str(out1)], capsys
        )
        assert code == 0
        assert "master_seed=55" in stdout
        summary = (out1 / "summary.json").read_bytes()

        out2 = tmp_path / "out2"
        code, _, _ = run(
            ["report", "--manifest", str(out1 / "manifest.json"),
             "--out-dir", str(out2)],
            capsys,
        )
        assert code == 0
        assert (out2 / "summary.json").read_bytes() == summary

    def test_two_runs_identical_summary(self, tmp_path, tiny_plan, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["experiment", "--plan", str(tiny_plan), "--out-dir", str(out)], capsys)
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_plan_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["experiment", "--plan", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3

    def test_plan_with_duplicate_entry_exits_3(self, tmp_path, tiny_plan, capsys):
        doc = json.loads(tiny_plan.read_text())
        doc["train"].append(doc["train"][0])
        tiny_plan.write_text(json.dumps(doc))
        code, _, err = run(
            ["experiment", "--plan", str(tiny_plan), "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3
        assert "more than once" in err
        assert not (tmp_path / "out").exists()

    def test_plan_with_nonstandard_architecture_exits_3_before_running(
        self, tmp_path, tiny_plan, capsys, monkeypatch
    ):
        doc = json.loads(tiny_plan.read_text())
        doc["architectures"] = [[12], [7]]
        tiny_plan.write_text(json.dumps(doc))
        calls = []
        for name in ("generate", "train"):
            monkeypatch.setattr(harness_module, name, lambda *args, n=name: calls.append(n))
        code, stdout, err = run(
            ["experiment", "--plan", str(tiny_plan), "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3
        assert "(7,) are not one of the standard shapes" in err
        assert calls == [] and stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["generator_version", "package_version"])
    def test_report_of_manifest_from_other_version_exits_3(self, tmp_path, tiny_plan,
                                                           capsys, key):
        out1 = tmp_path / "out1"
        run(["experiment", "--plan", str(tiny_plan), "--out-dir", str(out1)], capsys)
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest[key] = "0.0.0-other"
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        out2 = tmp_path / "out2"
        code, _, err = run(
            ["report", "--manifest", str(out1 / "manifest.json"), "--out-dir", str(out2)],
            capsys,
        )
        assert code == 3
        assert key in err
        assert not out2.exists()


class TestBundledPlans:
    @pytest.mark.parametrize(
        "name,cells",
        [
            ("welfare", 48), ("welfare-desk", 48),
            ("simplified", 24), ("simplified-desk", 24),
            ("tort", 24), ("tort-desk", 24),
        ],
    )
    def test_bundled_plans_parse_with_published_shapes(self, name, cells):
        from rationale_lab import load_plan

        plan = load_plan(PLANS_DIR / f"{name}.json")
        assert plan.cell_count == cells
        assert plan.architectures == ((12,), (24, 6), (24, 10, 3))
        if name.endswith("-desk"):
            assert plan.repetitions == 10 and plan.iterations == 20_000
        else:
            assert plan.repetitions == 50 and plan.iterations == 50_000
