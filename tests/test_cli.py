import base64
import errno
import json
import os
import tempfile
from pathlib import Path

import pytest

from rationale_lab import (
    ExperimentPlan,
    GeneratorRequest,
    TrainConfig,
    accuracy,
    build_domain,
    condition_table,
    load_model,
    output_curve,
    read_dataset,
    write_curve_tsv,
)
from rationale_lab import cli as cli_module
from rationale_lab import harness as harness_module
from rationale_lab import network
from rationale_lab.cli import _build_parser, main
from rationale_lab.dataset_io import meta_path
from rationale_lab.network import schema_scaling

from conftest import write_plan

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

    @pytest.mark.parametrize("domain,kind,size", [("tort", "regular", ["--size", "200"]),
                                                  ("welfare", "age-gender", []),
                                                  ("tort", "unique", [])])
    def test_negative_seed_exits_2(self, tmp_path, capsys, domain, kind, size):
        out = tmp_path / "d.csv"
        code, stdout, stderr = run(["gen", "--domain", domain, "--kind", kind, *size,
                                    "--seed", "-1", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert "seed must be >= 0, got -1" in stderr
        assert not out.exists()

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

    def test_eval_runs_the_network_once(self, tmp_path, monkeypatch, capsys):
        """The accuracy, ``--curve`` and ``--condition-table`` read one forward
        pass, and print what each reads from the model itself."""
        data, test_data = tmp_path / "train.csv", tmp_path / "ag.csv"
        run(["gen", "--domain", "simplified", "--kind", "type-b", "--size", "400",
             "--seed", "3", "--out", str(data)], capsys)
        run(["gen", "--domain", "simplified", "--kind", "age-gender", "--out", str(test_data)],
            capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "simplified", "--hidden", "12",
             "--iterations", "50", "--seed", "1", "--out", str(model)], capsys)
        calls, forward = [], network._forward_scaled
        monkeypatch.setattr(network, "_forward_scaled",
                            lambda *args: calls.append(1) or forward(*args))
        curve = tmp_path / "curve.tsv"
        code, stdout, _ = run(["eval", "--model", str(model), "--in", str(test_data),
                               "--curve", "Age:Gender", "--curve-out", str(curve),
                               "--condition-table", "C1"], capsys)
        assert code == 0 and len(calls) == 1
        trained, dataset = load_model(model), read_dataset(test_data, build_domain("simplified"))
        direct = write_curve_tsv(output_curve(trained, dataset, "Age", "Gender"),
                                 tmp_path / "direct.tsv")
        assert curve.read_bytes() == direct.read_bytes()
        assert json.loads(stdout) == {
            "accuracy": accuracy(trained, dataset), "cases": len(dataset), "curve": str(curve),
            "condition_table": json.loads(json.dumps(
                condition_table(trained, dataset, "C1").to_dict())),
        }

    def test_eval_of_header_only_dataset_exits_3(self, tmp_path, capsys):
        data, empty = tmp_path / "u.csv", tmp_path / "empty.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "tort", "--iterations", "1",
             "--out", str(model)], capsys)
        empty.write_text(data.read_text().splitlines(keepends=True)[0])
        code, stdout, stderr = run(["eval", "--model", str(model), "--in", str(empty)], capsys)
        assert code == 3 and stdout == ""
        assert "no cases" in stderr

    @pytest.mark.parametrize("flag", [["--curve", "Age:Gender"], ["--curve-out", "c.tsv"]],
                             ids=["curve", "curve-out"])
    def test_eval_curve_flag_alone_exits_2(self, tmp_path, capsys, flag):
        # neither file exists: the flag is rejected before any file is read
        code, _, stderr = run(["eval", "--model", str(tmp_path / "m.json"),
                               "--in", str(tmp_path / "d.csv"), *flag], capsys)
        assert code == 2 and "given together" in stderr

    @pytest.mark.parametrize("curve", ["Age", "Age:Gender:Type"])
    def test_eval_curve_without_one_colon_exits_2(self, tmp_path, monkeypatch, capsys, curve):
        # refused before the model or the dataset is read; no curve file is written
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(["eval", "--model", "m.json", "--in", "d.csv",
                                    "--curve", curve, "--curve-out", "c.tsv"], capsys)
        assert code == 2 and stdout == ""
        assert stderr == "error: --curve takes X_FEATURE:GROUP_FEATURE\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_eval_of_model_with_other_config_keys_exits_3(self, tmp_path, capsys, edit):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "tort", "--hidden", "12",
             "--iterations", "5", "--seed", "1", "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        if edit == "missing":
            del doc["training"]["shuffle_seed"]
        else:
            doc["network"]["dropout"] = 0.5
        model.write_text(json.dumps(doc))
        code, _, stderr = run(["eval", "--model", str(model), "--in", str(data)], capsys)
        assert code == 3 and "differ from its fields" in stderr

    @pytest.mark.parametrize("flags,message", [
        (["--condition-table", "c9"], "tort: no condition 'c9'"),
        (["--condition-table", ""], "tort: no condition ''"),
        (["--curve", "Nope:cau", "--curve-out", "c.tsv"], "tort: no feature named 'Nope'"),
    ], ids=["condition", "empty-condition", "feature"])
    def test_eval_of_unknown_name_exits_3(self, tmp_path, monkeypatch, capsys, flags,
                                          message):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        run(["train", "--in", str(data), "--domain", "tort", "--hidden", "12",
             "--iterations", "5", "--seed", "1", "--out", str(model)], capsys)
        code, _, stderr = run(["eval", "--model", str(model), "--in", str(data), *flags],
                              capsys)
        assert code == 3 and message in stderr
        assert not (tmp_path / "c.tsv").exists()

    def test_train_beyond_memory_exits_3_without_a_traceback(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        model = tmp_path / "model.json"
        code, _, stderr = run(
            ["train", "--in", str(data), "--domain", "tort",
             "--iterations", str(10**15), "--out", str(model)],
            capsys,
        )
        assert code == 3 and stderr.startswith("error: ")
        assert "Traceback" not in stderr and not model.exists()

    def test_train_defaults_are_the_train_config_defaults(self):
        args = _build_parser().parse_args(
            ["train", "--in", "d.csv", "--domain", "tort", "--out", "m.json"]
        )
        defaults = TrainConfig()
        assert (args.iterations, args.learning_rate, args.batch_size) == (
            defaults.iterations, defaults.learning_rate, defaults.batch_size
        )

    def test_train_help_lists_the_standard_hidden_shapes(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["train", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "comma-separated hidden widths: 12 | 24,6 | 24,10,3" in help_text

    def test_train_on_out_of_range_cell_exits_3(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        lines = data.read_text().splitlines()
        lines[1] = "7" + lines[1][1:]  # cau is boolean
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        code, _, stderr = run(
            ["train", "--in", str(data), "--domain", "tort", "--iterations", "10",
             "--out", str(model)],
            capsys,
        )
        assert code == 3 and "cau: value 7 at row 0" in stderr
        assert not model.exists()

    def test_bad_hidden_spec_exits_2(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        code, _, stderr = run(
            ["train", "--in", str(data), "--domain", "tort", "--hidden", "twelve",
             "--iterations", "10", "--seed", "1", "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2 and "hidden" in stderr

    @pytest.mark.parametrize("flags,message", [
        (["--hidden", "7"], "(7,) are not one of the standard shapes"),
        (["--hidden", "12,0"], "hidden layer widths must be >= 1"),
        (["--learning-rate", "0"], "learning_rate must be positive and finite"),
        (["--batch-size", "0"], "batch_size must be >= 1"),
    ], ids=["nonstandard-hidden", "zero-width", "zero-learning-rate", "zero-batch"])
    def test_train_config_the_network_refuses_exits_2(self, tmp_path, capsys, flags, message):
        data, model = tmp_path / "train.csv", tmp_path / "m.json"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        code, stdout, stderr = run(["train", "--in", str(data), "--domain", "tort",
                                    "--iterations", "10", *flags, "--out", str(model)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and message in stderr
        assert not model.exists()

    @pytest.mark.parametrize("out,message", [
        ("missing/m.json", "not a file path in an existing directory"),
        ("a-directory", "not a file path in an existing directory"),
        ("read-only/m.json", "is not a writable directory"),
    ], ids=["missing-directory", "existing-directory", "read-only-directory"])
    def test_train_to_an_unwritable_out_exits_3_before_training(self, tmp_path, capsys,
                                                               monkeypatch, out, message):
        data = tmp_path / "train.csv"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "read-only").mkdir()
        real_probe = tempfile.TemporaryFile  # the probe fails as on a read-only mount

        def probe(*args, dir, **kwargs):
            if Path(dir) == tmp_path / "read-only":
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(dir))
            return real_probe(*args, dir=dir, **kwargs)

        def refuse_to_train(*args):
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr(tempfile, "TemporaryFile", probe)
        monkeypatch.setattr(cli_module, "train", refuse_to_train)
        code, stdout, stderr = run(["train", "--in", str(data), "--domain", "tort",
                                    "--iterations", "20000", "--out", str(tmp_path / out)],
                                   capsys)
        assert code == 3 and stdout == ""
        assert stderr.startswith("error: --out ") and message in stderr
        assert list((tmp_path / "a-directory").iterdir()) == []
        assert list((tmp_path / "read-only").iterdir()) == []
        assert not (tmp_path / "missing").exists()

    def test_train_on_a_header_only_dataset_exits_3(self, tmp_path, capsys):
        data, model = tmp_path / "train.csv", tmp_path / "m.json"
        run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
        data.write_text(data.read_text().splitlines()[0] + "\n")
        code, _, stderr = run(["train", "--in", str(data), "--domain", "tort",
                               "--iterations", "10", "--out", str(model)], capsys)
        assert code == 3 and stderr.startswith("error: ")
        assert "training dataset is empty" in stderr and not model.exists()


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
        return write_plan(plan, tmp_path / "plan.json")

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
        # both --out-dir checks probed tmp_path, their nearest existing directory, and left
        # nothing there
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out1", "out2", "plan.json"]

    def test_two_runs_identical_summary(self, tmp_path, tiny_plan, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["experiment", "--plan", str(tiny_plan), "--out-dir", str(out)], capsys)
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_experiment_writes_the_serial_summary(self, tmp_path, tiny_plan, capsys):
        summaries = []
        for parallelism in ("1", "2"):
            out = tmp_path / f"out-{parallelism}"
            code, _, _ = run(["experiment", "--plan", str(tiny_plan), "--out-dir", str(out),
                              "--parallelism", parallelism], capsys)
            assert code == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_missing_plan_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["experiment", "--plan", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3

    def test_plan_beyond_memory_exits_3_without_a_traceback(self, tmp_path, tiny_plan,
                                                               capsys):
        doc = json.loads(tiny_plan.read_text())
        doc["iterations"] = 10**15
        tiny_plan.write_text(json.dumps(doc))
        code, _, err = run(
            ["experiment", "--plan", str(tiny_plan), "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3 and err.startswith("error: ")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["experiment", "report"])
    @pytest.mark.parametrize("parallelism", ["0", "-1"])
    def test_parallelism_below_one_exits_2(self, tmp_path, tiny_plan, capsys, command,
                                           parallelism):
        source = ["--plan", str(tiny_plan)] if command == "experiment" else [
            "--manifest", str(tmp_path / "manifest.json")]
        out = tmp_path / "out"
        code, stdout, err = run(
            [command, *source, "--out-dir", str(out), "--parallelism", parallelism], capsys
        )
        assert code == 2 and "--parallelism" in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "report"])
    @pytest.mark.parametrize("out", ["taken", "taken/run", "taken/a/b", "read-only/run"])
    def test_unwritable_out_dir_exits_3_before_training(self, tmp_path, tiny_plan, capsys,
                                                       monkeypatch, command, out):
        """An out-dir that is a file, or lies under a file or a directory
        that cannot be written, is refused before any model is trained,
        naming the path, and nothing is created."""
        manifest = tmp_path / "run" / "manifest.json"
        if command == "report":
            run(["experiment", "--plan", str(tiny_plan), "--out-dir", str(manifest.parent)],
                capsys)
        (tmp_path / "taken").write_text("a file\n")
        (tmp_path / "read-only").mkdir()
        real_probe = tempfile.TemporaryFile  # the probe fails as on a read-only mount

        def probe(*args, dir, **kwargs):
            if Path(dir) == tmp_path / "read-only":
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(dir))
            return real_probe(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", probe)
        trained = []
        monkeypatch.setattr(harness_module, "train", lambda *args: trained.append(args))
        source = ["--plan", str(tiny_plan)] if command == "experiment" else [
            "--manifest", str(manifest)]
        code, _, err = run([command, *source, "--out-dir", str(tmp_path / out)], capsys)
        nearest = tmp_path / out.split("/")[0]
        assert code == 3 and trained == []
        assert err == f"error: --out-dir {tmp_path / out}: {nearest} is not a writable directory\n"
        assert (tmp_path / "taken").read_text() == "a file\n"
        assert list((tmp_path / "read-only").iterdir()) == []

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


PLAN = {"domain": "tort", "train": [{"kind": "regular", "size": 200}],
        "test": [{"kind": "unique"}], "architectures": [[12]], "repetitions": 1,
        "iterations": 10}


def _edit_params(edit):
    """An edit of a trained model that replaces the bytes its ``params``
    encodes by ``edit`` of them."""
    def apply(model):
        raw = base64.b64decode(model["params"], validate=True)
        return {**model, "params": base64.b64encode(edit(raw)).decode()}
    return apply


@pytest.mark.parametrize("command,document,named", [
    ("eval", [], "a rationale-lab-model file must be a JSON object"),
    ("eval", {"params": 5}, "'params'"),
    ("eval", {"params": "A"}, "'params'"),
    ("eval", lambda model: {**model, "params": model["params"][:8] + "#" + model["params"][8:]},
     "'params'"),
    ("eval", _edit_params(lambda raw: raw[:-1]), "'params'"),
    ("eval", _edit_params(lambda raw: raw[:-8]), "'params'"),
    # the zero buffer of a tort (24, 6) network in a (12,) model
    ("eval", _edit_params(lambda raw: bytes(8 * (11 * 24 + 25 * 6 + 7 * 1))), "'params'"),
    ("eval", {"schema_id": 5}, "'schema_id'"),
    ("eval", lambda model: {**model, "network": {**model["network"], "input_width": None}},
     "'input_width'"),
    ("eval", lambda model: {**model, "training": {**model["training"],
                                                  "learning_rate": 10**400}},
     "TrainConfig value is out of range"),
    ("experiment", [], "a plan must be a JSON object"),
    ("experiment", dict(PLAN, train=[{"kind": "regular", "size": "500"}]), "'train'"),
    ("experiment", dict(PLAN, architectures=[12]), "'architectures'"),
    ("experiment", dict(PLAN, repetitions=2.7), "'repetitions'"),
    ("experiment", dict(PLAN, repetitions=True), "'repetitions'"),
    ("experiment", dict(PLAN, learning_rate=True), "'learning_rate'"),
    ("experiment", dict(PLAN, learning_rate=10**400), "'learning_rate'"),
    ("experiment", dict(PLAN, repetitons=3), "'repetitons'"),
    ("experiment", dict(PLAN, test=[{"kind": "unique", "sise": 5}]), "'test'"),
    ("experiment", dict(PLAN, architectures=[[12], [24, True]]), "'architectures'"),
    ("experiment", json.dumps(PLAN)[:-1] + ', "master_seed": 5, "master_seed": 6}',
     "'master_seed'"),
    ("experiment", {key: value for key, value in PLAN.items() if key != "architectures"},
     "plan key 'architectures' is missing"),
    ("experiment", dict(PLAN, repetitions=0), "repetitions must be >= 1"),
    ("report", [], "a manifest must be a JSON object"),
    ("report", {"plan": [PLAN]}, "a plan must be a JSON object, got list"),
], ids=["model-list", "model-params-int", "model-params-not-base64", "model-params-junk",
        "model-params-byte-short", "model-params-float-short",
        "model-params-other-architecture", "model-schema-id-int",
        "model-input-width-null", "model-learning-rate-beyond-float",
        "plan-list", "plan-size-string", "plan-flat-architectures", "plan-repetitions-float",
        "plan-repetitions-bool", "plan-learning-rate-bool", "plan-learning-rate-beyond-float",
        "plan-misspelt-key", "plan-spec-misspelt-key", "plan-architecture-bool",
        "plan-repeated-key", "plan-no-architectures", "plan-zero-repetitions",
        "manifest-list", "manifest-plan-list"])
def test_malformed_json_exits_3(tmp_path, capsys, command, document, named):
    path = tmp_path / "doc.json"
    data = tmp_path / "u.csv"
    run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
    if command == "eval" and not isinstance(document, list):  # a trained model edited
        run(["train", "--in", str(data), "--domain", "tort", "--iterations", "1",
             "--out", str(path)], capsys)
        model = json.loads(path.read_text())
        document = document(model) if callable(document) else {**model, **document}
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    source = {"eval": ["--model", str(path), "--in", str(data)],
              "experiment": ["--plan", str(path), "--out-dir", str(tmp_path / "out")],
              "report": ["--manifest", str(path), "--out-dir", str(tmp_path / "out")]}
    code, _, err = run([command, *source[command]], capsys)
    assert code == 3 and named in err and str(path) in err
    assert not (tmp_path / "out").exists()


def _layer_sizes(model):
    """The widths of a saved model's layers, input first."""
    net = model["network"]
    return [net["input_width"], *net["hidden_layers"], 1]


def _format_3(model):
    """A format-4 model document as format 3 wrote it: a ``layers`` list, each
    layer's weights and bias in base64, in place of the one ``params`` buffer."""
    sizes = _layer_sizes(model)
    raw, pos, layers = base64.b64decode(model["params"]), 0, []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        cut, end = pos + 8 * fan_in * fan_out, pos + 8 * (fan_in + 1) * fan_out
        layers.append({"weights": base64.b64encode(raw[pos:cut]).decode(),
                       "bias": base64.b64encode(raw[cut:end]).decode()})
        pos = end
    assert pos == len(raw)
    doc = {key: value for key, value in model.items() if key != "params"}
    return {**doc, "format_version": 3, "layers": layers}


def _format_2(model):
    """A format-4 model document as format 2 wrote it: format 3's, with Adam's
    constants in its ``training`` section."""
    doc = _format_3(model)
    return {**doc, "format_version": 2,
            "training": {**doc["training"], "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}}


def _format_1(model):
    """A format-4 model document as format 1 wrote it: format 2's, with a float
    encoding, the schema's feature names and scaling, and each layer's shape."""
    def pack(a):
        return base64.b64encode(a.astype("<f8").tobytes()).decode()

    scaling = schema_scaling(model["schema_id"])
    sizes = _layer_sizes(model)
    doc = _format_2(model)
    return {**doc, "format_version": 1,
            "float_encoding": "base64 little-endian float64",
            "feature_names": list(build_domain(model["schema_id"]).feature_names),
            "scaling": {"offsets": pack(scaling.offsets), "scales": pack(scaling.scales)},
            "layers": [{**layer, "shape": [fan_in, fan_out]}
                       for layer, fan_in, fan_out in zip(doc["layers"], sizes, sizes[1:])]}


@pytest.mark.parametrize("edit,named", [
    (lambda model: {**model, "network": {**model["network"], "input_width": 4}},
     "network input_width 4 differs from the 10 features of schema 'tort'"),
    (lambda model: {**model, "schema_id": "maritime"}, "unknown domain 'maritime'"),
    (lambda model: {**model, "scaling": _format_1(model)["scaling"]},
     "unknown model key(s) ['scaling']"),
    (_format_1, "unsupported format version 1"),
    (_format_2, "unsupported format version 2"),
    (_format_3, "unsupported format version 3"),
    (lambda model: {**model, "format_version": 4.0}, "unsupported format version 4.0"),
], ids=["input-width", "unknown-schema", "stray-scaling", "format-1", "format-2", "format-3",
        "format-4.0"])
def test_eval_of_model_outside_its_format_exits_3_naming_the_file(tmp_path, capsys, edit,
                                                                   named):
    """A model file holds only what its schema and network section do not fix,
    and that must agree with them."""
    data, path = tmp_path / "u.csv", tmp_path / "model.json"
    run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
    run(["train", "--in", str(data), "--domain", "tort", "--iterations", "1",
         "--out", str(path)], capsys)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, stdout, err = run(["eval", "--model", str(path), "--in", str(data)], capsys)
    assert code == 3 and stdout == ""
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize("source", ["plan", "manifest", "model", "sidecar"])
def test_truncated_json_exits_3_naming_the_file(tmp_path, capsys, source):
    data, plan, model = tmp_path / "u.csv", tmp_path / "plan.json", tmp_path / "model.json"
    manifest = tmp_path / "run" / "manifest.json"
    run(["gen", "--domain", "tort", "--kind", "unique", "--out", str(data)], capsys)
    plan.write_text(json.dumps(PLAN))
    if source == "manifest":
        run(["experiment", "--plan", str(plan), "--out-dir", str(manifest.parent)], capsys)
    if source == "model":
        run(["train", "--in", str(data), "--domain", "tort", "--iterations", "1",
             "--out", str(model)], capsys)
    path, command = {
        "plan": (plan, ["experiment", "--plan", str(plan), "--out-dir", str(tmp_path / "out")]),
        "manifest": (manifest, ["report", "--manifest", str(manifest),
                                "--out-dir", str(tmp_path / "out")]),
        "model": (model, ["eval", "--model", str(model), "--in", str(data)]),
        "sidecar": (meta_path(data), ["verify", "--in", str(data), "--domain", "tort"]),
    }[source]
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    code, _, err = run(command, capsys)
    assert code == 3 and err.startswith(f"error: {path}: not valid JSON: ")
    assert not (tmp_path / "out").exists()


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
