"""Exact bytes of the records a run leaves: the manifest (apart from its
wall-clock ``created_unix``), the keys of a ``summary.json`` cell, and the
``verify`` report.  Every value pinned here is the same on every platform:
seeds come from blake2b, and the audit from exact counts."""

import json
import re

from rationale_lab import ExperimentPlan, GeneratorRequest, emit_report, run_plan
from rationale_lab.cli import main

MANIFEST = """\
{
  "generator_version": "1",
  "package_version": "0.1.0",
  "plan": {
    "architectures": [
      [
        12
      ],
      [
        24,
        6
      ]
    ],
    "batch_size": 50,
    "domain": "tort",
    "iterations": 5,
    "learning_rate": 0.001,
    "master_seed": 77,
    "repetitions": 2,
    "test": [
      {
        "kind": "unique"
      },
      {
        "kind": "imputability"
      }
    ],
    "train": [
      {
        "kind": "regular",
        "size": 200
      },
      {
        "kind": "regular",
        "size": 300
      }
    ]
  },
  "seeds": [
    {
      "init": {
        "regular-200__12": 1898221582224376170,
        "regular-200__24-6": 14406997676613598249,
        "regular-300__12": 3965504891286637617,
        "regular-300__24-6": 9213973556458526637
      },
      "repetition": 0,
      "shuffle": {
        "regular-200__12": 15028997134868292482,
        "regular-200__24-6": 9759426190898015883,
        "regular-300__12": 7806274682144040050,
        "regular-300__24-6": 7538779279680408693
      },
      "test_data": {
        "imputability": 9373820397553114403,
        "unique": 3759836469820578825
      },
      "train_data": {
        "regular-200": 748826284178073191,
        "regular-300": 2943406521695998906
      }
    },
    {
      "init": {
        "regular-200__12": 13615063096446855027,
        "regular-200__24-6": 6972001249599132317,
        "regular-300__12": 54343650825115313,
        "regular-300__24-6": 13875718288748051446
      },
      "repetition": 1,
      "shuffle": {
        "regular-200__12": 13810078427190508936,
        "regular-200__24-6": 7486761217642342486,
        "regular-300__12": 13498791645686769051,
        "regular-300__24-6": 16341057311220739361
      },
      "test_data": {
        "imputability": 10287411232020827624,
        "unique": 10102928804789810023
      },
      "train_data": {
        "regular-200": 2412885494849761940,
        "regular-300": 7769812505942945607
      }
    }
  ]
}
"""

VERIFY_IMPUTABILITY = """\
{
  "dataset_kind": "imputability",
  "duplicate_count": 0,
  "failed_condition_histogram": {
    "1": 16
  },
  "label_mismatches": 0,
  "mismatch_rows": [],
  "passed": true,
  "per_condition_failure_counts": {
    "c1": 0,
    "c2": 16,
    "c3": 0,
    "c4": 0,
    "c5": 0
  },
  "positive_fraction": 0.875,
  "size_ok": true
}
"""


def _tort_plan():
    def spec(kind, size=None):
        return GeneratorRequest("tort", kind, size)

    return ExperimentPlan(
        domain_id="tort",
        train_specs=(spec("regular", 200), spec("regular", 300)),
        test_specs=(spec("unique"), spec("imputability")),
        architectures=((12,), (24, 6)),
        repetitions=2,
        iterations=5,
        master_seed=77,
    )


def test_manifest_bytes_and_summary_cell_keys(tmp_path):
    paths = emit_report(run_plan(_tort_plan()), tmp_path)
    text = paths["manifest"].read_text()
    assert re.sub(r'\n  "created_unix": \d+,', "", text) == MANIFEST
    summary = json.loads(paths["summary"].read_text())
    assert sorted(summary["cells"][0]) == ["accuracies", "arch", "excluded", "mean",
                                           "repetitions", "std", "test", "train"]
    table = summary["condition_tables"]["regular-200__12__imputability"]
    assert sorted(table) == ["condition", "false", "true"] and table["condition"] == "c2"
    for row in (table["false"], table["true"]):
        assert sorted(row) == ["count", "mean_output", "positive_rate"]


def test_verify_stdout(tmp_path, capsys):
    path = str(tmp_path / "i.csv")
    assert main(["gen", "--domain", "tort", "--kind", "imputability", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", path, "--domain", "tort"]) == 0
    assert capsys.readouterr().out == VERIFY_IMPUTABILITY
