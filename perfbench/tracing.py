"""Spans around the calls into rationale_lab, and the per-layer metrics read
off them.

The tracer wraps two sets of calls: the public calls the benchmark makes
itself, and the names ``harness`` imported from the other layers
(``generate``, ``train``, ``accuracy``, ``output_curve``,
``condition_table``), patched on the module for the length of a traced
pass.  Spans stay in memory and are written out when the run ends.  Nothing
inside the program is changed.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import rationale_lab as lab
from rationale_lab import harness

from workloads import ARCHITECTURES, PROBE_SEED, PROBE_TRAIN, PUBLIC_CALLS

HARNESS_IMPORTS = {
    "generate": "generation.generate",
    "train": "network.train",
    "accuracy": "evaluation.accuracy",
    "output_curve": "evaluation.output_curve",
    "condition_table": "evaluation.condition_table",
}


def _dataset_arg(args, result) -> dict:
    return {"cases": len(args[1])}


# What each span counts, from the call's positional arguments and result.
COUNTERS = {
    "generation.generate": lambda args, result: {"cases": len(result)},
    "network.train": lambda args, result: {"steps": args[2].iterations},
    "oracle.verify_dataset": lambda args, result: {"cases": len(args[0]),
                                                   "passed": int(result.passed)},
    "dataset_io.write_dataset": lambda args, result: {"bytes": Path(result).stat().st_size},
    "dataset_io.read_dataset": lambda args, result: {"cases": len(result)},
    "evaluation.accuracy": _dataset_arg,
    "evaluation.output_curve": _dataset_arg,
    "evaluation.condition_table": _dataset_arg,
    "harness.run_plan": lambda args, result: {},
    "harness.emit_report": lambda args, result: {},
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, and
    the pass it belongs to (the spans of one pass share that identifier)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_id = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS[name]

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "pass": self.pass_id, "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except lab.TrainingDivergedError:
                span["diverged"] = 1
                raise
            finally:
                span["start"], span["end"] = start, time.perf_counter()
                self._open.pop()
            span.update(counter(args, result))
            return result

        return traced

    def api(self) -> SimpleNamespace:
        """The public calls under their short names, each wrapped."""
        return SimpleNamespace(**{name.split(".")[1]: self.wrap(name, fn)
                                  for name, fn in PUBLIC_CALLS.items()})

    @contextmanager
    def traced_pass(self):
        """Wrap the names harness imported for the length of one pass."""
        self.pass_id += 1
        # A name harness no longer imports is left alone; its layer reads 0.
        saved = {attr: getattr(harness, attr) for attr in HARNESS_IMPORTS
                 if hasattr(harness, attr)}
        for attr, fn in saved.items():
            setattr(harness, attr, self.wrap(HARNESS_IMPORTS[attr], fn))
        try:
            yield self.api()
        finally:
            for attr, fn in saved.items():
                setattr(harness, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass.  Times are busy seconds summed over
    the layer's spans; a layer the pass never called reads 0."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(name: str) -> float:
        return float(sum(s["end"] - s["start"] for s in by_name[name]))

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name[name])

    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    run_plan_s = busy("harness.run_plan")
    self_s = run_plan_s - sum(children[s["id"]] for s in by_name["harness.run_plan"])

    steps = total("network.train", "steps")
    train_s = busy("network.train")
    audits = len(by_name["oracle.verify_dataset"])
    evaluations = ("evaluation.accuracy", "evaluation.output_curve", "evaluation.condition_table")
    return {
        "network.train_s": train_s,
        "network.us_per_step": 1e6 * train_s / steps if steps else 0.0,
        "network.models": len(by_name["network.train"]),
        "network.steps": steps,
        "network.diverged": total("network.train", "diverged"),
        "generation.busy_s": busy("generation.generate"),
        "generation.calls": len(by_name["generation.generate"]),
        "generation.cases": total("generation.generate", "cases"),
        "oracle.busy_s": busy("oracle.verify_dataset"),
        "oracle.cases": total("oracle.verify_dataset", "cases"),
        "oracle.pass_frac": total("oracle.verify_dataset", "passed") / audits if audits else 0.0,
        "dataset_io.write_s": busy("dataset_io.write_dataset"),
        "dataset_io.read_s": busy("dataset_io.read_dataset"),
        "dataset_io.bytes": total("dataset_io.write_dataset", "bytes"),
        "evaluation.accuracy_s": busy("evaluation.accuracy"),
        "evaluation.curve_s": busy("evaluation.output_curve"),
        "evaluation.table_s": busy("evaluation.condition_table"),
        "evaluation.cases": sum(total(name, "cases") for name in evaluations),
        "harness.run_plan_s": run_plan_s,
        "harness.self_s": self_s,
        "harness.emit_s": busy("harness.emit_report"),
    }


# Counts that must repeat exactly between passes and runs of one seed.
EXACT_COUNTS = ("network.models", "network.steps", "network.diverged", "generation.calls",
                "generation.cases", "evaluation.cases", "oracle.cases", "dataset_io.bytes")


def step_timings(smoke: bool) -> dict[str, float]:
    """Microseconds per direct call of ``loss_and_grads`` and ``adam_update``
    on a fixed 50-row batch of each probe-model training set, for every
    domain width and standard architecture: the median over blocks of calls."""
    calls, blocks = (5, 3) if smoke else (100, 7)
    config = lab.TrainConfig()
    batch = config.batch_size
    metrics = {}
    for domain, (kind, size) in PROBE_TRAIN.items():
        data = lab.generate(lab.GeneratorRequest(domain, kind, size, PROBE_SEED))
        x = lab.network.schema_scaling(domain).apply(data.values[:batch])
        y = data.labels[:batch].astype(np.float64)
        for arch in ARCHITECTURES:
            params = lab.init_params(lab.NetworkConfig(x.shape[1], arch, init_seed=PROBE_SEED))
            state = lab.AdamState(params)
            _, grads = lab.loss_and_grads(params, x, y)
            step = 0

            def adam():
                nonlocal step
                step += 1
                lab.adam_update(params, state, grads, step, config)

            label = f"{domain}.{'-'.join(map(str, arch))}"
            for metric, call in (("loss_and_grads_us", lambda: lab.loss_and_grads(params, x, y)),
                                 ("adam_update_us", adam)):
                times = []
                for _ in range(blocks):
                    start = time.perf_counter()
                    for _ in range(calls):
                        call()
                    times.append((time.perf_counter() - start) / calls)
                metrics[f"network.{metric}.{label}"] = 1e6 * statistics.median(times)
    return metrics
