"""Command-line entry point: dataset generation, verification, training,
evaluation, and full experiment plans.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime
error.  Every run prints its effective seed(s), so any output can be
reproduced from its log alone.  Usage errors are raised before any file is
written.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .dataset_io import read_dataset, write_dataset
from .domains import DOMAIN_IDS, build_domain
from .evaluation import accuracy, condition_table, output_curve, write_curve_tsv
from .generation import GenerationError, GeneratorRequest, generate
from .harness import derive_seed, emit_report, load_plan, replay, run_plan
from .network import (
    STANDARD_HIDDEN_LAYERS,
    NetworkConfig,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    save_model,
    train,
)
from .oracle import verify_dataset

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _parallelism(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rationale-lab",
        description="Generate rule-labelled datasets, train networks on them, "
        "and evaluate which conditions the networks learned.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset (CSV + .meta.json)")
    gen.add_argument("--domain", required=True, choices=DOMAIN_IDS)
    gen.add_argument("--kind", required=True)
    gen.add_argument("--size", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="audit a dataset file against its domain rules")
    ver.add_argument("--in", dest="path", required=True)
    ver.add_argument("--domain", required=True, choices=DOMAIN_IDS)

    tr = sub.add_parser("train", help="train a network on a dataset file")
    tr.add_argument("--in", dest="path", required=True)
    tr.add_argument("--domain", required=True, choices=DOMAIN_IDS)
    tr.add_argument("--hidden", default="12",
                    help="comma-separated hidden widths: "
                    + " | ".join(",".join(map(str, h)) for h in STANDARD_HIDDEN_LAYERS))
    tr.add_argument("--iterations", type=int, default=TrainConfig.iterations)
    tr.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    tr.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a saved model on a dataset file")
    ev.add_argument("--model", required=True)
    ev.add_argument("--in", dest="path", required=True)
    ev.add_argument("--curve", help="X_FEATURE:GROUP_FEATURE for a mean-output curve")
    ev.add_argument("--curve-out", help="TSV path for the curve")
    ev.add_argument("--condition-table", dest="cond", help="condition id for an output table")

    ex = sub.add_parser("experiment", help="run a plan file and emit its reports")
    ex.add_argument("--plan", required=True)
    ex.add_argument("--out-dir", required=True)
    ex.add_argument("--parallelism", type=_parallelism, default=1)

    rep = sub.add_parser("report", help="replay a manifest and re-emit its reports")
    rep.add_argument("--manifest", required=True)
    rep.add_argument("--out-dir", required=True)
    rep.add_argument("--parallelism", type=_parallelism, default=1)

    return parser


def _cmd_gen(args) -> int:
    try:
        dataset = generate(GeneratorRequest(args.domain, args.kind, args.size, args.seed))
    except GenerationError as err:
        raise UsageError(str(err)) from None
    write_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset)} cases, "
        f"{dataset.meta.positive_fraction:.4f} positive, seed={dataset.meta.seed}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    schema = build_domain(args.domain)
    dataset = read_dataset(args.path, schema)
    report = verify_dataset(dataset, schema)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--hidden must be comma-separated integers, got {text!r}") from None


def _cmd_train(args) -> int:
    schema = build_domain(args.domain)
    dataset = read_dataset(args.path, schema)
    init_seed = derive_seed(args.seed, "init")
    shuffle_seed = derive_seed(args.seed, "shuffle")
    try:
        net_cfg = NetworkConfig(schema.n_features, _parse_hidden(args.hidden),
                                init_seed=init_seed)
        train_cfg = TrainConfig(
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            iterations=args.iterations,
            shuffle_seed=shuffle_seed,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"--out {out}: not a file path in an existing directory")
    _check_out_dir(out.parent, "--out")
    print(f"seed={args.seed} init_seed={init_seed} shuffle_seed={shuffle_seed}")
    model = train(dataset, net_cfg, train_cfg)
    save_model(model, args.out)
    print(f"wrote {args.out}: final training loss {model.loss_trace[-1]:.6f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if (args.curve is None) != (args.curve_out is None):
        raise UsageError("--curve and --curve-out must be given together")
    if args.curve is not None and args.curve.count(":") != 1:
        raise UsageError("--curve takes X_FEATURE:GROUP_FEATURE")
    model = load_model(args.model)
    dataset = read_dataset(args.path, build_domain(model.schema_id))
    outputs = model.outputs(dataset.values)  # one pass
    result = {"accuracy": accuracy(outputs, dataset), "cases": len(dataset)}
    if args.curve is not None:
        curve = output_curve(outputs, dataset, *args.curve.split(":"))
        write_curve_tsv(curve, args.curve_out)
        result["curve"] = args.curve_out
    if args.cond is not None:
        result["condition_table"] = condition_table(outputs, dataset, args.cond).to_dict()
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _check_out_dir(out_dir: str | Path, flag: str = "--out-dir") -> None:
    """Refuse, before anything is trained, an out-dir whose nearest existing
    path (itself or an ancestor) is not a directory that the filesystem lets
    a probe file be created in (and removed from); leave nothing."""
    nearest = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
    try:
        tempfile.TemporaryFile(dir=nearest).close()
    except OSError:  # a nearest path that is a file fails here too
        raise ValueError(f"{flag} {out_dir}: {nearest} is not a writable directory") from None


def _cmd_experiment(args) -> int:
    plan = load_plan(args.plan)
    _check_out_dir(args.out_dir)
    print(f"master_seed={plan.master_seed} cells={plan.cell_count} "
          f"repetitions={plan.repetitions}")
    report = run_plan(plan, parallelism=args.parallelism)
    emit_report(report, args.out_dir)
    print(f"wrote report under {args.out_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    _check_out_dir(args.out_dir)
    report = replay(args.manifest, args.out_dir, parallelism=args.parallelism)
    print(f"master_seed={report.plan.master_seed} (replay)")
    print(f"wrote report under {args.out_dir}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, OSError, ValueError, KeyError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
