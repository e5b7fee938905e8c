"""Command-line front end: generate, train, eval, baseline, sweep, import.

All numeric output goes to stdout as canonical JSON or CSV; progress and
timing go to stderr.  For a fixed argv, fixed input files, and fixed seed
the stdout bytes are identical across runs.  Exit codes: 0 success, 2 usage
error, 3 validation error, 4 runtime failure (running out of memory too).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as pio
from .errors import PeergradeError, ValidationError
from .graph import Split, propagation_matrix
from .harness import (
    METHOD_AVERAGE,
    METHOD_GCN,
    METHOD_MEDIAN,
    labelled_splits,
    rmse,
    run_experiment,
    run_sweep,
    split_summary,
)
from .model import load_model, predict, save_model, train
from .schema import to_doc
from .synthetic import build_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _bundle_summary(dataset, out, **extra) -> str:
    """The stdout of a command that writes a bundle: its sizes, where it went, and ``extra``."""
    graph = dataset.graph
    return pio.canonical_json({"n": graph.n, "m": graph.m, "assessments": int(graph.A.nnz),
                               "out": str(out), **extra})


def _parse_scale(text: str) -> float:
    if not text.startswith("max="):
        raise ValidationError(f"--scale expects max=<value>, got {text!r}")
    try:
        return float(text[4:])  # load_dataset checks that it is finite and positive
    except ValueError:
        raise ValidationError(f"--scale expects a numeric maximum, got {text!r}") from None


def _jobs(text: str) -> int:
    """``--jobs``, or ``$PEERGRADE_JOBS`` when the flag is absent (argparse converts both)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} from --jobs or PEERGRADE_JOBS is not an integer") from None


def _cmd_generate(args) -> int:
    cfg = pio.load_scenario_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    started = time.perf_counter()
    dataset = build_scenario(cfg)
    pio.save_dataset(dataset, args.out)
    _log(f"generated bundle in {time.perf_counter() - started:.2f}s")
    sys.stdout.write(_bundle_summary(dataset, args.out, seed=cfg.seed,
                                     ownership=int(dataset.graph.O.nnz),
                                     social_edges=int(dataset.graph.S.nnz // 2)))
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = pio.load_dataset(args.data)
    cfg = pio.load_train_config(args.train_config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    labeled = np.flatnonzero(dataset.truth.mask)
    if not labeled.size:
        raise ValidationError("dataset has no ground-truth labels to train on")
    dataset = replace(dataset, split=Split(train=labeled, test=()))
    started = time.perf_counter()
    params, history = train(dataset, cfg)
    _log(f"trained {cfg.epochs} epochs in {time.perf_counter() - started:.2f}s")
    save_model(params, cfg, args.out)
    sys.stdout.write(pio.canonical_json({
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "train_items": len(labeled),
        "final_train_loss": history[-1],
        "model": str(args.out),
    }))
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = pio.load_dataset(args.data)
    params, _ = load_model(args.model)
    split_cfg = pio.load_split_config(args.split)
    prop = propagation_matrix(dataset.graph)
    preds = predict(params, prop, range(prop.m))
    scores = [
        rmse(preds[list(split.test)], dataset.truth, split.test)
        for split in labelled_splits(dataset.truth, split_cfg)
    ]
    mean, std = split_summary(scores)
    sys.stdout.write(pio.canonical_json({
        "method": METHOD_GCN,
        "model": str(args.model),
        "split": to_doc(split_cfg),
        "per_split": scores,
        "mean": mean,
        "std": std,
    }))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    dataset = pio.load_dataset(args.data)
    split_cfg = pio.load_split_config(args.split)
    report = run_experiment(dataset, [args.method], split_cfg, train_cfg=None)
    _log(f"scored {args.method} in {report.wall_clock_seconds:.2f}s")
    sys.stdout.write(report.canonical_json())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec, methods, split_cfg, train_cfg = pio.load_sweep_document(args.spec)
    started = time.perf_counter()
    result = run_sweep(spec, methods, split_cfg, train_cfg, jobs=args.jobs)
    _log(f"swept {len(spec.grid)} points in {time.perf_counter() - started:.2f}s")
    for point in result.points:
        if point.error is not None:
            _log(f"point {point.value!r} failed: {point.error}")
    csv_text = result.to_csv()
    Path(args.out).write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_import(args) -> int:
    scale = _parse_scale(args.scale) if args.scale is not None else None
    dataset = pio.load_dataset(getattr(args, "from"), scale_max=scale)
    pio.save_dataset(dataset, args.out)
    sys.stdout.write(_bundle_summary(dataset, args.out, truth_items=int(dataset.truth.mask.sum())))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peergrade",
        description="Peer-assessment aggregation: synthetic data, training, evaluation, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset bundle")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train the model on every labeled item")
    p.add_argument("--data", required=True, help="dataset bundle directory")
    p.add_argument("--train-config", required=True, help="train config JSON")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a saved model over Monte Carlo test splits")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True, help="split config JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="score the average or median baseline")
    p.add_argument("--method", required=True, choices=[METHOD_AVERAGE, METHOD_MEDIAN])
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, help="split config JSON")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=_jobs, default=os.environ.get("PEERGRADE_JOBS", "1"),
                   help="parallel workers (default: $PEERGRADE_JOBS or 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("import", help="import external CSVs into a bundle")
    p.add_argument("--from", required=True, help="directory of source CSVs")
    p.add_argument("--scale", default=None, help="max=<v>: divide grades and truths by v")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_import)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse already printed usage to stderr
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValidationError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except (PeergradeError, OSError, MemoryError) as exc:
        _log(f"error: {str(exc) or type(exc).__name__}")  # a bare MemoryError() has no text
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
