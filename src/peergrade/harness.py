"""Monte Carlo cross-validation, RMSE scoring, experiments, and sweeps.

Splits are over items only: the whole graph (all nodes and edges) is visible
during training, only the labels of the train items are.  Every method in an
experiment is scored on identical test sets, split by split.
"""

from __future__ import annotations

import concurrent.futures
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import baselines
from .errors import PeergradeError, ValidationError
from .graph import Dataset, GroundTruth, Split, _item_ids, propagation_matrix
from .model import TrainConfig, predict, train
from .schema import check_integers, document_json, to_doc
from .synthetic import (
    BiasReliabilityConfig,
    ErConfig,
    HomophilyConfig,
    MixtureConfig,
    ScenarioConfig,
    build_scenario,
)

METHOD_GCN = "gcn-soan"
METHOD_AVERAGE = "average"
METHOD_MEDIAN = "median"
METHODS = (METHOD_GCN, METHOD_AVERAGE, METHOD_MEDIAN)

SWEEP_PARAMS = ("k", "alpha", "beta", "mu", "tau", "p", "layers")


@dataclass(frozen=True)
class SplitConfig:
    """Monte Carlo split settings: train fraction, number of splits, seed."""

    train_fraction: float = 0.1
    n_splits: int = 4
    seed: int = 0

    def __post_init__(self):
        check_integers(self)
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(f"train fraction {self.train_fraction} must lie in (0, 1)")
        if self.n_splits < 1:
            raise ValidationError("n_splits must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} must be >= 0")


def monte_carlo_splits(item_count: int, cfg: SplitConfig) -> list[Split]:
    """Independent uniform random train/test partitions, deterministic per seed."""
    train_size = int(round(cfg.train_fraction * item_count))
    if train_size < 1 or item_count - train_size < 1:
        raise ValidationError(
            f"fraction {cfg.train_fraction} of {item_count} items leaves a degenerate split"
        )
    rng = np.random.default_rng(cfg.seed)
    return [Split(train=np.sort(perm[:train_size]).tolist(), test=np.sort(perm[train_size:]).tolist())
            for perm in (rng.permutation(item_count) for _ in range(cfg.n_splits))]


def labelled_splits(truth: GroundTruth, cfg: SplitConfig) -> list[Split]:
    """:func:`monte_carlo_splits` over the items with known ground truth only."""
    labelled = np.flatnonzero(truth.mask)
    return [Split(train=labelled[list(split.train)], test=labelled[list(split.test)])
            for split in monte_carlo_splits(labelled.shape[0], cfg)]


def split_summary(scores: Sequence[float]) -> tuple[float, float]:
    """Mean and sample std (ddof=1, zero for a single split) of per-split scores."""
    std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
    return float(np.mean(scores)), std


def rmse(predictions: np.ndarray, truth: GroundTruth, ids: Sequence[int]) -> float:
    """Root mean square error; ``predictions[j]`` corresponds to ``ids[j]``."""
    ids = _item_ids(ids, len(truth))
    if ids.size == 0:
        raise ValidationError("rmse over an empty id set")
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.shape != ids.shape:
        raise ValidationError(f"predictions of shape {predictions.shape} do not match "
                              f"item ids of shape {ids.shape}")
    if not np.all(truth.mask[ids]):
        raise ValidationError("rmse requires known ground truth for every id")
    err = truth.v[ids] - predictions
    return float(np.sqrt(np.mean(err * err)))


@dataclass
class ExperimentReport:
    """Per-split RMSE per method with mean/std, config echo, and timing."""

    config: dict
    methods: tuple[str, ...]
    per_split: dict[str, list[float]]
    mean: dict[str, float]
    std: dict[str, float]
    wall_clock_seconds: float = 0.0

    def canonical_json(self) -> str:
        """Deterministic serialization: every field but ``wall_clock_seconds``."""
        body = to_doc(self)
        del body["wall_clock_seconds"]
        return document_json("experiment-report", body)


def run_experiment(
    scenario: Union[ScenarioConfig, Dataset],
    methods: Sequence[str],
    split_cfg: SplitConfig,
    train_cfg: Optional[TrainConfig] = None,
) -> ExperimentReport:
    """Score each requested method across Monte Carlo splits and average.

    The graph convolution model is retrained per split (init seed =
    ``train_cfg.seed + split index``); baselines read only the assessment
    matrix.  Splits are drawn over the labelled items only; means and stds
    come from :func:`split_summary`.
    """
    methods = tuple(dict.fromkeys(methods))  # each method once, in first-named order
    for name in methods:
        if name not in METHODS:
            raise ValidationError(f"unknown method {name!r}; choose from {METHODS}")
    if not methods:
        raise ValidationError("no methods requested")
    if METHOD_GCN in methods and train_cfg is None:
        raise ValidationError(f"method {METHOD_GCN!r} requires a train config")

    started = time.perf_counter()
    if isinstance(scenario, ScenarioConfig):
        dataset = build_scenario(scenario)
        config_echo: dict = {"scenario": to_doc(scenario)}
    else:
        dataset = scenario
        config_echo = {"dataset": {"n": dataset.graph.n, "m": dataset.graph.m}}
    config_echo["split"] = to_doc(split_cfg)
    config_echo["train"] = to_doc(train_cfg) if train_cfg is not None else None
    config_echo["methods"] = list(methods)

    splits = labelled_splits(dataset.truth, split_cfg)
    prop = propagation_matrix(dataset.graph) if METHOD_GCN in methods else None
    per_split: dict[str, list[float]] = {name: [] for name in methods}

    for index, split in enumerate(splits):
        for name in methods:
            if name == METHOD_GCN:
                cfg = replace(train_cfg, seed=train_cfg.seed + index)
                params, _ = train(replace(dataset, split=split), cfg, prop=prop)
                preds = predict(params, prop, split.test)
            elif name == METHOD_AVERAGE:
                preds = baselines.average_predict(dataset.graph, split.test)
            else:
                preds = baselines.median_predict(dataset.graph, split.test)
            per_split[name].append(rmse(preds, dataset.truth, split.test))

    mean, std = {}, {}
    for name, vals in per_split.items():
        mean[name], std[name] = split_summary(vals)
    return ExperimentReport(
        config=config_echo, methods=methods, per_split=per_split,
        mean=mean, std=std, wall_clock_seconds=time.perf_counter() - started,
    )


def _whole(value) -> bool:
    """A whole number in the float range; an int is compared, never converted."""
    if isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return float(value).is_integer()


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its value grid, and the base scenario."""

    param: str
    grid: tuple
    base: ScenarioConfig

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValidationError(f"unknown sweep parameter {self.param!r}; choose from {SWEEP_PARAMS}")
        if len(self.grid) == 0:
            raise ValidationError("sweep grid is empty")
        if self.param in ("k", "layers") and not all(map(_whole, self.grid)):
            raise ValidationError(
                f"sweep values of {self.param!r} must be whole numbers in the float range")
        object.__setattr__(self, "grid", tuple(self.grid))


@dataclass
class SweepPoint:
    """Outcome of one grid value: a report, or the error that aborted it."""

    value: object
    report: Optional[ExperimentReport] = None
    error: Optional[str] = None


@dataclass
class SweepResult:
    param: str
    points: list[SweepPoint]

    def to_csv(self) -> str:
        """Long format ``param,value,method,split,rmse``.

        Besides one row per split, each (value, method) pair gets a ``mean``
        and a ``std`` row; failed points contribute no rows.
        """
        lines = ["param,value,method,split,rmse"]
        for point in self.points:
            if point.report is None:
                continue
            rep = point.report
            for method in rep.methods:
                for split_index, value in enumerate(rep.per_split[method]):
                    lines.append(f"{self.param},{point.value!r},{method},{split_index},{value!r}")
                lines.append(f"{self.param},{point.value!r},{method},mean,{rep.mean[method]!r}")
                lines.append(f"{self.param},{point.value!r},{method},std,{rep.std[method]!r}")
        return "\n".join(lines) + "\n"


def _apply_sweep_value(
    spec: SweepSpec, value, index: int, split_cfg: SplitConfig, train_cfg: Optional[TrainConfig]
) -> tuple[ScenarioConfig, SplitConfig, Optional[TrainConfig]]:
    """Materialize grid point ``index``: derived seeds plus the swept value."""
    scenario = replace(spec.base, seed=spec.base.seed + index)
    split = replace(split_cfg, seed=split_cfg.seed + index)
    param = spec.param
    if param == "layers":
        if train_cfg is None:
            raise ValidationError("sweeping 'layers' requires a train config")
        return scenario, split, replace(train_cfg, layers=int(value))
    if param == "k":
        scenario = replace(scenario, assessment=replace(scenario.assessment, k=int(value)))
    elif param in ("alpha", "beta"):
        if not isinstance(scenario.assessment, BiasReliabilityConfig):
            raise ValidationError(f"sweeping {param!r} requires a bias-reliability scenario")
        scenario = replace(scenario, assessment=replace(scenario.assessment, **{param: float(value)}))
    elif param == "mu":
        # Collapses the truth mixture to a single normal at the swept mean.
        mixture = MixtureConfig(pi=scenario.mixture.pi,
                                mu=(float(value), float(value)), sigma=(0.15, 0.15))
        scenario = replace(scenario, mixture=mixture)
    elif param == "tau":
        scenario = replace(scenario, social=HomophilyConfig(tau=float(value)))
    elif param == "p":
        scenario = replace(scenario, social=ErConfig(p=float(value)))
    return scenario, split, train_cfg


def _run_point(args) -> SweepPoint:
    spec, value, index, methods, split_cfg, train_cfg = args
    try:
        scenario, split, tcfg = _apply_sweep_value(spec, value, index, split_cfg, train_cfg)
        report = run_experiment(scenario, methods, split, tcfg)
        return SweepPoint(value=value, report=report)
    except PeergradeError as exc:
        return SweepPoint(value=value, error=str(exc))


def run_sweep(
    spec: SweepSpec,
    methods: Sequence[str],
    split_cfg: SplitConfig,
    train_cfg: Optional[TrainConfig] = None,
    jobs: int = 1,
) -> SweepResult:
    """One experiment per grid value; failures are recorded and skipped.

    With ``jobs > 1`` the points run in a process pool; results are keyed by
    grid index, so the output is identical to a sequential run.
    """
    tasks = [
        (spec, value, index, tuple(methods), split_cfg, train_cfg)
        for index, value in enumerate(spec.grid)
    ]
    if jobs <= 1 or len(tasks) == 1:
        points = [_run_point(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            points = list(pool.map(_run_point, tasks))
    return SweepResult(param=spec.param, points=points)
