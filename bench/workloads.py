"""The benchmark's workloads: inputs made from a seed, one iteration, and gates.

Each workload is a closed loop with one client: the next iteration starts
when the previous one has returned.  An iteration runs its steps under a
:class:`Clock`, which times each step and files it under an end-to-end
phase; it returns those times, the canonical output bytes (compared across
iterations and between traced and untraced runs) and the problems its
correctness gates found.  Iterations are kept to a few seconds at most, so
that a run holds many of them; a workload whose full-size result takes
longer (the paper's 4 x 800 epochs) trains fewer epochs per iteration and
checks the full-size result once per run in :meth:`gate`.  ``smoke=True``
shrinks every size so that the benchmark's own tests run in seconds; the
program is not told.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from peergrade import baselines, cli, graph, harness, synthetic
from peergrade import io as pio
from peergrade.model import TrainConfig

from clock import Clock, Iteration

# Acceptance bands of the paper-default report.  The gcn range is gated.  The
# baseline bands are centred on one campaign and miss on about 1 seed in 22
# (9 of seeds 0-199), so a miss is noted; the baselines are gated instead by
# an exact recomputation of their per-split RMSEs.
AVERAGE_BAND = (0.1292, 0.010)
MEDIAN_BAND = (0.1551, 0.012)
GCN_RANGE = (0.105, 0.135)
ORACLE_TOLERANCE = 1e-12

# Bound here, before any tracer rebinds the program's functions, so the gate's
# own calls never appear as spans.
_monte_carlo_splits = harness.monte_carlo_splits


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class PaperDefault:
    """The paper headline: default scenario, 3 methods, 4 splits.

    An iteration trains ``TIMED_EPOCHS`` epochs per split; the paper's 800
    epochs run once per run, in :meth:`gate`, whose report must meet the
    acceptance bands.
    """

    name = "paper-default"
    phases = ("setup_s", "experiment_s")
    methods = ("gcn-soan", "average", "median")
    TIMED_EPOCHS = 25

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.smoke = smoke
        if smoke:
            self.scenario = synthetic.default_scenario(seed, n=60, m=60)
            self.split = harness.SplitConfig(0.2, 2, seed)
            self.full_train = TrainConfig(dim=8, epochs=10, seed=seed)
            self.train = replace(self.full_train, epochs=3)
        else:
            self.scenario = synthetic.default_scenario(seed)
            self.split = harness.SplitConfig(0.1, 4, seed)
            self.full_train = TrainConfig(seed=seed)
            self.train = replace(self.full_train, epochs=self.TIMED_EPOCHS)
        # (span, child-name prefix, label): traced children must cover the
        # span, in an iteration and in the full-size gate run.  At 25 epochs
        # per split the baselines take about 7% of an iteration; at 800, the
        # model's spans cover nearly all of the experiment.
        self.coverage = [] if smoke else [("harness.run_experiment", "", "experiment_s")]
        self.gate_coverage = [] if smoke else [
            ("harness.run_experiment", "", "experiment_s"),
            ("harness.run_experiment", "model.", "experiment_s by model.*"),
        ]

    def generate(self):
        return synthetic.build_scenario(self.scenario)

    def iterate(self, clock: Clock) -> Iteration:
        return self._experiment(clock, self.train, full=False)

    def gate(self, clock: Clock) -> Iteration:
        """The full paper run (800 epochs per split), checked against the bands."""
        return self._experiment(clock, self.full_train, full=True)

    def _experiment(self, clock: Clock, train_cfg: TrainConfig, full: bool) -> Iteration:
        with clock.step("setup_s"):
            dataset = self.generate()
        with clock.step("experiment_s"):
            report = harness.run_experiment(dataset, self.methods, self.split, train_cfg)
        it = clock.iteration(report.canonical_json().encode())
        self.check(dataset, report, it, bands=full and not self.smoke)
        return it

    def check(self, dataset, report, it: Iteration, bands: bool) -> None:
        for name, vals in report.per_split.items():
            if len(vals) != self.split.n_splits or not _finite(vals):
                it.problems.append(f"{name}: expected {self.split.n_splits} finite RMSEs")
        if it.problems:
            return
        for name, expected in _baseline_rmses(dataset, self.split).items():
            if np.max(np.abs(np.subtract(report.per_split[name], expected))) > ORACLE_TOLERANCE:
                it.problems.append(f"{name} RMSEs {report.per_split[name]} differ from "
                                   f"the recomputed {expected}")
        if not bands:
            return
        avg, med, gcn = (report.mean[m] for m in ("average", "median", "gcn-soan"))
        if not GCN_RANGE[0] <= gcn <= GCN_RANGE[1]:
            it.problems.append(f"gcn RMSE {gcn:.4f} outside {list(GCN_RANGE)}")
        if gcn > avg:
            it.problems.append(f"gcn RMSE {gcn:.4f} worse than average {avg:.4f}")
        for label, value, (centre, width) in (("average", avg, AVERAGE_BAND),
                                              ("median", med, MEDIAN_BAND)):
            if abs(value - centre) > width:
                it.notes.append(f"{label} RMSE {value:.4f} outside {centre} +- {width}")


def _baseline_rmses(dataset, split_cfg) -> dict[str, list[float]]:
    """Per-split RMSE of the average and median baselines, from the raw grades."""
    m = dataset.graph.m
    coo = dataset.graph.A.tocoo()
    order = np.lexsort((coo.data, coo.col))
    items, grades = coo.col[order], coo.data[order]
    counts = np.bincount(items, minlength=m)
    starts = np.cumsum(counts) - counts
    predictions = {
        "average": np.bincount(items, weights=grades, minlength=m) / counts,
        "median": (grades[starts + (counts - 1) // 2] + grades[starts + counts // 2]) / 2,
    }
    out: dict[str, list[float]] = {name: [] for name in predictions}
    for split in _monte_carlo_splits(m, split_cfg):
        test = np.asarray(split.test)
        for name, pred in predictions.items():
            err = dataset.truth.v[test] - pred[test]
            out[name].append(float(np.sqrt(np.mean(err * err))))
    return out


class Bundle5k:
    """Generate a 5k-node homophily/strategic campaign, round-trip it, score baselines."""

    name = "bundle-5k"
    phases = ("setup_s", "roundtrip_s", "propagation_s", "baseline_s")

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        size, tau = (300, 0.02) if smoke else (5000, 0.002)
        self.scenario = synthetic.ScenarioConfig(
            n=size, m=size, seed=seed,
            social=synthetic.HomophilyConfig(tau=tau),
            assessment=synthetic.StrategicConfig(),
        )
        self.bundle = workdir / "bundle"
        self.coverage = []

    def generate(self):
        return synthetic.build_scenario(self.scenario)

    def iterate(self, clock: Clock) -> Iteration:
        with clock.step("setup_s"):
            dataset = self.generate()
        with clock.step("roundtrip_s"):
            pio.save_dataset(dataset, self.bundle)
        with clock.step("roundtrip_s"):
            loaded = pio.load_dataset(self.bundle)
        with clock.step("propagation_s"):
            graph.propagation_matrix(loaded.graph)
        items = np.arange(loaded.graph.m)
        scores = {}
        with clock.step("baseline_s"):
            for name, fn in (("average", baselines.average_predict),
                             ("median", baselines.median_predict)):
                preds = fn(loaded.graph, items)
                scores[name] = (preds, harness.rmse(preds, loaded.truth, items))

        problems = []
        if not graph.datasets_equal(loaded, dataset):
            problems.append("loaded bundle differs from the generated dataset")
        for name, (preds, _) in scores.items():
            if not (np.all(np.isfinite(preds)) and np.all((preds >= 0) & (preds <= 1))):
                problems.append(f"{name} predictions not finite in [0, 1]")
        output = pio.canonical_json({
            "assessments": int(dataset.graph.A.nnz),
            "social_entries": int(dataset.graph.S.nnz),
            "rmse": {name: value for name, (_, value) in scores.items()},
        }).encode()
        return clock.iteration(output, problems)


class CliStrategic:
    """generate x2 -> train ``EPOCHS`` epochs -> eval on held-out data -> baselines, via the CLI."""

    name = "cli-strategic"
    phases = ("setup_s", "train_s", "eval_s", "baseline_s")
    EPOCHS = 20

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        size, epochs = (150, 5) if smoke else (2000, self.EPOCHS)
        self.seed = seed
        self.n_splits = 4
        self.coverage = [] if smoke else [("cli.train", "", "train_s")]
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario = workdir / "scenario.json"
        self.train_cfg = workdir / "train.json"
        self.split = workdir / "split.json"
        self.train_bundle = workdir / "train-bundle"
        self.heldout_bundle = workdir / "heldout-bundle"
        self.model = workdir / "model.json"
        for path, doc in (
            (self.scenario, {"kind": "scenario-config", "preset": "strategic",
                             "n": size, "m": size}),
            (self.train_cfg, {"kind": "train-config", "epochs": epochs}),
            (self.split, {"kind": "split-config", "train_fraction": 0.1,
                          "n_splits": self.n_splits, "seed": seed}),
        ):
            path.write_text(pio.canonical_json({"schema_version": 1, **doc}), encoding="utf-8")

    def _cli(self, clock: Clock, phase: str, argv: list) -> tuple[str, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with clock.step(phase, f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.dispatch([str(a) for a in argv])
        return argv[0], code, out.getvalue()

    def generate(self, clock: Clock | None = None) -> list[tuple[str, int, str]]:
        return [self._cli(clock or Clock(), "setup_s",
                          ["generate", "--config", self.scenario, "--out", bundle,
                           "--seed", seed])
                for bundle, seed in ((self.train_bundle, self.seed),
                                     (self.heldout_bundle, self.seed + 1))]

    def iterate(self, clock: Clock) -> Iteration:
        steps = self.generate(clock)
        steps.append(self._cli(clock, "train_s", [
            "train", "--data", self.train_bundle, "--train-config", self.train_cfg,
            "--out", self.model]))
        steps.append(self._cli(clock, "eval_s", [
            "eval", "--data", self.heldout_bundle, "--model", self.model,
            "--split", self.split]))
        for method in ("average", "median"):
            steps.append(self._cli(clock, "baseline_s", [
                "baseline", "--method", method, "--data", self.heldout_bundle,
                "--split", self.split]))
        return clock.iteration("".join(stdout for _, _, stdout in steps).encode(),
                               self.check(steps))

    def check(self, steps) -> list[str]:
        problems = []
        for command, code, stdout in steps:
            if code != 0:
                problems.append(f"{command} exited {code}")
                continue
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                problems.append(f"{command} stdout is not JSON")
                continue
            if pio.canonical_json(doc) != stdout:
                problems.append(f"{command} stdout is not canonical JSON")
            if command == "eval":
                scores = doc.get("per_split", [])
                if len(scores) != self.n_splits or not _finite(scores):
                    problems.append(f"eval returned {scores!r}, expected "
                                    f"{self.n_splits} finite RMSEs")
        return problems


WORKLOADS = {w.name: w for w in (PaperDefault, Bundle5k, CliStrategic)}
