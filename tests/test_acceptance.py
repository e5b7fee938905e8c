"""Acceptance suite: one test per headline criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The expensive default-scenario experiment is shared
across criteria through a session fixture.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from peergrade import (
    Dataset,
    GroundTruth,
    SplitConfig,
    SweepSpec,
    TrainConfig,
    build_scenario,
    datasets_equal,
    default_scenario,
    load_dataset,
    monte_carlo_splits,
    predict,
    propagation_matrix,
    run_experiment,
    run_sweep,
    save_dataset,
    strategic_scenario,
    train,
)

from conftest import random_graph
from test_model import (
    dense_forward,
    max_relative_error,
    numerical_gradients,
    random_instance,
)
from peergrade.model import backward, forward, init_params

SPLIT = SplitConfig(train_fraction=0.1, n_splits=4, seed=0)
TRAIN = TrainConfig(seed=0)
ALL_METHODS = ("gcn-soan", "average", "median")


def report_line(name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


@pytest.fixture(scope="session")
def default_report():
    return run_experiment(default_scenario(seed=0), ALL_METHODS, SPLIT, TRAIN)


class TestBaselineAccuracy:
    def test_criterion_1_average_rmse(self, default_report):
        started = time.perf_counter()
        solo = run_experiment(default_scenario(seed=0), ["average"], SPLIT)
        elapsed = time.perf_counter() - started
        value = default_report.mean["average"]
        ok = abs(value - 0.1292) <= 0.010 and elapsed < 60.0
        assert report_line(
            "1 (average baseline)", ok,
            f"mean RMSE {value:.4f} vs 0.1292 +- 0.010, baseline-only runtime {elapsed:.1f}s")
        assert solo.mean["average"] == value  # same splits, same scores

    def test_criterion_2_median_rmse(self, default_report):
        value = default_report.mean["median"]
        ok = abs(value - 0.1551) <= 0.012
        assert report_line("2 (median baseline)", ok,
                           f"mean RMSE {value:.4f} vs 0.1551 +- 0.012")


class TestModelAccuracy:
    def test_criterion_3_gcn_beats_average_in_band(self, default_report):
        gcn = default_report.mean["gcn-soan"]
        avg = default_report.mean["average"]
        ok = (gcn <= avg and 0.105 <= gcn <= 0.135
              and default_report.wall_clock_seconds < 600.0)
        assert report_line(
            "3 (model vs average)", ok,
            f"model {gcn:.4f} <= average {avg:.4f}, band [0.105, 0.135], "
            f"runtime {default_report.wall_clock_seconds:.0f}s")

    def test_criterion_4_bias_sweep(self):
        spec = SweepSpec(param="alpha", grid=(-0.3, -0.2, 0.2, 0.3),
                         base=default_scenario(seed=0))
        result = run_sweep(spec, ("gcn-soan", "average"), SPLIT, TRAIN)
        gcn = [pt.report.mean["gcn-soan"] for pt in result.points]
        avg = [pt.report.mean["average"] for pt in result.points]
        spread = max(gcn) - min(gcn)
        ok = all(g < a for g, a in zip(gcn, avg)) and spread <= 0.05
        assert report_line(
            "4 (bias sweep)", ok,
            f"model {['%.4f' % g for g in gcn]} < average {['%.4f' % a for a in avg]}, "
            f"spread {spread:.4f} <= 0.05")

    def test_criterion_5_grader_count_sweep(self):
        spec = SweepSpec(param="k", grid=(1, 2, 3, 4), base=default_scenario(seed=0))
        result = run_sweep(spec, ("gcn-soan", "average"), SPLIT, TRAIN)
        gcn = [pt.report.mean["gcn-soan"] for pt in result.points]
        avg = [pt.report.mean["average"] for pt in result.points]
        ok = all(g <= a for g, a in zip(gcn, avg))
        assert report_line(
            "5 (grader-count sweep)", ok,
            f"model {['%.4f' % g for g in gcn]} <= average {['%.4f' % a for a in avg]}")

    def test_criterion_6_strategic_sweep(self):
        spec = SweepSpec(param="p", grid=(0.01, 0.05, 0.1),
                         base=strategic_scenario(seed=0))
        result = run_sweep(spec, ("gcn-soan", "average"), SPLIT, TRAIN)
        gcn = [pt.report.mean["gcn-soan"] for pt in result.points]
        avg = [pt.report.mean["average"] for pt in result.points]
        ok = all(g < a for g, a in zip(gcn, avg))
        assert report_line(
            "6 (strategic sweep)", ok,
            f"model {['%.4f' % g for g in gcn]} < average {['%.4f' % a for a in avg]}")


class TestNumericalOracles:
    def test_criterion_7_gradient_oracle(self):
        started = time.perf_counter()
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(20):
            _, prop, _, params, truth, train_ids = random_instance(
                rng, max_nodes=6, max_dim=4, max_layers=3)
            _, cache = forward(params, prop)
            analytic = backward(cache, truth, train_ids)
            numeric = numerical_gradients(params, prop, truth, train_ids, step=1e-5)
            worst = max(worst, max_relative_error(analytic, numeric))
        elapsed = time.perf_counter() - started
        ok = worst < 1e-4
        assert report_line("7 (gradient oracle)", ok,
                           f"max relative error {worst:.2e} < 1e-4 in {elapsed:.1f}s")

    def test_criterion_8_dense_forward_equivalence(self):
        rng = np.random.default_rng(888)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(9, 17 - n)))
            graph = random_graph(rng, n=n, m=m)
            prop = propagation_matrix(graph)
            cfg = TrainConfig(layers=int(rng.integers(1, 4)), dim=int(rng.integers(1, 5)))
            params = init_params(cfg, rng)
            preds, _ = forward(params, prop)
            ones = np.ones((prop.size, 1))
            worst = max(worst, float(np.max(np.abs(preds - dense_forward(params, graph, ones)))))
        ok = worst < 1e-10
        assert report_line("8 (dense forward oracle)", ok,
                           f"max abs deviation {worst:.2e} < 1e-10 over 100 graphs")


class TestReproducibility:
    def test_criterion_9_end_to_end_determinism(self, default_report):
        rerun = run_experiment(default_scenario(seed=0), ALL_METHODS, SPLIT, TRAIN)
        first = default_report.canonical_json()
        second = rerun.canonical_json()
        ok = first == second
        assert report_line("9 (determinism)", ok,
                           f"two end-to-end reports byte-identical: {ok}")

    def test_criterion_10_transductive_purity(self):
        dataset = build_scenario(default_scenario(seed=0))
        split = monte_carlo_splits(dataset.graph.m, SPLIT)[0]
        prop = propagation_matrix(dataset.graph)

        params, _ = train(replace(dataset, split=split), TRAIN, prop=prop)
        baseline_preds = predict(params, prop, range(dataset.graph.m))

        tampered_v = dataset.truth.v.copy()
        test_ids = list(split.test)
        tampered_v[test_ids] = np.clip(tampered_v[test_ids] * 0.5 + 0.25, 0, 1)
        tampered = Dataset(graph=dataset.graph, truth=GroundTruth.full(tampered_v),
                           split=split)
        params2, _ = train(tampered, TRAIN, prop=prop)
        tampered_preds = predict(params2, prop, range(dataset.graph.m))

        ok = np.array_equal(baseline_preds, tampered_preds)
        assert report_line("10 (transductive purity)", ok,
                           f"predictions bit-identical after relabeling test items: {ok}")


class TestImporterRoundTrip:
    def test_randomized_bundles_round_trip(self, tmp_path):
        rng = np.random.default_rng(999)
        ok = True
        for case in range(10):
            graph = random_graph(rng)
            known = rng.random(graph.m) < 0.7
            v = np.where(known, rng.uniform(0, 1, graph.m), np.nan)
            dataset = Dataset(graph=graph, truth=GroundTruth(v, known))
            path = tmp_path / f"bundle{case}"
            save_dataset(dataset, path)
            ok = ok and datasets_equal(dataset, load_dataset(path))
        assert report_line("importer (load(save(d)) == d)", ok,
                           "10 randomized bundles round-tripped exactly")
