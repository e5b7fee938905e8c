"""Splitting, scoring, experiments, and sweeps."""

import concurrent.futures
import re

import numpy as np
import pytest

from peergrade import (
    BiasReliabilityConfig,
    GroundTruth,
    ScenarioConfig,
    Split,
    SplitConfig,
    SweepSpec,
    TrainConfig,
    ValidationError,
    build_scenario,
    default_scenario,
    monte_carlo_splits,
    rmse,
    run_experiment,
    run_sweep,
)
from peergrade.harness import labelled_splits, split_summary

FAST_TRAIN = TrainConfig(epochs=60, dim=16, seed=0)


class TestMonteCarloSplits:
    def test_paper_ratio_sizes(self):
        splits = monte_carlo_splits(100, SplitConfig(train_fraction=0.1, n_splits=4, seed=0))
        assert len(splits) == 4
        for s in splits:
            assert (len(s.train), len(s.test)) == (10, 90)

    def test_small_fraction_rounding(self):
        split = monte_carlo_splits(10, SplitConfig(train_fraction=0.2, n_splits=1, seed=0))[0]
        assert len(split.train) == 2

    def test_seed_determinism(self):
        cfg = SplitConfig(train_fraction=0.1, n_splits=3, seed=11)
        assert monte_carlo_splits(50, cfg) == monte_carlo_splits(50, cfg)

    def test_splits_are_partitions(self):
        for split in monte_carlo_splits(30, SplitConfig(train_fraction=0.3, n_splits=5, seed=2)):
            assert sorted(split.train + split.test) == list(range(30))

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValidationError):
            monte_carlo_splits(5, SplitConfig(train_fraction=0.01, n_splits=1, seed=0))
        with pytest.raises(ValidationError):
            monte_carlo_splits(5, SplitConfig(train_fraction=0.99, n_splits=1, seed=0))


class TestLabelledSplits:
    def test_fully_labelled_equals_monte_carlo_splits(self):
        cfg = SplitConfig(train_fraction=0.2, n_splits=3, seed=4)
        truth = GroundTruth.full(np.linspace(0.0, 1.0, 40))
        assert labelled_splits(truth, cfg) == monte_carlo_splits(40, cfg)

    def test_only_labelled_items_drawn(self):
        mask = np.arange(50) % 3 != 0
        truth = GroundTruth(np.where(mask, 0.5, np.nan), mask)
        for split in labelled_splits(truth, SplitConfig(train_fraction=0.2, n_splits=4, seed=1)):
            assert sorted(split.train + split.test) == np.flatnonzero(mask).tolist()

    def test_equals_monte_carlo_splits_mapped_to_labelled_items(self):
        def composed(truth, cfg):
            labelled = np.flatnonzero(truth.mask)
            return [Split(train=labelled[list(s.train)], test=labelled[list(s.test)])
                    for s in monte_carlo_splits(labelled.shape[0], cfg)]

        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            mask = rng.random(m) < rng.random()
            truth = GroundTruth(np.where(mask, 0.5, np.nan), mask)
            cfg = SplitConfig(train_fraction=float(rng.uniform(0.01, 0.99)),
                              n_splits=int(rng.integers(1, 5)), seed=int(rng.integers(100)))
            try:
                expected = composed(truth, cfg)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                    labelled_splits(truth, cfg)
                continue
            assert labelled_splits(truth, cfg) == expected

    def test_draws_through_monte_carlo_splits(self, monkeypatch):
        # The benchmark times the split draws by rebinding this module global.
        calls = []
        draw = monte_carlo_splits

        def counted(item_count, cfg):
            calls.append(item_count)
            return draw(item_count, cfg)

        monkeypatch.setattr("peergrade.harness.monte_carlo_splits", counted)
        mask = np.arange(30) % 2 == 0
        truth = GroundTruth(np.where(mask, 0.5, np.nan), mask)
        labelled_splits(truth, SplitConfig(train_fraction=0.2, n_splits=2, seed=0))
        assert calls == [15]

    def test_no_labels_rejected(self):
        truth = GroundTruth(np.zeros(10), np.zeros(10, dtype=bool))
        with pytest.raises(ValidationError):
            labelled_splits(truth, SplitConfig())


class TestSplitSummary:
    def test_sample_std(self):
        assert split_summary([1.0, 2.0, 3.0]) == (2.0, 1.0)

    def test_single_split_has_zero_std(self):
        assert split_summary([0.25]) == (0.25, 0.0)


class TestRmse:
    def test_perfect_predictions(self):
        truth = GroundTruth.full([0.2, 0.8])
        assert rmse(np.array([0.2, 0.8]), truth, [0, 1]) == 0.0

    def test_single_item(self):
        truth = GroundTruth.full([0.5])
        assert rmse(np.array([0.8]), truth, [0]) == pytest.approx(0.3, abs=1e-15)

    def test_two_items(self):
        truth = GroundTruth.full([0.5, 0.5])
        preds = np.array([0.2, 0.1])
        assert rmse(preds, truth, [0, 1]) == pytest.approx(np.sqrt(0.125), abs=1e-15)

    def test_empty_ids_rejected(self):
        with pytest.raises(ValidationError):
            rmse(np.array([]), GroundTruth.full([0.5]), [])

    @pytest.mark.parametrize("item", [-1, 3])
    def test_unknown_id_named(self, item):
        # -1 would score the last item, 3 would raise an IndexError
        with pytest.raises(ValidationError, match=rf"^unknown item index {item} \(m=3\)$"):
            rmse(np.array([0.9]), GroundTruth.full([0.1, 0.2, 0.9]), [item])

    @pytest.mark.parametrize("predictions, truth, message", [
        (np.float64(0.5), GroundTruth.full([0.1, 0.2]),
         "predictions of shape () do not match item ids of shape (1,)"),
        (np.ones((1, 1)), GroundTruth.full([0.1, 0.2]),
         "predictions of shape (1, 1) do not match item ids of shape (1,)"),
        (np.array([0.5]), GroundTruth(np.array([np.nan, 0.2]), np.array([False, True])),
         "rmse requires known ground truth for every id"),
    ])
    def test_bad_arguments_named(self, predictions, truth, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            rmse(predictions, truth, [0])


class TestRunExperiment:
    def test_zero_noise_average_is_error_free(self):
        scenario = ScenarioConfig(
            n=40, m=40, seed=0,
            assessment=BiasReliabilityConfig(k=3, alpha=0.0, beta=0.0, sigma_max=0.0),
        )
        report = run_experiment(scenario, ["average"],
                                SplitConfig(train_fraction=0.1, n_splits=2, seed=0))
        # the mean of k identical float64 grades can sit 1 ulp off the truth
        assert report.mean["average"] < 1e-12

    def test_mean_is_arithmetic_mean_of_splits(self):
        report = run_experiment(default_scenario(seed=0, n=60, m=60), ["average", "median"],
                                SplitConfig(train_fraction=0.2, n_splits=4, seed=0))
        for method in report.methods:
            assert report.mean[method] == pytest.approx(
                float(np.mean(report.per_split[method])), abs=1e-12)

    def test_baseline_rmse_ignores_declared_train_set(self):
        # identical test ids => identical baseline scores, whatever the train side
        dataset = build_scenario(default_scenario(seed=1, n=60, m=60))
        test_ids = tuple(range(30, 60))
        from peergrade import average_predict

        for train_ids in (tuple(range(6)), tuple(range(15)), tuple(range(30))):
            preds = average_predict(dataset.graph, test_ids)
            score = rmse(preds, dataset.truth, test_ids)
            assert score == rmse(average_predict(dataset.graph, test_ids),
                                 dataset.truth, test_ids)

    def test_gcn_requires_train_config(self):
        with pytest.raises(ValidationError):
            run_experiment(default_scenario(seed=0, n=20, m=20), ["gcn-soan"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(default_scenario(seed=0, n=20, m=20), ["oracle"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))

    def test_accepts_prebuilt_dataset(self):
        dataset = build_scenario(default_scenario(seed=2, n=30, m=30))
        report = run_experiment(dataset, ["median"],
                                SplitConfig(train_fraction=0.2, n_splits=2, seed=1))
        assert "dataset" in report.config
        assert len(report.per_split["median"]) == 2

    def test_methods_share_test_sets(self):
        scenario = default_scenario(seed=3, n=50, m=50)
        split_cfg = SplitConfig(train_fraction=0.2, n_splits=3, seed=5)
        joint = run_experiment(scenario, ["gcn-soan", "average"], split_cfg, FAST_TRAIN)
        solo = run_experiment(scenario, ["average"], split_cfg)
        assert joint.per_split["average"] == solo.per_split["average"]

    def test_scores_do_not_depend_on_method_order_or_repeats(self):
        scenario = default_scenario(seed=3, n=30, m=30)
        split_cfg = SplitConfig(train_fraction=0.2, n_splits=2, seed=5)
        plain = run_experiment(scenario, ["gcn-soan", "average", "median"], split_cfg, FAST_TRAIN)
        mixed = run_experiment(scenario, ["median", "gcn-soan", "average", "median"],
                               split_cfg, FAST_TRAIN)
        assert mixed.per_split == plain.per_split
        assert all(len(scores) == 2 for scores in mixed.per_split.values())

    def test_report_is_deterministic(self):
        scenario = default_scenario(seed=4, n=50, m=50)
        split_cfg = SplitConfig(train_fraction=0.2, n_splits=2, seed=0)
        r1 = run_experiment(scenario, ["gcn-soan", "average"], split_cfg, FAST_TRAIN)
        r2 = run_experiment(scenario, ["gcn-soan", "average"], split_cfg, FAST_TRAIN)
        assert r1.canonical_json() == r2.canonical_json()


class TestRunSweep:
    def test_average_improves_with_more_graders(self):
        # aggregation noise shrinks like 1/sqrt(k); successive grid points
        # may wobble by sampling noise, bounded via the binomial-style spread
        # of an RMSE over ~0.8*m test items across 2 splits (<~0.01 here)
        base = default_scenario(seed=0, n=120, m=120)
        spec = SweepSpec(param="k", grid=(1, 2, 3, 5, 7, 9), base=base)
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=2, seed=0))
        values = [pt.report.mean["average"] for pt in result.points]
        for earlier, later in zip(values, values[1:]):
            assert later < earlier + 0.012
        assert values[-1] < values[0]

    def test_layer_sweep_has_one_report_per_value(self):
        base = default_scenario(seed=0, n=30, m=30)
        spec = SweepSpec(param="layers", grid=tuple(range(1, 9)), base=base)
        result = run_sweep(spec, ["gcn-soan"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0),
                           TrainConfig(epochs=6, dim=4, seed=0))
        assert len(result.points) == 8
        assert all(pt.report is not None for pt in result.points)

    def test_layer_sweep_without_train_config_fails_each_point(self):
        spec = SweepSpec(param="layers", grid=(1, 2), base=default_scenario(seed=0, n=10, m=10))
        result = run_sweep(spec, ["average"], SplitConfig(n_splits=1, seed=0), train_cfg=None)
        assert [(pt.report, pt.error) for pt in result.points] == [
            (None, "sweeping 'layers' requires a train config")] * 2

    def test_failed_point_recorded_and_sweep_continues(self):
        base = default_scenario(seed=0, n=10, m=10)
        spec = SweepSpec(param="k", grid=(2, 50, 3), base=base)  # k=50 > n-1
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        assert result.points[0].report is not None
        assert result.points[1].error is not None and "50" in result.points[1].error
        assert result.points[2].report is not None

    def test_alpha_sweep_requires_bias_reliability(self):
        from peergrade import strategic_scenario

        spec = SweepSpec(param="alpha", grid=(0.1,), base=strategic_scenario(seed=0, n=10, m=10))
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        assert result.points[0].error is not None

    def test_parallel_equals_sequential(self):
        base = default_scenario(seed=0, n=40, m=40)
        spec = SweepSpec(param="k", grid=(1, 2, 3), base=base)
        split_cfg = SplitConfig(train_fraction=0.2, n_splits=2, seed=0)
        seq = run_sweep(spec, ["average", "median"], split_cfg, jobs=1)
        par = run_sweep(spec, ["average", "median"], split_cfg, jobs=3)
        assert seq.to_csv() == par.to_csv()

    def test_pool_is_capped_at_the_grid_size(self, monkeypatch):
        sizes = []

        class InProcessPool:  # records the pool size, forks nothing
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = SweepSpec(param="k", grid=(1, 2), base=default_scenario(seed=0, n=20, m=20))
        result = run_sweep(spec, ["average"], SplitConfig(train_fraction=0.2, n_splits=1, seed=0),
                           jobs=1000)
        assert sizes == [2]
        assert all(point.report is not None for point in result.points)

    def test_a_method_named_twice_is_scored_and_written_once(self):
        spec = SweepSpec(param="k", grid=(1, 2), base=default_scenario(seed=0, n=30, m=30))
        split_cfg = SplitConfig(train_fraction=0.2, n_splits=3, seed=0)
        twice = run_sweep(spec, ["average", "average"], split_cfg)
        assert [point.report.methods for point in twice.points] == [("average",)] * 2
        assert twice.to_csv() == run_sweep(spec, ["average"], split_cfg).to_csv()

    def test_repeated_methods_keep_their_first_named_order(self):
        report = run_experiment(default_scenario(seed=0, n=30, m=30),
                                ["median", "average", "median", "average"],
                                SplitConfig(train_fraction=0.2, n_splits=2, seed=0))
        assert report.methods == ("median", "average")
        assert list(report.per_split) == list(report.mean) == ["median", "average"]

    def test_csv_shape(self):
        base = default_scenario(seed=0, n=30, m=30)
        spec = SweepSpec(param="k", grid=(1, 2), base=base)
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=3, seed=0))
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "param,value,method,split,rmse"
        # 3 split rows + mean + std per (value, method)
        assert len(lines) == 1 + 2 * (3 + 2)
        mean_rows = [l for l in lines if ",mean," in l]
        assert len(mean_rows) == 2

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="gamma", grid=(1,), base=default_scenario())

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="k", grid=(), base=default_scenario())

    @pytest.mark.parametrize("param", ["k", "layers"])
    def test_whole_grid_value_past_float_range_rejected(self, param):
        for value in (10**400, -(10**400), 2.5, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="whole numbers"):
                SweepSpec(param=param, grid=(3, value), base=default_scenario())
        spec = SweepSpec(param=param, grid=(3, 4.0, np.int64(5), 2**1023), base=default_scenario())
        assert spec.grid == (3, 4.0, 5, 2**1023)

    def test_mu_sweep_collapses_mixture(self):
        base = default_scenario(seed=0, n=30, m=30)
        spec = SweepSpec(param="mu", grid=(0.4,), base=base)
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        echoed = result.points[0].report.config["scenario"]["mixture"]
        assert echoed["mu"] == [0.4, 0.4]
        assert echoed["sigma"] == [0.15, 0.15]

    def test_tau_and_p_sweeps_set_social_model(self):
        base = default_scenario(seed=0, n=30, m=30)
        tau_result = run_sweep(SweepSpec(param="tau", grid=(0.05,), base=base), ["average"],
                               SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        assert tau_result.points[0].report.config["scenario"]["social"]["kind"] == "homophily"
        p_result = run_sweep(SweepSpec(param="p", grid=(0.1,), base=base), ["average"],
                             SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        assert p_result.points[0].report.config["scenario"]["social"]["kind"] == "er"

    def test_grid_points_use_derived_seeds(self):
        base = default_scenario(seed=10, n=30, m=30)
        spec = SweepSpec(param="k", grid=(3, 3), base=base)
        result = run_sweep(spec, ["average"],
                           SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        assert result.points[0].report.config["scenario"]["seed"] == 10
        assert result.points[1].report.config["scenario"]["seed"] == 11
