"""Bundle round trips, config parsing, and canonical JSON."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from peergrade import (
    Dataset,
    GroundTruth,
    SchemaError,
    SplitConfig,
    TrainConfig,
    ValidationError,
    build_graph,
    build_scenario,
    canonical_json,
    datasets_equal,
    default_scenario,
    from_matrices,
    load_dataset,
    load_scenario_config,
    load_split_config,
    load_train_config,
    run_experiment,
    save_dataset,
)
from peergrade.io import parse_scenario_config
from peergrade.synthetic import ErConfig, HomophilyConfig, ScenarioConfig, StrategicConfig

from conftest import random_graph


def write_bundle(tmp_path, assessments, truth, ownership=None, social=None):
    (tmp_path / "assessments.csv").write_text(
        "grader_id,item_id,grade\n" + "".join(f"{u},{i},{g}\n" for u, i, g in assessments))
    (tmp_path / "truth.csv").write_text(
        "item_id,value\n" + "".join(f"{i},{v}\n" for i, v in truth))
    if ownership:
        (tmp_path / "ownership.csv").write_text(
            "user_id,item_id,weight\n" + "".join(f"{u},{i},{w}\n" for u, i, w in ownership))
    if social:
        (tmp_path / "social.csv").write_text(
            "user_a,user_b,weight\n" + "".join(f"{a},{b},{w}\n" for a, b, w in social))
    return tmp_path


class TestLoadDataset:
    def test_minimal_bundle(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.75)])
        ds = load_dataset(tmp_path)
        assert (ds.graph.n, ds.graph.m) == (1, 1)
        assert ds.graph.A[0, 0] == 0.8
        assert ds.truth.v[0] == 0.75

    def test_scaled_grades(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 8)], [("i1", 7.5)])
        ds = load_dataset(tmp_path, scale_max=10)
        assert ds.graph.A[0, 0] == pytest.approx(0.8)
        assert ds.truth.v[0] == pytest.approx(0.75)

    def test_out_of_range_grade_rejected_without_scale(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 8)], [("i1", 0.5)])
        with pytest.raises(ValidationError):
            load_dataset(tmp_path)

    def test_unknown_truth_item_rejected(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("ghost", 0.5)])
        with pytest.raises(ValidationError, match="ghost"):
            load_dataset(tmp_path)

    def test_missing_required_file(self, tmp_path):
        (tmp_path / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,0.8\n")
        with pytest.raises(ValidationError, match="truth.csv"):
            load_dataset(tmp_path)

    def test_malformed_row_reports_line(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "assessments.csv").write_text(
            "grader_id,item_id,grade\nu1,i1,0.8\nu2,i1,not-a-number\n")
        with pytest.raises(SchemaError, match=":3"):
            load_dataset(tmp_path)

    def test_wrong_header_rejected(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "assessments.csv").write_text("grader,item,grade\nu1,i1,0.8\n")
        with pytest.raises(SchemaError, match="header"):
            load_dataset(tmp_path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "assessments.csv").write_text(
            "grader_id,item_id,grade\nu1,i1,0.8,extra\n")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(tmp_path)

    def test_manifest_id_list_type_checked(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "manifest.json").write_text(json.dumps({"schema_version": 1, "user_ids": 5}))
        with pytest.raises(SchemaError, match="^/user_ids: "):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 7, "7 does not match the 1 entries of /user_ids"),
        ("m", 0, "0 does not match the 1 entries of /item_ids"),
        ("n", "1", "expected int, got str"),
    ])
    def test_manifest_counts_must_match_id_lists(self, tmp_path, key, value, message):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"schema_version": 1, "user_ids": ["u1"], "item_ids": ["i1"], key: value}))
        with pytest.raises(SchemaError, match=f"^/{key}: {message}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, ids, count, pointer", [
        ("user_ids", ["u1", "u1"], "n", "/user_ids/1: 'u1' repeats /user_ids/0"),
        ("item_ids", ["i1", 1, "1"], "m", "/item_ids/2: '1' repeats /item_ids/1"),
    ])
    def test_manifest_id_may_not_repeat(self, tmp_path, key, ids, count, pointer):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"schema_version": 1, key: ids, count: len(ids)}))
        with pytest.raises(SchemaError, match=f"^{pointer}$"):
            load_dataset(tmp_path)

    def test_bytes_that_are_not_utf8_are_the_first_fault_reported(self, tmp_path):
        write_bundle(tmp_path, [("u1", "i1", 0.8)], [("i1", 0.5)])
        path = tmp_path / "assessments.csv"  # a wrong header, and a bad byte far past it
        path.write_bytes(b"grader,item_id,grade\n" + b"u1,i1,0.8\n" * 10_000 + b"u\xff,i1,0.8\n")
        with pytest.raises(SchemaError, match=r"assessments.csv:10002: not UTF-8 text"):
            load_dataset(tmp_path)

    def test_each_csv_is_opened_once(self, tmp_path, monkeypatch):
        write_bundle(tmp_path, [('"u,1"', "i1", 0.8)], [('"i1"', 0.5)],  # quoted: csv.reader
                     ownership=[("u2", "i1", 1.0)])
        opened = []
        open_path = Path.open

        def recording_open(self, *args, **kwargs):
            opened.append(self.name)
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        assert load_dataset(tmp_path).graph.user_ids == ("u,1", "u2")
        assert sorted(opened) == ["assessments.csv", "ownership.csv", "truth.csv"]

    def test_group_ownership_and_self_grades(self, tmp_path):
        # multiple ownership rows per item and a grader who owns the item
        write_bundle(
            tmp_path,
            [("u1", "i1", 0.9), ("u2", "i1", 0.7)],
            [("i1", 0.8)],
            ownership=[("u1", "i1", 0.5), ("u2", "i1", 0.5)],
        )
        ds = load_dataset(tmp_path)
        assert ds.graph.O.nnz == 2
        assert ds.graph.A.nnz == 2


class TestRoundTrip:
    def test_default_preset_counts(self, tmp_path):
        ds = build_scenario(default_scenario(seed=0))
        save_dataset(ds, tmp_path / "bundle")
        text = (tmp_path / "bundle" / "assessments.csv").read_text().strip().splitlines()
        assert len(text) == 1 + 1500
        own = (tmp_path / "bundle" / "ownership.csv").read_text().strip().splitlines()
        assert len(own) == 1 + 500
        assert not (tmp_path / "bundle" / "social.csv").exists()

    def test_random_small_bundles_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(17)
        for case in range(10):
            graph = random_graph(rng)
            known = rng.random(graph.m) < 0.8
            v = np.where(known, rng.uniform(0, 1, graph.m), np.nan)
            ds = Dataset(graph=graph, truth=GroundTruth(v, known))
            path = tmp_path / f"case{case}"
            save_dataset(ds, path)
            assert datasets_equal(ds, load_dataset(path))

    def test_ids_come_back_as_sorted_text(self, tmp_path):
        A = sp.csr_matrix(np.array([[0.5, 0.0], [0.0, 0.25]]))
        g = from_matrices(sp.csr_matrix((2, 2)), sp.identity(2, format="csr"), A, (1, 2), ("j", "i"))
        ds = Dataset(graph=g, truth=GroundTruth(np.array([0.1, np.nan]), np.array([True, False])))
        save_dataset(ds, tmp_path / "b")
        loaded = load_dataset(tmp_path / "b")
        assert (loaded.graph.user_ids, loaded.graph.item_ids) == (("1", "2"), ("i", "j"))
        assert loaded.graph.A.toarray().tolist() == [[0.0, 0.5], [0.25, 0.0]]
        assert loaded.truth.mask.tolist() == [False, True]
        assert not datasets_equal(ds, loaded)

    def test_none_id_is_written_as_its_text(self, tmp_path):
        # The manifest's ids are read back with str(), so the CSV must hold "None" too,
        # not the empty field csv.writer makes of None.
        g = from_matrices(sp.csr_matrix((1, 1)), sp.csr_matrix((1, 1)), sp.csr_matrix([[0.5]]),
                          [None], ["i"])
        save_dataset(Dataset(graph=g, truth=GroundTruth.full([0.5])), tmp_path)
        loaded = load_dataset(tmp_path).graph
        assert (loaded.n, loaded.user_ids) == (1, ("None",))
        assert loaded.A.toarray().tolist() == [[0.5]]

    def test_explicit_zero_grade_round_trips(self, tmp_path):
        g = build_graph([("u1", "i1", 0.0), ("u2", "i1", 0.6)])
        ds = Dataset(graph=g, truth=GroundTruth.full([0.5]))
        save_dataset(ds, tmp_path / "b")
        loaded = load_dataset(tmp_path / "b")
        assert loaded.graph.A.nnz == 2
        assert datasets_equal(ds, loaded)

    def test_generated_bundle_round_trips(self, tmp_path):
        from peergrade import strategic_scenario

        ds = build_scenario(strategic_scenario(seed=1, n=60, m=60))
        save_dataset(ds, tmp_path / "b")
        assert datasets_equal(ds, load_dataset(tmp_path / "b"))

    def test_resave_removes_files_of_empty_relations(self, tmp_path):
        from peergrade import strategic_scenario

        path = tmp_path / "b"
        save_dataset(build_scenario(strategic_scenario(seed=0, n=30, m=30)), path)
        default = build_scenario(default_scenario(seed=0, n=30, m=30))  # no social net
        save_dataset(default, path)
        assert not (path / "social.csv").exists()
        assert datasets_equal(default, load_dataset(path))

        graph = random_graph(np.random.default_rng(3), n=4, m=4, social_density=0.0,
                             own_density=0.0, assess_density=1.0)
        bare = Dataset(graph=graph, truth=GroundTruth.full(np.linspace(0, 1, 4)))
        save_dataset(bare, path)
        assert not (path / "ownership.csv").exists()
        assert datasets_equal(bare, load_dataset(path))

    def test_social_file_holds_the_upper_triangle_only(self, tmp_path):
        g = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)], social=[("u1", "u2", 0.5)])
        save_dataset(Dataset(graph=g, truth=GroundTruth.full([0.5])), tmp_path)
        assert (tmp_path / "social.csv").read_bytes() == b"user_a,user_b,weight\r\nu1,u2,0.5\r\n"
        # A lower-triangle S, whose bundle would hold no tie, is refused when built.
        with pytest.raises(ValidationError, match="^S is not symmetric$"):
            replace(g, S=sp.tril(g.S, format="csr"))

    def test_seventeen_digit_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        g = build_graph([("u1", "i1", value)])
        ds = Dataset(graph=g, truth=GroundTruth.full([value]))
        save_dataset(ds, tmp_path / "b")
        loaded = load_dataset(tmp_path / "b")
        assert loaded.graph.A[0, 0] == value
        assert loaded.truth.v[0] == value


class TestMemory:
    LIMIT_MB = 25  # the per-row loader peaked at 46 MB here, the per-row split at 27.5 MB
    SAVE_LIMIT_MB = 11  # the per-line writer peaked at 13.7 MiB here, the encoded one at 9.2

    def test_save_2000_node_bundle_peak(self, tmp_path):
        from peergrade import strategic_scenario

        dataset = build_scenario(strategic_scenario(0, n=2000, m=2000))
        tracemalloc.start()
        try:
            save_dataset(dataset, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < self.SAVE_LIMIT_MB

    def test_load_5k_bundle_peak(self, tmp_path):
        scenario = ScenarioConfig(n=5000, m=5000, seed=0, social=HomophilyConfig(tau=0.002),
                                  assessment=StrategicConfig())
        save_dataset(build_scenario(scenario), tmp_path)
        tracemalloc.start()
        try:
            load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT_MB


class TestConfigs:
    def test_minimal_scenario_config_is_default_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "preset": "default"}))
        assert load_scenario_config(path) == default_scenario()

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "bogus": 3}))
        with pytest.raises(SchemaError, match="bogus"):
            load_scenario_config(path)

    def test_nested_unknown_key_has_pointer(self):
        with pytest.raises(SchemaError, match="/mixture"):
            parse_scenario_config({"schema_version": 1, "mixture": {"pi": [0.5, 0.5], "nu": 1}})

    def test_missing_schema_version_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "default"}))
        with pytest.raises(SchemaError, match="schema_version"):
            load_scenario_config(path)

    def test_strategic_preset_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1, "preset": "strategic", "n": 100, "m": 100, "seed": 9,
            "social": {"kind": "er", "p": 0.2},
        }))
        cfg = load_scenario_config(path)
        assert cfg.n == 100 and cfg.seed == 9
        assert isinstance(cfg.social, ErConfig) and cfg.social.p == 0.2
        assert isinstance(cfg.assessment, StrategicConfig)

    def test_type_error_has_pointer(self):
        with pytest.raises(SchemaError, match="/n"):
            parse_scenario_config({"schema_version": 1, "n": "many"})

    def test_train_config_round_trip(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"schema_version": 1, "epochs": 10, "dim": 8, "seed": 3}))
        cfg = load_train_config(path)
        assert cfg == TrainConfig(epochs=10, dim=8, seed=3)

    def test_split_config_defaults(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert load_split_config(path) == SplitConfig()


class TestResults:
    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [1.5, 2]})
        assert text == '{"a":[1.5,2],"b":1}\n'

    def test_report_json_carries_every_result_bit_for_bit(self):
        # the report is written, never read back: its bytes alone must keep the numbers
        report = run_experiment(default_scenario(seed=0, n=30, m=30), ["average", "median"],
                                SplitConfig(train_fraction=0.2, n_splits=2, seed=0))
        doc = json.loads(report.canonical_json())
        assert (doc["schema_version"], doc["kind"]) == (1, "experiment-report")
        assert doc["methods"] == list(report.methods)
        assert doc["per_split"] == {name: list(v) for name, v in report.per_split.items()}
        assert doc["mean"] == report.mean and doc["std"] == report.std
        assert doc["config"] == json.loads(json.dumps(report.config))

    def test_report_json_leaves_out_wall_clock_seconds(self):
        report = run_experiment(default_scenario(seed=0, n=30, m=30), ["average"],
                                SplitConfig(train_fraction=0.2, n_splits=1, seed=0))
        text = report.canonical_json()
        assert "wall_clock_seconds" not in json.loads(text)
        assert replace(report, wall_clock_seconds=1e9).canonical_json() == text
