"""Command-line behavior: subcommands, exit codes, stdout determinism."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from peergrade import build_scenario, datasets_equal, load_dataset
from peergrade.cli import dispatch
from peergrade.harness import labelled_splits
from peergrade.io import load_scenario_config, load_split_config


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "schema_version": 1, "preset": "default", "n": 40, "m": 40, "seed": 5,
    }))
    return path


@pytest.fixture()
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "schema_version": 1, "train_fraction": 0.2, "n_splits": 2, "seed": 0,
    }))
    return path


@pytest.fixture()
def train_file(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "schema_version": 1, "epochs": 40, "dim": 8, "seed": 0,
    }))
    return path


@pytest.fixture()
def bundle_dir(tmp_path, scenario_file):
    out = tmp_path / "bundle"
    assert dispatch(["generate", "--config", str(scenario_file), "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_matches_library_build(self, bundle_dir, scenario_file):
        cfg = load_scenario_config(scenario_file)
        expected = build_scenario(cfg)
        assert datasets_equal(expected, load_dataset(bundle_dir))

    def test_seed_override(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "b2"
        assert dispatch(["generate", "--config", str(scenario_file),
                         "--out", str(out), "--seed", "9"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 9

    def test_stdout_summary_counts(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "b3"
        dispatch(["generate", "--config", str(scenario_file), "--out", str(out)])
        summary = json.loads(capsys.readouterr().out)
        assert summary["assessments"] == 40 * 3
        assert summary["ownership"] == 40

    def test_generate_into_an_old_bundle_replaces_it(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "b4"
        strategic = tmp_path / "strategic.json"
        strategic.write_text(json.dumps({
            "schema_version": 1, "preset": "strategic", "n": 30, "m": 30, "seed": 5,
        }))
        for config in (strategic, scenario_file):
            assert dispatch(["generate", "--config", str(config), "--out", str(out)]) == 0
        expected = build_scenario(load_scenario_config(scenario_file))
        assert datasets_equal(expected, load_dataset(out))

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        code = dispatch(["generate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x")])
        assert code == 3


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert dispatch(["generate"]) == 2

    def test_no_arguments(self, capsys):
        assert dispatch([]) == 2

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0


class TestBaselineCommand:
    def test_report_json(self, bundle_dir, split_file, capsys):
        code = dispatch(["baseline", "--method", "average",
                         "--data", str(bundle_dir), "--split", str(split_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"] == ["average"]
        assert len(doc["per_split"]["average"]) == 2
        assert "wall_clock_seconds" not in doc

    def test_stdout_byte_identical_across_runs(self, bundle_dir, split_file, capsys):
        args = ["baseline", "--method", "median",
                "--data", str(bundle_dir), "--split", str(split_file)]
        assert dispatch(args) == 0
        first = capsys.readouterr().out
        assert dispatch(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestByteContract:
    """sha256 of each stdout and bundle file of a fixed campaign: a refactor that changes
    one byte fails here.  ``train`` and ``eval`` are left out, as their bits depend on the
    BLAS thread count and kernel; these steps give the same bytes at 1 and 2 threads."""

    EXPECTED = {
        "generate": "11392d4c07c0c5c8d95a2b8f0ce777339aae5595fb7e2d222d3573ae6967a43e",
        "import": "46d7ceddda840268ac5aa74288211aa272c7b53e81071d0eabc576fcf34fe6bb",
        "average": "74199873f0bd1dfececf7e4049780b4f31d7e0942d158ea7ca8a3071747f1c8d",
        "median": "f329c40808fb94cc74ce1f1fc052112819edab12ad63a20f116835f1cf0b8d28",
        "generated/assessments.csv":
            "caa40dc3821ac73f3d41e1748908f1d1ac84f96145eada05988cf09a5f1218e3",
        "generated/manifest.json":
            "db6a46b6232e396eaea02d9688afc378699ed26d57e3a91d2d9a6b91e29fd27b",
        "generated/ownership.csv":
            "ca37d0b3c8e1c636a4e6b58060501419ac172f988e592a648fc2c2c79a53c8bb",
        "generated/social.csv": "c422c99ecd665c205e837d1f8e47254318dfa8820e82909841ed576c38b94702",
        "generated/truth.csv": "e1b0bb28338b64f76b30307650954aad31c85a483e6454a5276ea2e676e5508d",
        "imported/assessments.csv":
            "e6e2e19dc2b8c93949862430235352983f3d6e831c165a71fe150c9a80fa644b",
        "imported/manifest.json":
            "db6a46b6232e396eaea02d9688afc378699ed26d57e3a91d2d9a6b91e29fd27b",
        "imported/ownership.csv":
            "ca37d0b3c8e1c636a4e6b58060501419ac172f988e592a648fc2c2c79a53c8bb",
        "imported/social.csv": "c422c99ecd665c205e837d1f8e47254318dfa8820e82909841ed576c38b94702",
        "imported/truth.csv": "1998cc38ff196996a4beed91f2d756bb25d256df882dbc7811ef7d326e18702a",
    }

    def test_stdout_and_bundle_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative paths: the stdout names them
        Path("scenario.json").write_text(json.dumps({
            "schema_version": 1, "preset": "strategic", "n": 120, "m": 120, "seed": 5}))
        Path("split.json").write_text(json.dumps({
            "schema_version": 1, "train_fraction": 0.3, "n_splits": 3, "seed": 2}))
        runs = {
            "generate": ["generate", "--config", "scenario.json", "--out", "generated"],
            "import": ["import", "--from", "generated", "--scale", "max=2", "--out", "imported"],
            "average": ["baseline", "--method", "average", "--data", "generated",
                        "--split", "split.json"],
            "median": ["baseline", "--method", "median", "--data", "imported",
                       "--split", "split.json"],
        }
        digests = {}
        for name, argv in runs.items():
            assert dispatch(argv) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        for path in sorted(Path().glob("*/*")):
            digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == self.EXPECTED


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, bundle_dir, split_file, train_file, capsys):
        model = tmp_path / "model.json"
        assert dispatch(["train", "--data", str(bundle_dir),
                         "--train-config", str(train_file), "--out", str(model)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs"] == 40
        assert model.exists()

        assert dispatch(["eval", "--data", str(bundle_dir), "--model", str(model),
                         "--split", str(split_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "gcn-soan"
        assert len(doc["per_split"]) == 2
        assert 0.0 <= doc["mean"] <= 1.0

    def test_train_seed_override_changes_model(self, tmp_path, bundle_dir, train_file, capsys):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        dispatch(["train", "--data", str(bundle_dir), "--train-config", str(train_file),
                  "--out", str(m1), "--seed", "1"])
        dispatch(["train", "--data", str(bundle_dir), "--train-config", str(train_file),
                  "--out", str(m2), "--seed", "2"])
        capsys.readouterr()
        assert m1.read_text() != m2.read_text()


class TestSweepCommand:
    def test_csv_shape_and_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1,
            "param": "k",
            "grid": [1, 2, 3],
            "base": {"preset": "default", "n": 30, "m": 30, "seed": 0},
            "methods": ["average", "median"],
            "split": {"train_fraction": 0.2, "n_splits": 2, "seed": 0},
        }))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout
        lines = stdout.strip().splitlines()
        assert lines[0] == "param,value,method,split,rmse"
        mean_rows = [l for l in lines if ",mean," in l]
        assert len(mean_rows) == 3 * 2  # |grid| x |methods|

    def test_jobs_flag_does_not_change_output(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1,
            "param": "k",
            "grid": [1, 2],
            "base": {"preset": "default", "n": 25, "m": 25, "seed": 0},
            "methods": ["average"],
            "split": {"train_fraction": 0.2, "n_splits": 1, "seed": 0},
        }))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(out1), "--jobs", "1"]) == 0
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(out2), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()

    def test_jobs_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1,
            "param": "k",
            "grid": [1, 2],
            "base": {"preset": "default", "n": 25, "m": 25, "seed": 0},
            "methods": ["median"],
            "split": {"train_fraction": 0.2, "n_splits": 1, "seed": 0},
        }))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(out1)]) == 0
        monkeypatch.setenv("PEERGRADE_JOBS", "2")
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()


    @pytest.mark.parametrize("param, value", [("k", 1.5), ("layers", 2.5)])
    def test_fractional_integer_parameter_is_validation_error(self, tmp_path, capsys,
                                                              param, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "param": param, "grid": [value],
            "base": {"preset": "default", "n": 25, "m": 25, "seed": 0},
            "methods": ["average"],
        }))
        code = dispatch(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "whole numbers" in err and "Traceback" not in err

    def test_integral_float_is_accepted_and_echoed(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "param": "k", "grid": [2, 3.0],
            "base": {"preset": "default", "n": 25, "m": 25, "seed": 0},
            "methods": ["average"],
            "split": {"train_fraction": 0.2, "n_splits": 1, "seed": 0},
        }))
        assert dispatch(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s.csv")]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == \
            [["k", "2", "average"]] * 3 + [["k", "3.0", "average"]] * 3

    def test_malformed_jobs_env_var_is_usage_error(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"schema_version": 1, "param": "k", "grid": [1]}))
        monkeypatch.setenv("PEERGRADE_JOBS", "abc")
        code = dispatch(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "PEERGRADE_JOBS" in err and "'abc'" in err
        assert not (tmp_path / "s.csv").exists()


class TestImportCommand:
    def test_import_with_scaling(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,8\nu2,i1,6\n")
        (src / "truth.csv").write_text("item_id,value\ni1,7\n")
        out = tmp_path / "imported"
        code = dispatch(["import", "--from", str(src), "--scale", "max=10",
                         "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert ds.graph.A[0, 0] == pytest.approx(0.8)
        assert ds.truth.v[0] == pytest.approx(0.7)

    def test_bad_scale_flag_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,0.8\n")
        (src / "truth.csv").write_text("item_id,value\ni1,0.7\n")
        assert dispatch(["import", "--from", str(src), "--scale", "10",
                         "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("scale", ["max=inf", "max=nan", "max=0", "max=-1"])
    def test_scale_that_is_not_finite_and_positive_is_validation_error(
            self, tmp_path, capsys, scale):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,8\n")
        (src / "truth.csv").write_text("item_id,value\ni1,7\n")
        code = dispatch(["import", "--from", str(src), "--scale", scale,
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "scale maximum" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_input_files_not_mutated(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,0.8\n")
        (src / "truth.csv").write_text("item_id,value\ni1,0.7\n")
        before = {p.name: p.read_bytes() for p in src.iterdir()}
        dispatch(["import", "--from", str(src), "--out", str(tmp_path / "y")])
        after = {p.name: p.read_bytes() for p in src.iterdir()}
        assert before == after


class TestPartiallyLabelled:
    @pytest.fixture()
    def partial_bundle(self, tmp_path, split_file):
        scenario = tmp_path / "scenario500.json"
        scenario.write_text(json.dumps({"schema_version": 1, "preset": "default", "seed": 3}))
        out = tmp_path / "bundle500"
        assert dispatch(["generate", "--config", str(scenario), "--out", str(out)]) == 0
        truth = out / "truth.csv"
        truth.write_text("\n".join(truth.read_text().splitlines()[:400]) + "\n")
        return out

    def test_splits_draw_labelled_items_only(self, partial_bundle, split_file):
        dataset = load_dataset(partial_bundle)
        assert (dataset.graph.m, int(dataset.truth.mask.sum())) == (500, 399)
        split_cfg = load_split_config(split_file)
        for split in labelled_splits(dataset.truth, split_cfg):
            assert dataset.truth.mask[list(split.train + split.test)].all()
            assert len(split.train + split.test) == 399

    def test_baseline_and_eval_score_partial_truth(self, tmp_path, partial_bundle,
                                                   split_file, train_file, capsys):
        assert dispatch(["baseline", "--method", "average", "--data", str(partial_bundle),
                         "--split", str(split_file)]) == 0
        model = tmp_path / "model.json"
        assert dispatch(["train", "--data", str(partial_bundle),
                         "--train-config", str(train_file), "--out", str(model)]) == 0
        assert dispatch(["eval", "--data", str(partial_bundle), "--model", str(model),
                         "--split", str(split_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(json.loads(lines[0])["per_split"]["average"]) == 2
        assert json.loads(lines[1])["train_items"] == 399
        assert len(json.loads(lines[2])["per_split"]) == 2


class TestExitCodes:
    def test_validation_error_is_3(self, tmp_path, split_file, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,5.0\n")
        (src / "truth.csv").write_text("item_id,value\ni1,0.7\n")
        assert dispatch(["baseline", "--method", "average", "--data", str(src),
                         "--split", str(split_file)]) == 3

    def test_unwritable_output_is_4(self, bundle_dir, train_file, capsys):
        code = dispatch(["train", "--data", str(bundle_dir),
                         "--train-config", str(train_file),
                         "--out", "/proc/definitely/not/writable.json"])
        assert code == 4


class TestNegativeSeed:
    @pytest.mark.parametrize("command", [
        "scenario-config", "train-config", "split-config", "generate-flag", "train-flag"])
    def test_negative_seed_is_validation_error(self, tmp_path, bundle_dir, scenario_file,
                                               split_file, train_file, capsys, command):
        def with_negative_seed(path):
            doc = json.loads(path.read_text())
            path.write_text(json.dumps({**doc, "seed": -1}))
            return str(path)

        train = ["train", "--data", str(bundle_dir), "--out", str(tmp_path / "m.json")]
        argv = {
            "scenario-config": lambda: ["generate", "--config", with_negative_seed(scenario_file),
                                        "--out", str(tmp_path / "b")],
            "train-config": lambda: train + ["--train-config", with_negative_seed(train_file)],
            "split-config": lambda: ["baseline", "--method", "average", "--data", str(bundle_dir),
                                     "--split", with_negative_seed(split_file)],
            "generate-flag": lambda: ["generate", "--config", str(scenario_file),
                                      "--out", str(tmp_path / "b"), "--seed", "-3"],
            "train-flag": lambda: train + ["--train-config", str(train_file), "--seed", "-3"],
        }[command]()
        capsys.readouterr()
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "must be >= 0" in err and "Traceback" not in err


class TestMalformedDocuments:
    @pytest.fixture()
    def model_file(self, tmp_path, bundle_dir, train_file, capsys):
        model = tmp_path / "model.json"
        assert dispatch(["train", "--data", str(bundle_dir),
                         "--train-config", str(train_file), "--out", str(model)]) == 0
        capsys.readouterr()
        return model

    @pytest.mark.parametrize("edit, message", [
        # the input width, which the one all-ones input column fixes at 1
        (lambda doc: doc.update(d0=1), "/: unknown key 'd0'"),
        # a checkpoint of the removed one-hot input: the key is named before the weights
        (lambda doc: doc.update(d0=2, weights={**doc["weights"], "W": [
            doc["weights"]["W"][0] * 2, *doc["weights"]["W"][1:]]}), "/: unknown key 'd0'"),
        # a first layer made for two input columns, without "d0"
        (lambda doc: doc["weights"]["W"].__setitem__(0, doc["weights"]["W"][0] * 2),
         "/weights/W/0: 16 weights do not fit shape (1, 8)"),
        (lambda doc: doc["weights"].update(W=5), "/weights/W: expected list, got int"),
        (lambda doc: doc["weights"]["W"][0].__setitem__(0, "x"),
         "/weights/W/0/0: expected float, got str"),
        (lambda doc: doc["weights"].pop("b_out"), "/weights/b_out: missing required key"),
        (lambda doc: doc.pop("train_config"), "/train_config: missing required key"),
        (lambda doc: doc["weights"].update(bias=0.0), "/weights: unknown key 'bias'"),
    ])
    def test_malformed_checkpoint_is_validation_error(
            self, model_file, bundle_dir, split_file, capsys, edit, message):
        doc = json.loads(model_file.read_text())
        edit(doc)
        model_file.write_text(json.dumps(doc))
        code = dispatch(["eval", "--data", str(bundle_dir), "--model", str(model_file),
                         "--split", str(split_file)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("retired", ["features", "beta1", "beta2", "epsilon"])
    @pytest.mark.parametrize("command, pointer", [
        ("train", "/"), ("sweep", "/train"), ("eval", "/train_config")])
    def test_retired_train_key_is_a_validation_error(self, tmp_path, bundle_dir, split_file,
                                                     train_file, model_file, capsys,
                                                     command, pointer, retired):
        # the input is one all-ones column and Adam's settings are fixed: a train config, a
        # sweep spec's "train" and a checkpoint's echo of its train config have none of these
        # keys, whatever the value (here each one's only former value or default)
        value = {"features": "ones", "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}[retired]

        def with_retired(path, key=None):
            doc = json.loads(path.read_text())
            (doc[key] if key else doc)[retired] = value
            path.write_text(json.dumps(doc))
            return str(path)

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"schema_version": 1, "param": "k", "grid": [1],
                                    "train": {"epochs": 2}}))
        out = tmp_path / "out"
        argv = {
            "train": lambda: ["train", "--data", str(bundle_dir),
                              "--train-config", with_retired(train_file), "--out", str(out)],
            "sweep": lambda: ["sweep", "--spec", with_retired(spec, "train"), "--out", str(out)],
            "eval": lambda: ["eval", "--data", str(bundle_dir), "--split", str(split_file),
                             "--model", with_retired(model_file, "train_config")],
        }[command]()
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {pointer}: unknown key {retired!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["x", True, None, [1]])
    def test_non_numeric_sweep_grid_entry_is_validation_error(self, tmp_path, capsys, entry):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "param": "k", "grid": [1, entry],
            "base": {"preset": "default", "n": 25, "m": 25, "seed": 0},
            "methods": ["average"],
        }))
        code = dispatch(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "/grid/1: " in err and "Traceback" not in err

    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_number_in_a_document_is_validation_error(self, tmp_path, capsys, number):
        spec = tmp_path / "spec.json"
        spec.write_text('{"schema_version": 1, "param": "k", "grid": [1, %s]}' % number)
        code = dispatch(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{number} is not a finite number" in err and "Traceback" not in err

    def test_overflowing_train_config_is_validation_error(self, tmp_path, bundle_dir, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text('{"schema_version": 1, "epochs": 3, "learning_rate": 1%s}' % ("0" * 400))
        code = dispatch(["train", "--data", str(bundle_dir), "--train-config", str(cfg),
                         "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "/learning_rate: " in err and "Traceback" not in err


    @pytest.mark.parametrize("override, pointer", [
        ({"preset": []}, "/preset"),
        ({"assessment": {"kind": []}}, "/assessment/kind"),
    ])
    def test_unhashable_tag_is_validation_error(self, tmp_path, capsys, override, pointer):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"schema_version": 1, "n": 6, "m": 6, **override}))
        code = dispatch(["generate", "--config", str(config), "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{pointer}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("learning_rate, epochs", [(1e308, 3), (1.7976931348623157e308, 2)])
    def test_diverging_optimizer_is_runtime_error(self, tmp_path, bundle_dir, capsys,
                                                  learning_rate, epochs):
        # every loss is finite (the sigmoid saturates), but the last step overflows a weight
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"schema_version": 1, "epochs": epochs, "dim": 2,
                                   "learning_rate": learning_rate}))
        model = tmp_path / "m.json"
        code = dispatch(["train", "--data", str(bundle_dir), "--train-config", str(cfg),
                         "--out", str(model)])
        err = capsys.readouterr().err
        assert code == 4
        assert f"non-finite training loss nan at epoch {epochs}" in err and "Traceback" not in err
        assert not model.exists()


class TestInvalidScenario:
    def test_zero_sigma_max_with_steep_beta_is_validation_error(self, tmp_path, capsys):
        # sigma_max * (1 - beta * v) is -0.0 wherever beta * v > 1
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "schema_version": 1, "preset": "default", "n": 30, "m": 30, "seed": 0,
            "assessment": {"kind": "bias-reliability", "sigma_max": 0.0, "beta": 2.0},
        }))
        code = dispatch(["generate", "--config", str(config), "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 3
        assert "negative grading standard deviation" in err and "Traceback" not in err


class TestUndecodableBundle:
    def run_baseline(self, bundle_dir, split_file, capsys):
        code = dispatch(["baseline", "--method", "average", "--data", str(bundle_dir),
                         "--split", str(split_file)])
        return code, capsys.readouterr().err

    def test_bytes_that_are_not_utf8_are_a_validation_error(self, bundle_dir, split_file, capsys):
        path = bundle_dir / "assessments.csv"
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"u\xff\xfe" + lines[3]
        path.write_bytes(b"\n".join(lines))
        code, err = self.run_baseline(bundle_dir, split_file, capsys)
        assert code == 3
        assert f"{path}:4: not UTF-8 text" in err and "Traceback" not in err

    def test_field_over_the_csv_limit_is_a_validation_error(self, bundle_dir, split_file, capsys):
        path = bundle_dir / "truth.csv"
        lines = path.read_text().splitlines()
        lines[2] = "x" * (csv.field_size_limit() + 1) + ",0.5"
        path.write_text("\n".join(lines) + "\n")
        code, err = self.run_baseline(bundle_dir, split_file, capsys)
        assert code == 3
        assert f"{path}:3: field larger than field limit" in err and "Traceback" not in err


class TestFailuresNameTheirCause:
    """Each failure exits with its code and one ``error:`` line, never a traceback."""

    def run(self, argv, capsys):
        capsys.readouterr()
        code = dispatch(argv)
        return code, capsys.readouterr().err

    def test_empty_assessments_file(self, tmp_path, split_file, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("")
        (src / "truth.csv").write_text("item_id,value\n")
        code, err = self.run(["baseline", "--method", "average", "--data", str(src),
                              "--split", str(split_file)], capsys)
        assert (code, err) == (3, f"error: {src / 'assessments.csv'}: empty file, "
                                  "expected header grader_id,item_id,grade\n")

    def test_data_that_is_a_file(self, split_file, capsys):
        code, err = self.run(["baseline", "--method", "average", "--data", str(split_file),
                              "--split", str(split_file)], capsys)
        assert (code, err) == (3, f"error: dataset bundle {split_file} is not a directory\n")

    def test_truncated_json_config(self, tmp_path, bundle_dir, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text('{"schema_version": 1, "epochs"')
        code, err = self.run(["train", "--data", str(bundle_dir), "--train-config", str(cfg),
                              "--out", str(tmp_path / "m.json")], capsys)
        assert code == 3
        assert err.startswith(f"error: {cfg}: invalid JSON (") and err.endswith(")\n")
        assert err.count("\n") == 1

    def test_top_level_json_array(self, tmp_path, bundle_dir, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text("[1, 2]")
        code, err = self.run(["train", "--data", str(bundle_dir), "--train-config", str(cfg),
                              "--out", str(tmp_path / "m.json")], capsys)
        assert (code, err) == (3, f"error: {cfg}: top-level JSON value must be an object\n")

    def test_non_numeric_scale_maximum(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "assessments.csv").write_text("grader_id,item_id,grade\nu1,i1,8\n")
        (src / "truth.csv").write_text("item_id,value\ni1,7\n")
        code, err = self.run(["import", "--from", str(src), "--scale", "max=abc",
                              "--out", str(tmp_path / "x")], capsys)
        assert (code, err) == (3, "error: --scale expects a numeric maximum, got 'max=abc'\n")

    def test_train_without_ground_truth(self, tmp_path, bundle_dir, train_file, capsys):
        (bundle_dir / "truth.csv").write_text("item_id,value\n")
        code, err = self.run(["train", "--data", str(bundle_dir), "--train-config",
                              str(train_file), "--out", str(tmp_path / "m.json")], capsys)
        assert (code, err) == (3, "error: dataset has no ground-truth labels to train on\n")

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy-text", "bare"])
    def test_out_of_memory_is_4(self, tmp_path, bundle_dir, train_file, capsys, monkeypatch,
                                error, line):
        def out_of_memory(*args, **kwargs):  # allocates nothing
            raise error

        monkeypatch.setattr("peergrade.cli.train", out_of_memory)
        code, err = self.run(["train", "--data", str(bundle_dir), "--train-config",
                              str(train_file), "--out", str(tmp_path / "m.json")], capsys)
        assert (code, err) == (4, f"error: {line}\n")
