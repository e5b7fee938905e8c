"""Fuzzing the input boundary: every document reader, through the CLI.

Each example takes a tiny valid document (scenario, train, split, sweep
spec, checkpoint or bundle manifest), replaces one of its values, top-level
or nested, with a value from a fixed pool, and runs the CLI command that
reads it.  Whatever the value, the command must end in a documented exit
code (0 success, 2 usage, 3 validation, 4 runtime) and never in a traceback.
The bases are tiny and the pool's positive integers are at most 2, so no
example allocates or loops at scale; sizes such as ``n = 10**9`` are out of
scope.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergrade.cli import dispatch

POOL = [None, True, False, -1, 0, 1, 2, 0.5, 1.5, 1e308, "", "x", [], [1], {}]

SCENARIO = {
    "schema_version": 1, "kind": "scenario-config", "preset": "default",
    "n": 6, "m": 6, "seed": 0,
    "mixture": {"pi": [0.2, 0.8], "mu": [0.3, 0.7], "sigma": [0.1, 0.1]},
    "social": {"kind": "er", "p": 0.5},
    "assessment": {"kind": "bias-reliability", "k": 2, "alpha": 0.0, "beta": 0.0,
                   "sigma_max": 0.25},
}
TRAIN = {
    "schema_version": 1, "kind": "train-config", "layers": 2, "dim": 2, "epochs": 2,
    "learning_rate": 0.02, "seed": 0,
}
SPLIT = {"schema_version": 1, "kind": "split-config", "train_fraction": 0.5, "n_splits": 2,
         "seed": 0}
SWEEP = {
    "schema_version": 1, "kind": "sweep-spec", "param": "k", "grid": [2],
    "base": {"preset": "strategic", "n": 6, "m": 6, "seed": 0,
             "assessment": {"kind": "strategic", "k": 2, "sigma_h": 0.25}},
    "methods": ["gcn-soan", "average"],
    "split": {"train_fraction": 0.5, "n_splits": 1, "seed": 0},
    "train": {"epochs": 2, "dim": 2, "seed": 0},
}


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A tiny bundle, split and train config, and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in (("scenario.json", SCENARIO), ("train.json", TRAIN), ("split.json", SPLIT)):
        (root / name).write_text(json.dumps(doc))
    assert run(["generate", "--config", root / "scenario.json", "--out", root / "bundle"])[0] == 0
    assert run(["train", "--data", root / "bundle", "--train-config", root / "train.json",
                "--out", root / "model.json"])[0] == 0
    return root


# document name -> (its base document, the command that reads it from ``path``)
CASES = {
    "scenario": (lambda root: SCENARIO,
                 lambda root, path, out: ["generate", "--config", path, "--out", out / "b"]),
    "train": (lambda root: TRAIN,
              lambda root, path, out: ["train", "--data", root / "bundle", "--train-config", path,
                                       "--out", out / "m.json"]),
    "split": (lambda root: SPLIT,
              lambda root, path, out: ["baseline", "--method", "average", "--data", root / "bundle",
                                       "--split", path]),
    "sweep": (lambda root: SWEEP,
              lambda root, path, out: ["sweep", "--spec", path, "--out", out / "s.csv"]),
    "checkpoint": (lambda root: json.loads((root / "model.json").read_text()),
                   lambda root, path, out: ["eval", "--data", root / "bundle", "--model", path,
                                            "--split", root / "split.json"]),
    "manifest": (lambda root: json.loads((root / "bundle" / "manifest.json").read_text()),
                 lambda root, path, out: ["import", "--from", path.parent, "--out", out / "b"]),
}


def paths(doc, prefix=()):
    """Every key path into ``doc``, containers included."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_replaced_value_ends_in_an_exit_code(base, name, data):
    make_doc, command = CASES[name]
    doc = make_doc(base)
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    value = data.draw(st.sampled_from(POOL), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if name == "manifest":
            shutil.copytree(base / "bundle", out / "bundle")
            target = out / "bundle" / "manifest.json"
        else:
            target = out / f"{name}.json"
        target.write_text(json.dumps(replaced(doc, path, value)))
        code, err = run(command(base, target, out))
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
