"""The package namespace: what ``import peergrade`` and ``import *`` expose."""

import inspect
import types
from dataclasses import fields
from pathlib import Path

import peergrade


def test_all_is_every_public_name_but_the_modules():
    public = {name for name, value in vars(peergrade).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(peergrade.__all__) == public
    assert len(peergrade.__all__) == len(public)
    for module in ("io", "model", "graph", "harness", "schema"):
        assert isinstance(getattr(peergrade, module), types.ModuleType)
        assert module not in peergrade.__all__


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("import io\nstdlib_io = io\nfrom peergrade import *", namespace)
    assert namespace["io"] is namespace["stdlib_io"]
    del namespace["io"], namespace["stdlib_io"], namespace["__builtins__"]
    assert namespace and not any(isinstance(value, types.ModuleType)
                                 for value in namespace.values())
    assert set(namespace) == set(peergrade.__all__)


def test_only_the_schema_module_spells_the_document_envelope():
    package = Path(peergrade.__file__).parent
    spelled = sorted(path.name for path in package.glob("*.py")
                     if path.name != "schema.py"
                     and any(word in path.read_text(encoding="utf-8")
                             for word in ("schema_version", "SCHEMA_VERSION")))
    assert spelled == []


def test_only_the_schema_module_checks_keys_by_hand():
    package = Path(peergrade.__file__).parent
    callers = sorted(path.name for path in package.glob("*.py")
                     if path.name != "schema.py"
                     and "reject_unknown(" in path.read_text(encoding="utf-8"))
    assert callers == []
    assert not hasattr(peergrade.schema, "expect_list")


def test_train_config_exports_no_optimizer_internals():
    # Adam's beta1, beta2 and epsilon are the model's constants, not train options
    assert [f.name for f in fields(peergrade.TrainConfig)] == [
        "layers", "dim", "epochs", "learning_rate", "seed"]


def test_only_the_model_builds_its_input():
    # The all-ones input is made inside forward, and a pass is read back from its cache.
    # No option names the input, and a report is written without its timing, never read.
    assert not hasattr(peergrade, "initial_features")
    assert not hasattr(peergrade.model, "FEATURE_KINDS")
    assert not any(hasattr(module, name) for module in (peergrade, peergrade.io)
                   for name in ("write_results", "read_results"))
    assert list(inspect.signature(peergrade.ExperimentReport.canonical_json).parameters) == [
        "self"]
    assert list(inspect.signature(peergrade.predict).parameters) == ["params", "prop", "item_ids"]
    assert list(inspect.signature(peergrade.model.backward).parameters) == [
        "cache", "truth", "train_ids"]


def test_graph_checks_leave_no_report_type():
    # Every fatal check runs when a SoanGraph is built; validate lists isolation warnings alone.
    assert not any(hasattr(module, "ValidationReport") for module in (peergrade, peergrade.graph))
    warnings = peergrade.validate(peergrade.build_graph([("u1", "i1", 0.5)], users=["lone"]))
    assert warnings == ["user 'lone' has no edges"]
