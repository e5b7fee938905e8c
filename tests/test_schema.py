"""The dataclass-driven config schema: to_doc/from_doc round trips and pointers."""

import json
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peergrade import (
    BiasReliabilityConfig,
    ErConfig,
    HomophilyConfig,
    MixtureConfig,
    ScenarioConfig,
    SchemaError,
    SplitConfig,
    StrategicConfig,
    TrainConfig,
    ValidationError,
    strategic_scenario,
)
from peergrade.schema import canonical_json, from_doc, to_doc

unit = st.floats(0.0, 1.0)
nonneg = st.floats(0.0, 10.0)
seeds = st.integers(0, 2**63 - 1)
counts = st.integers(1, 10_000)

mixtures = st.builds(
    MixtureConfig,
    pi=unit.map(lambda p: (p, 1.0 - p)),
    mu=st.tuples(unit, unit),
    sigma=st.tuples(nonneg, nonneg),
)
socials = st.one_of(
    st.none(),
    st.builds(ErConfig, p=unit),
    st.builds(HomophilyConfig, tau=unit),
)
assessments = st.one_of(
    st.builds(StrategicConfig, k=counts, sigma_h=nonneg),
    st.builds(BiasReliabilityConfig, k=counts, alpha=st.floats(-1.0, 1.0),
              beta=st.floats(-10.0, 10.0), sigma_max=nonneg),
)
scenarios = st.builds(ScenarioConfig, n=counts, m=counts, seed=seeds, mixture=mixtures,
                      social=socials, assessment=assessments)
trains = st.builds(
    TrainConfig, layers=st.integers(1, 8), dim=counts, epochs=counts,
    learning_rate=st.floats(0.0, 1.0, exclude_min=True), seed=seeds,
)
splits = st.builds(SplitConfig, train_fraction=st.floats(0.0, 1.0, exclude_min=True,
                                                         exclude_max=True),
                   n_splits=counts, seed=seeds)


@given(st.one_of(scenarios, mixtures, trains, splits))
def test_round_trip_through_canonical_json(cfg):
    doc = json.loads(canonical_json(to_doc(cfg)))
    assert from_doc(type(cfg), doc) == cfg


def test_unknown_union_kind_names_its_pointer():
    with pytest.raises(SchemaError, match="^/social/kind: "):
        from_doc(ScenarioConfig, {"social": {"kind": "small-world"}})


def test_document_layout():
    assert to_doc(strategic_scenario(seed=4, n=7, m=7)) == {
        "n": 7, "m": 7, "seed": 4,
        "mixture": {"pi": [0.2, 0.8], "mu": [0.3, 0.7], "sigma": [0.1, 0.1]},
        "social": {"kind": "er", "p": 0.05},
        "assessment": {"kind": "strategic", "k": 3, "sigma_h": 0.25},
    }
    assert to_doc(ScenarioConfig())["social"] == {"kind": "none"}


def test_nested_object_merges_onto_base():
    base = strategic_scenario(seed=3)
    cfg = from_doc(ScenarioConfig, {"mixture": {"pi": [0.5, 0.5]}}, base=base)
    assert cfg.mixture == MixtureConfig(pi=(0.5, 0.5))
    assert (cfg.seed, cfg.social, cfg.assessment) == (3, base.social, base.assessment)


def test_union_member_starts_from_its_own_defaults():
    base = ScenarioConfig(social=HomophilyConfig(tau=0.3))
    cfg = from_doc(ScenarioConfig, {"social": {"kind": "homophily"},
                                    "assessment": {"kind": "strategic"}}, base=base)
    assert cfg.social == HomophilyConfig()
    assert cfg.assessment == StrategicConfig()


@dataclass(frozen=True)
class _Leaves:
    value: Union[int, float] = 0
    count: Optional[int] = None


@pytest.mark.parametrize("doc, expected", [
    ({"value": 2, "count": 3}, _Leaves(2, 3)),
    ({"value": 3.0}, _Leaves(3.0, None)),
])
def test_union_of_leaves_is_kept_as_written(doc, expected):
    got = from_doc(_Leaves, doc)
    assert got == expected and type(got.value) is type(expected.value)


@pytest.mark.parametrize("doc, message", [
    ({"value": True}, "/value: expected float, got bool"),
    ({"value": "2"}, "/value: expected float, got str"),
    ({"value": 10**400}, "/value: expected float, got int"),
    ({"count": None}, "/count: expected int, got NoneType"),
    ({"count": 1.0}, "/count: expected int, got float"),
])
def test_union_of_leaves_is_checked_as_its_widest_member(doc, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        from_doc(_Leaves, doc)


@pytest.mark.parametrize("doc, pointer", [
    ({"mixture": {"mu": [0.5]}}, "/mixture/mu"),
    ({"mixture": {"sigma": [0.1, "wide"]}}, "/mixture/sigma/1"),
    ({"n": True}, "/n"),
    ({"assessment": {"kind": "strategic", "alpha": 0.1}}, "/assessment"),
    ({"social": {"kind": "none", "p": 0.1}}, "/social"),
    ({"social": "er"}, "/social"),
])
def test_faults_name_their_pointer(doc, pointer):
    with pytest.raises(SchemaError, match=f"^{pointer}: "):
        from_doc(ScenarioConfig, doc)


INTEGER_FIELDS = [(TrainConfig, name) for name in ("layers", "dim", "epochs", "seed")] + [
    (SplitConfig, "n_splits"), (SplitConfig, "seed"), (StrategicConfig, "k"),
    (BiasReliabilityConfig, "k"), (ScenarioConfig, "n"), (ScenarioConfig, "m"), (ScenarioConfig, "seed")]


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS)
def test_integer_fields_refuse_what_operator_index_refuses(cls, name):
    # NaN passed the range checks and text failed them with a bare TypeError.
    for value in (float("nan"), 2.0, np.float64(3.0), "3", None):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            cls(**{name: value})
    assert getattr(cls(**{name: np.int64(5)}), name) == 5
    with pytest.raises(SchemaError, match=f"^/{name}: expected int, got float$"):
        from_doc(cls, {name: 2.0})  # the document path refuses first, with its own message
