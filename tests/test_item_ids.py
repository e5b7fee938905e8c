"""One rule for item ids: integers of at most one dimension, unknown ids named."""

import re

import numpy as np
import pytest

from peergrade import (
    GroundTruth,
    Split,
    TrainConfig,
    ValidationError,
    average_predict,
    build_graph,
    median_predict,
    predict,
    propagation_matrix,
    rmse,
)
from peergrade.model import backward, forward, init_params, mse_loss

# Items "a" (graded) and "b" (declared only): m = 2.
GRAPH = build_graph([("u1", "a", 0.5), ("u2", "a", 0.25)], items=["b"])
PROP = propagation_matrix(GRAPH)
CFG = TrainConfig(dim=4, layers=2)
PARAMS = init_params(CFG, np.random.default_rng(0))
TRUTH = GroundTruth.full([0.1, 0.9])


def _backward(ids):
    _, cache = forward(PARAMS, PROP)
    return backward(cache, TRUTH, ids)


CALLS = {
    "predict": lambda ids: predict(PARAMS, PROP, ids),
    "rmse": lambda ids: rmse(np.zeros(1), TRUTH, ids),
    "average_predict": lambda ids: average_predict(GRAPH, ids),
    "median_predict": lambda ids: median_predict(GRAPH, ids),
    "mse_loss": lambda ids: mse_loss(np.zeros(2), TRUTH, ids),
    "backward": _backward,
}

REFUSED = [
    ([0.7], "item ids must be integers of at most one dimension, got dtype float64 and shape (1,)"),
    ([True], "item ids must be integers of at most one dimension, got dtype bool and shape (1,)"),
    (["1"], "item ids must be integers of at most one dimension, got dtype <U1 and shape (1,)"),
    ([[0, 1]], "item ids must be integers of at most one dimension, got dtype int64 and shape (1, 2)"),
    (7, "unknown item index 7 (m=2)"),
    ([2**63], "unknown item index 9223372036854775808 (m=2)"),
]


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("ids,message", REFUSED)
def test_refused_ids_raise_exact_message(name, ids, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CALLS[name](ids)


@pytest.mark.parametrize("ids,dtype", [((0.7,), "float64"), (("1",), "<U1")])
def test_split_refuses_non_integer_ids(ids, dtype):
    message = f"item ids must be integers of at most one dimension, got dtype {dtype} and shape (1,)"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Split(train=ids, test=())


def test_known_scalar_id_is_answered():
    assert predict(PARAMS, PROP, 1) == predict(PARAMS, PROP, [1])[0]
    assert rmse(np.float64(0.9), TRUTH, 1) == 0.0
    assert average_predict(GRAPH, 0).tolist() == [0.375]
    assert median_predict(GRAPH, 0).tolist() == [0.375]  # a list of one, as the average


@pytest.mark.parametrize("fn", [average_predict, median_predict])
def test_baselines_name_an_ungraded_id_before_a_later_huge_one(fn):
    # numpy reads the list [1, 2**63] as float64, which is refused as non-integer.
    with pytest.raises(ValidationError, match="^item 'b' has no assessments$"):
        fn(GRAPH, np.array([1, 2**63], dtype=np.uint64))


def test_split_sorts_and_keeps_ids_as_python_ints():
    split = Split(train=np.array([5, 2, 9]), test=np.array([2**63, 0], dtype=np.uint64))
    assert split.train == (2, 5, 9) and split.test == (0, 2**63)
    assert all(type(i) is int for i in split.train + split.test)
    with pytest.raises(ValidationError, match="^train and test splits overlap$"):
        Split(train=[3, 1], test=np.array([1], dtype=np.uint8))
