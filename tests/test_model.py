"""Model forward/backward, optimizer, training loop, and checkpointing."""

import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from peergrade import (
    Dataset,
    GroundTruth,
    ModelParams,
    SchemaError,
    Split,
    TrainConfig,
    TrainingDivergedError,
    ValidationError,
    build_graph,
    build_scenario,
    default_scenario,
    load_model,
    monte_carlo_splits,
    predict,
    propagation_matrix,
    save_model,
    strategic_scenario,
    train,
)
from peergrade.harness import SplitConfig
from peergrade.model import (
    _elu,
    _elu_grad,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    mse_loss,
)

from conftest import random_graph


def elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def dense_forward(params, graph, h0):
    """Dense-matrix reference of the full forward pass (independent path)."""
    from conftest import dense_propagation

    N, _ = dense_propagation(graph)
    H = np.asarray(h0, dtype=np.float64)
    for W in params.W:
        H = elu(N @ H @ W)
    logits = H[graph.n:] @ params.w_out + params.b_out
    return expit(logits)


def copy_params(params):
    return ModelParams(W=tuple(w.copy() for w in params.W),
                       w_out=params.w_out.copy(), b_out=params.b_out)


def numerical_gradients(params, prop, truth, train_ids, step=1e-5):
    """Central finite differences of the training loss in every parameter."""

    def loss_at(p):
        preds, _ = forward(p, prop)
        return mse_loss(preds, truth, train_ids)

    def fd_matrix(index):
        base = params.W[index]
        grad = np.zeros_like(base)
        for pos in np.ndindex(*base.shape):
            for sign in (1.0, -1.0):
                W = list(copy_params(params).W)
                W[index] = W[index].copy()
                W[index][pos] += sign * step
                p = ModelParams(W=tuple(W), w_out=params.w_out, b_out=params.b_out)
                grad[pos] += sign * loss_at(p)
        return grad / (2 * step)

    g_W = [fd_matrix(i) for i in range(len(params.W))]
    g_w_out = np.zeros_like(params.w_out)
    for j in range(params.w_out.shape[0]):
        for sign in (1.0, -1.0):
            w = params.w_out.copy()
            w[j] += sign * step
            g_w_out[j] += sign * loss_at(replace(params, w_out=w))
    g_w_out /= 2 * step
    g_b = (loss_at(replace(params, b_out=params.b_out + step))
           - loss_at(replace(params, b_out=params.b_out - step))) / (2 * step)
    return ModelParams(W=tuple(g_W), w_out=g_w_out, b_out=g_b)


def max_relative_error(analytic, numeric):
    worst = 0.0
    pairs = list(zip(analytic.W, numeric.W))
    pairs.append((analytic.w_out, numeric.w_out))
    pairs.append((np.array([analytic.b_out]), np.array([numeric.b_out])))
    for a, n in pairs:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_instance(rng, max_nodes=6, max_dim=4, max_layers=3):
    graph = random_graph(rng, max_nodes=max_nodes, assess_density=0.7)
    prop = propagation_matrix(graph)
    cfg = TrainConfig(layers=int(rng.integers(1, max_layers + 1)),
                      dim=int(rng.integers(1, max_dim + 1)),
                      epochs=1, seed=int(rng.integers(0, 2**31)))
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    truth = GroundTruth.full(rng.uniform(0.0, 1.0, graph.m))
    size = int(rng.integers(1, graph.m + 1))
    train_ids = tuple(int(x) for x in rng.choice(graph.m, size=size, replace=False))
    return graph, prop, cfg, params, truth, train_ids


def _one_grade():
    """The operator of one user grading one item."""
    return propagation_matrix(build_graph([("u1", "i1", 0.8)]))


def _backward_without_train_ids():
    params = init_params(TrainConfig(layers=1, dim=2), np.random.default_rng(0))
    _, cache = forward(params, _one_grade())
    backward(cache, GroundTruth.full([0.5]), [])


@pytest.mark.parametrize("call, message", [
    (lambda: TrainConfig(learning_rate=0), "learning_rate must be > 0"),
    (lambda: TrainConfig(learning_rate=float("nan")), "learning_rate must be > 0"),
    # the input is one all-ones column: forward refuses a first layer made for a wider one
    (lambda: forward(ModelParams(W=(np.ones((2, 3)),), w_out=np.ones(3), b_out=0.0),
                     _one_grade()),
     "W[0] expects 2 input features, the 'ones' input has 1"),
    (lambda: mse_loss(np.array([0.5, 0.5]),
                      GroundTruth(np.array([0.5, np.nan]), np.array([True, False])), [1]),
     "every training item needs a known ground-truth value"),
    (_backward_without_train_ids, "training set is empty"),
])
def test_bad_arguments_named(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestInitParams:
    def test_shapes(self):
        cfg = TrainConfig(layers=2, dim=64)
        params = init_params(cfg, np.random.default_rng(0))
        assert params.W[0].shape == (1, 64)
        assert params.W[1].shape == (64, 64)
        assert params.w_out.shape == (64,)
        assert params.b_out == 0.0

    def test_seed_determinism(self):
        cfg = TrainConfig()
        p1 = init_params(cfg, np.random.default_rng(9))
        p2 = init_params(cfg, np.random.default_rng(9))
        for a, b in zip(p1.W, p2.W):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(p1.w_out, p2.w_out)

    def test_fan_bounds(self):
        cfg = TrainConfig(layers=2, dim=64)
        params = init_params(cfg, np.random.default_rng(1))
        assert np.max(np.abs(params.W[0])) <= np.sqrt(6.0 / (1 + 64))
        assert np.max(np.abs(params.W[1])) <= np.sqrt(6.0 / (64 + 64))


class TestForward:
    def test_zero_weights_predict_half(self):
        graph = build_graph([("u1", "i1", 0.8), ("u2", "i2", 0.5)])
        prop = propagation_matrix(graph)
        params = ModelParams(W=(np.zeros((1, 4)), np.zeros((4, 4))),
                             w_out=np.zeros(4), b_out=0.0)
        preds, _ = forward(params, prop)
        np.testing.assert_array_equal(preds, 0.5)

    def test_two_node_hand_computation(self):
        graph = build_graph([("u1", "i1", 0.8)])
        prop = propagation_matrix(graph)
        params = ModelParams(W=(np.ones((1, 1)),), w_out=np.ones(1), b_out=0.0)
        preds, cache = forward(params, prop)
        # N @ ones = [0.9, 0.9]; ELU(0.9) = 0.9; head = sigmoid(0.9)
        assert cache.h[-1][0, 0] == pytest.approx(0.9, abs=1e-15)
        assert preds[0] == pytest.approx(expit(0.9), abs=1e-15)

    def test_head_negation_flips_predictions(self):
        rng = np.random.default_rng(2)
        graph = random_graph(rng, n=4, m=3)
        prop = propagation_matrix(graph)
        cfg = TrainConfig(layers=2, dim=5)
        params = init_params(cfg, rng)
        preds, _ = forward(params, prop)
        flipped, _ = forward(replace(params, w_out=-params.w_out), prop)
        np.testing.assert_allclose(flipped, 1.0 - preds, atol=1e-12)

    def test_one_input_feature_equals_matmul_bitwise(self):
        # Every row of N @ 1 is positive (each node has a self-loop), times
        # signed zeros, subnormal, tiny and infinite weights.
        graph = random_graph(np.random.default_rng(4), n=6, m=5)
        prop = propagation_matrix(graph)
        W = np.array([[-0.5, 0.0, -0.0, 5e-324, -1e-300, 2.0, -np.inf]])
        params = ModelParams(W=(W, np.ones((7, 7))), w_out=np.ones(7), b_out=0.0)
        _, cache = forward(params, prop)
        expected = (prop.N @ np.ones((prop.size, 1))) @ W
        assert cache.z[0].tobytes() == expected.tobytes()

    def test_shape_mismatch_rejected(self):
        graph = build_graph([("u1", "i1", 0.8)])
        prop = propagation_matrix(graph)
        params = ModelParams(W=(np.ones((3, 2)),), w_out=np.ones(2), b_out=0.0)
        with pytest.raises(ValidationError):
            forward(params, prop)

    def test_sparse_equals_dense_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(9, 17 - n)))
            graph = random_graph(rng, n=n, m=m)
            prop = propagation_matrix(graph)
            cfg = TrainConfig(layers=int(rng.integers(1, 4)), dim=int(rng.integers(1, 5)))
            params = init_params(cfg, rng)
            preds, _ = forward(params, prop)
            ref = dense_forward(params, graph, np.ones((prop.size, 1)))
            np.testing.assert_allclose(preds, ref, atol=1e-10)

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        graph = random_graph(rng, n=6, m=6)
        prop = propagation_matrix(graph)
        params = init_params(TrainConfig(), rng)
        preds, _ = forward(params, prop)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)

    def test_second_pass_writes_into_the_cache(self):
        rng = np.random.default_rng(15)
        graph = random_graph(rng, n=7, m=6)
        prop = propagation_matrix(graph)
        first = init_params(TrainConfig(layers=3, dim=4), rng)
        second = init_params(TrainConfig(layers=3, dim=4), rng)
        _, cache = forward(first, prop)
        kept = lambda c: [*c.h, *c.z, *c.d_z, c.propagated[0], c.propagated[-1], c.item_N,
                          c.item_NT, c.NT]
        arrays = kept(cache)
        # backward's transposed operators are CSC views of the forward ones, not copies
        for view, mat in ((cache.item_NT, cache.item_N), (cache.NT, prop.N)):
            assert view.format == "csc" and view.shape == mat.shape[::-1]
            assert all(np.shares_memory(getattr(view, k), getattr(mat, k)) for k in ("data", "indices", "indptr"))
        preds, again = forward(second, prop, cache)
        assert again is cache and again.params is second
        assert all(a is b for a, b in zip(kept(again), arrays))
        fresh_preds, fresh = forward(second, prop)
        assert preds.tobytes() == fresh_preds.tobytes()
        for a, b in zip([*again.h, *again.z, *again.propagated],
                        [*fresh.h, *fresh.z, *fresh.propagated]):
            assert a.tobytes() == b.tobytes()

    def test_last_layer_arrays_hold_item_rows_only(self):
        # The head reads item rows only, so the last layer's four arrays hold
        # m rows, and a second pass writes into them.
        rng = np.random.default_rng(19)
        graph = random_graph(rng, n=9, m=4, social_density=0.9)
        prop = propagation_matrix(graph)
        truth = GroundTruth.full(rng.uniform(0, 1, graph.m))
        last = lambda c: [c.propagated[-1], c.z[-1], c.h[-1], c.d_z[-1]]
        for layers in (1, 2, 3):
            cfg = TrainConfig(layers=layers, dim=3)
            _, cache = forward(init_params(cfg, rng), prop)
            backward(cache, truth, (0, 2))
            arrays = last(cache)
            assert [a.shape[0] for a in arrays] == [prop.m] * 4
            params = init_params(cfg, rng)
            _, again = forward(params, prop, cache)
            backward(again, truth, (0, 2))
            assert all(a is b for a, b in zip(last(again), arrays))
            _, fresh = forward(params, prop)
            backward(fresh, truth, (0, 2))
            for a, b in zip(arrays, last(fresh)):
                assert a.tobytes() == b.tobytes()
            assert (cache.item_N != prop.N[prop.n:]).nnz == 0

    def test_cache_is_not_reused_across_inputs(self):
        rng = np.random.default_rng(16)
        graph = random_graph(rng, n=5, m=5)
        prop = propagation_matrix(graph)
        params = init_params(TrainConfig(layers=2, dim=3), rng)
        _, cache = forward(params, prop)
        # another operator or layer widths cannot use this cache
        wider = init_params(TrainConfig(layers=2, dim=4), rng)
        for args in ((params, propagation_matrix(graph)), (wider, prop)):
            with pytest.raises(ValidationError, match="forward cache"):
                forward(*args, cache)


class TestLoss:
    def test_perfect_predictions_zero_loss(self):
        truth = GroundTruth.full([0.2, 0.8])
        assert mse_loss(np.array([0.2, 0.8]), truth, [0, 1]) == 0.0

    def test_single_item(self):
        truth = GroundTruth.full([0.7])
        assert mse_loss(np.array([0.5]), truth, [0]) == pytest.approx(0.04, abs=1e-15)

    def test_two_items(self):
        truth = GroundTruth.full([0.5, 0.5])
        preds = np.array([0.4, 0.2])
        assert mse_loss(preds, truth, [0, 1]) == pytest.approx(0.05, abs=1e-15)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValidationError):
            mse_loss(np.array([0.5]), GroundTruth.full([0.5]), [])


class TestBackward:
    def test_zero_weights_with_half_truth_is_stationary(self):
        graph = build_graph([("u1", "i1", 0.8)])
        prop = propagation_matrix(graph)
        params = ModelParams(W=(np.zeros((1, 3)),), w_out=np.zeros(3), b_out=0.0)
        truth = GroundTruth.full([0.5])
        preds, cache = forward(params, prop)
        grads = backward(cache, truth, (0,))
        assert grads.b_out == 0.0
        np.testing.assert_array_equal(grads.w_out, 0.0)

    def test_matches_finite_differences_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            _, prop, _, params, truth, train_ids = random_instance(rng)
            preds, cache = forward(params, prop)
            analytic = backward(cache, truth, train_ids)
            numeric = numerical_gradients(params, prop, truth, train_ids)
            assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("layers", (1, 2, 3))
    @pytest.mark.parametrize("m", (1, 2))
    def test_tiny_item_counts_match_oracles(self, m, layers):
        # The last layer's GEMMs have m rows here, where numpy may take its
        # GEMV or dot path instead of GEMM.
        rng = np.random.default_rng(10 * m + layers)
        for _ in range(4):
            graph = random_graph(rng, n=int(rng.integers(1, 9)), m=m)
            prop = propagation_matrix(graph)
            cfg = TrainConfig(layers=layers, dim=int(rng.integers(1, 5)))
            params = init_params(cfg, rng)
            truth = GroundTruth.full(rng.uniform(0.0, 1.0, m))
            train_ids = tuple(range(m))
            preds, cache = forward(params, prop)
            np.testing.assert_allclose(
                preds, dense_forward(params, graph, np.ones((prop.size, 1))), atol=1e-10)
            numeric = numerical_gradients(params, prop, truth, train_ids)
            assert max_relative_error(backward(cache, truth, train_ids), numeric) < 1e-4


def masked_elu(x):
    """Loop-style reference: the ELU branch applied through a boolean mask."""
    out = x.copy()
    out[x <= 0] = np.expm1(x[x <= 0])
    grad = np.ones_like(x)
    grad[x <= 0] = np.exp(x[x <= 0])
    return out, grad


def reference_forward(params, prop, h0):
    """The forward pass from fresh arrays and the masked ELU; the last layer on item rows."""
    h, z, propagated = [h0], [], []
    top = len(params.W) - 1
    for layer, W in enumerate(params.W):
        N = prop.N[prop.n:] if layer == top else prop.N
        propagated.append(N @ h[-1])
        z.append(propagated[-1] @ W)
        h.append(masked_elu(z[-1])[0])
    return expit(h[-1] @ params.w_out + params.b_out), (h, z, propagated)


def reference_backward(params, prop, saved, preds, truth, train_ids):
    """The backward pass from fresh arrays, masked ELU gradient; the last layer on item rows."""
    h, z, propagated = saved
    ids = np.asarray(train_ids)
    d_pred = np.zeros(prop.m)
    d_pred[ids] = 2.0 * (preds[ids] - truth.v[ids]) / ids.size
    d_logit = d_pred * preds * (1.0 - preds)
    d_h = np.outer(d_logit, params.w_out)
    top = len(params.W) - 1
    g_W = [None] * len(params.W)
    for layer in reversed(range(len(params.W))):
        d_z = d_h * masked_elu(z[layer])[1]
        g_W[layer] = propagated[layer].T @ d_z
        if layer:
            N = prop.N[prop.n:] if layer == top else prop.N
            d_h = N.T @ (d_z @ params.W[layer].T)
    return ModelParams(W=tuple(g_W), w_out=h[-1].T @ d_logit, b_out=float(d_logit.sum()))


def reference_train(dataset, cfg, prop):
    """:func:`train` with every epoch built from fresh arrays."""
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    state = init_adam_state(params)
    history = []
    for _ in range(cfg.epochs):
        preds, saved = reference_forward(params, prop, np.ones((prop.size, 1)))
        history.append(mse_loss(preds, dataset.truth, dataset.split.train))
        grads = reference_backward(params, prop, saved, preds, dataset.truth,
                                   dataset.split.train)
        params, state = adam_step(params, grads, state, cfg)
    return params, history


def assert_trains_as_reference(dataset, cfg, prop):
    """:func:`train` and :func:`reference_train` agree bit for bit."""
    params, history = train(dataset, cfg, prop)
    ref_params, ref_history = reference_train(dataset, cfg, prop)
    assert np.asarray(history).tobytes() == np.asarray(ref_history).tobytes()
    for a, b in zip((*params.W, params.w_out), (*ref_params.W, ref_params.w_out)):
        assert a.tobytes() == b.tobytes()
    assert params.b_out == ref_params.b_out


def per_tensor_adam(params, grads, moments, t, cfg):
    """Reference Adam at Kingma & Ba's defaults: one update per parameter tensor.

    ``moments`` is a list of (m, v)."""
    tensors = lambda p: [*p.W, p.w_out, np.array([p.b_out])]
    new_p, new_moments = [], []
    for p, g, (m, v) in zip(tensors(params), tensors(grads), moments):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        new_p.append(p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8))
        new_moments.append((m, v))
    k = len(params.W)
    return ModelParams(W=tuple(new_p[:k]), w_out=new_p[k], b_out=float(new_p[k + 1][0])), new_moments


class TestElu:
    def test_equals_masked_reference_bitwise(self):
        x = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 800.0, -800.0, np.inf, -np.inf, np.nan],
            np.random.default_rng(11).normal(scale=3.0, size=989),
        ]).reshape(-1, 8)
        out, grad = masked_elu(x)
        assert _elu(x).tobytes() == out.tobytes()
        assert _elu_grad(x).tobytes() == grad.tobytes()

    def test_random_lengths_offsets_and_specials_bitwise(self):
        # Lengths and start offsets vary so that vector bodies and scalar
        # tails both run; ``out=`` buffers are offset too.
        rng = np.random.default_rng(14)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                            800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan])
        for _ in range(400):
            size, offset = int(rng.integers(1, 3001)), int(rng.integers(0, 8))
            x = np.empty(size + offset)[offset:]
            x[:] = rng.normal(scale=3.0, size=size)
            hits = rng.integers(0, size, size=int(rng.integers(0, size + 1)))
            x[hits] = rng.choice(special, size=hits.size)
            out, grad = masked_elu(x)
            for buf in (None, np.empty(size + offset + 1)[offset + 1:]):
                assert _elu(x, out=buf).tobytes() == out.tobytes()
                assert _elu_grad(x, out=buf).tobytes() == grad.tobytes()


class TestAdam:
    def test_equals_per_tensor_reference_bitwise(self):
        rng = np.random.default_rng(12)
        params = init_params(TrainConfig(layers=3, dim=5), rng)
        cfg = TrainConfig(learning_rate=0.05)
        state = init_adam_state(params)
        ref_params = params
        moments = [(np.zeros_like(a), np.zeros_like(a))
                   for a in (*params.W, params.w_out, np.zeros(1))]
        for t in range(1, 8):
            grads = ModelParams(W=tuple(rng.normal(size=w.shape) for w in params.W),
                                w_out=rng.normal(size=params.w_out.shape),
                                b_out=float(rng.normal()))
            params, state = adam_step(params, grads, state, cfg)
            ref_params, moments = per_tensor_adam(ref_params, grads, moments, t, cfg)
            for a, b in zip(params.W, ref_params.W):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(params.w_out, ref_params.w_out)
            assert params.b_out == ref_params.b_out
        assert state.t == 7

    def test_first_step_is_signed_learning_rate(self):
        params = ModelParams(W=(np.array([[1.0, -2.0]]),),
                             w_out=np.array([3.0, -1.0]), b_out=0.5)
        grads = ModelParams(W=(np.array([[0.3, -0.2]]),),
                            w_out=np.array([5.0, -0.01]), b_out=1.0)
        cfg = TrainConfig(learning_rate=0.02)
        state = init_adam_state(params)
        updated, state = adam_step(params, grads, state, cfg)
        np.testing.assert_allclose(
            updated.W[0], params.W[0] - 0.02 * np.sign(grads.W[0]), atol=1e-6)
        assert updated.b_out == pytest.approx(0.5 - 0.02, abs=1e-6)
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        params = ModelParams(W=(np.array([[1.0]]),), w_out=np.array([2.0]), b_out=0.5)
        grads = ModelParams(W=(np.zeros((1, 1)),), w_out=np.zeros(1), b_out=0.0)
        state = init_adam_state(params)
        updated, state = adam_step(params, grads, state, TrainConfig())
        np.testing.assert_array_equal(updated.W[0], params.W[0])
        assert updated.b_out == params.b_out
        assert state.t == 1

    def test_identical_gradient_sequences_identical_trajectories(self):
        rng = np.random.default_rng(10)
        params1 = ModelParams(W=(rng.normal(size=(2, 2)),), w_out=rng.normal(size=2), b_out=0.0)
        params2 = copy_params(params1)
        s1, s2 = init_adam_state(params1), init_adam_state(params2)
        cfg = TrainConfig()
        for _ in range(5):
            g = ModelParams(W=(rng.normal(size=(2, 2)),), w_out=rng.normal(size=2), b_out=0.1)
            params1, s1 = adam_step(params1, g, s1, cfg)
            params2, s2 = adam_step(params2, g, s2, cfg)
        np.testing.assert_array_equal(params1.W[0], params2.W[0])
        np.testing.assert_array_equal(params1.w_out, params2.w_out)


@pytest.fixture(scope="module")
def small_dataset():
    ds = build_scenario(default_scenario(seed=3, n=40, m=40))
    split = monte_carlo_splits(40, SplitConfig(train_fraction=0.2, n_splits=1, seed=0))[0]
    return replace(ds, split=split)


class TestTrain:
    def test_loss_decreases(self, small_dataset):
        cfg = TrainConfig(epochs=150, seed=0)
        _, history = train(small_dataset, cfg)
        assert history[-1] < history[0]
        assert len(history) == 150

    def test_single_epoch_history(self, small_dataset):
        _, history = train(small_dataset, TrainConfig(epochs=1, seed=0))
        assert len(history) == 1

    def test_seed_determinism(self, small_dataset):
        cfg = TrainConfig(epochs=40, seed=7)
        p1, h1 = train(small_dataset, cfg)
        p2, h2 = train(small_dataset, cfg)
        assert h1 == h2
        for a, b in zip(p1.W, p2.W):
            np.testing.assert_array_equal(a, b)

    def test_requires_split(self):
        ds = build_scenario(default_scenario(seed=3, n=10, m=10))
        with pytest.raises(ValidationError):
            train(ds, TrainConfig(epochs=1))

    def test_pinned_bits(self, small_dataset):
        # sha256 of the float64 loss history, then W[0], W[1], w_out and
        # b_out, recorded when the grader draw became Floyd's sampling (a new
        # random stream for the data set).  Any change to the arithmetic of an
        # epoch shows.
        params, history = train(small_dataset, TrainConfig(epochs=50, seed=0))
        digest = hashlib.sha256(np.asarray(history, dtype=np.float64).tobytes())
        for array in (*params.W, params.w_out, np.float64(params.b_out)):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "5e5374400e58f4e2b64d2938fb6ffe1bb176221e703e358375806f8e73fe537b")

    def test_equals_fresh_array_reference_bitwise(self):
        rng = np.random.default_rng(17)
        for trial in range(24):
            graph = random_graph(rng, max_nodes=30, assess_density=0.3)
            prop = propagation_matrix(graph)
            ids = rng.permutation(graph.m)
            size = int(rng.integers(1, graph.m + 1))
            dataset = Dataset(graph=graph, truth=GroundTruth.full(rng.uniform(0, 1, graph.m)),
                              split=Split(train=ids[:size], test=ids[size:]))
            cfg = TrainConfig(layers=int(rng.integers(1, 4)), dim=int(rng.integers(1, 9)),
                              epochs=int(rng.integers(1, 31)), seed=trial)
            assert_trains_as_reference(dataset, cfg, prop)

    def test_social_heavy_graphs_equal_fresh_array_reference_bitwise(self):
        # User-user ties hold most of N's entries, as on the strategic
        # campaign, so the user rows the last layer skips carry most of N;
        # one-layer models included.
        rng = np.random.default_rng(18)
        graphs = [build_scenario(strategic_scenario(seed=4, n=40, m=40, p=0.5)).graph]
        for _ in range(23):
            graphs.append(random_graph(rng, n=int(rng.integers(8, 31)), m=int(rng.integers(1, 7)),
                                       social_density=0.9, own_density=0.1, assess_density=0.3))
        for trial, graph in enumerate(graphs):
            prop = propagation_matrix(graph)
            assert prop.N[:graph.n].nnz > 2 * prop.N[graph.n:].nnz
            ids = rng.permutation(graph.m)
            size = int(rng.integers(1, graph.m + 1))
            dataset = Dataset(graph=graph, truth=GroundTruth.full(rng.uniform(0, 1, graph.m)),
                              split=Split(train=ids[:size], test=ids[size:]))
            cfg = TrainConfig(layers=(1, 2, 3)[trial % 3], dim=int(rng.integers(1, 9)),
                              epochs=int(rng.integers(1, 31)), seed=trial)
            assert_trains_as_reference(dataset, cfg, prop)

    def test_divergence_aborts_with_epoch(self, small_dataset):
        # an absurd learning rate overflows the layer products within a step
        cfg = TrainConfig(epochs=50, learning_rate=1e154, seed=0)
        with pytest.raises(TrainingDivergedError) as excinfo:
            with np.errstate(over="ignore", invalid="ignore"):
                train(small_dataset, cfg)
        assert excinfo.value.epoch >= 1


class TestPredict:
    def test_all_items_length(self, small_dataset):
        cfg = TrainConfig(epochs=30, seed=0)
        params, _ = train(small_dataset, cfg)
        prop = propagation_matrix(small_dataset.graph)
        preds = predict(params, prop, range(40))
        assert preds.shape == (40,)
        assert np.all((preds > 0) & (preds < 1))

    def test_permutation_consistency(self, small_dataset):
        cfg = TrainConfig(epochs=30, seed=0)
        params, _ = train(small_dataset, cfg)
        prop = propagation_matrix(small_dataset.graph)
        order = np.array([5, 3, 9, 0])
        np.testing.assert_array_equal(predict(params, prop, order),
                                      predict(params, prop, range(40))[order])

    def test_unknown_item_rejected(self, small_dataset):
        cfg = TrainConfig(epochs=5, seed=0)
        params, _ = train(small_dataset, cfg)
        prop = propagation_matrix(small_dataset.graph)
        with pytest.raises(ValidationError):
            predict(params, prop, [40])

    def test_edge_insertion_order_never_changes_predictions(self):
        rng = np.random.default_rng(21)
        edges = [(f"u{j}", f"i{j % 5}", round(float(rng.uniform(0.1, 1.0)), 6))
                 for j in range(15)]
        cfg = TrainConfig(epochs=25, dim=4, seed=0)
        preds = []
        for ordering in (edges, edges[::-1]):
            graph = build_graph(ordering)
            prop = propagation_matrix(graph)
            params = init_params(cfg, np.random.default_rng(cfg.seed))
            p, _ = forward(params, prop)
            preds.append(p)
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_truth_never_enters_prediction(self, small_dataset):
        cfg = TrainConfig(epochs=50, seed=1)
        params, _ = train(small_dataset, cfg)
        prop = propagation_matrix(small_dataset.graph)
        before = predict(params, prop, range(40))

        tampered_v = small_dataset.truth.v.copy()
        test_ids = list(small_dataset.split.test)
        tampered_v[test_ids] = np.clip(tampered_v[test_ids] + 0.31, 0, 1) % 1.0
        tampered = Dataset(graph=small_dataset.graph,
                           truth=GroundTruth.full(tampered_v),
                           split=small_dataset.split)
        params2, _ = train(tampered, cfg)
        after = predict(params2, prop, range(40))
        np.testing.assert_array_equal(before, after)


class TestMemory:
    LIMIT_MB = 40

    def test_forward_peak(self):
        # A dense (n+m)^2 operator alone would take 275 MB here.
        prop = propagation_matrix(build_scenario(default_scenario(seed=0, n=3000, m=3000)).graph)
        params = init_params(TrainConfig(), np.random.default_rng(0))
        tracemalloc.start()
        try:
            forward(params, prop)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT_MB


class TestCheckpoint:
    def test_round_trip_exact(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=20, seed=5)
        params, _ = train(small_dataset, cfg)
        path = tmp_path / "model.json"
        save_model(params, cfg, path)
        loaded, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        for a, b in zip(params.W, loaded.W):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(params.w_out, loaded.w_out)
        assert params.b_out == loaded.b_out

    def test_rejects_input_width_other_than_one(self, tmp_path):
        # W[0] is read as one row, the width of the all-ones input
        cfg = TrainConfig(epochs=1, layers=1, dim=2)
        params = ModelParams(W=(np.zeros((2, 2)),), w_out=np.zeros(2), b_out=0.0)
        path = tmp_path / "model.json"
        save_model(params, cfg, path)
        message = "/weights/W/0: 4 weights do not fit shape (1, 2)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_rejects_the_removed_input_width_key(self, tmp_path):
        import json
        cfg = TrainConfig(epochs=1, layers=1, dim=2)
        params = ModelParams(W=(np.zeros((1, 2)),), w_out=np.zeros(2), b_out=0.0)
        path = tmp_path / "model.json"
        save_model(params, cfg, path)
        doc = json.loads(path.read_text())
        assert "d0" not in doc
        path.write_text(json.dumps({**doc, "d0": 1}))
        with pytest.raises(SchemaError, match="^/: unknown key 'd0'$"):
            load_model(path)

    def test_rejects_unknown_key(self, tmp_path):
        import json
        cfg = TrainConfig(epochs=1, layers=1, dim=2)
        params = ModelParams(W=(np.zeros((1, 2)),), w_out=np.zeros(2), b_out=0.0)
        path = tmp_path / "model.json"
        save_model(params, cfg, path)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_model(path)
