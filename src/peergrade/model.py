"""Graph convolutional regressor with a logistic head, trained from scratch.

Architecture: K propagation layers followed by a sigmoid readout on item rows,

    H[l+1] = ELU(N @ H[l] @ W[l])          l = 0 .. K-1
    yhat_i = sigmoid(w_out . H[K][n+i] + b_out)

where ``N`` is the row-normalized operator from :mod:`peergrade.graph`
(users in rows 0..n-1, items in rows n..n+m-1).  Training minimizes the mean
square error over the labeled items with full-batch Adam; gradients are
computed by hand-written reverse-mode differentiation.  Everything is 64-bit
and deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit as sigmoid

from .errors import SchemaError, TrainingDivergedError, ValidationError
from .graph import Dataset, GroundTruth, PropagationMatrix, _item_ids, propagation_matrix
from .schema import document_json, from_doc, read_document, to_doc

FEATURE_KINDS = ("ones",)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters: 2 layers of width 64, 800 epochs of Adam at lr 0.02."""

    layers: int = 2
    dim: int = 64
    epochs: int = 800
    learning_rate: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    features: str = "ones"

    def __post_init__(self):
        if self.layers < 1 or self.dim < 1 or self.epochs < 1:
            raise ValidationError("layers, dim and epochs must all be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} must be >= 0")
        if self.features not in FEATURE_KINDS:
            raise ValidationError(f"features must be one of {FEATURE_KINDS}")


@dataclass(frozen=True)
class ModelParams:
    """Layer weights plus the logistic head.  Treat as immutable once trained.

    The same container carries gradients (one array per parameter tensor).
    """

    W: tuple[np.ndarray, ...]
    w_out: np.ndarray
    b_out: float

    @property
    def layers(self) -> int:
        return len(self.W)


@dataclass
class AdamState:
    """First/second moment accumulators over the flattened parameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class ForwardCache:
    """Per-layer intermediates kept for backpropagation.

    The head reads only item rows, so the last layer's sparse products and
    ELU are computed on those: the user rows of ``h[-1]`` and ``d_z[-1]``
    stay +0.0, and above the first layer those of ``propagated[-1]`` and
    ``z[-1]`` too.  Passed back to :func:`forward`, its arrays are
    overwritten in place.
    """

    h: list[np.ndarray]           # H[0] .. H[K]
    z: list[np.ndarray]           # pre-activations Z[1] .. Z[K]
    d_z: list[np.ndarray]         # backward's buffers, shaped as z
    propagated: list[np.ndarray]  # N @ H[l] for l = 0 .. K-1
    item_N: sp.csr_matrix         # N[n:], the rows the last layer computes
    predictions: np.ndarray
    params: ModelParams  # the parameters this pass ran with
    prop: PropagationMatrix


def initial_features(kind: str, prop: PropagationMatrix) -> np.ndarray:
    """Default node features: one all-ones column, the only kind in ``FEATURE_KINDS``."""
    if kind == "ones":
        return np.ones((prop.size, 1))
    raise ValidationError(f"unknown feature kind {kind!r}")


def init_params(cfg: TrainConfig, d0: int, rng: np.random.Generator) -> ModelParams:
    """Uniform fan-based initialization; head bias starts at zero."""
    shapes = [(d0, cfg.dim)] + [(cfg.dim, cfg.dim)] * (cfg.layers - 1)
    W = []
    for fan_in, fan_out in shapes:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    head_bound = np.sqrt(6.0 / (cfg.dim + 1))
    w_out = rng.uniform(-head_bound, head_bound, size=cfg.dim)
    return ModelParams(W=tuple(W), w_out=w_out, b_out=0.0)


# Branch-free, and bit for bit what masking with x <= 0 gives: expm1(x) >= x for
# x <= 0, positives reach expm1/exp as -0.0/0.0 (so they cannot overflow), -0.0
# stays -0.0, and NaN takes the positive branch (fmin drops it, maximum keeps
# it).  ``out`` must not be ``x``.
def _elu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    out = np.expm1(np.fmin(x, -0.0, out=out), out=out)
    return np.maximum(out, x, out=out)


def _elu_grad(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    out = np.fmin(x, 0.0, out=out)
    return np.exp(out, out=out)


def forward(
    params: ModelParams, prop: PropagationMatrix, h0, cache: Optional[ForwardCache] = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on dense ``h0``; returns item predictions plus the cache.

    Given the cache of an earlier pass with the same ``prop`` and ``h0`` objects
    and layer widths, writes into its arrays (``N @ h0`` is reused, so ``h0``
    must not change in place) and returns it; any other cache is a ValidationError.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.ndim != 2 or h0.shape[0] != prop.size:
        raise ValidationError(
            f"feature matrix has shape {h0.shape}, expected ({prop.size}, d0)"
        )
    if params.W[0].shape[0] != h0.shape[1]:
        raise ValidationError(
            f"W[0] expects {params.W[0].shape[0]} input features, h0 has {h0.shape[1]}"
        )

    shapes = [(prop.size, W.shape[1]) for W in params.W]
    if cache is None:
        def buffers():  # the last layer writes only item rows, so its buffer starts zeroed
            return [*map(np.empty, shapes[:-1]), np.zeros(shapes[-1])]

        # Above the first layer, only the last layer's N @ H buffer is kept;
        # the others are replaced by each pass.
        cache = ForwardCache(h=[h0, *buffers()], z=buffers(), d_z=buffers(),
                             propagated=[prop.N @ h0, *map(np.zeros, shapes[:-1])],
                             item_N=prop.N[prop.n:], predictions=None, params=params, prop=prop)
    elif cache.prop is not prop or cache.h[0] is not h0 or [z.shape for z in cache.z] != shapes:
        raise ValidationError("forward cache was made for another operator, input or layer widths")
    top = params.layers - 1
    for layer, W in enumerate(params.W):
        # The head reads item rows only, so the last layer's N @ H and ELU skip the rest.
        rows = slice(prop.n if layer == top else 0, None)
        if layer == top and layer:
            cache.propagated[layer][rows] = cache.item_N @ cache.h[layer]
        elif layer:
            cache.propagated[layer] = prop.N @ cache.h[layer]
        # Full-size even on the last layer: OpenBLAS picks its kernels by
        # shape, so a GEMM on item rows alone can round differently.
        z = np.matmul(cache.propagated[layer], W, out=cache.z[layer])
        _elu(z[rows], out=cache.h[layer + 1][rows])

    cache.predictions = sigmoid(cache.h[-1][prop.n:] @ params.w_out + params.b_out)
    cache.params = params
    return cache.predictions, cache


def mse_loss(predictions: np.ndarray, truth: GroundTruth, train_ids: Sequence[int]) -> float:
    """Mean square error over the training items.

    ``predictions`` covers all items (output of :func:`forward`).
    """
    ids = _item_ids(train_ids, len(truth))
    if ids.size == 0:
        raise ValidationError("training set is empty")
    if not np.all(truth.mask[ids]):
        raise ValidationError("every training item needs a known ground-truth value")
    err = truth.v[ids] - predictions[ids]
    return float(np.mean(err * err))


def backward(
    params: ModelParams,
    prop: PropagationMatrix,
    cache: ForwardCache,
    truth: GroundTruth,
    train_ids: Sequence[int],
) -> ModelParams:
    """Exact gradients of the training loss w.r.t. every parameter."""
    if cache.params is not params:
        raise ValidationError("forward cache does not match these parameters")
    ids = _item_ids(train_ids, prop.m)
    if ids.size == 0:
        raise ValidationError("training set is empty")

    preds = cache.predictions
    d_pred = np.zeros(prop.m)
    d_pred[ids] = 2.0 * (preds[ids] - truth.v[ids]) / ids.size
    d_logit = d_pred * preds * (1.0 - preds)

    g_w_out = cache.h[-1][prop.n:].T @ d_logit
    g_b_out = float(d_logit.sum())

    # d_h is zero on user rows (they do not reach the head), so the last
    # layer's d_z is computed on item rows only; its user rows stay +0.0.
    d_z = cache.d_z
    item_d_z = _elu_grad(cache.z[-1][prop.n:], out=d_z[-1][prop.n:])
    item_d_z *= np.outer(d_logit, params.w_out)

    # The GEMMs stay full-size, as in forward: zero user rows add nothing.
    top = params.layers - 1
    g_W: list[np.ndarray] = [np.empty(0)] * params.layers
    for layer in range(top, -1, -1):
        g_W[layer] = cache.propagated[layer].T @ d_z[layer]
        if layer > 0:
            # d_z @ W.T borrows the lower layer's buffer until N.T has taken it;
            # on the last layer only its item rows are nonzero.
            x = np.matmul(d_z[layer], params.W[layer].T, out=d_z[layer - 1])
            d_h = cache.item_N.T @ x[prop.n:] if layer == top else prop.N.T @ x
            _elu_grad(cache.z[layer - 1], out=d_z[layer - 1])
            d_z[layer - 1] *= d_h
    return ModelParams(W=tuple(g_W), w_out=g_w_out, b_out=g_b_out)


def _flat(params: ModelParams) -> np.ndarray:
    return np.concatenate([*(w.ravel() for w in params.W), params.w_out, [params.b_out]])


def init_adam_state(params: ModelParams) -> AdamState:
    size = _flat(params).size
    return AdamState(m=np.zeros(size), v=np.zeros(size), t=0)


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, cfg: TrainConfig
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, elementwise over the flattened parameters."""
    g = _flat(grads)
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    # numpy's power overflows to inf, where a float's raises OverflowError
    m_hat = m / (1.0 - np.float64(cfg.beta1) ** t)
    v_hat = v / (1.0 - np.float64(cfg.beta2) ** t)
    p = _flat(params) - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    *flat_W, head = np.split(p, np.cumsum([w.size for w in params.W]))
    W = tuple(w.reshape(old.shape) for w, old in zip(flat_W, params.W))
    return ModelParams(W=W, w_out=head[:-1], b_out=float(head[-1])), AdamState(m=m, v=v, t=t)


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    prop: Optional[PropagationMatrix] = None,
) -> tuple[ModelParams, list[float]]:
    """Full-batch training; returns last-epoch parameters and per-epoch loss.

    Each epoch runs one forward pass over the whole graph, computes the loss
    on the train split only, and takes one Adam step.  There is no early
    stopping and no validation split.
    """
    if dataset.split is None or not dataset.split.train:
        raise ValidationError("dataset has no train split")
    train_ids = _item_ids(dataset.split.train, dataset.graph.m)  # once, not per epoch
    if prop is None:
        prop = propagation_matrix(dataset.graph)
    h0 = initial_features(cfg.features, prop)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, h0.shape[1], rng)
    state = init_adam_state(params)

    history: list[float] = []
    cache = None
    for epoch in range(cfg.epochs):
        preds, cache = forward(params, prop, h0, cache)
        loss = mse_loss(preds, dataset.truth, train_ids)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, loss)
        history.append(loss)
        grads = backward(params, prop, cache, dataset.truth, train_ids)
        params, state = adam_step(params, grads, state, cfg)
    if not np.all(np.isfinite(_flat(params))):  # the last step diverged; no loss saw it
        raise TrainingDivergedError(cfg.epochs, float("nan"))
    return params, history


def predict(
    params: ModelParams,
    prop: PropagationMatrix,
    h0: np.ndarray,
    item_ids: Sequence[int],
) -> np.ndarray:
    """Predicted valuations for the requested items, in request order."""
    ids = _item_ids(item_ids, prop.m)
    preds, _ = forward(params, prop, h0)
    return preds[ids]


# --- checkpoint serialization ------------------------------------------------

@dataclass(frozen=True)
class _Weights:
    W: list[list[float]]  # row-major flattened, one list per layer
    w_out: list[float]
    b_out: float


@dataclass(frozen=True)
class _Checkpoint:
    """A ``model-checkpoint`` document: config echo, input width and weights."""

    train_config: TrainConfig
    d0: int
    weights: _Weights


def save_model(params: ModelParams, cfg: TrainConfig, path) -> None:
    weights = _Weights(W=[w.reshape(-1).tolist() for w in params.W],
                       w_out=params.w_out.tolist(), b_out=params.b_out)
    doc = to_doc(_Checkpoint(train_config=cfg, d0=int(params.W[0].shape[0]), weights=weights))
    Path(path).write_text(document_json("model-checkpoint", doc), encoding="utf-8")


def load_model(path) -> tuple[ModelParams, TrainConfig]:
    doc = from_doc(_Checkpoint, read_document(path, "model-checkpoint"))
    cfg, weights = doc.train_config, doc.weights

    def array(values, shape, where):
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != np.prod(shape):
            raise SchemaError(f"{where}: {arr.size} weights do not fit shape {shape}")
        return arr.reshape(shape)

    if doc.d0 != 1:
        raise SchemaError(f"/d0: {doc.d0} input features, the 'ones' input has 1")
    if len(weights.W) != cfg.layers:
        raise SchemaError(f"/weights/W: {len(weights.W)} weight matrices, config expects {cfg.layers}")
    params = ModelParams(
        W=tuple(array(w, (doc.d0 if layer == 0 else cfg.dim, cfg.dim), f"/weights/W/{layer}")
                for layer, w in enumerate(weights.W)),
        w_out=array(weights.w_out, (cfg.dim,), "/weights/w_out"),
        b_out=weights.b_out,
    )
    return params, cfg
