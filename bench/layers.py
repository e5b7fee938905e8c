"""Per-layer metrics, computed from the spans of one traced iteration.

``TRACED`` lists every public function the traced run wraps, by the module
that defines it, with the span name it gets.  :func:`per_layer` computes
every per-layer metric of ``BENCHMARK.json``, 0 where the workload does not
reach the layer; their units and directions are kept there.
"""

from __future__ import annotations

import statistics
import tracemalloc
from pathlib import Path

from spans import Span, rebind, self_times, unbind


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _built(args, kwargs, result) -> dict:
    return {"social_edges": int(result.graph.S.nnz // 2),
            "assessments": int(result.graph.A.nnz)}


def _trained(args, kwargs, result) -> dict:
    cfg = args[1]
    prop = args[2] if len(args) > 2 else kwargs.get("prop")
    attrs = {"epochs": cfg.epochs, "layers": cfg.layers, "dim": cfg.dim,
             "d0": int(result[0].W[0].shape[0]), "size": args[0].graph.n + args[0].graph.m}
    if prop is not None:
        attrs["nnz"] = int(prop.N.nnz)
    return attrs


GENERATORS = ("gen_ground_truth", "gen_ownership_one_to_one", "gen_social_er",
              "gen_social_homophily", "gen_assess_strategic", "gen_assess_bias_reliability")

TRACED = [("synthetic", "build_scenario", _built)] + [
    ("synthetic", fn, None) for fn in GENERATORS] + [
    ("graph", "from_matrices", None),
    ("graph", "build_graph", None),
    ("graph", "propagation_matrix", lambda a, k, r: {"nnz": int(r.N.nnz)}),
    ("model", "train", _trained),
    ("model", "forward", None),
    ("model", "backward", None),
    ("model", "adam_step", None),
    ("model", "mse_loss", None),
    ("model", "predict", None),
    ("model", "save_model", None),
    ("model", "load_model", None),
    ("baselines", "average_predict", None),
    ("baselines", "median_predict", None),
    ("harness", "run_experiment", None),
    ("harness", "monte_carlo_splits", None),
    ("harness", "rmse", None),
    ("io", "save_dataset", lambda a, k, r: {"bytes": _dir_bytes(a[1])}),
    ("io", "load_dataset", lambda a, k, r: {"bytes": _dir_bytes(a[0])}),
]

# Generators whose peak allocation is measured, in a pass of its own.
ALLOCATING = ("gen_social_homophily", "gen_assess_strategic")

EPOCH_PARTS = ("forward", "backward", "adam_step", "mse_loss")
CLI_COMMANDS = ("generate", "train", "eval", "baseline")


def wrap_all(tracer) -> None:
    for module, fn, attrs in TRACED:
        tracer.wrap("peergrade", module, fn, f"{module}.{fn}", attrs)


def epoch_flop(attrs: dict) -> int:
    """Computed multiply-add work of one epoch: SpMM and GEMM, forward and backward.

    An SpMM of N with a width-w operand is 2*nnz(N)*w; a GEMM of the
    (n+m) x d_in activations with a d_in x d_out weight is 2*(n+m)*d_in*d_out.
    Backward computes each weight gradient (one GEMM per layer) and, above
    the first layer, the input gradient (one GEMM and one SpMM with N^T).
    """
    nnz, size = attrs["nnz"], attrs["size"]
    dims = [attrs["d0"]] + [attrs["dim"]] * attrs["layers"]
    flop = 0
    for layer in range(attrs["layers"]):
        d_in, d_out = dims[layer], dims[layer + 1]
        flop += 2 * nnz * d_in + 2 * 2 * size * d_in * d_out
        if layer > 0:
            flop += 2 * size * d_out * d_in + 2 * nnz * d_in
    return flop


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (its spans only)."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(selfs[s.id] for s in named(name))

    out: dict[str, float] = {}
    for fn in GENERATORS:
        out[f"synthetic.{fn}_s"] = total(f"synthetic.{fn}")
    built = named("synthetic.build_scenario")
    out["synthetic.build_scenario_self_s"] = self_total("synthetic.build_scenario")
    out["synthetic.social_edges"] = sum(s.attrs["social_edges"] for s in built)
    out["synthetic.assessments"] = sum(s.attrs["assessments"] for s in built)

    out["graph.from_matrices_s"] = total("graph.from_matrices")
    out["graph.build_graph_s"] = total("graph.build_graph")
    out["graph.propagation_matrix_s"] = total("graph.propagation_matrix")
    props = named("graph.propagation_matrix")
    out["graph.N_nnz"] = props[0].attrs["nnz"] if props else 0

    trains = named("model.train")
    for s in trains:  # train computed N itself when none was passed in
        if "nnz" not in s.attrs:
            child = next(c for c in props if c.parent == s.id)
            s.attrs["nnz"] = child.attrs["nnz"]
    epochs = sum(s.attrs["epochs"] for s in trains)
    train_ids = {s.id for s in trains}
    train_s = total("model.train")
    out["model.train_s"] = train_s
    out["model.epoch_ms"] = 1e3 * train_s / epochs if epochs else 0.0
    for part in EPOCH_PARTS:
        inside = sum(s.duration for s in named(f"model.{part}") if s.parent in train_ids)
        out[f"model.{part}_ms"] = 1e3 * inside / epochs if epochs else 0.0
    out["model.train_self_ms"] = 1e3 * self_total("model.train") / epochs if epochs else 0.0
    predicts = named("model.predict")
    out["model.predict_ms"] = 1e3 * total("model.predict") / len(predicts) if predicts else 0.0
    out["model.save_model_s"] = total("model.save_model")
    out["model.load_model_s"] = total("model.load_model")
    flop = epoch_flop(trains[0].attrs) if trains else 0
    out["model.epoch_flop"] = flop
    out["model.epoch_gflops"] = flop / out["model.epoch_ms"] / 1e6 if epochs else 0.0

    out["baselines.average_predict_s"] = total("baselines.average_predict")
    out["baselines.median_predict_s"] = total("baselines.median_predict")
    out["harness.run_experiment_self_s"] = self_total("harness.run_experiment")
    out["harness.monte_carlo_splits_s"] = total("harness.monte_carlo_splits")
    out["harness.rmse_s"] = total("harness.rmse")

    saves, loads = named("io.save_dataset"), named("io.load_dataset")
    saved_bytes = sum(s.attrs["bytes"] for s in saves)
    loaded_bytes = sum(s.attrs["bytes"] for s in loads)
    out["io.save_dataset_s"] = total("io.save_dataset")
    out["io.load_dataset_self_s"] = self_total("io.load_dataset")
    out["io.bundle_bytes"] = saved_bytes
    out["io.save_dataset_mb_per_s"] = (saved_bytes / 1e6 / out["io.save_dataset_s"]
                                       if saves else 0.0)
    out["io.load_dataset_mb_per_s"] = (loaded_bytes / 1e6 / total("io.load_dataset")
                                       if loads else 0.0)

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_self_s"] = self_total(f"cli.{cmd}")
    return out


def coverage(spans: list[Span], name: str, prefix: str = "") -> float:
    """Share of the ``name`` spans' time covered by direct children (named ``prefix*``)."""
    parents = {s.id for s in spans if s.name == name}
    whole = sum(s.duration for s in spans if s.id in parents)
    covered = sum(s.duration for s in spans
                  if s.parent in parents and s.name.startswith(prefix))
    return covered / whole if whole else 1.0


def allocations(generate) -> dict[str, float]:
    """Peak traced allocation (MB) of each ``ALLOCATING`` generator during ``generate()``.

    A pass of its own: tracemalloc slows allocation, so its timings are not used.
    """
    import peergrade.synthetic as synthetic

    peaks = {fn: 0.0 for fn in ALLOCATING}
    patches = []

    def measured(fn, original):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[fn] = max(peaks[fn], peak / 1e6)
        return call

    tracemalloc.start()
    try:
        for fn in ALLOCATING:
            original = getattr(synthetic, fn)
            patches += rebind("peergrade", original, measured(fn, original))
        generate()
    finally:
        unbind(patches)
        tracemalloc.stop()
    return {f"synthetic.{fn}_alloc_mb": peak for fn, peak in peaks.items()}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
