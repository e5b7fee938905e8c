"""Train the graph convolutional regressor and compare it to the baselines.

Labels for 10% of the items are revealed to the model; everything else is
held out.  The model sees the whole graph (all grades, all relations) but
only the training labels, so any edge it has over plain averaging comes from
learning how grades relate to true values.
"""

import time
from dataclasses import replace

from peergrade import (
    SplitConfig,
    TrainConfig,
    average_predict,
    build_scenario,
    default_scenario,
    median_predict,
    monte_carlo_splits,
    predict,
    propagation_matrix,
    rmse,
    train,
)

dataset = build_scenario(default_scenario(seed=0))
split = monte_carlo_splits(dataset.graph.m, SplitConfig(train_fraction=0.1, seed=0))[0]
print(f"items: {dataset.graph.m}, labeled for training: {len(split.train)}")

cfg = TrainConfig()  # 2 layers, dim 64, 800 epochs, Adam lr 0.02
prop = propagation_matrix(dataset.graph)

started = time.perf_counter()
params, history = train(replace(dataset, split=split), cfg, prop=prop)
print(f"trained {cfg.epochs} epochs in {time.perf_counter() - started:.1f}s; "
      f"train loss {history[0]:.4f} -> {history[-1]:.4f}")

model_preds = predict(params, prop, split.test)

print("\ntest RMSE (lower is better)")
print(f"  model:   {rmse(model_preds, dataset.truth, split.test):.4f}")
print(f"  average: {rmse(average_predict(dataset.graph, split.test), dataset.truth, split.test):.4f}")
print(f"  median:  {rmse(median_predict(dataset.graph, split.test), dataset.truth, split.test):.4f}")

# The model is a proper transductive learner: its predictions exist for
# every item, including the ones it saw labels for.
all_preds = predict(params, prop, range(dataset.graph.m))
print(f"\npredictions span ({all_preds.min():.3f}, {all_preds.max():.3f}), "
      "always strictly inside (0, 1) thanks to the sigmoid head")
