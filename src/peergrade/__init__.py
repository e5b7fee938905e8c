"""Peer-assessment aggregation via graph convolution over a
social-ownership-assessment multigraph, with synthetic scenario generators,
reference baselines, and a Monte Carlo evaluation harness."""

import types as _types

from .baselines import average_predict, median_predict
from .errors import (
    DuplicateEntryError,
    PeergradeError,
    SchemaError,
    TrainingDivergedError,
    ValidationError,
)
from .graph import (
    Dataset,
    GroundTruth,
    PropagationMatrix,
    SoanGraph,
    Split,
    build_graph,
    datasets_equal,
    from_matrices,
    graphs_equal,
    propagation_matrix,
    validate,
)
from .harness import (
    METHOD_AVERAGE,
    METHOD_GCN,
    METHOD_MEDIAN,
    METHODS,
    ExperimentReport,
    SplitConfig,
    SweepResult,
    SweepSpec,
    monte_carlo_splits,
    rmse,
    run_experiment,
    run_sweep,
)
from .io import (
    load_dataset,
    load_scenario_config,
    load_split_config,
    load_train_config,
    save_dataset,
)
from .model import (
    ModelParams,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train,
)
from .schema import canonical_json
from .synthetic import (
    BiasReliabilityConfig,
    ErConfig,
    HomophilyConfig,
    MixtureConfig,
    ScenarioConfig,
    StrategicConfig,
    build_scenario,
    default_scenario,
    gen_assess_bias_reliability,
    gen_assess_strategic,
    gen_ground_truth,
    gen_ownership_one_to_one,
    gen_social_er,
    gen_social_homophily,
    strategic_scenario,
)

__version__ = "0.1.0"

# Every public name imported above, but not the submodules those imports bind.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
