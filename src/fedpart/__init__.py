"""fedpart: federated optimization with a shared variable and per-client
personal variables, with and without control-variate drift correction."""

from .dataio import ClientShard, RawDataset, partition_clients, synth_quadratic
from .fedcore import (
    HyperParams,
    RoundTrace,
    TrainingResult,
    recommended_step_sizes,
    run_replicas,
    run_training,
    start_rounds,
)
from .harness import ExperimentConfig, SweepSpec, load_config, run_experiment, run_sweep
from .metrics import ConstantEstimates, estimate_constants
from .objectives import LogisticObjective, ObjectiveOracle, QuadraticObjective, join_replicas

__version__ = "0.1.0"

__all__ = [
    "ClientShard",
    "ConstantEstimates",
    "ExperimentConfig",
    "HyperParams",
    "LogisticObjective",
    "ObjectiveOracle",
    "QuadraticObjective",
    "RawDataset",
    "RoundTrace",
    "SweepSpec",
    "TrainingResult",
    "estimate_constants",
    "join_replicas",
    "load_config",
    "partition_clients",
    "recommended_step_sizes",
    "run_experiment",
    "run_replicas",
    "run_sweep",
    "run_training",
    "start_rounds",
    "synth_quadratic",
    "__version__",
]
