"""Tensor-completion surrogate modeling for discrete design spaces."""

from .core import (
    Axis,
    DesignSpace,
    Normalizer,
    ObservationSet,
    build_design_space,
    encode_observations,
    uniform_split,
)
from .cpd import (
    CPDModel,
    FactorSet,
    SmoothnessConfig,
    init_factors,
)
from .errors import (
    ContractError,
    DegenerateDataError,
    DivergenceError,
    SchemaError,
    SplitError,
    StratumExhaustedError,
    TenfitError,
    WorkerError,
)
from .harness import (
    RegionErrorGrid,
    RegionSpec,
    SamplingPlan,
    biased_split,
    ood_sweep,
    per_cell_errors,
    run_experiment,
    run_sweep,
)
from .metrics import (
    FactorComparison,
    MetricsReport,
    component_expression_export,
    fms,
    normalized_components,
    regression_metrics,
)
from .modelio import load_dataset, load_model, save_model, write_dataset
from .neural import NeuralModel
from .optim import TrainConfig, TrainReport, fit

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "DesignSpace",
    "Normalizer",
    "ObservationSet",
    "build_design_space",
    "encode_observations",
    "uniform_split",
    "CPDModel",
    "FactorSet",
    "SmoothnessConfig",
    "init_factors",
    "ContractError",
    "DegenerateDataError",
    "DivergenceError",
    "SchemaError",
    "SplitError",
    "StratumExhaustedError",
    "TenfitError",
    "WorkerError",
    "RegionErrorGrid",
    "RegionSpec",
    "SamplingPlan",
    "biased_split",
    "ood_sweep",
    "per_cell_errors",
    "run_experiment",
    "run_sweep",
    "FactorComparison",
    "MetricsReport",
    "component_expression_export",
    "fms",
    "normalized_components",
    "regression_metrics",
    "load_dataset",
    "load_model",
    "save_model",
    "write_dataset",
    "NeuralModel",
    "TrainConfig",
    "TrainReport",
    "fit",
]
