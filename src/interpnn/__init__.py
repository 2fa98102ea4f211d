"""interpnn: interpolated nearest-neighbor estimation and its asymptotics.

The estimator weights the k nearest neighbors by phi(R_i / R_{k+1}) with
phi(t) = t^{-gamma}, so the fit passes through the training data for any
gamma > 0. The theory module evaluates the closed-form asymptotic ratios
(risk and classification instability, against k-NN and against optimally
weighted NN), and the evaluation module measures the same ratios by Monte
Carlo on synthetic models with exact conditional-mean oracles.
"""

from .core import (
    BadMetric,
    Dataset,
    DegenerateSplit,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    EstimatorConfig,
    InterpNNError,
    KTooLarge,
    Metric,
    MissingContext,
    NegativeGamma,
    NonNumericFeature,
    NumericOverflow,
    ParseError,
    QuadratureFailure,
    Task,
    TaskMismatch,
    UnknownLabel,
    UnknownScheme,
    validate_config,
)
from .estimator import (
    FittedEstimator,
    fit,
    predict_class,
    predict_class_batch,
    predict_regression,
    predict_regression_batch,
    score,
    score_batch,
)
from .evaluation import (
    CorruptionContext,
    CorruptionKind,
    CorruptionSpec,
    ExperimentResult,
    ExperimentSpec,
    KPolicy,
    NeighborBlock,
    corrupt,
    default_k_grid,
    disagreement_rate,
    estimate_cis,
    estimate_corrupted_regret,
    estimate_mse,
    estimate_regret,
    run_attack_experiment,
    run_ratio_experiment,
    tune_k,
)
from .ingest import (
    ClassSetMapsTo1,
    IngestSpec,
    ThresholdGreaterThan,
    load_csv,
    split,
    standardize_train_test,
    write_csv,
)
from .neighbors import (
    NeighborIndex,
    NeighborQueryResult,
    brute_force_query,
    build_index,
    minkowski_distances,
    query,
    query_batch,
)
from .synthetic import (
    SyntheticModel,
    classification_model_1,
    classification_model_2,
    regression_model,
    toy_models,
)
from .theory import (
    RatioCurve,
    bias_coef,
    cis_ratio_optimal_k,
    cis_ratio_same_k,
    delta_criterion,
    gamma_threshold,
    ownn_ratio,
    pr_optimal_k,
    pr_same_k,
    ratio_curve,
    var_coef,
)
from .weighting import (
    WeightScheme,
    compute_weights,
    compute_weights_batch,
    general_phi_scheme,
    phi_catalog,
    power_scheme,
    uniform_scheme,
)

__version__ = "0.1.0"
