"""Convex group-level training of linear classifiers.

The trainable objectives share one shape: a Huber penalty on the weights plus
class-balanced smoothed-hinge loss terms. The grouped variant scores each
positive group only through its annotated key candidate and each negative
group through its maximal-loss candidate, which keeps the problem convex
while optimizing the group-level decision directly. Baselines (per-candidate
training and the alternating MI-SVM heuristic), a limited-memory
quasi-Newton solver, polynomial feature lifting, group-level evaluation,
cross-validation, streaming dataset formats and a synthetic generator round
out the toolkit.
"""

from .baselines import train_mi_svm
from .data_io import (
    BinaryDatasetReader,
    SavedModel,
    load_binary,
    load_dataset,
    load_model,
    load_text,
    save_binary,
    save_model,
    save_text,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    DimensionMismatchError,
    DomainError,
    GcmError,
    MalformedRecordError,
    MissingKeyError,
    MixedLabelGroupError,
    MultipleKeysError,
    NumericalError,
    UnsortedGroupError,
    VersionMismatchError,
)
from .evaluation import (
    Algorithm,
    CvPlan,
    DEFAULT_LAMBDA_GRID,
    EvalReport,
    LambdaCvResult,
    cross_validate,
    evaluate_model,
    fit_algorithm,
    make_group_folds,
    roc_auc,
    score_groups,
    split_groups,
    write_groups_csv,
    write_report_csv,
)
from .expansion import (
    AffineScaler,
    ExpansionSpec,
    FeaturePipeline,
    expand_matrix,
    expanded_dimension,
    monomial_exponents,
    monomial_names,
)
from .generator import GeneratorSpec, PRESETS, easy_spec, generate, hard_negatives_spec
from .model import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    Dataset,
    GroupBlock,
    Hyperparams,
    LinearModel,
)
from .objectives import (
    GradientVector,
    ObjectiveValue,
    eval_grouped,
    eval_per_candidate,
    gradient_per_candidate,
    subgradient_grouped,
)
from .penalties import huber, huber_prime, smoothed_hinge, smoothed_hinge_prime
from .solver import SolverConfig, SolveTrace, Termination, minimize
from .train import train_gcm, train_per_candidate

__version__ = "0.1.0"

__all__ = [
    "AffineScaler", "Algorithm", "BinaryDatasetReader", "ConfigurationError",
    "CvPlan", "DEFAULT_DELTA", "DEFAULT_EPSILON", "DEFAULT_LAMBDA_GRID",
    "DataFormatError", "Dataset", "DimensionMismatchError", "DomainError",
    "EvalReport", "ExpansionSpec", "FeaturePipeline", "GcmError",
    "GeneratorSpec", "GradientVector", "GroupBlock", "Hyperparams",
    "LambdaCvResult", "LinearModel", "MalformedRecordError",
    "MissingKeyError", "MixedLabelGroupError", "MultipleKeysError",
    "NumericalError", "ObjectiveValue", "PRESETS", "SavedModel",
    "SolveTrace", "SolverConfig", "Termination",
    "UnsortedGroupError", "VersionMismatchError",
    "cross_validate", "easy_spec", "eval_grouped", "eval_per_candidate",
    "evaluate_model", "expand_matrix", "expanded_dimension",
    "fit_algorithm", "generate", "gradient_per_candidate",
    "hard_negatives_spec", "huber", "huber_prime", "load_binary",
    "load_dataset", "load_model", "load_text", "make_group_folds", "minimize",
    "monomial_exponents", "monomial_names", "roc_auc", "save_binary",
    "save_model", "save_text", "score_groups", "smoothed_hinge",
    "smoothed_hinge_prime", "split_groups", "subgradient_grouped",
    "train_gcm", "train_mi_svm", "train_per_candidate",
    "write_groups_csv", "write_report_csv",
]
