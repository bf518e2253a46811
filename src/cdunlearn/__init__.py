"""cdunlearn: train neural cognitive-diagnosis models, selectively forget
students' data, and audit the result with a membership-inference attack."""

from .data import (
    Dataset,
    MiaSplits,
    QMatrix,
    Records,
    RecordSplit,
    ResponseRecord,
    StudentPartition,
    derive_mia_subsets,
    load_qmatrix,
    load_responses,
    partition_students,
    split_records,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    build_context,
    load_config,
    run_experiment,
    sweep,
)
from .importance import (
    fim_diag,
    hutchinson_hessian_diag,
    layer_importance,
    smooth_importance,
)
from .metrics import acc, auc, rtrr
from .mia import LogisticAttacker, MIAReport, evaluate_attack, extract_features, train_attacker
from .model import CDArchConfig, CDModel, train
from .nn import TrainConfig
from .shrinkage import (
    closed_form_mse,
    optimal_beta,
    recommend_beta,
    simulate_mse,
)
from .unlearn import (
    HIFConfig,
    UnlearnReport,
    fim_unlearn,
    gradient_ascent_unlearn,
    hessian_unlearn,
    hif_unlearn,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "MiaSplits",
    "QMatrix",
    "Records",
    "RecordSplit",
    "ResponseRecord",
    "StudentPartition",
    "derive_mia_subsets",
    "load_qmatrix",
    "load_responses",
    "partition_students",
    "split_records",
    "ExperimentConfig",
    "ExperimentReport",
    "build_context",
    "load_config",
    "run_experiment",
    "sweep",
    "fim_diag",
    "hutchinson_hessian_diag",
    "layer_importance",
    "smooth_importance",
    "acc",
    "auc",
    "rtrr",
    "LogisticAttacker",
    "MIAReport",
    "evaluate_attack",
    "extract_features",
    "train_attacker",
    "CDArchConfig",
    "CDModel",
    "train",
    "TrainConfig",
    "closed_form_mse",
    "optimal_beta",
    "recommend_beta",
    "simulate_mse",
    "HIFConfig",
    "UnlearnReport",
    "fim_unlearn",
    "gradient_ascent_unlearn",
    "hessian_unlearn",
    "hif_unlearn",
    "__version__",
]
