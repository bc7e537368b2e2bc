"""Zero-shot, model-free Shapley value estimation.

Synthetic SCM task generation, exact/permutation Shapley oracles, a small
in-context transformer trained with a bucketized NLPD objective, axiom-based
attribution corrections, few-shot surrogate baselines, and an evaluation
harness.
"""

from .base_models import (
    ForestConfig,
    ForestModel,
    MlpConfig,
    MlpModel,
    ScalerStats,
    fit_scaler,
    train_forest,
    train_mlp,
    transform,
)
from .dag_recovery import DagRecoveryResult, dag_recovery, graph_edit_distance
from .explainer import (
    ExplainerConfig,
    ExplainerWeights,
    explain_zero_shot,
    load_weights,
    nlpd_loss,
    point_estimate,
    save_weights,
    standardize_targets,
    train,
)
from .metrics import jaccard_topk, measure_runtime, pearson
from .pool import (
    PoolBuildConfig,
    PoolError,
    TrainingTriplet,
    build_training_triplet,
    generate_pool,
    pool_read,
    pool_write,
)
from .postprocess import CorrectionConfig, efficiency_correct, full_pipeline, recenter, rescale
from .scm import DagSpec, ScmTask, TaskGenConfig, apply_activation, propagate, sample_dag, sample_task, select_task
from .shapley import ShapConfig, ShapResult, coalition_value, exact_shapley, hybrid_shapley, permutation_shapley
from .surrogates import ReferenceSet, Surrogate, fit_surrogate, predict_surrogate

__version__ = "0.1.0"
