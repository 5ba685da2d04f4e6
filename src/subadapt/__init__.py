"""Transfer learning through a shared subspace, partially shared linear
classifiers, and per-point source weights.

A binary model projects both domains onto an orthonormal r-dimensional
subspace with a shared classifier, adapts it to each domain with linear
correction terms, and reweights source points so the weighted source mean
matches the target mean in the subspace. Training alternates exact
projection and weight steps with a descent step on the classifier vectors.
"""

from .data_model import (
    DatasetPair,
    FeatureScaler,
    Hyperparams,
    LOSS_KINDS,
    ModelState,
    NumericError,
    ValidationError,
    check_model_state,
    validate,
)
from .losses import loss_value
from .neighborhood import NeighborGraph, build_graph, build_knn
from .qp_solver import QpProblem, solve
from .subspace import MeanEmbeddings, build_phi, projected_means, update_theta, update_w
from .classifier import (
    ObjectiveContext,
    recover_u_v,
    predict_source,
    predict_target,
    update_phi_varphi,
)
from .weights import build_weight_problem, update_pi
from .trainer import TrainingTrace, block_cycle, fit, full_objective
from .evaluation import CvReport, half_label_mask, kfold_split, one_vs_all, run_cv

__version__ = "0.1.0"

__all__ = [
    "DatasetPair", "FeatureScaler", "Hyperparams", "LOSS_KINDS", "ModelState",
    "NumericError", "ValidationError", "check_model_state", "validate",
    "loss_value",
    "NeighborGraph", "build_graph", "build_knn",
    "QpProblem", "solve",
    "MeanEmbeddings", "build_phi", "projected_means", "update_theta", "update_w",
    "ObjectiveContext", "recover_u_v", "predict_source", "predict_target",
    "update_phi_varphi",
    "build_weight_problem", "update_pi",
    "TrainingTrace", "block_cycle", "fit", "full_objective",
    "CvReport", "half_label_mask", "kfold_split", "one_vs_all", "run_cv",
]
