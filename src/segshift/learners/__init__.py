"""Base learners: linear models and gradient boosted trees."""

from .gbt import GBTConfig, GBTModel, cluster_base_config, fit_gbt, refine_config
from .linear import LinearModel, fit_linear
from .losses import (
    LOGISTIC,
    SQUARED,
    LossKind,
    grad_hess,
    loss_values,
    margin_to_proba,
    softmax_loss,
)

__all__ = [
    "GBTConfig",
    "GBTModel",
    "LinearModel",
    "LossKind",
    "SQUARED",
    "LOGISTIC",
    "softmax_loss",
    "fit_gbt",
    "fit_linear",
    "cluster_base_config",
    "refine_config",
    "grad_hess",
    "loss_values",
    "margin_to_proba",
]

