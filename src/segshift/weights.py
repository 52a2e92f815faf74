"""Importance-weight estimators for covariate and label shift.

All sample-level estimators produce a WeightVector: nonnegative weights
clipped to [0, eta] and then rescaled to mean one (losses are scale
sensitive only through regularization, so fixing the mean stabilizes
tuning). BBSE produces per-class weights which ``expand_class_weights``
maps onto samples.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import segmentation
from .learners import LOGISTIC, fit_linear
from .segmentation import KernelSpec

DEFAULT_ETA = 10.0
_PROB_CLIP = 1e-3
KMM_MAX_ITER = 500


@dataclass(frozen=True)
class WeightVector:
    values: np.ndarray
    method: str
    eta: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("weights must be a nonempty vector")
        if vals.min() < 0 or not np.all(np.isfinite(vals)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(vals.mean() - 1.0) > 1e-9:
            raise ValueError("weights must be normalized to mean 1")

    def summary(self) -> dict:
        return {
            "method": self.method,
            "eta": self.eta,
            "min": float(self.values.min()),
            "mean": float(self.values.mean()),
            "max": float(self.values.max()),
        }


@dataclass(frozen=True)
class ClassWeightVector:
    values: np.ndarray  # (K,)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)) or vals.min() < 0:
            raise ValueError("class weights must be finite and nonnegative")


def _finalize(raw: np.ndarray, eta: float, method: str) -> WeightVector:
    if eta <= 0:
        raise ValueError("eta must be positive")
    clipped = np.clip(raw, 0.0, eta)
    mean = clipped.mean()
    if mean <= 0:
        raise ValueError("all weights clipped to zero")
    return WeightVector(values=clipped / mean, method=method, eta=eta)


def uniform_weights(n: int, eta: float = DEFAULT_ETA) -> WeightVector:
    return WeightVector(values=np.ones(n), method="none", eta=eta)


def fit_discriminative_weights(
    train_x: np.ndarray,
    test_x: np.ndarray,
    eta: float = DEFAULT_ETA,
    eval_x: np.ndarray | None = None,
) -> WeightVector:
    """Density-ratio weights from a train-vs-test logistic classifier.

    Fits L2 logistic regression (penalty 1/n_train) on the stacked rows
    with target 1 for test rows; training-row weights are the predicted
    odds p/(1-p) with p clamped away from 0 and 1. ``eval_x`` evaluates the
    ratio at different rows than those used to fit (defaults to train_x).
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    if train_x.ndim != 2 or test_x.ndim != 2 or train_x.shape[1] != test_x.shape[1]:
        raise ValueError("train and test matrices must share a feature dimension")
    stacked = np.vstack([train_x, test_x])
    target = np.concatenate([np.zeros(len(train_x)), np.ones(len(test_x))])
    model = fit_linear(stacked, target, LOGISTIC, l2=1.0 / len(train_x))
    where = train_x if eval_x is None else np.asarray(eval_x, dtype=np.float64)
    p = model.predict_proba(where)
    p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return _finalize(p / (1.0 - p), eta, "discriminative")


def _kmm_objective(w, g, kappa, n):
    return float(w @ g @ w - 2.0 * (kappa @ w)) / (n * n)


def _kmm_project(w, eta, lo, hi):
    w = np.clip(w, 0.0, eta)
    s = w.sum()
    if s < lo:
        w = w * (lo / s) if s > 0 else np.full_like(w, lo / len(w))
    elif s > hi:
        w = w * (hi / s)
    return w


def _kmm_solve(g, kappa, n, eta, epsilon):
    """Projected-gradient loop; returns (weights, objective trajectory)."""
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(50):
        gv = g @ v
        norm = np.linalg.norm(gv)
        if norm == 0:
            break
        v = gv / norm
    lam_max = float(v @ g @ v)
    step = (n * n) / (2.0 * max(lam_max, 1e-12))

    lo, hi = n * (1.0 - epsilon), n * (1.0 + epsilon)
    w = _kmm_project(np.ones(n), eta, lo, hi)
    history = [_kmm_objective(w, g, kappa, n)]
    for _ in range(KMM_MAX_ITER):
        grad = 2.0 * (g @ w - kappa) / (n * n)
        cand = _kmm_project(w - step * grad, eta, lo, hi)
        cand_obj = _kmm_objective(cand, g, kappa, n)
        if history[-1] - cand_obj < 1e-10:
            break
        w = cand
        history.append(cand_obj)
    return w, history


def fit_kmm(
    train_x: np.ndarray,
    test_x: np.ndarray,
    kernel: KernelSpec | None = None,
    eta: float = DEFAULT_ETA,
    epsilon: float | None = None,
) -> WeightVector:
    """Kernel mean matching weights by projected gradient descent.

    Minimizes (1/n^2) w'Gw - (2/n^2) kappa'w subject to the box [0, eta]
    and |sum(w) - n| <= n * epsilon (default epsilon = eta / sqrt(n)). The
    step size is 1/L with L estimated from 50 power iterations; steps that
    fail to decrease the objective by 1e-10 stop the solver, so the
    objective trajectory is non-increasing. A solve that instead runs all
    ``KMM_MAX_ITER`` steps warns.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    n = train_x.shape[0]
    if n < 2:
        raise ValueError("kernel mean matching needs at least 2 training rows")
    if train_x.shape[1] != test_x.shape[1]:
        raise ValueError("train and test matrices must share a feature dimension")
    if epsilon is None:
        epsilon = eta / np.sqrt(n)
    if eta < 1.0 - epsilon:
        raise ValueError("infeasible constraints: eta < 1 - epsilon")
    kernel = (kernel or KernelSpec()).resolved(np.vstack([train_x, test_x]))
    g = segmentation.gram(kernel, train_x, train_x)
    kappa = (n / test_x.shape[0]) * segmentation.gram(kernel, train_x, test_x).sum(axis=1)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(kappa))):
        raise ValueError("non-finite Gram entries")
    w, history = _kmm_solve(g, kappa, n, eta, epsilon)
    if len(history) > KMM_MAX_ITER:
        warnings.warn(f"KMM solve stopped at its {KMM_MAX_ITER}-iteration cap, not at its decrease rule")
    return _finalize(w, eta, "kmm")


def fit_bbse(
    source_labels: np.ndarray,
    source_predicted: np.ndarray,
    test_predicted: np.ndarray,
    n_classes: int,
    ridge: float = 1e-8,
) -> ClassWeightVector:
    """Class weights from inverting the held-out confusion matrix.

    Builds C[i, j] = P(pred = i, true = j) on the source rows and
    mu[j] = Q(pred = j) on the test rows, then solves
    (C + ridge * tr(C) * I) w = mu, clamping negative entries to zero.
    Class weights are left unnormalized; sample-level normalization happens
    in ``expand_class_weights``.
    """
    y = np.asarray(source_labels, dtype=np.int64)
    yhat = np.asarray(source_predicted, dtype=np.int64)
    that = np.asarray(test_predicted, dtype=np.int64)
    if y.shape != yhat.shape:
        raise ValueError("source labels and predictions must align")
    counts = np.bincount(y, minlength=n_classes)
    missing = np.flatnonzero(counts == 0)
    if len(missing) > 0:
        raise ValueError(f"classes {missing.tolist()} missing from source labels")
    conf = np.zeros((n_classes, n_classes))
    np.add.at(conf, (yhat, y), 1.0)
    conf /= len(y)
    mu = np.bincount(that, minlength=n_classes).astype(np.float64) / len(that)
    a = conf + ridge * np.trace(conf) * np.eye(n_classes)
    try:
        w = np.linalg.solve(a, mu)
    except np.linalg.LinAlgError:
        raise ValueError(
            "confusion matrix is singular; use a better classifier or a larger ridge"
        ) from None
    return ClassWeightVector(values=np.maximum(w, 0.0))


def expand_class_weights(
    cw: ClassWeightVector, labels: np.ndarray, eta: float = DEFAULT_ETA
) -> WeightVector:
    """Per-sample weights w_i = cw[y_i], clipped to [0, eta], mean-one."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= len(cw.values):
        raise ValueError("labels outside the class-weight range")
    return _finalize(cw.values[labels], eta, "bbse")
