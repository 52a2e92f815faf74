"""Importance-weight estimators for covariate and label shift.

All sample-level estimators produce a WeightVector: nonnegative weights
clipped to [0, eta] and then rescaled to mean one (losses are scale
sensitive only through regularization, so fixing the mean stabilizes
tuning). BBSE produces per-class weights which ``expand_class_weights``
maps onto samples.

Kernel mean matching (Huang et al., NIPS 2006) solves a box- and
sum-constrained quadratic program by MFISTA, the monotone FISTA of Beck and
Teboulle (IEEE TIP 2009): a projected gradient step from a momentum point,
with the exact Euclidean projection onto {0 <= w <= eta, lo <= sum(w) <= hi}
(clip(v - tau, 0, eta) for the tau that puts the sum in the band). A
candidate that does not lower the objective restarts the momentum. The
solve stops when an accepted step lowers the 1/n^2-scaled objective by less
than 1e-8, when a step without momentum cannot lower it, or, with a
warning, after ``KMM_MAX_ITER`` steps. Each step makes one Gram product.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import segmentation
from .learners import LOGISTIC, fit_linear
from .segmentation import KernelSpec

DEFAULT_ETA = 10.0
# Kernel entries of one block of KMM's train-by-test Gram: 8 MB of float64.
_GRAM_BLOCK_ELEMENTS = 1 << 20
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


def _kmm_project(v, eta, lo, hi):
    """Euclidean projection of ``v`` onto {0 <= w <= eta, lo <= sum(w) <= hi}.

    The projection is clip(v - tau, 0, eta): tau = 0 when the clipped ``v``
    already lies in the sum band, and otherwise the shift whose sum hits the
    violated bound. That sum is piecewise linear in tau with knots at v and
    v - eta; the knots that bracket the bound fix which entries are free, and
    tau then solves the linear piece exactly.
    """
    w = np.clip(v, 0.0, eta)
    s = w.sum()
    if lo <= s <= hi:
        return w
    target = lo if s < lo else hi
    vs = np.sort(v)
    n = len(vs)
    csum = np.concatenate([[0.0], np.cumsum(vs)])
    knots = np.sort(np.concatenate([vs - eta, vs]))

    def free_range(tau):  # entries of vs in (tau, tau + eta) are vs[a:b]
        return np.searchsorted(vs, tau, side="right"), np.searchsorted(vs, tau + eta, side="left")

    a, b = free_range(knots)
    sums = (n - b) * eta + (csum[b] - csum[a]) - (b - a) * knots  # non-increasing
    j = min(int(np.searchsorted(-sums, -target, side="right")), len(knots) - 1)
    lower = knots[max(j - 1, 0)]
    a, b = free_range(0.5 * (lower + knots[j]))
    if b == a:  # knots within rounding of each other: either one is exact to rounding
        return np.clip(v - knots[j], 0.0, eta)
    tau = ((n - b) * eta + vs[a:b].sum() - target) / (b - a)
    return np.clip(v - tau, 0.0, eta)


def _kmm_solve(g, kappa, n, eta, epsilon):
    """MFISTA on the KMM objective; returns (weights, objective per step).

    ``history[k]`` is the objective at the current point after step k, so it
    never increases. Each step makes one Gram product: the one at its
    candidate.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    # ||Gv|| of a unit v rises to lambda_max along the power iteration
    lam_max = 0.0
    for _ in range(50):
        gv = g @ v
        lam_prev, lam_max = lam_max, float(np.linalg.norm(gv))
        if lam_max - lam_prev <= 1e-12 * lam_max:
            break
        v = gv / lam_max
    step = (n * n) / (2.0 * max(lam_max, 1e-12))

    lo, hi = n * (1.0 - epsilon), n * (1.0 + epsilon)
    x = _kmm_project(np.ones(n), eta, lo, hi)
    gx = g @ x
    fx = float(x @ gx - 2.0 * (kappa @ x)) / (n * n)
    x_prev, gx_prev = x, gx
    t = 1.0
    history = [fx]
    for _ in range(KMM_MAX_ITER):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x + beta * (x - x_prev)
        gy = gx + beta * (gx - gx_prev)
        z = _kmm_project(y - step * 2.0 * (gy - kappa) / (n * n), eta, lo, hi)
        gz = g @ z
        fz = float(z @ gz - 2.0 * (kappa @ z)) / (n * n)
        if fz < fx:
            drop = fx - fz
            x_prev, gx_prev, x, gx, fx, t = x, gx, z, gz, fz, t_next
            history.append(fx)
            if drop < 1e-8:
                break
        else:
            history.append(fx)
            if t == 1.0:  # a plain projected-gradient step cannot descend
                break
            x_prev, gx_prev, t = x, gx, 1.0
    else:
        warnings.warn(
            f"KMM solve stopped at its {KMM_MAX_ITER}-iteration cap, not at its decrease rule"
        )
    return x, history


def _gram_row_sums(kernel, a, b):
    """``gram(kernel, a, b).sum(axis=1)``, over blocks of a's rows.

    A block holds at most ``_GRAM_BLOCK_ELEMENTS`` kernel entries (at least
    one row), so memory does not grow with the number of test rows. Each
    row is reduced alone, so the sums are the whole matrix's, bit for bit.
    """
    rows = max(1, _GRAM_BLOCK_ELEMENTS // b.shape[0])
    return np.concatenate(
        [segmentation.gram(kernel, a[i : i + rows], b).sum(axis=1) for i in range(0, len(a), rows)]
    )


def fit_kmm(
    train_x: np.ndarray,
    test_x: np.ndarray,
    kernel: KernelSpec | None = None,
    eta: float = DEFAULT_ETA,
    epsilon: float | None = None,
) -> WeightVector:
    """Kernel mean matching weights by monotone FISTA (MFISTA).

    Minimizes (1/n^2) w'Gw - (2/n^2) kappa'w subject to the box [0, eta]
    and |sum(w) - n| <= n * epsilon (default epsilon = eta / sqrt(n)).
    Each step projects a gradient step of size 1/L from the momentum point
    y exactly onto that set (``_kmm_project``), with L from a power
    iteration of at most 50 steps that stops once its estimate stops
    rising. A candidate is accepted only if it lowers the objective, so the
    objective trajectory is non-increasing; a rejected candidate restarts
    the momentum from the current point. The solve stops when an accepted
    step lowers the objective by less than 1e-8, or when a plain step (no
    momentum) is rejected. A solve that instead runs all ``KMM_MAX_ITER``
    steps warns. G x is kept for the current and the previous point, so
    G y is their linear combination and each step makes one Gram product.
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
    kappa = (n / test_x.shape[0]) * _gram_row_sums(kernel, train_x, test_x)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(kappa))):
        raise ValueError("non-finite Gram entries")
    w, _ = _kmm_solve(g, kappa, n, eta, epsilon)
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
