"""Linear models fit by exact solve (squared loss) or damped Newton.

The objective is the *sum* of weighted per-sample losses plus an L2 term
``(l2 / 2) * ||coef||^2``; the intercept is never penalized. ``fit_linear``
and the stacking of ``mr`` both call ``fit_glm``, one GLM over a design
matrix with a row per (sample, class) pair. Squared loss solves its normal
equations by Cholesky. Logistic and softmax run the one ``newton`` loop on
the GLM's gradient and Hessian: each iteration adds ``JITTER`` to the
Hessian diagonal, solves for the step by LU (``np.linalg.solve``), takes the
least-squares step instead when LU finds the Hessian exactly singular
(duplicated columns), and halves the step up to ``MAX_HALVINGS`` times until
the objective does not rise. It stops when the gradient norm is at most
``GRAD_TOL`` (converged), after ``MAX_NEWTON_ITER`` iterations, or when no
halving helps; the last two warn that the solve did not converge.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from . import losses
from .losses import LossKind

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
GRAD_TOL = 1e-8
JITTER = 1e-10


@dataclass
class LinearModel:
    coef: np.ndarray  # (d,)
    intercept: np.ndarray  # () scalar array
    loss: LossKind
    l2: float

    def predict_margin(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.coef.shape[0]:
            raise ValueError(
                f"expected {self.coef.shape[0]} features, got {x.shape[1]}"
            )
        return x @ self.coef + self.intercept

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return losses.margin_to_proba(self.predict_margin(x), self.loss)


def _solve_spd(a: np.ndarray, b: np.ndarray, l2: float) -> np.ndarray:
    try:
        return cho_solve(cho_factor(a), b)
    except LinAlgError:
        if l2 == 0.0:
            raise ValueError(
                "normal equations are singular; set l2 > 0 to regularize"
            ) from None
        raise


def newton(objective, grad_hess, theta0: np.ndarray):
    """Minimize a smooth convex ``objective`` by the damped Newton rule above.

    ``grad_hess(theta)`` returns the gradient and a fresh Hessian, which
    this function may modify. Returns ``(theta, converged, hess)``: ``hess``
    is the Hessian of the last convergence test, at ``theta`` when the solve
    converged (with ``JITTER`` added when it did not).
    """
    theta = theta0
    obj = objective(theta)
    for _ in range(MAX_NEWTON_ITER):
        grad, hess = grad_hess(theta)
        grad_norm = np.linalg.norm(grad)
        if grad_norm <= GRAD_TOL:
            return theta, True, hess
        hess[np.diag_indices_from(hess)] += JITTER
        try:
            step = np.linalg.solve(hess, grad)
        except LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = theta - scale * step
            cand_obj = objective(cand)
            if cand_obj <= obj + 1e-12:
                theta, obj = cand, cand_obj
                break
            scale *= 0.5
        else:
            reason = "the line search found no decrease"
            break
    else:
        reason = f"{MAX_NEWTON_ITER} iterations"
    warnings.warn(
        f"Newton solve did not converge ({reason}; gradient norm {grad_norm:.3g} > {GRAD_TOL:g})"
    )
    return theta, False, hess


def fit_glm(design, y, loss, l2, w, n_penalized, theta0=None):
    """Fit a squared, logistic or softmax GLM; returns ``(theta, hess)``.

    ``design`` has one row per (sample, class) pair, sample-major, so the
    margins are ``(design @ theta).reshape(n, K)`` (a flat ``(n,)`` vector
    for squared and logistic loss, K = 1). ``w`` holds the n sample weights,
    and the L2 term covers the first ``n_penalized`` parameters. Squared
    loss solves the normal equations; the others run ``newton`` from
    ``theta0`` (zeros by default). ``hess`` is the penalised Hessian: the
    normal matrix for squared loss, else the one ``newton`` built for its
    last convergence test.
    """
    if loss.name == "squared":
        hess = design.T @ (design * w[:, None])
        hess[np.arange(n_penalized), np.arange(n_penalized)] += l2
        return _solve_spd(hess, design.T @ (w * y), l2), hess
    k = loss.margin_width
    n = len(y)
    w_rows = np.repeat(w, k)

    def margin(t):
        z = design @ t
        return z.reshape(n, k) if k > 1 else z

    def objective(t):
        return float(np.sum(w * losses.loss_values(loss, y, margin(t)))) + 0.5 * l2 * float(
            t[:n_penalized] @ t[:n_penalized]
        )

    def grad_hess(t):
        z = margin(t)
        g, h = losses.grad_hess(loss, y, z)
        if k > 1:
            # H = sum_i w_i X_i^T (diag(p_i) - p_i p_i^T) X_i over sample i's K rows X_i
            h = losses.softmax_rows(z)
        grad = design.T @ (w_rows * g.reshape(-1))
        hess = design.T @ (design * (w_rows * h.reshape(-1))[:, None])
        if k > 1:
            u = (design * h.reshape(-1, 1)).reshape(n, k, -1).sum(axis=1)
            hess -= u.T @ (u * w[:, None])
        grad[:n_penalized] += l2 * t[:n_penalized]
        hess[np.arange(n_penalized), np.arange(n_penalized)] += l2
        return grad, hess

    theta, _, hess = newton(
        objective, grad_hess, np.zeros(design.shape[1]) if theta0 is None else theta0
    )
    return theta, hess


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    loss: LossKind,
    l2: float = 0.0,
    sample_weight: np.ndarray | None = None,
    fit_intercept: bool = True,
) -> LinearModel:
    """Fit a linear model for squared or logistic loss.

    Runs ``fit_glm`` on ``x``, with an intercept column when
    ``fit_intercept``. ``sample_weight`` multiplies per-sample losses and
    must be nonnegative.
    """
    if loss.name not in ("squared", "logistic"):
        raise ValueError(f"fit_linear supports squared and logistic loss, not {loss.name}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) with one label per row")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    n = x.shape[0]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("sample_weight length mismatch")
    if np.any(w < 0):
        raise ValueError("sample weights must be nonnegative")

    d = x.shape[1]
    design = np.hstack([x, np.ones((n, 1))]) if fit_intercept else x
    theta, _ = fit_glm(design, y, loss, l2, w, n_penalized=d)
    coef, intercept = theta[:d], np.asarray(theta[d] if fit_intercept else 0.0)
    if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(intercept))):
        raise ValueError("linear fit produced non-finite parameters")
    return LinearModel(coef=coef, intercept=intercept, loss=loss, l2=l2)
