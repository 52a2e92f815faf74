"""Linear models fit by exact solve (squared loss) or damped Newton.

The objective is the *sum* of weighted per-sample losses plus an L2 term
``(l2 / 2) * ||coef||^2``; the intercept is never penalized. Squared loss
solves its normal equations by Cholesky. Logistic and softmax fits, and
the shared-softmax stacking of ``mr``, all run the one ``newton`` loop:
each iteration adds ``JITTER`` to the Hessian diagonal, solves for the
step by LU (``np.linalg.solve``; the softmax intercepts leave the Hessian
singular, which Cholesky rejects), takes the least-squares step instead
when LU finds the Hessian exactly singular (duplicated columns), and
halves the step up to ``MAX_HALVINGS`` times until the objective does not
rise. It stops when the gradient norm is at most ``GRAD_TOL`` (converged),
after ``MAX_NEWTON_ITER`` iterations, or when no halving helps; the last
two warn that the solve did not converge.
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
    coef: np.ndarray  # (d,) or (d, K)
    intercept: np.ndarray  # () scalar array or (K,)
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

    def to_dict(self) -> dict:
        return {
            "coef": self.coef.tolist(),
            "intercept": self.intercept.tolist(),
            "loss": self.loss.name,
            "n_classes": self.loss.n_classes,
            "l2": self.l2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        loss = LossKind(d["loss"], d["n_classes"])
        return cls(
            coef=np.asarray(d["coef"], dtype=np.float64),
            intercept=np.asarray(d["intercept"], dtype=np.float64),
            loss=loss,
            l2=float(d["l2"]),
        )


def _solve_spd(a: np.ndarray, b: np.ndarray, l2: float) -> np.ndarray:
    try:
        return cho_solve(cho_factor(a), b)
    except LinAlgError:
        if l2 == 0.0:
            raise ValueError(
                "normal equations are singular; set l2 > 0 to regularize"
            ) from None
        raise


def _fit_squared(x, y, l2, w, fit_intercept):
    n, d = x.shape
    if fit_intercept:
        xa = np.hstack([x, np.ones((n, 1))])
    else:
        xa = x
    a = xa.T @ (xa * w[:, None])
    a[np.arange(d), np.arange(d)] += l2
    b = xa.T @ (w * y)
    sol = _solve_spd(a, b, l2)
    coef = sol[:d]
    intercept = sol[d] if fit_intercept else np.float64(0.0)
    return coef, np.asarray(intercept)


def newton(objective, grad_hess, theta0: np.ndarray):
    """Minimize a smooth convex ``objective`` by the damped Newton rule above.

    ``grad_hess(theta)`` returns the gradient and a fresh Hessian, which
    this function may modify. Returns ``(theta, converged)``.
    """
    theta = theta0
    obj = objective(theta)
    for _ in range(MAX_NEWTON_ITER):
        grad, hess = grad_hess(theta)
        grad_norm = np.linalg.norm(grad)
        if grad_norm <= GRAD_TOL:
            return theta, True
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
    return theta, False


def _fit_glm(x, y, loss, l2, w, fit_intercept):
    """Logistic (width 1) or softmax (width K) fit over parameters (d [+1], K)."""
    n, d = x.shape
    k = loss.margin_width
    xa = np.hstack([x, np.ones((n, 1))]) if fit_intercept else x
    da = xa.shape[1]
    nc = d * k  # the penalized coef rows come first in the flattened (da, k) layout

    def margin(t):
        return xa @ (t.reshape(da, k) if k > 1 else t)

    def objective(t):
        return float(np.sum(w * losses.loss_values(loss, y, margin(t)))) + 0.5 * l2 * float(
            t[:nc] @ t[:nc]
        )

    def grad_hess(t):
        z = margin(t)
        g, h = losses.grad_hess(loss, y, z)
        if k == 1:
            grad = xa.T @ (w * g)
            hess = xa.T @ (xa * (w * h)[:, None])
        else:
            # H[(a,i),(b,j)] = sum_n w x_a x_b (p_i delta_ij - p_i p_j)
            p = losses.softmax_rows(z)
            grad = (xa.T @ (g * w[:, None])).reshape(-1)
            u = (xa[:, :, None] * p[:, None, :]).reshape(n, da * k)
            hess = -(u.T @ (u * w[:, None]))
            for i in range(k):
                hess[i::k, i::k] += xa.T @ (xa * (w * p[:, i])[:, None])
        grad[:nc] += l2 * t[:nc]
        hess[np.arange(nc), np.arange(nc)] += l2
        return grad, hess

    theta, _ = newton(objective, grad_hess, np.zeros(da * k))
    theta = theta.reshape(da, k) if k > 1 else theta
    intercept = theta[d] if fit_intercept else np.zeros(theta.shape[1:])
    return theta[:d], np.asarray(intercept)


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    loss: LossKind,
    l2: float = 0.0,
    sample_weight: np.ndarray | None = None,
    fit_intercept: bool = True,
) -> LinearModel:
    """Fit a linear model for the given loss.

    Squared loss is solved exactly; logistic and softmax use damped Newton
    iterations. ``sample_weight`` multiplies per-sample losses and must be
    nonnegative.
    """
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

    if loss.name == "squared":
        coef, intercept = _fit_squared(x, y, l2, w, fit_intercept)
    else:
        coef, intercept = _fit_glm(x, y, loss, l2, w, fit_intercept)
    if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(intercept))):
        raise ValueError("linear fit produced non-finite parameters")
    return LinearModel(coef=coef, intercept=intercept, loss=loss, l2=l2)
