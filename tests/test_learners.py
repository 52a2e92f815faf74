import json
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from segshift import GBTConfig, LossKind, fit_gbt, fit_linear
from segshift.learners import losses
from segshift.learners.gbt import Forest, GBTModel
from segshift.learners.linear import MAX_NEWTON_ITER, fit_glm, newton

SQ = LossKind("squared")
LOG = LossKind("logistic")
SOFT = LossKind("softmax", 3)


# ---------------------------------------------------------------------------
# losses


def finite_diff(loss, y, margin, step=1e-5):
    m = np.atleast_1d(margin).astype(float)
    shape = (1, m.size) if loss.name == "softmax" else (m.size,)

    def value(vec):
        return losses.loss_values(loss, y, vec.reshape(shape)).sum()

    g = np.zeros_like(m)
    h = np.zeros_like(m)
    l0 = value(m)
    for i in range(m.size):
        up = m.copy()
        dn = m.copy()
        up[i] += step
        dn[i] -= step
        lu, ld = value(up), value(dn)
        g[i] = (lu - ld) / (2 * step)
        h[i] = (lu - 2 * l0 + ld) / step**2
    return g, h


@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(42)
    for _ in range(20):
        if loss.name == "softmax":
            y = np.asarray([rng.integers(0, 3)])
            margin = rng.normal(scale=2.0, size=(1, 3))
            g, h = losses.grad_hess(loss, y, margin)
            g_fd, h_fd = finite_diff(loss, y, margin[0])
            g, h = g[0], h[0]
        else:
            y = (
                np.asarray([float(rng.integers(0, 2))])
                if loss.name == "logistic"
                else rng.normal(size=1)
            )
            margin = rng.normal(scale=2.0, size=1)
            g, h = losses.grad_hess(loss, y, margin)
            g_fd, h_fd = finite_diff(loss, y, margin)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(h, h_fd, rtol=1e-5, atol=2e-4)


def test_margin_to_proba_values():
    assert losses.margin_to_proba(np.array([0.0]), LOG)[0] == pytest.approx(0.5)
    p = losses.margin_to_proba(np.zeros((1, 3)), SOFT)
    np.testing.assert_allclose(p, 1 / 3)
    assert p.sum(axis=1)[0] == pytest.approx(1.0, abs=1e-12)
    assert losses.margin_to_proba(np.array([np.log(3)]), LOG)[0] == pytest.approx(0.75)


def test_margin_to_proba_rejects_squared():
    with pytest.raises(ValueError):
        losses.margin_to_proba(np.zeros(3), SQ)


# ---------------------------------------------------------------------------
# fit_linear


def test_linear_exact_slope():
    x = np.array([[1.0], [2.0], [3.0]])
    y = 2.0 * x[:, 0]
    model = fit_linear(x, y, SQ, l2=0.0)
    assert model.coef[0] == pytest.approx(2.0, abs=1e-10)
    assert float(model.intercept) == pytest.approx(0.0, abs=1e-10)


def test_logistic_symmetric_zero():
    x = np.ones((4, 1))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = fit_linear(x, y, LOG, l2=1e-6)
    assert model.coef[0] == pytest.approx(0.0, abs=1e-6)
    assert float(model.intercept) == pytest.approx(0.0, abs=1e-6)


def test_ridge_matches_closed_form():
    x = np.array([[1.0, 0.5], [2.0, -1.0], [0.5, 1.5]])
    y = np.array([1.0, -0.5, 2.0])
    w = np.array([1.0, 2.0, 0.5])
    model = fit_linear(x, y, SQ, l2=1.0, sample_weight=w, fit_intercept=False)
    xtwx = x.T @ (x * w[:, None])
    expected = np.linalg.solve(xtwx + np.eye(2), x.T @ (w * y))
    np.testing.assert_allclose(model.coef, expected, atol=1e-12)


def test_singular_without_ridge():
    x = np.ones((4, 2))  # duplicated columns
    y = np.arange(4.0)
    with pytest.raises(ValueError, match="l2 > 0"):
        fit_linear(x, y, SQ, l2=0.0, fit_intercept=False)


def _per_class_design(x, k, fit_intercept):
    """Rows (sample i, class c) of x_i [, 1] placed in class c's column of (d [+1], K) parameters."""
    xa = np.hstack([x, np.ones((len(x), 1))]) if fit_intercept else x
    return np.kron(xa, np.eye(k))


def test_softmax_linear_recovers_separation():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    x = np.vstack([rng.normal(c, 0.5, size=(60, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 60)
    design = _per_class_design(x, 3, True)
    theta, _ = fit_glm(design, y, SOFT, 1e-3, np.ones(len(y)), n_penalized=2 * 3)
    pred = np.argmax((design @ theta).reshape(-1, 3), axis=1)
    assert (pred == y).mean() > 0.97


def test_fit_linear_rejects_softmax():
    x = np.zeros((6, 2))
    y = np.arange(6) % 3
    with pytest.raises(ValueError, match="supports squared and logistic loss, not softmax"):
        fit_linear(x, y, SOFT)


def test_logistic_newton_matches_weights():
    # doubling sample weight of a point equals duplicating it
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 2))
    y = (x[:, 0] > 0).astype(float)
    w = np.ones(30)
    w[:5] = 2.0
    a = fit_linear(x, y, LOG, l2=0.5, sample_weight=w)
    x_dup = np.vstack([x, x[:5]])
    y_dup = np.concatenate([y, y[:5]])
    b = fit_linear(x_dup, y_dup, LOG, l2=0.5)
    np.testing.assert_allclose(a.coef, b.coef, atol=1e-7)


def _reference_glm(x, y, k, l2, w, fit_intercept):
    """L-BFGS-B on the penalized objective of a logistic or per-class softmax GLM, written out plainly."""
    n, d = x.shape
    onehot = np.eye(k)[y.astype(int)] if k > 1 else y[:, None]

    def split(t):
        t = t.reshape(d + fit_intercept, k)
        return t[:d], (t[d] if fit_intercept else np.zeros(k))

    def fun(t):
        coef, b = split(t)
        z = x @ coef + b
        if k == 1:
            per_row = np.logaddexp(0.0, z[:, 0]) - y * z[:, 0]
            p = 1.0 / (1.0 + np.exp(-z))
        else:
            lse = np.logaddexp.reduce(z, axis=1)
            per_row = lse - (z * onehot).sum(axis=1)
            p = np.exp(z - lse[:, None])
        r = (p - onehot) * w[:, None]
        grad = np.vstack([x.T @ r + l2 * coef] + ([r.sum(axis=0)] if fit_intercept else []))
        return float(w @ per_row) + 0.5 * l2 * float(np.sum(coef * coef)), grad.ravel()

    res = minimize(fun, np.zeros((d + fit_intercept) * k), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 20000, "maxcor": 30})
    return split(res.x)


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("loss", [LOG, SOFT], ids=["logistic", "softmax"])
def test_fit_linear_matches_lbfgs_reference(loss, fit_intercept):
    # logistic through fit_linear; softmax through fit_glm on the per-class design
    rng = np.random.default_rng(11)
    n, d = 400, 3
    x = rng.normal(size=(n, d))
    k = loss.margin_width
    logits = x @ rng.normal(size=(d, max(k, 2))) + 0.5
    y = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1).astype(float)
    w = rng.uniform(0.2, 3.0, size=n)
    if k == 1:
        model = fit_linear(x, y, loss, l2=0.7, sample_weight=w, fit_intercept=fit_intercept)
        ours_coef, ours_b = model.coef.reshape(d, k), model.intercept
    else:
        theta, _ = fit_glm(_per_class_design(x, k, fit_intercept), y, loss, 0.7, w, n_penalized=d * k)
        theta = theta.reshape(d + fit_intercept, k)
        ours_coef, ours_b = theta[:d], (theta[d] if fit_intercept else np.zeros(k))
    coef, b = _reference_glm(x, y, k, 0.7, w, fit_intercept)
    np.testing.assert_allclose(ours_coef, coef, atol=1e-6)
    ours, ref = np.atleast_1d(ours_b), np.atleast_1d(b)
    if k > 1:  # softmax margins are invariant to one shift of every class intercept
        ours, ref = ours - ours.mean(), ref - ref.mean()
    np.testing.assert_allclose(ours, ref, atol=1e-6)


def test_newton_flags_an_unbounded_objective():
    calls = []

    def grad_hess(t):
        calls.append(1)
        return np.array([-1.0]), np.zeros((1, 1))

    with pytest.warns(UserWarning, match="^Newton solve did not converge"):
        theta, converged, _ = newton(lambda t: -float(t[0]), grad_hess, np.zeros(1))
    assert not converged
    assert len(calls) == MAX_NEWTON_ITER
    assert theta[0] > 0


def test_newton_converges_on_a_quadratic_without_warning(recwarn):
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    theta, converged, hess = newton(
        lambda t: 0.5 * float(t @ a @ t) - float(b @ t), lambda t: (a @ t - b, a.copy()), np.zeros(2)
    )
    assert converged
    np.testing.assert_array_equal(hess, a)
    np.testing.assert_allclose(theta, np.linalg.solve(a, b), atol=1e-8)
    assert not [w for w in recwarn if "Newton" in str(w.message)]


@pytest.mark.parametrize("scale", [100, 1000])
def test_logistic_duplicated_column_converges(scale, recwarn):
    # equal columns leave the l2 = 0 Hessian exactly singular: LU fails and
    # the least-squares step takes over
    rng = np.random.default_rng(0)
    x0 = scale * rng.normal(size=1000)
    y = (x0 / scale + rng.normal(size=1000) > 0).astype(float)
    both = fit_linear(np.column_stack([x0, x0]), y, LOG)
    one = fit_linear(x0[:, None], y, LOG)
    assert not [w for w in recwarn if "Newton" in str(w.message)]
    np.testing.assert_allclose(both.coef.sum(), one.coef[0], rtol=1e-9)
    np.testing.assert_allclose(both.intercept, one.intercept, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# fit_gbt


def test_zero_trees_returns_base_margin_exactly():
    x = np.linspace(0, 1, 8).reshape(-1, 1)
    y = np.arange(8.0)
    bm = np.linspace(-3, 3, 8)
    model = fit_gbt(x, y, SQ, GBTConfig(n_estimators=0), base_margin=bm)
    np.testing.assert_array_equal(model.predict_margin(x, base_margin=bm), bm)
    assert model.init_margin is None


def test_zero_trees_constant_initializer():
    x = np.zeros((5, 1))
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    model = fit_gbt(x, y, SQ, GBTConfig(n_estimators=0))
    np.testing.assert_allclose(model.predict_margin(x), 3.0)


def test_single_stump_closed_form():
    # separable points, lr 1, no leaf penalty: leaf value -G/H lands on target
    x = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 5.0])
    cfg = GBTConfig(n_estimators=1, max_depth=1, learning_rate=1.0, leaf_l2=0.0)
    model = fit_gbt(x, y, SQ, cfg)
    init = y.mean()
    # manual: g_i = init - y_i, h_i = 1; leaf value = -(init - y_i) = y_i - init
    np.testing.assert_allclose(model.predict_margin(x), y, atol=1e-12)
    assert len(model.trees) == 1
    leaf_values = sorted(model.trees.value[model.trees.feature < 0])
    np.testing.assert_allclose(leaf_values, sorted(y - init), atol=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 3))
    y = x[:, 0] - 2 * x[:, 1] + rng.normal(0, 0.1, 100)
    w = rng.uniform(0.5, 2.0, size=100)
    cfg = GBTConfig(n_estimators=10, seed=3)
    a = fit_gbt(x, y, SQ, cfg, sample_weight=w)
    b = fit_gbt(x, y, SQ, cfg, sample_weight=2.0 * w)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_row_order_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 2))
    y = x[:, 0] + rng.normal(0, 0.1, 80)
    cfg = GBTConfig(n_estimators=12, subsample=0.7, seed=9)
    a = fit_gbt(x, y, SQ, cfg)
    perm = rng.permutation(80)
    b = fit_gbt(x[perm], y[perm], SQ, cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_base_margin_equals_residual_fit_for_squared_loss():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 3))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(0, 0.1, 120)
    bm = 0.5 * x[:, 2]
    cfg = GBTConfig(n_estimators=20, max_depth=2, seed=1)
    with_margin = fit_gbt(x, y, SQ, cfg, base_margin=bm)
    residual = fit_gbt(x, y - bm, SQ, cfg, base_margin=np.zeros(120))
    pa = with_margin.predict_margin(x, base_margin=bm)
    pb = residual.predict_margin(x) + bm
    np.testing.assert_allclose(pa, pb, atol=1e-10)


def round_losses(model, x, y, w, loss, base=None):
    width = loss.margin_width
    if base is not None:
        margin = np.asarray(base, dtype=float).reshape(len(y), width).copy()
    else:
        margin = np.tile(model.init_margin, (len(y), 1))
    out = []
    m = margin[:, 0] if width == 1 else margin
    out.append(np.average(losses.loss_values(loss, y, m), weights=w))
    for r in range(len(model.trees) // width):
        for i in range(r * width, (r + 1) * width):
            margin[:, model.trees.class_k[i]] += walk(tree(model.trees, i), x)
        m = margin[:, 0] if width == 1 else margin
        out.append(np.average(losses.loss_values(loss, y, m), weights=w))
    return np.asarray(out)


@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_training_loss_monotone(loss):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(150, 3))
    if loss.name == "squared":
        y = x[:, 0] * x[:, 1] + rng.normal(0, 0.2, 150)
    elif loss.name == "logistic":
        y = (x[:, 0] + rng.normal(0, 0.5, 150) > 0).astype(int)
    else:
        y = np.argmax(x, axis=1)
    w = rng.uniform(0.2, 2.0, 150)
    cfg = GBTConfig(n_estimators=30, max_depth=3, subsample=1.0, colsample_bytree=1.0)
    model = fit_gbt(x, y, loss, cfg, sample_weight=w)
    # reconstruct in the fitter's canonical row order
    from segshift.learners.gbt import _canonical_order

    yy = y.astype(np.int64) if loss.is_classification else y.astype(float)
    order = _canonical_order(x, yy, w / w.mean(), None)
    curve = round_losses(model, x[order], yy[order], w[order], loss)
    curve0 = curve.copy()
    curve0[0] = np.inf  # first entry uses the constant initializer
    assert np.all(np.diff(curve) <= 1e-12)


def test_deterministic_serialization():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(60, 2))
    y = x[:, 0]
    cfg = GBTConfig(n_estimators=8, subsample=0.8, colsample_bytree=0.5, seed=21)
    a = json.dumps(fit_gbt(x, y, SQ, cfg).to_dict(), sort_keys=True)
    b = json.dumps(fit_gbt(x, y, SQ, cfg).to_dict(), sort_keys=True)
    assert a == b


def test_serialization_roundtrip_predictions():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(100, 3))
    y = (x[:, 0] > 0).astype(int)
    model = fit_gbt(x, y, LOG, GBTConfig(n_estimators=15, seed=2))
    back = GBTModel.from_dict(json.loads(json.dumps(model.to_dict())))
    np.testing.assert_array_equal(model.predict_margin(x), back.predict_margin(x))


@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_serialization_roundtrip_bytes(loss):
    x, y, w = grower_data(loss)
    model = fit_gbt(x, y, loss, GROWER_CFG, sample_weight=w)
    text = json.dumps(model.to_dict())
    assert json.dumps(GBTModel.from_dict(json.loads(text)).to_dict()) == text


@pytest.mark.parametrize("with_base_margin", [False, True], ids=["init", "base-margin"])
@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_first_rounds_equal_a_fit_of_that_many_rounds(loss, with_base_margin):
    x, y, w = grower_data(loss, n=200)
    base = None
    if with_base_margin:
        base = np.random.default_rng(52).normal(size=(len(y), loss.margin_width)).squeeze()
    n = 6
    cfg = GBTConfig(n_estimators=n, max_depth=3, subsample=0.8, colsample_bytree=0.5, seed=53)
    longest = fit_gbt(x, y, loss, cfg, sample_weight=w, base_margin=base)
    for r in range(n + 1):
        direct = fit_gbt(x, y, loss, replace(cfg, n_estimators=r), sample_weight=w, base_margin=base)
        prefix = longest.first_rounds(r)
        assert json.dumps(prefix.to_dict()) == json.dumps(direct.to_dict())
        np.testing.assert_array_equal(prefix.predict_margin(x), direct.predict_margin(x))
    with pytest.raises(ValueError, match="fewer than 7"):
        longest.first_rounds(n + 1)


def test_two_stump_manual_walk():
    def stump(thr, lo, hi):
        return [0, -1, -1], [thr, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, lo, hi]

    model = GBTModel(
        loss=SQ,
        n_features=1,
        trees=Forest.join([stump(0.5, 1.0, 10.0), stump(2.0, -3.0, 7.0)], [0, 0]),
        init_margin=np.array([100.0]),
        learning_rate=1.0,
    )
    # x = 1.0: right of 0.5 (+10), left of 2.0 (-3), plus init 100
    assert model.predict_margin(np.array([[1.0]]))[0] == 107.0
    assert model.predict_margin(np.array([[0.0]]))[0] == 98.0
    assert model.predict_margin(np.array([[3.0]]))[0] == 117.0


def test_max_depth_zero_gives_constant_corrections():
    x = np.linspace(0, 1, 20).reshape(-1, 1)
    y = x[:, 0] * 3
    cfg = GBTConfig(n_estimators=5, max_depth=0, learning_rate=0.5)
    model = fit_gbt(x, y, SQ, cfg)
    preds = model.predict_margin(x)
    assert np.allclose(preds, preds[0])


def test_multiclass_gbt_accuracy():
    rng = np.random.default_rng(17)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    x = np.vstack([rng.normal(c, 0.6, size=(80, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 80)
    model = fit_gbt(x, y, SOFT, GBTConfig(n_estimators=30, seed=4))
    proba = model.predict_proba(x)
    assert proba.shape == (240, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert (np.argmax(proba, axis=1) == y).mean() > 0.95


def test_non_finite_margin_rejected():
    x = np.zeros((4, 1))
    y = np.zeros(4)
    with pytest.raises(ValueError):
        fit_gbt(x, y, SQ, GBTConfig(n_estimators=1), base_margin=np.array([np.inf, 0, 0, 0]))


def test_gbt_config_validation():
    with pytest.raises(ValueError):
        GBTConfig(n_estimators=-1)
    with pytest.raises(ValueError):
        GBTConfig(subsample=0.0)
    with pytest.raises(ValueError):
        GBTConfig(n_bins=1)
    for name in ("learning_rate", "min_child_weight", "leaf_l2"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GBTConfig(**{name: bad})


# ---------------------------------------------------------------------------
# packed forest traversal against the node-by-node walk


def random_tree(rng, n_features, max_depth, split_p=0.7, x=None):
    """A random tree's (feature, threshold, left, right, value) lists in
    pre-order; splits stop at random, so depths vary."""
    feat, thr, left, right, value = [], [], [], [], []

    def build(depth):
        idx = len(feat)
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))
        if depth < max_depth and rng.random() < split_p:
            j = int(rng.integers(n_features))
            feat[idx] = j
            # half the thresholds sit on a data value, so ties are exercised
            on_value = x is not None and rng.random() < 0.5
            thr[idx] = float(x[rng.integers(len(x)), j] if on_value else rng.normal())
            value[idx] = 0.0
            left[idx] = build(depth + 1)
            right[idx] = build(depth + 1)
        return idx

    build(0)
    return feat, thr, left, right, value


def tree(forest, i):
    """Tree ``i`` of a forest record: its (feature, threshold, left, right, value) slices."""
    nodes = slice(forest.offsets[i], forest.offsets[i + 1])
    fields = (forest.feature, forest.threshold, forest.left, forest.right, forest.value)
    return tuple(a[nodes] for a in fields)


def walk(tree, x):
    """One tree's leaf value at each row of ``x``, found node by node.

    ``tree`` is (feature, threshold, left, right, value), children local.
    """
    feature, threshold, left, right, value = tree
    out = np.empty(x.shape[0])
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if feature[node] < 0:
            out[rows] = value[node]
            continue
        go_left = x[rows, feature[node]] < threshold[node]
        stack.append((left[node], rows[go_left]))
        stack.append((right[node], rows[~go_left]))
    return out


def walk_oracle(model, x):
    """init margin plus each class's walked tree values added tree after tree."""
    w = model.loss.margin_width
    out = np.zeros((x.shape[0], w))
    if model.init_margin is not None:
        out += model.init_margin
    for k in range(w):
        trees = [tree(model.trees, i) for i in np.flatnonzero(model.trees.class_k == k)]
        if trees:
            acc = walk(trees[0], x)
            for t in trees[1:]:
                acc = acc + walk(t, x)
            out[:, k] += acc
    return out[:, 0] if w == 1 else out


@pytest.mark.parametrize("n_rows", [0, 1, 2, 37, 500])
@pytest.mark.parametrize(
    "loss, max_depth, uneven",
    [(SQ, 0, False), (SQ, 5, False), (LOG, 3, False), (SOFT, 4, False), (SOFT, 3, True)],
    ids=["depth0", "unbalanced", "logistic", "softmax", "softmax-uneven-classes"],
)
def test_packed_walk_matches_tree_apply(monkeypatch, loss, max_depth, uneven, n_rows):
    from segshift.learners import gbt

    # a small element budget makes 500 rows span many chunks, the last one partial
    monkeypatch.setattr(gbt, "_CHUNK_ELEMENTS", 1000)
    rng = np.random.default_rng(100 + max_depth + n_rows)
    d = 4
    x = rng.normal(size=(n_rows, d))
    pool = np.vstack([x, rng.normal(size=(50, d))])
    w = loss.margin_width
    # softmax rounds interleave classes: k = 0, 1, 2, 0, 1, 2, ...; uneven
    # forests give each class its own tree count, one class none at all
    classes = rng.choice(w - 1, size=20 * w) if uneven else np.arange(24 * w) % w
    trees = Forest.join([random_tree(rng, d, max_depth, x=pool) for _ in classes], classes)
    init = None if loss.name == "logistic" else rng.normal(size=w)
    model = GBTModel(loss=loss, n_features=d, trees=trees, init_margin=init, learning_rate=0.1)
    got = model.predict_margin(x)
    want = walk_oracle(model, x)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if n_rows:
        one = np.stack([model.predict_margin(x[i : i + 1])[0] for i in range(n_rows)])
        np.testing.assert_array_equal(one, got)


def test_packed_walk_matches_fitted_model():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(300, 3))
    y = np.argmax(x, axis=1)
    model = fit_gbt(x, y, SOFT, GBTConfig(n_estimators=12, max_depth=4, seed=5))
    np.testing.assert_array_equal(model.predict_margin(x), walk_oracle(model, x))


@pytest.mark.parametrize("n_estimators", [0, 10])
@pytest.mark.parametrize("loss", [SQ, SOFT])
def test_ensemble_margins_match_stacked_models(loss, n_estimators):
    from segshift.mr import BaseEnsemble
    from segshift.segmentation import ClusterAssignment

    rng = np.random.default_rng(41)
    x = rng.normal(size=(400, 3))
    y = x[:, 0] - x[:, 1] if loss.name == "squared" else np.argmax(x, axis=1)
    models = [
        fit_gbt(x[rows], y[rows], loss, GBTConfig(n_estimators=n_estimators, max_depth=d, seed=d))
        for rows, d in ((slice(0, 200), 2), (slice(200, 400), 3), (slice(None), 4))
    ]
    ens = BaseEnsemble(models=models, assignment=ClusterAssignment(((0,), (1,))), loss=loss)
    xt = rng.normal(size=(123, 3))
    want = np.stack([m.predict_margin(xt) for m in models], axis=1)
    np.testing.assert_array_equal(ens.margins(xt), want)
    np.testing.assert_array_equal(ens.margins(xt[5:6]), want[5:6])


def test_ensemble_pack_built_once_under_threads(monkeypatch):
    import sys
    import threading
    import time

    from segshift.learners import gbt
    from segshift.mr import BaseEnsemble
    from segshift.segmentation import ClusterAssignment

    rng = np.random.default_rng(43)
    x = rng.normal(size=(200, 2))
    y = x[:, 0]
    models = [fit_gbt(x, y, SQ, GBTConfig(n_estimators=5, seed=s)) for s in range(3)]
    ens = BaseEnsemble(models=models, assignment=ClusterAssignment(((0,), (1,))), loss=SQ)
    want = np.stack([m.predict_margin(x) for m in models], axis=1)

    builds = []

    class CountingForest(gbt._PackedForest):
        def __init__(self, forests, width):
            builds.append(1)
            time.sleep(0.05)  # hold the build open so that racing threads overlap it
            super().__init__(forests, width)

    monkeypatch.setattr(gbt, "_PackedForest", CountingForest)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def worker(i):
        barrier.wait(timeout=10)
        results[i] = ens.margins(x)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    for r in results:
        np.testing.assert_array_equal(r, want)


class ReferencePack:
    """The packed walk with separate child arrays, the reference for
    ``gbt._PackedForest``: left, right and ``np.where`` at every level, then
    each group's cumsum over its trees.

    Same layout as ``gbt._PackedForest``: one group per (forest, class), in
    round order, padded at its end with one zero leaf; leaves route to
    themselves, so every row walks the forest's depth.
    """

    def __init__(self, forests, width):
        self.n_groups = len(forests) * width
        shift = np.cumsum([0, *(f.offsets[-1] for f in forests)], dtype=np.intp)
        starts = np.concatenate([f.offsets[:-1] + s for f, s in zip(forests, shift)])
        group = np.concatenate([r * width + f.class_k for r, f in enumerate(forests)])
        counts = np.bincount(group, minlength=self.n_groups)
        self.group_size = int(counts.max(initial=0))
        order = np.argsort(group, kind="stable")
        slot = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
        roots = np.full((self.n_groups, self.group_size), shift[-1])
        roots[group[order], slot] = starts[order]
        self.roots = roots.ravel()
        fields = ("feature", "threshold", "left", "right", "value")
        feature, threshold, left, right, value = (
            np.concatenate([*(getattr(f, key) for f in forests), [pad]])
            for key, pad in zip(fields, (-1, 0.0, -1, -1, 0.0))
        )
        leaf, node = feature < 0, np.arange(len(feature))
        first = np.append(starts, shift[-1])
        base = np.repeat(first, np.diff(first, append=shift[-1] + 1))
        self.left, self.right = (np.where(leaf, node, c + base) for c in (left, right))
        self.feature = np.where(leaf, 0, feature).astype(np.intp)
        self.threshold, self.value = threshold, value
        self.depth = 0
        frontier = starts[~leaf[starts]]
        while frontier.size:
            self.depth += 1
            children = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = np.unique(children[~leaf[children]])

    def sums(self, x, chunk_elements):
        n, d = x.shape
        n_trees = len(self.roots)
        out = np.zeros((n, self.n_groups))
        chunk = max(1, chunk_elements // n_trees)
        for start in range(0, n, chunk):
            xc = np.ascontiguousarray(x[start : start + chunk]).ravel()
            m = len(xc) // d
            row_base = np.arange(m) * d
            node = np.repeat(self.roots, m).reshape(n_trees, m)
            for _ in range(self.depth):
                go_left = xc.take(self.feature.take(node) + row_base) < self.threshold.take(node)
                node = np.where(go_left, self.left.take(node), self.right.take(node))
            leaves = self.value.take(node).reshape(self.n_groups, self.group_size, m)
            out[start : start + m] = leaves.cumsum(axis=1)[:, -1].T
        return out


def fitted_pack(rng, loss, max_depth, n_models, empty_model, d=3, n=80):
    """Forest records of ``n_models`` fits of 1 to 12 rounds on one sample;
    model ``empty_model`` (if any) has no trees."""
    x = np.round(rng.normal(size=(n, d)), 1)  # ties put data values on the bin edges
    if loss.name == "squared":
        y = x[:, 0] - x[:, 1] + rng.normal(0, 0.3, n)
    else:
        k = 2 if loss.name == "logistic" else loss.n_classes
        y = np.argmax(x[:, :k] + rng.gumbel(size=(n, k)), axis=1)
    rounds = [0 if i == empty_model else int(rng.integers(1, 13)) for i in range(n_models)]
    models = [
        fit_gbt(x, y, loss, GBTConfig(n_estimators=r, max_depth=max_depth, subsample=0.8, seed=i))
        for i, r in enumerate(rounds)
    ]
    return x, [m.trees for m in models]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([SQ, LOG, SOFT]),
    max_depth=st.integers(0, 5),
    n_models=st.integers(1, 4),
    empty=st.booleans(),
    budget=st.sampled_from([200, 3000, 1 << 17]),
    rows=st.sampled_from(["1", "2", "chunk-1", "chunk", "chunk+1"]),
)
# one-tree groups whose leaves for a row are all -0.0: the sum must stay -0.0
@example(seed=2892, loss=SOFT, max_depth=2, n_models=2, empty=True, budget=200, rows="chunk-1")
def test_packed_sums_match_reference_walk(seed, loss, max_depth, n_models, empty, budget, rows):
    from segshift.learners import gbt

    rng = np.random.default_rng(seed)
    # the empty model's group holds only the zero leaf; a pack needs one tree
    empty_model = int(rng.integers(n_models)) if empty and n_models > 1 else None
    x, forests = fitted_pack(rng, loss, max_depth, n_models, empty_model)
    ref = ReferencePack(forests, loss.margin_width)
    chunk = max(1, budget // len(ref.roots))
    n = {"1": 1, "2": 2, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
    xt = rng.normal(size=(n, 3))
    train = rng.random(n) < 0.5
    xt[train] = x[rng.integers(len(x), size=train.sum())]
    # put values on the thresholds of random roots and random inner nodes
    feature = np.concatenate([f.feature for f in forests])
    threshold = np.concatenate([f.threshold for f in forests])
    shift = np.cumsum([0, *(f.offsets[-1] for f in forests)])
    roots = np.concatenate([f.offsets[:-1] + s for f, s in zip(forests, shift)])
    for pool in (roots[feature[roots] >= 0], np.flatnonzero(feature >= 0)):
        if pool.size and n:
            pick = pool[rng.integers(pool.size, size=n)]
            xt[np.arange(n), feature[pick]] = threshold[pick]
    with mock.patch.object(gbt, "_CHUNK_ELEMENTS", budget):
        got = gbt._PackedForest(forests, loss.margin_width).sums(xt)
    want = ref.sums(xt, budget)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_one_row_margins_equal_batch_on_softmax_pack():
    from segshift.mr import BaseEnsemble
    from segshift.segmentation import ClusterAssignment

    rng = np.random.default_rng(47)
    x = rng.normal(size=(600, 4))
    y = np.argmax(x[:, :3] + rng.gumbel(size=(600, 3)), axis=1)
    models = [
        fit_gbt(x[s::3], y[s::3], SOFT, GBTConfig(n_estimators=30, max_depth=3, subsample=0.8, seed=s))
        for s in range(3)
    ]
    ens = BaseEnsemble(models=models, assignment=ClusterAssignment(((0,), (1,))), loss=SOFT)
    # 270 trees: 485-row chunks, so 1,000 rows end in a partial one
    xt = rng.normal(size=(1000, 4))
    batch = ens.margins(xt)
    one = np.concatenate([ens.margins(xt[i : i + 1]) for i in range(len(xt))])
    assert one.tobytes() == batch.tobytes()


def stump_columns(**node0):
    """A depth-1 tree as node columns; ``node0`` edits its root."""
    nodes = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2, "value": 0.0},
        {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 1.0},
        {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 2.0},
    ]
    nodes[0].update(node0)
    return {key: [n[key] for n in nodes] for key in nodes[0]}


def replace_tree(trees, i, columns):
    """Put the node columns ``columns`` in place of tree ``i``'s nodes in ``trees``."""
    start = sum(trees["n_nodes"][:i])
    for key, column in columns.items():
        trees[key][start : start + trees["n_nodes"][i]] = column
    trees["n_nodes"][i] = len(columns["feature"])


@pytest.mark.parametrize(
    "node0, match",
    [
        (dict(left=0, right=0), "child index"),  # a cycle back to the root
        (dict(right=7), "child index"),
        (dict(left=-1), "child index"),
        (dict(feature=3), "feature"),
        (dict(feature=-2), "feature"),
        (None, "no nodes"),
        (dict(left=1.5), "not all integers"),  # would truncate to a valid child
        (dict(feature=0.0), "not all integers"),
        (dict(right=2**32 + 2), "int32 range"),  # would wrap to a valid child
        (dict(right=2**64 + 2), "int64 range"),
        (dict(value=True), "'value' values are not all numbers"),  # a float dtype reads 1.0
        (dict(threshold="0.5"), "'threshold' values are not all numbers"),  # ... and 0.5
        (dict(threshold=None), "'threshold' values are not all numbers"),
    ],
)
def test_gbt_from_dict_rejects_bad_tree_links(node0, match):
    x = np.arange(40.0).reshape(-1, 2)
    doc = fit_gbt(x, x[:, 0], SQ, GBTConfig(n_estimators=3)).to_dict()
    GBTModel.from_dict(doc)
    empty = dict.fromkeys(("feature", "threshold", "left", "right", "value"), [])
    replace_tree(doc["trees"], 1, stump_columns(**node0) if node0 is not None else empty)
    with pytest.raises(ValueError, match=match):
        GBTModel.from_dict(doc)


def _drop_last(key):
    def corrupt(trees):
        trees[key].pop()

    return corrupt


def _set(key, value, at=0):
    def corrupt(trees):
        trees[key][at] = value

    return corrupt


def _long_class_k(trees):
    trees["class_k"].append(0)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        *[
            pytest.param(_drop_last(key), f"tree node '{key}' has 8 values for 9 nodes", id=f"short-{key}")
            for key in ("feature", "threshold", "left", "right", "value")
        ],
        pytest.param(_long_class_k, "tree 'class_k' has 4 values for 3 trees", id="long-class-k"),
        pytest.param(_set("n_nodes", 0, at=1), "no nodes", id="zero-n-nodes"),
        pytest.param(_set("n_nodes", 1.5), "'n_nodes' values are not all integers", id="fractional-n-nodes"),
        pytest.param(_set("n_nodes", True), "'n_nodes' values are not all integers", id="boolean-n-nodes"),
        pytest.param(_set("n_nodes", 4), "has 9 values for 10 nodes", id="n-nodes-past-the-columns"),
    ],
)
def test_gbt_from_dict_rejects_columns_out_of_step(corrupt, match):
    stump = tuple(stump_columns().values())
    trees = Forest.join([stump] * 3, [0] * 3)
    doc = GBTModel(loss=SQ, n_features=1, trees=trees, init_margin=np.zeros(1), learning_rate=0.1).to_dict()
    GBTModel.from_dict(doc)
    assert doc["trees"]["n_nodes"] == [3, 3, 3] and doc["trees"]["class_k"] == [0, 0, 0]
    corrupt(doc["trees"])
    with pytest.raises(ValueError, match=match):
        GBTModel.from_dict(doc)


def test_gbt_from_dict_rejects_bad_class_and_init():
    model = fit_gbt(np.arange(20.0).reshape(-1, 1), np.arange(20.0), SQ, GBTConfig(n_estimators=2))
    doc = model.to_dict()
    for bad in (1, -1, 0.5):
        doc["trees"]["class_k"][1] = bad
        with pytest.raises(ValueError, match="class_k"):
            GBTModel.from_dict(doc)
    doc = model.to_dict()
    doc["init_margin"] = [0.0, 1.0]
    with pytest.raises(ValueError, match="init_margin"):
        GBTModel.from_dict(doc)
    for key, bad, match in [
        ("init_margin", [True], "init_margin values are not all numbers"),
        ("init_margin", ["0.5"], "init_margin values are not all numbers"),
        ("n_features", 1.5, "n_features 1.5 is not an integer"),  # int() would read 1
        ("n_features", True, "n_features True is not an integer"),
        ("n_features", "1", "n_features '1' is not an integer"),
        ("learning_rate", "0.1", "learning_rate '0.1' is not a number"),
        ("learning_rate", True, "learning_rate True is not a number"),
    ]:
        doc = model.to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=re.escape(match)):
            GBTModel.from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([SQ, LOG, SOFT]),
    max_depth=st.integers(0, 3),
    n_estimators=st.integers(0, 5),
)
def test_forest_json_round_trip_is_bit_exact(seed, loss, max_depth, n_estimators):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(60, 3)), 1)
    if loss.name == "squared":
        y = x[:, 0] - x[:, 1] + rng.normal(0, 0.3, 60)
    else:
        k = 2 if loss.name == "logistic" else loss.n_classes
        y = np.argmax(x[:, :k] + rng.gumbel(size=(60, k)), axis=1)
    cfg = GBTConfig(n_estimators=n_estimators, max_depth=max_depth, subsample=0.8, seed=seed)
    model = fit_gbt(x, y, loss, cfg)
    back = GBTModel.from_dict(json.loads(json.dumps(model.to_dict(), sort_keys=True, indent=1)))
    assert len(back.trees) == n_estimators * loss.margin_width
    for key in ("feature", "threshold", "left", "right", "value", "offsets", "class_k"):
        got, want = getattr(back.trees, key), getattr(model.trees, key)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert back.init_margin.tobytes() == model.init_margin.tobytes()


# ---------------------------------------------------------------------------
# the histogram-subtraction grower against a plain per-node reference


def reference_histogram(codes, g, h, rows, cols, n_bins):
    """(g, h, count) histograms of one node from one direct bincount over its rows."""
    nc, m = len(cols), len(rows)
    sub = codes[np.ix_(rows, cols)].T
    flat = (sub + (np.arange(nc) * n_bins)[:, None]).ravel()
    flat3 = np.concatenate([flat, flat + nc * n_bins, flat + 2 * nc * n_bins])
    wts = np.concatenate([np.tile(g[rows], nc), np.tile(h[rows], nc), np.ones(nc * m)])
    return np.bincount(flat3, weights=wts, minlength=3 * nc * n_bins).reshape(3, nc, n_bins)


def reference_split(hist, gs, hs, n_rows, cfg):
    """Best (column position, bin) by the second-order gain, or None."""
    lam = cfg.leaf_l2
    gl, hl, cl = (a.cumsum(axis=1)[:, :-1] for a in hist)
    gr, hr = gs - gl, hs - hl
    valid = (
        (cl > 0) & (cl < n_rows)
        & (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
        & (hl + lam > 0) & (hr + lam > 0)
    )
    if not valid.any():
        return None
    parent = gs * gs / (hs + lam) if hs + lam > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    gains = np.where(valid, gains, -np.inf)
    idx = int(np.argmax(gains))
    if gains.ravel()[idx] <= 0.0:
        return None
    return divmod(idx, gl.shape[1])


def grower_data(loss, n=600, d=4, seed=51):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if loss.name == "squared":
        y = x[:, 0] * x[:, 1] + np.sin(2 * x[:, 2]) + rng.normal(0, 0.3, n)
    else:
        k = max(loss.margin_width, 2)
        y = np.argmax(x[:, :k] + rng.gumbel(size=(n, k)), axis=1)
    return x, y, rng.uniform(0.2, 3.0, n)


GROWER_CFG = GBTConfig(n_estimators=6, max_depth=4, subsample=0.8, colsample_bytree=0.5, seed=7)


@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_grower_histograms_and_splits_match_direct_reference(monkeypatch, loss):
    from segshift.learners import gbt

    grown, searched = [], []
    grow, best_split = gbt._TreeGrower.grow, gbt._TreeGrower._best_split

    def spy_grow(self, g, h, rows, oob, cols):
        searched.append([])
        out = grow(self, g, h, rows, oob, cols)
        grown.append((self, g.copy(), h.copy(), rows, cols, out))
        return out

    def spy_split(self, hist, gs, hs, n_rows):
        searched[-1].append((hist.copy(), gs, hs, n_rows))
        return best_split(self, hist, gs, hs, n_rows)

    monkeypatch.setattr(gbt._TreeGrower, "grow", spy_grow)
    monkeypatch.setattr(gbt._TreeGrower, "_best_split", spy_split)
    x, y, w = grower_data(loss)
    fit_gbt(x, y, loss, GROWER_CFG, sample_weight=w)

    cfg, n_children, n_splits = GROWER_CFG, 0, 0
    for (grower, g, h, rows, cols, (feat, thr, left, right, _, _)), calls in zip(grown, searched):
        nb = grower.max_bins
        codes = (grower.flat - (np.arange(grower.flat.shape[0]) * nb)[:, None]).T
        # each node's rows, depth and parent's rows, walked in node order
        node_rows, depth, parent_rows = {0: rows}, {0: 0}, {0: rows}
        want_calls = []
        for node in range(len(feat)):
            r = node_rows[node]
            if depth[node] < cfg.max_depth:
                want_calls.append(node)
            if feat[node] < 0:
                continue
            b = int(np.searchsorted(grower.edges[feat[node]], thr[node]))
            go_left = codes[r, feat[node]] <= b
            for child, part in ((left[node], r[go_left]), (right[node], r[~go_left])):
                node_rows[child], depth[child], parent_rows[child] = part, depth[node] + 1, r
        assert len(calls) == len(want_calls)
        for node, (hist, gs, hs, n_rows) in zip(want_calls, calls):
            r, pr = node_rows[node], parent_rows[node]
            ref = reference_histogram(codes, g, h, r, cols, nb)
            if node == 0:
                np.testing.assert_array_equal(hist, ref)
            np.testing.assert_array_equal(hist[2], ref[2])
            for plane, stat in ((0, g), (1, h)):
                scale = 1e-12 * np.abs(stat[pr]).sum()
                assert np.max(np.abs(hist[plane] - ref[plane])) <= scale
                assert abs((gs, hs)[plane] - stat[r].sum()) <= scale
            assert n_rows == len(r)
            n_children += node > 0  # the larger of two siblings has a subtracted histogram
            want = reference_split(ref, g[r].sum(), h[r].sum(), len(r), cfg)
            got = None
            if feat[node] >= 0:
                got = (int(np.flatnonzero(cols == feat[node])[0]),
                       int(np.searchsorted(grower.edges[feat[node]], thr[node])))
                n_splits += 1
            assert got == want
    assert n_splits > 20 and n_children > 20


@pytest.mark.parametrize("loss", [SQ, LOG, SOFT])
def test_training_margin_equals_walk_of_fitted_trees(monkeypatch, loss):
    from segshift.learners.gbt import _canonical_order

    seen = []
    grad_hess = losses.grad_hess

    def spy(loss_, y_, margin):
        seen.append(np.array(margin, copy=True))
        return grad_hess(loss_, y_, margin)

    monkeypatch.setattr(losses, "grad_hess", spy)
    x, y, w = grower_data(loss)
    model = fit_gbt(x, y, loss, GROWER_CFG, sample_weight=w)
    assert len(seen) == GROWER_CFG.n_estimators

    yy = y.astype(np.int64) if loss.is_classification else y.astype(float)
    xc = x[_canonical_order(x, yy, w / w.mean(), None)]
    width = loss.margin_width
    margin = np.tile(model.init_margin, (len(y), 1))
    for r, got in enumerate(seen):
        np.testing.assert_array_equal(got, margin[:, 0] if width == 1 else margin)
        for i in range(r * width, (r + 1) * width):
            margin[:, model.trees.class_k[i]] += walk(tree(model.trees, i), xc)


def _quantile_bins(x, n_bins):
    """Quantile edges per feature without merging bins that no training value falls in."""
    qs = np.arange(1, n_bins) / n_bins
    edges = []
    codes = np.empty(x.shape, dtype=np.int32)
    for j in range(x.shape[1]):
        col = x[:, j]
        e = np.unique(np.quantile(col, qs))
        e = e[(e > col.min()) & (e <= col.max())]
        edges.append(e)
        codes[:, j] = np.searchsorted(e, col, side="right")
    return edges, codes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("loss", [SQ, LOG, SOFT], ids=["squared", "logistic", "softmax"])
def test_bins_only_where_values_fall_keep_every_tree(monkeypatch, loss, seed):
    from segshift.learners import gbt

    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 61))
    # few distinct values per column, so values tie and quantile edges crowd between them
    x = rng.integers(0, [3, 6, 12, n], size=(n, 4)) * 0.5
    y = {"squared": rng.normal(size=n), "logistic": rng.integers(0, 2, size=n),
         "softmax": rng.integers(0, 3, size=n)}[loss.name]
    w = rng.uniform(0.2, 3.0, size=n)
    margin = rng.normal(size=(n, loss.margin_width)).squeeze()
    cfg = GBTConfig(n_estimators=8, max_depth=3, subsample=0.8, colsample_bytree=0.5,
                    min_child_weight=0.1, seed=seed)
    edges, _ = gbt._bin_features(x, cfg.n_bins)
    assert max(len(e) + 1 for e in edges) <= n
    fitted = fit_gbt(x, y, loss, cfg, sample_weight=w, base_margin=margin)
    assert (fitted.trees.feature >= 0).sum() >= 8
    monkeypatch.setattr(gbt, "_bin_features", _quantile_bins)
    reference = fit_gbt(x, y, loss, cfg, sample_weight=w, base_margin=margin)
    assert json.dumps(fitted.to_dict()) == json.dumps(reference.to_dict())
    assert sum(len(e) for e in _quantile_bins(x, cfg.n_bins)[0]) > sum(len(e) for e in edges)
