import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from segshift import (
    ClusterAssignment,
    Dataset,
    GBTConfig,
    MRConfig,
    MRModel,
    TaskKind,
    cluster_base_config,
    fit_base_ensemble,
    fit_dr,
    fit_gbt,
    fit_mr,
    fit_stage1,
    fit_stage2,
    refine_config,
    uniform_weights,
)
from segshift.data import DataError
from segshift import mr
from segshift.learners import LOGISTIC, LossKind, fit_linear, linear, losses
from segshift.learners.linear import LinearModel
from segshift.mr import (
    BALL_TOL,
    LAMBDA_MIN,
    BaseEnsemble,
    FitStages,
    SegmentModel,
    Stage1Model,
    _solve_shared_softmax,
)

SQ = LossKind("squared")


def linear_ensemble(coefs, intercepts=None, loss=SQ):
    """Base ensemble backed by fixed linear models (fast test doubles)."""
    models = []
    for i, c in enumerate(coefs):
        c = np.asarray(c, dtype=float)
        b = 0.0 if intercepts is None else intercepts[i]
        models.append(LinearModel(coef=c, intercept=np.asarray(b), loss=loss, l2=0.0))
    assignment = ClusterAssignment(tuple((i,) for i in range(max(1, len(coefs) - 1))))
    return BaseEnsemble(models=models, assignment=assignment, loss=loss)


def two_signal_dataset(n_per=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4 * n_per, 3))
    seg = np.repeat([0, 1, 2, 3], n_per)
    y = np.where(seg < 2, 3.0 * x[:, 0], -3.0 * x[:, 1]) + rng.normal(0, 0.1, 4 * n_per)
    return Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=("a", "b", "c", "d"),
        feature_names=("x0", "x1", "x2"),
        task=TaskKind.regression(),
    )


# ---------------------------------------------------------------------------
# fit_base_ensemble


def test_single_cluster_gives_two_models():
    ds = two_signal_dataset(50)
    ens = fit_base_ensemble(ds, ClusterAssignment(((0, 1, 2, 3),)), GBTConfig(n_estimators=5))
    assert ens.n_models == 2


def test_cluster_models_specialize():
    ds = two_signal_dataset(400)
    holdout = two_signal_dataset(400, seed=99)
    ens = fit_base_ensemble(
        ds, ClusterAssignment(((0, 1), (2, 3))), cluster_base_config(n_estimators=80)
    )
    margins = ens.margins(holdout.features)
    first = np.isin(holdout.segment_id, [0, 1])
    mse = lambda pred, rows: float(np.mean((pred[rows] - holdout.labels[rows]) ** 2))
    # each cluster model wins on its own segments
    assert mse(margins[:, 0], first) < mse(margins[:, 1], first)
    assert mse(margins[:, 1], ~first) < mse(margins[:, 0], ~first)


def test_ensemble_row_shuffle_invariance():
    ds = two_signal_dataset(60, seed=4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(ds.n)
    shuffled = Dataset(
        features=ds.features[perm],
        labels=ds.labels[perm],
        segment_id=ds.segment_id[perm],
        segment_names=ds.segment_names,
        feature_names=ds.feature_names,
        task=ds.task,
    )
    cfg = cluster_base_config(n_estimators=10, seed=5)
    clusters = ClusterAssignment(((0, 1), (2, 3)))
    a = fit_base_ensemble(ds, clusters, cfg)
    b = fit_base_ensemble(shuffled, clusters, cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_empty_cluster_errors():
    ds = two_signal_dataset(20)
    with pytest.raises(DataError, match="no rows"):
        fit_base_ensemble(
            ds.subset(ds.segment_rows(0)),
            ClusterAssignment(((0,), (1, 2, 3))),
            GBTConfig(n_estimators=2),
        )


# ---------------------------------------------------------------------------
# fit_stage1


def test_stage1_perfect_single_model():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 2))
    ens = linear_ensemble([[2.0, -1.0]])
    y = x @ np.array([2.0, -1.0])
    model = fit_stage1((x, y), ens)
    assert model.beta[0] == pytest.approx(1.0, abs=1e-6)
    assert model.lambda_used == pytest.approx(1e-8)


def test_stage1_half_mix_closed_form():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 2))
    ens = linear_ensemble([[1.0, 0.0], [0.0, 1.0]])
    h = ens.margins(x)
    y = 0.5 * h[:, 0] + 0.5 * h[:, 1]
    # closed-form least squares oracle on the margin design
    ha = np.hstack([h, np.ones((80, 1))])
    oracle = np.linalg.lstsq(ha, y, rcond=None)[0]
    model = fit_stage1((x, y), ens)
    np.testing.assert_allclose(model.beta, [0.5, 0.5], atol=1e-6)
    np.testing.assert_allclose(model.beta, oracle[:2], atol=1e-6)
    assert np.linalg.norm(model.beta) <= 1.0 + 1e-4
    assert model.lambda_used == pytest.approx(1e-8)


def test_stage1_ball_bisection():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 2))
    ens = linear_ensemble([[1.0, 0.0], [0.0, 1.0]])
    h = ens.margins(x)
    y = 2.0 * h[:, 0] + 2.0 * h[:, 1]  # unconstrained norm ~ 2.83
    model = fit_stage1((x, y), ens, ball=True)
    norm = float(np.linalg.norm(model.beta))
    assert 0.999 <= norm <= 1.0001
    assert not model.ball_warning
    unconstrained = fit_stage1((x, y), ens, ball=False)
    assert np.linalg.norm(unconstrained.beta) == pytest.approx(np.sqrt(8.0), rel=1e-3)


def test_stage1_lambda_max_warning():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 1))
    ens = linear_ensemble([[1.0]])
    y = 500.0 * x[:, 0]
    with pytest.warns(UserWarning, match="lambda_max"):
        model = fit_stage1((x, y), ens, ball=True, lambda_max=1e-6)
    assert model.ball_warning


def _reference_shared_softmax(h, y, l2, fit_intercept):
    """L-BFGS-B on the shared-softmax stacking objective, written out plainly."""
    n, m, k = h.shape
    onehot = np.eye(k)[y.astype(int)]

    def fun(t):
        beta, c = t[:m], (t[m:] if fit_intercept else np.zeros(k))
        z = np.einsum("nmk,m->nk", h, beta) + c
        lse = np.logaddexp.reduce(z, axis=1)
        r = np.exp(z - lse[:, None]) - onehot
        grad = [np.einsum("nk,nmk->m", r, h) + l2 * beta] + ([r.sum(axis=0)] if fit_intercept else [])
        return float(np.sum(lse - (z * onehot).sum(axis=1))) + 0.5 * l2 * float(beta @ beta), np.concatenate(grad)

    res = minimize(fun, np.zeros(m + (k if fit_intercept else 0)), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 20000, "maxcor": 30})
    return res.x[:m], (res.x[m:] if fit_intercept else np.zeros(k))


@pytest.mark.parametrize(
    "n,fit_intercept,l2",
    [(500, True, 1e-8), (500, False, 2.0), (20000, True, 1e-8)],
    ids=["n500-intercept", "n500-no-intercept", "n20000-intercept"],
)
def test_shared_softmax_matches_lbfgs_reference(n, fit_intercept, l2):
    # margins of three noisy base models around the true 3-class logits
    rng = np.random.default_rng(n)
    logits = rng.normal(size=(n, 3)) * 1.5 + np.array([0.4, 0.0, -0.3])
    y = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1).astype(float)
    h = logits[:, None, :] * np.array([0.6, 0.3, 0.2])[:, None] + rng.normal(size=(n, 3, 3))
    beta, c = _solve_shared_softmax(h, y, losses.softmax_loss(3), l2, fit_intercept)
    ref_beta, ref_c = _reference_shared_softmax(h, y, l2, fit_intercept)
    np.testing.assert_allclose(beta, ref_beta, atol=1e-6)
    # one shift of every class intercept leaves the margins' softmax unchanged
    np.testing.assert_allclose(c - c.mean(), ref_c - ref_c.mean(), atol=1e-6)


def test_shared_softmax_intercepts_do_not_depend_on_row_order():
    # c_K = 0 pins the one common shift of the intercepts that the softmax
    # cannot see, so rounding has no singular direction to move them along
    for n in (140, 500, 3000):
        rng = np.random.default_rng(n)
        logits = rng.normal(size=(n, 3)) * 1.5
        y = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1).astype(float)
        h = logits[:, None, :] + rng.normal(size=(n, 4, 3))
        perm = rng.permutation(n)
        loss = losses.softmax_loss(3)
        beta, c = _solve_shared_softmax(h, y, loss, LAMBDA_MIN, True)
        beta_p, c_p = _solve_shared_softmax(h[perm], y[perm], loss, LAMBDA_MIN, True)
        np.testing.assert_allclose(beta_p, beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_p, c, rtol=0, atol=1e-12)
        assert c[-1] == 0.0


# ---------------------------------------------------------------------------
# the unit-ball path of fit_stage1 against a reference bisection


def _cold_solve(h, y, loss, l2, fit_intercept=True):
    """(beta, intercept) of one stage-1 solve at ``l2`` from zero."""
    if loss.name == "softmax":
        return _solve_shared_softmax(h, y, loss, l2, fit_intercept)
    lm = fit_linear(h, y, loss, l2=l2, fit_intercept=fit_intercept)
    return lm.coef, lm.intercept


def _reference_bisection(h, y, loss, lambda_max, fit_intercept=True):
    """The unit-ball search by bisection in log lambda, with cold solves.

    Returns (beta, lambda, ball_warning), as ``fit_stage1`` did before its
    Newton path: a solve at ``LAMBDA_MIN``, one at ``lambda_max``, then up
    to 60 geometric-mean solves.
    """
    beta, _ = _cold_solve(h, y, loss, LAMBDA_MIN, fit_intercept)
    if np.linalg.norm(beta) <= 1.0:
        return beta, LAMBDA_MIN, False
    beta_hi, _ = _cold_solve(h, y, loss, lambda_max, fit_intercept)
    if np.linalg.norm(beta_hi) > 1.0:
        return beta_hi, lambda_max, True
    lo, hi = LAMBDA_MIN, lambda_max
    for _ in range(60):
        if 1.0 - BALL_TOL <= np.linalg.norm(beta_hi) <= 1.0:
            break
        mid = float(np.sqrt(lo * hi))
        beta_mid, _ = _cold_solve(h, y, loss, mid, fit_intercept)
        if np.linalg.norm(beta_mid) > 1.0:
            lo = mid
        else:
            hi, beta_hi = mid, beta_mid
    return beta_hi, hi, False


def _stacking_problem(loss, n, n_models, seed, scale=0.3, noise=0.3):
    """Base margins of ``n_models`` noisy, shrunk copies of the true margin.

    Each margin is ``scale`` times the truth plus N(0, noise^2), so a
    combination needs weights well outside the unit ball to undo the shrink.
    """
    rng = np.random.default_rng(seed)
    k = max(loss.margin_width, 2)
    if loss.name == "squared":
        truth = rng.normal(size=n) * 2.0
        y = truth + rng.normal(0, 0.5, size=n)
    else:
        logits = rng.normal(size=(n, k)) * 1.5
        y = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1).astype(float)
        truth = logits[:, 1] - logits[:, 0] if loss.margin_width == 1 else logits
    if loss.margin_width == 1:
        h = scale * truth[:, None] + rng.normal(0, noise, size=(n, n_models))
    else:
        h = scale * truth[:, None, :] + rng.normal(0, noise, size=(n, n_models, k))
    ens = BaseEnsemble(models=[None] * n_models, assignment=ClusterAssignment(((0,),)), loss=loss)
    return (np.zeros((n, 1)), y), ens, h


_STAGE1_LOSSES = [SQ, LOGISTIC, losses.softmax_loss(3)]


@pytest.mark.parametrize("loss", _STAGE1_LOSSES, ids=["squared", "logistic", "softmax"])
def test_stage1_path_lands_where_bisection_does(loss):
    xy, ens, h = _stacking_problem(loss, 150, 5, seed=21)
    model = fit_stage1(xy, ens, margins=h)
    ref_beta, ref_lambda, ref_warning = _reference_bisection(h, xy[1], loss, 1e6)
    assert not model.ball_warning and not ref_warning
    assert 1.0 - BALL_TOL <= np.linalg.norm(model.beta) <= 1.0
    assert 1.0 - BALL_TOL <= np.linalg.norm(ref_beta) <= 1.0
    # the band is one lambda interval, narrow at this tolerance
    assert model.lambda_used == pytest.approx(ref_lambda, rel=0.05)
    # the path's warm-started solution is the solution at its lambda
    beta, intercept = _cold_solve(h, xy[1], loss, model.lambda_used)
    np.testing.assert_allclose(model.beta, beta, rtol=0, atol=1e-8)
    np.testing.assert_allclose(model.intercept, intercept, rtol=0, atol=1e-8)


@pytest.mark.parametrize("loss", _STAGE1_LOSSES, ids=["squared", "logistic", "softmax"])
def test_stage1_path_warns_where_bisection_does(loss):
    xy, ens, h = _stacking_problem(loss, 120, 3, seed=22)
    for lambda_max in (1e-6, 1e-2, 0.3, 3.0, 30.0, 1e3, 1e6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_stage1(xy, ens, lambda_max=lambda_max, margins=h)
        ref_beta, _, ref_warning = _reference_bisection(h, xy[1], loss, lambda_max)
        assert model.ball_warning == ref_warning, lambda_max
        assert any("lambda_max" in str(w.message) for w in caught) == ref_warning
        if ref_warning:
            assert model.lambda_used == lambda_max
            np.testing.assert_allclose(model.beta, ref_beta, rtol=0, atol=1e-8)
        else:
            assert 1.0 - BALL_TOL <= np.linalg.norm(model.beta) <= 1.0


def test_stage1_path_solve_count(monkeypatch):
    # _reference_bisection makes 16 cold solves here: LAMBDA_MIN, lambda_max
    # and 14 midpoints; the path makes 5 solves of 24 Newton iterations in
    # all, 31 without its warm starts
    solves, iterations = [], []
    fit_glm, newton = linear.fit_glm, linear.newton

    def counting_fit_glm(*args, **kwargs):
        solves.append(1)
        return fit_glm(*args, **kwargs)

    def counting_newton(objective, grad_hess, theta0):
        def counted(theta):
            iterations.append(1)
            return grad_hess(theta)

        return newton(objective, counted, theta0)

    monkeypatch.setattr(linear, "fit_glm", counting_fit_glm)
    monkeypatch.setattr(mr, "fit_glm", counting_fit_glm)
    monkeypatch.setattr(linear, "newton", counting_newton)
    xy, ens, h = _stacking_problem(LOGISTIC, 150, 5, seed=23)
    model = fit_stage1(xy, ens, margins=h)
    assert 1.0 - BALL_TOL <= np.linalg.norm(model.beta) <= 1.0
    assert len(solves) <= 6
    assert len(iterations) <= 27


@settings(max_examples=30, deadline=None)
@given(
    loss=st.sampled_from(_STAGE1_LOSSES),
    n=st.integers(30, 200),
    n_models=st.integers(2, 5),
    scale=st.floats(0.05, 1.0),
    log_lambda_max=st.floats(-3.0, 4.0),
    seed=st.integers(0, 2**16),
)
def test_stage1_path_property(loss, n, n_models, scale, log_lambda_max, seed):
    xy, ens, h = _stacking_problem(loss, n, n_models, seed, scale=scale, noise=scale)
    lambda_max = 10.0**log_lambda_max
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lambda_max warning is checked as ball_warning
        model = fit_stage1(xy, ens, lambda_max=lambda_max, margins=h)
        _, _, ref_warning = _reference_bisection(h, xy[1], loss, lambda_max)
    beta, _ = _cold_solve(h, xy[1], loss, model.lambda_used)
    norm = np.linalg.norm(model.beta)
    assert model.ball_warning == ref_warning
    if model.lambda_used == LAMBDA_MIN:
        assert norm <= 1.0
    elif model.ball_warning:
        assert model.lambda_used == lambda_max and norm > 1.0
    else:
        assert 1.0 - BALL_TOL <= norm <= 1.0
    np.testing.assert_allclose(model.beta, beta, rtol=0, atol=1e-6)


def test_stage1_rejects_a_lambda_max_without_a_finite_bracket():
    xy, ens, h = _stacking_problem(LOGISTIC, 60, 3, seed=24)
    for bad in (float("nan"), float("inf"), 0.0, -1.0, LAMBDA_MIN):
        with pytest.raises(ValueError, match="lambda_max must be finite"):
            fit_stage1(xy, ens, lambda_max=bad, margins=h)
        with pytest.raises(ValueError, match="lambda_max must be finite"):
            MRConfig(lambda_max=bad)


def test_stage1_needs_enough_rows():
    ens = linear_ensemble([[1.0, 0.0], [0.0, 1.0]])
    x = np.zeros((2, 2))  # two models need at least three rows
    with pytest.raises(DataError, match="tune rows"):
        fit_stage1((x, np.zeros(2)), ens)


def test_stage1_margin_rejects_beta_of_wrong_length():
    stage1 = Stage1Model(beta=np.array([1.0]), intercept=np.asarray(0.0), lambda_used=0.0)
    with pytest.raises(ValueError, match="beta has 1 weights for 2 base models"):
        stage1.margin(np.zeros((3, 2)))


def test_stage1_intercept_absorbs_offset():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 1))
    ens = linear_ensemble([[1.0]])
    y = x[:, 0] + 7.0
    model = fit_stage1((x, y), ens)
    assert float(model.intercept) == pytest.approx(7.0, abs=1e-5)
    assert model.beta[0] == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# fit_stage2


def test_stage2_zero_trees_matches_stage1_exactly():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2))
    ens = linear_ensemble([[1.0, 1.0]])
    y = x.sum(axis=1) + rng.normal(0, 0.3, 40)
    s1 = fit_stage1((x, y), ens)
    refiner = fit_stage2(
        (x, y), s1, ens, uniform_weights(40), refine_config(n_estimators=0)
    )
    delta = s1.margin(ens.margins(x))
    combined = delta + refiner.predict_margin(x)
    np.testing.assert_array_equal(combined, delta)


def test_stage2_residual_and_margin_paths_agree():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(150, 2))
    ens = linear_ensemble([[1.0, 0.0]])
    y = x[:, 0] + 0.5 * np.sin(3 * x[:, 1]) + rng.normal(0, 0.05, 150)
    s1 = fit_stage1((x, y), ens)
    delta = s1.margin(ens.margins(x))
    cfg = refine_config(n_estimators=20, seed=8)
    via_margin = fit_stage2((x, y), s1, ens, uniform_weights(150), cfg)
    via_residual = fit_gbt(x, y - delta, SQ, cfg, base_margin=np.zeros(150))
    pa = delta + via_margin.predict_margin(x)
    pb = delta + via_residual.predict_margin(x)
    np.testing.assert_allclose(pa, pb, atol=1e-10)


def test_stage2_does_not_increase_training_loss():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 2))
    ens = linear_ensemble([[1.0, -1.0]])
    y = x[:, 0] - x[:, 1] + rng.normal(0, 0.2, 100)
    s1 = fit_stage1((x, y), ens)
    refiner = fit_stage2((x, y), s1, ens, uniform_weights(100), refine_config(n_estimators=10))
    delta = s1.margin(ens.margins(x))
    before = np.mean((y - delta) ** 2)
    after = np.mean((y - delta - refiner.predict_margin(x)) ** 2)
    assert after <= before + 1e-9


def test_stage2_weight_alignment_checked():
    x = np.zeros((10, 1))
    ens = linear_ensemble([[1.0]])
    s1 = Stage1Model(beta=np.array([1.0]), intercept=np.asarray(0.0), lambda_used=0.0)
    with pytest.raises(ValueError, match="aligned"):
        fit_stage2((x, np.zeros(10)), s1, ens, uniform_weights(7), refine_config())


# ---------------------------------------------------------------------------
# fit_mr / predict


def small_sim(seed=0, n=800, segs=4):
    from segshift import SyntheticConfig, simulate_local_covshift

    cfg = SyntheticConfig(n_train=n, n_test=n // 2, n_segments=segs, seed=seed)
    return simulate_local_covshift(cfg)


def quick_config(seed=0, **over):
    base = dict(
        base=cluster_base_config(n_estimators=20),
        refine=refine_config(n_estimators=5),
        seed=seed,
    )
    base.update(over)
    return MRConfig(**base)


def test_mr_collapse_to_stage1():
    train, test = small_sim()
    cfg = quick_config(weight_method="none", refine=refine_config(n_estimators=0))
    model = fit_mr(train, (test.features, test.segment_id), cfg)
    preds = model.predict(test.features, test.segment_id)
    for s, seg_model in model.segments.items():
        rows = np.flatnonzero(test.segment_id == s)
        stage1_only = seg_model.stage1.margin(model.ensemble.margins(test.features[rows]))
        np.testing.assert_array_equal(preds[rows], stage1_only)


def test_mr_collapse_to_single_base_model():
    train, test = small_sim(seed=3)
    cfg = quick_config(
        weight_method="none",
        refine=refine_config(n_estimators=0),
        clusters=((0, 1, 2, 3),),
    )
    model = fit_mr(train, (test.features, test.segment_id), cfg)
    # pin every segment's combination to the first base model alone
    pinned = {
        s: SegmentModel(
            stage1=Stage1Model(
                beta=np.array([1.0, 0.0]), intercept=np.asarray(0.0), lambda_used=0.0
            ),
            refiner=m.refiner,
            weight_summary=m.weight_summary,
        )
        for s, m in model.segments.items()
    }
    pinned_model = MRModel(
        task=model.task,
        ensemble=model.ensemble,
        segments=pinned,
        segment_names=model.segment_names,
        feature_names=model.feature_names,
        config=model.config,
    )
    preds = pinned_model.predict(test.features, test.segment_id)
    base_preds = model.ensemble.models[0].predict_margin(test.features)
    np.testing.assert_array_equal(preds, base_preds)


def test_mr_deterministic_serialization():
    train, test = small_sim(seed=5)
    cfg = quick_config(seed=11)
    a = fit_mr(train, (test.features, test.segment_id), cfg)
    b = fit_mr(train, (test.features, test.segment_id), cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_mr_serialization_roundtrip():
    train, test = small_sim(seed=6)
    model = fit_mr(train, (test.features, test.segment_id), quick_config(seed=2))
    text = json.dumps(model.to_dict())
    back = MRModel.from_dict(json.loads(text))
    np.testing.assert_array_equal(
        model.predict(test.features, test.segment_id),
        back.predict(test.features, test.segment_id),
    )
    assert json.dumps(back.to_dict()) == text


def test_model_readers_reject_other_format_versions():
    from segshift import DRModel

    train, test = small_sim(seed=6, n=300, segs=2)
    cfg = quick_config(refine=refine_config(n_estimators=2))
    models = (fit_mr(train, (test.features, test.segment_id), cfg), fit_dr(train, (test.features, test.segment_id), cfg))
    for model, reader in zip(models, (MRModel.from_dict, DRModel.from_dict)):
        doc = model.to_dict()
        assert doc["format_version"] == mr.MODEL_FORMAT_VERSION == 2
        reader(doc)
        for version in (1, 99, 2.0, True, "2", None):
            doc["format_version"] = version
            with pytest.raises(ValueError, match=rf"format_version {version!r} is not 2.*re-fit"):
                reader(doc)
        del doc["format_version"]
        with pytest.raises(ValueError, match="format_version None"):
            reader(doc)


def test_dr_reader_rejects_a_segment_count_that_is_not_an_integer():
    from segshift import DRModel

    train, test = small_sim(seed=6, n=300, segs=2)
    cfg = quick_config(refine=refine_config(n_estimators=2))
    doc = fit_dr(train, (test.features, test.segment_id), cfg, with_segment_features=True).to_dict()
    DRModel.from_dict(doc)
    for bad in (2.5, True, "2"):  # int() would read 2.5 as 2 and "2" as 2
        doc["n_segments"] = bad
        with pytest.raises(ValueError, match=re.escape(f"n_segments {bad!r} is not an integer")):
            DRModel.from_dict(doc)


def test_mr_unknown_segment_uses_all_segments_model():
    train, test = small_sim(seed=7)
    reg = fit_mr(train, (test.features, test.segment_id), quick_config())
    for model, x, _ in ((reg, test.features, test.segment_id), _multiclass_model()):
        alien = np.full(len(x), 99, dtype=np.int64)
        all_segments = model.ensemble.models[-1].predict_margin(x)
        if model.task.kind != "regression":
            all_segments = losses.margin_to_proba(all_segments, model.ensemble.loss)
        np.testing.assert_array_equal(model.predict(x, alien), all_segments)


def test_mr_fits_no_pooled_model(monkeypatch):
    import segshift.mr as mr_module

    calls = []
    original = mr_module.fit_dr

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mr_module, "fit_dr", counting)
    train, test = small_sim(seed=7, n=400, segs=2)
    model = fit_mr(train, (test.features, test.segment_id), quick_config())
    assert calls == []
    assert "fallback" not in model.to_dict()


def test_mr_missing_test_segment_warns_uniform():
    train, test = small_sim(seed=8)
    keep = test.segment_id != 2
    with pytest.warns(UserWarning, match="missing from the test data"):
        model = fit_mr(
            train, (test.features[keep], test.segment_id[keep]), quick_config()
        )
    assert model.segments[2].weight_summary["method"] == "none"


def test_mr_ball_constraint_on_fitted_model():
    train, test = small_sim(seed=9)
    model = fit_mr(train, (test.features, test.segment_id), quick_config(ball=True))
    for seg_model in model.segments.values():
        assert np.linalg.norm(seg_model.stage1.beta) <= 1.0 + 1e-4


def test_mr_binary_outputs_probabilities():
    rng = np.random.default_rng(10)
    n = 600
    x = rng.normal(size=(n, 2))
    seg = np.arange(n) % 2
    logits = np.where(seg == 0, 2.0 * x[:, 0], -2.0 * x[:, 0])
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    ds = Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=("a", "b"),
        feature_names=("x0", "x1"),
        task=TaskKind.binary(),
    )
    cfg = quick_config(clusters=((0,), (1,)))
    model = fit_mr(ds, (x, seg), cfg)
    p = model.predict(x, seg)
    assert p.shape == (n,)
    assert np.all((p >= 0) & (p <= 1))
    # direction check: the per-segment models should track their own signal
    acc = ((p > 0.5).astype(int) == y).mean()
    assert acc > 0.7


def test_mr_multiclass_end_to_end():
    rng = np.random.default_rng(23)
    n = 1800
    centers = np.array([[0.0, 0.0], [2.5, 0.0], [0.0, 2.5]])
    y = rng.integers(0, 3, size=n)
    seg = np.arange(n) % 2
    # segment b permutes the class geometry so the segments genuinely differ
    remap = np.where(seg == 0, y, (y + 1) % 3)
    x = centers[remap] + rng.normal(0, 0.6, size=(n, 2))
    ds = Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=("a", "b"),
        feature_names=("x0", "x1"),
        task=TaskKind.multiclass(3),
    )
    cfg = quick_config(shift="label", clusters=((0,), (1,)), seed=29)
    model = fit_mr(ds, (x, seg), cfg)
    proba = model.predict(x, seg)
    assert proba.shape == (n, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    acc = (np.argmax(proba, axis=1) == y).mean()
    assert acc > 0.8
    # shared combination vector plus per-class intercepts
    for seg_model in model.segments.values():
        assert seg_model.stage1.beta.shape == (3,)
        assert seg_model.stage1.intercept.shape == (3,)
    back = MRModel.from_dict(json.loads(json.dumps(model.to_dict())))
    np.testing.assert_array_equal(proba, back.predict(x, seg))


def test_mr_label_shift_bbse_weights():
    rng = np.random.default_rng(11)
    n = 2000
    x = rng.normal(size=(n, 2))
    seg = np.arange(n) % 2
    y = (x[:, 0] + rng.normal(0, 0.5, n) > 0).astype(int)
    ds = Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=("a", "b"),
        feature_names=("x0", "x1"),
        task=TaskKind.binary(),
    )
    # test side: drop most negatives, so positive weights should rise
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)[:200]
    rows = np.sort(np.concatenate([pos, neg]))
    cfg = quick_config(shift="label")
    model = fit_mr(ds, (x[rows], seg[rows]), cfg)
    for seg_model in model.segments.values():
        assert seg_model.weight_summary["method"] == "bbse"
        assert seg_model.weight_summary["max"] > 1.0


def test_mr_segment_permutation_equivariance():
    train, test = small_sim(seed=12, n=600, segs=3)
    perm = np.array([2, 0, 1])
    names = [""] * 3
    for s in range(3):
        names[perm[s]] = train.segment_names[s]
    permuted_train = Dataset(
        features=train.features,
        labels=train.labels,
        segment_id=perm[train.segment_id],
        segment_names=tuple(names),
        feature_names=train.feature_names,
        task=train.task,
    )
    cfg = quick_config(seed=13, clusters=1)
    test_f = (test.features, test.segment_id)
    test_f_perm = (test.features, perm[test.segment_id])
    a = fit_mr(train, test_f, cfg)
    b = fit_mr(permuted_train, test_f_perm, cfg)
    pa = a.predict(test.features, test.segment_id)
    pb = b.predict(test.features, perm[test.segment_id])
    np.testing.assert_array_equal(pa, pb)


def test_mr_threads_do_not_change_results():
    train, test = small_sim(seed=20)
    a = fit_mr(train, (test.features, test.segment_id), quick_config(seed=1, n_threads=1))
    b = fit_mr(train, (test.features, test.segment_id), quick_config(seed=1, n_threads=4))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_mr_refuses_stages_of_another_pair():
    train, test = small_sim(seed=21, n=200)
    features = (test.features, test.segment_id)
    stages = FitStages(train, features)
    other_train = train.subset(np.arange(train.n))
    for args in ((other_train, features), (train, (test.features, test.segment_id))):
        with pytest.raises(ValueError, match="another"):
            fit_mr(*args, quick_config(), stages=stages)


def test_fit_stages_serve_fewer_rounds_as_a_prefix(monkeypatch):
    import segshift.mr as mr_module

    train, test = small_sim(seed=22, n=400, segs=2)
    features = (test.features, test.segment_id)
    points = [(b, r) for b in (5, 12) for r in (0, 4)]
    # ascending rounds refit and replace the kept fits; descending ones take prefixes
    sequence = points + points[::-1]
    calls = []
    fit_base_ensemble = mr_module.fit_base_ensemble

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_base_ensemble(*args, **kwargs)

    monkeypatch.setattr(mr_module, "fit_base_ensemble", counting)
    stages = FitStages(train, features)
    staged = []
    for b, r in sequence:
        cfg = quick_config(
            seed=3, base=cluster_base_config(n_estimators=b), refine=refine_config(n_estimators=r)
        )
        staged.append((cfg, json.dumps(fit_mr(train, features, cfg, stages=stages).to_dict())))
    assert len(calls) == 2
    monkeypatch.undo()
    for cfg, text in staged:
        assert text == json.dumps(fit_mr(train, features, cfg).to_dict())


def test_mr_requires_overlapping_vocabulary():
    train, test = small_sim(seed=14)
    with pytest.raises(ValueError, match="overlap"):
        fit_mr(train, (test.features, np.full(test.n, 40)), quick_config())


def test_mr_config_validation():
    with pytest.raises(ValueError, match="incompatible"):
        MRConfig(shift="covariate", weight_method="bbse")
    with pytest.raises(ValueError, match="incompatible"):
        MRConfig(shift="label", weight_method="kmm")
    with pytest.raises(ValueError):
        MRConfig(varsigma=1.5)
    assert MRConfig(shift="label").resolved_weight_method == "bbse"
    # eta must be > 0; NaN fails the comparison, and +inf means no cap
    for eta in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="eta must be > 0"):
            MRConfig(eta=eta)
    assert MRConfig(eta=float("inf")).eta == float("inf")
    for clusters in (0, -2, True, False, "3", 2.0, None):
        with pytest.raises(ValueError, match="clusters must be"):
            MRConfig(clusters=clusters)
    for bad_groups in (((0, 1), (1,)), ((),)):
        with pytest.raises(ValueError):
            MRConfig(clusters=bad_groups)
    # a segment's distance sample needs 2 rows; a negative cap would drop rows
    train, _ = small_sim(seed=1, n=80, segs=2)
    for cap in (-5, 0, 1, True, 2.5):
        with pytest.raises(ValueError, match="max_per_segment must be an integer >= 2"):
            MRConfig(max_per_segment=cap)
        with pytest.raises(ValueError, match="max_per_segment must be an integer >= 2"):
            mr.segment_distance_matrix(train, max_per_segment=cap)
    assert mr.segment_distance_matrix(train, max_per_segment=2).n_segments == 2
    # unchecked, a thread count below 1 ran serially and a size below 1 acted as 1
    for name in ("n_threads", "min_cluster_size"):
        for bad in (0, -3, True, 1.5, "2", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                MRConfig(**{name: bad})
        assert getattr(MRConfig(**{name: np.int64(3)}), name) == 3


def test_mr_config_keeps_explicit_clusters_as_a_tuple():
    groups = ((0, 2), (1, 3))
    configs = [
        MRConfig(clusters=ClusterAssignment(groups)),
        MRConfig(clusters=[[0, 2], [1, 3]]),
        MRConfig(clusters=tuple((np.int64(a), np.int64(b)) for a, b in groups)),
    ]
    for cfg in configs:
        assert cfg.clusters == groups
        assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(
            configs[0].to_dict(), sort_keys=True
        )
        assert cfg.to_dict()["clusters"] == [[0, 2], [1, 3]]
        assert MRConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert MRConfig(clusters=np.int64(3)).to_dict()["clusters"] == 3


def test_mr_bbse_requires_classification():
    train, test = small_sim(seed=15)
    with pytest.raises(ValueError, match="classification"):
        fit_mr(train, (test.features, test.segment_id), quick_config(shift="label"))


# ---------------------------------------------------------------------------
# fit_dr


def test_dr_collapse_to_plain_gbt():
    train, test = small_sim(seed=16)
    cfg = quick_config(weight_method="none", refine=refine_config(n_estimators=0))
    dr = fit_dr(train, (test.features, test.segment_id), cfg)
    margins = dr.base.predict_margin(test.features)
    np.testing.assert_array_equal(dr.predict(test.features, test.segment_id), margins)


def test_dr_sf_feature_width():
    train, test = small_sim(seed=17)
    drsf = fit_dr(train, (test.features, test.segment_id), quick_config(), True)
    assert drsf.base.n_features == train.d + train.n_segments


def test_dr_sf_unknown_segment_zero_block():
    train, test = small_sim(seed=18)
    drsf = fit_dr(train, (test.features, test.segment_id), quick_config(), True)
    p1 = drsf.predict(test.features, np.full(test.n, 50))
    p2 = drsf.predict(test.features, np.full(test.n, -1))
    np.testing.assert_array_equal(p1, p2)


def test_dr_serialization_roundtrip():
    train, test = small_sim(seed=19)
    from segshift import DRModel

    dr = fit_dr(train, (test.features, test.segment_id), quick_config(), True)
    back = DRModel.from_dict(json.loads(json.dumps(dr.to_dict())))
    np.testing.assert_array_equal(
        dr.predict(test.features, test.segment_id),
        back.predict(test.features, test.segment_id),
    )
    doc = dr.to_dict()
    wide = train.d + train.n_segments + 1
    doc["refiner"]["n_features"] = wide
    with pytest.raises(ValueError, match=f"refiner has loss squared/0 on {wide} features"):
        DRModel.from_dict(doc)


def _multiclass_model():
    rng = np.random.default_rng(9)
    n = 900
    x = rng.normal(size=(n, 2))
    seg = np.arange(n) % 2
    y = np.argmax(np.column_stack([x[:, 0], x[:, 1], -x.sum(axis=1)]), axis=1)
    ds = Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=("a", "b"),
        feature_names=("x0", "x1"),
        task=TaskKind.multiclass(3),
    )
    multi = fit_mr(ds, (x, seg), quick_config(shift="label", clusters=((0,), (1,)), seed=8))
    return multi, x[:200], seg[:200]


def _batch_invariance_models():
    train, test = small_sim(seed=31, n=600, segs=3)
    reg = fit_mr(train, (test.features, test.segment_id), quick_config(seed=4))
    return [(reg, test.features, test.segment_id), _multiclass_model()]


def test_mr_predict_is_batch_invariant():
    for model, x, seg in _batch_invariance_models():
        # the last rows take the all-segments model: their segment is unknown
        seg = seg.copy()
        seg[-5:] = 99
        batch = model.predict(x, seg)
        single = np.stack([model.predict(x[i : i + 1], seg[i : i + 1])[0] for i in range(len(x))])
        np.testing.assert_array_equal(single, batch)
        perm = np.random.default_rng(1).permutation(len(x))
        np.testing.assert_array_equal(model.predict(x[perm], seg[perm]), batch[perm])


def test_mr_predict_walks_the_ensemble_once(monkeypatch):
    train, test = small_sim(seed=32, n=600, segs=3)
    model = fit_mr(train, (test.features, test.segment_id), quick_config(seed=5))
    calls = []
    original = BaseEnsemble.margins

    def counting(self, x):
        calls.append(len(x))
        return original(self, x)

    monkeypatch.setattr(BaseEnsemble, "margins", counting)
    model.predict(test.features, test.segment_id)
    assert calls == [test.n]
