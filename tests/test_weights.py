import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from segshift import (
    KernelSpec,
    fit_bbse,
    fit_discriminative_weights,
    fit_kmm,
    expand_class_weights,
    uniform_weights,
)
from segshift import weights
from segshift.segmentation import gram
from segshift.weights import (
    ClassWeightVector,
    WeightVector,
    _finalize,
    _kmm_project,
    _kmm_solve,
)


# ---------------------------------------------------------------------------
# WeightVector contract


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(values=np.array([0.5, 0.5]), method="none", eta=10.0)  # mean != 1
    with pytest.raises(ValueError):
        WeightVector(values=np.array([-1.0, 3.0]), method="none", eta=10.0)


@settings(max_examples=50, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
    eta=st.floats(0.5, 100.0),
)
def test_finalize_contract(raw, eta):
    raw = np.asarray(raw)
    if np.clip(raw, 0, eta).sum() == 0:
        with pytest.raises(ValueError):
            _finalize(raw, eta, "none")
        return
    wv = _finalize(raw, eta, "none")
    assert wv.values.min() >= 0.0
    assert abs(wv.values.mean() - 1.0) <= 1e-9
    # clipping happens before normalization: max * mean(clipped) == max(clipped)
    clipped_mean = np.clip(raw, 0, eta).mean()
    assert wv.values.max() * clipped_mean <= eta * (1.0 + 1e-9)


def test_uniform_weights():
    wv = uniform_weights(5)
    np.testing.assert_array_equal(wv.values, np.ones(5))
    assert wv.method == "none"


# ---------------------------------------------------------------------------
# discriminative


def test_discriminative_no_shift_near_one():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(20000, 2))
    test = rng.normal(size=(20000, 2))
    wv = fit_discriminative_weights(train, test)
    assert np.max(np.abs(wv.values - 1.0)) <= 0.15


def test_discriminative_recovers_analytic_ratio():
    # train N(0,1), test N(1,1): w(x) = exp(x - 1/2)
    rng = np.random.default_rng(1)
    train = rng.normal(0.0, 1.0, size=(50000, 1))
    test = rng.normal(1.0, 1.0, size=(50000, 1))
    wv = fit_discriminative_weights(train, test)
    truth = np.exp(train[:, 0] - 0.5)
    rel_l1 = np.mean(np.abs(wv.values - truth) / truth)
    assert rel_l1 <= 0.1


def test_discriminative_dimension_mismatch():
    with pytest.raises(ValueError):
        fit_discriminative_weights(np.zeros((5, 2)), np.zeros((5, 3)))


def test_discriminative_eval_rows():
    rng = np.random.default_rng(3)
    train = rng.normal(0, 1, size=(2000, 1))
    test = rng.normal(1, 1, size=(2000, 1))
    sub = train[:100]
    wv = fit_discriminative_weights(train, test, eval_x=sub)
    assert len(wv.values) == 100


# ---------------------------------------------------------------------------
# kmm


def test_kmm_identity_near_uniform():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 2))
    kernel = KernelSpec(1.0)
    wv = fit_kmm(x, x.copy(), kernel=kernel, eta=10.0)
    # uniform weights are feasible and optimal when train == test
    g = gram(kernel, x, x)
    kappa = g.sum(axis=1)  # n_tr == n_te
    n = 50

    def objective(w):
        return (w @ g @ w - 2 * kappa @ w) / n**2

    assert objective(wv.values * wv.values.mean()) <= objective(np.ones(n)) + 1e-8
    assert np.max(np.abs(wv.values - 1.0)) < 0.2


def test_kmm_matches_grid_search_oracle():
    # 2-point instance solved against a brute-force grid at 1e-3 resolution
    train = np.array([[0.0], [1.0]])
    test = np.array([[0.2], [0.4], [0.9]])
    kernel = KernelSpec(0.7)
    eta = 2.0
    g = gram(kernel, train, train)
    kappa = (2 / 3) * gram(kernel, train, test).sum(axis=1)
    raw, _ = _kmm_solve(g, kappa, 2, eta=eta, epsilon=0.9)

    grid = np.arange(0.0, eta + 1e-9, 1e-3)
    best, best_obj = None, np.inf
    for w0 in grid:
        w1 = grid
        ok = np.abs(w0 + w1 - 2.0) <= 2.0 * 0.9
        obj = (
            g[0, 0] * w0**2
            + 2 * g[0, 1] * w0 * w1
            + g[1, 1] * w1**2
            - 2 * (kappa[0] * w0 + kappa[1] * w1)
        ) / 4.0
        obj = np.where(ok, obj, np.inf)
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj, best = float(obj[j]), np.array([w0, w1[j]])
    assert np.max(np.abs(raw - best)) <= 1e-3


def test_kmm_box_constraint():
    # the projected solution respects the box; the public output rescales it
    # to mean one (its max can exceed eta by that factor, reported upstream)
    rng = np.random.default_rng(4)
    train = rng.normal(0, 1, size=(40, 1))
    test = rng.normal(2, 1, size=(40, 1))
    eta = 3.0
    kernel = KernelSpec(1.0).resolved(train)
    g = gram(kernel, train, train)
    kappa = gram(kernel, train, test).sum(axis=1)
    raw, _ = _kmm_solve(g, kappa, 40, eta=eta, epsilon=eta / np.sqrt(40))
    assert raw.min() >= 0.0
    assert raw.max() <= eta + 1e-12
    wv = fit_kmm(train, test, kernel=KernelSpec(1.0), eta=eta)
    assert wv.values.min() >= 0.0
    assert wv.values.max() <= eta / np.clip(raw, 0, eta).mean() + 1e-9


def test_kmm_objective_monotone():
    rng = np.random.default_rng(5)
    train = rng.normal(0, 1, size=(60, 2))
    test = rng.normal(0.7, 1, size=(60, 2))
    kernel = KernelSpec(1.0).resolved(train)
    g = gram(kernel, train, train)
    kappa = gram(kernel, train, test).sum(axis=1)
    _, history = _kmm_solve(g, kappa, 60, eta=5.0, epsilon=5.0 / np.sqrt(60))
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)


def test_kmm_warns_when_the_iteration_cap_ends_the_solve(monkeypatch):
    # the solver converges well inside its real cap, so the cap is lowered
    monkeypatch.setattr(weights, "KMM_MAX_ITER", 3)
    rng = np.random.default_rng(0)
    train = rng.normal(0, 1, size=(40, 2))
    test = rng.normal(2, 1, size=(40, 2))
    with pytest.warns(UserWarning, match="KMM solve stopped at its 3-iteration cap"):
        fit_kmm(train, test, kernel=KernelSpec(1.0))


def test_kmm_converged_solve_does_not_warn(recwarn):
    # train == test: uniform weights are optimal and the first step stops the solve
    x = np.random.default_rng(0).normal(size=(50, 2))
    fit_kmm(x, x.copy(), kernel=KernelSpec(1.0))
    assert not [w for w in recwarn if "KMM" in str(w.message)]


@pytest.mark.parametrize("block", [1, 7, 250])
def test_kmm_kappa_in_row_blocks_equals_the_whole_gram(monkeypatch, block):
    # 1 and 7 elements give one train row per block; 250 gives 5 rows of 50
    rng = np.random.default_rng(12)
    train, test = rng.normal(size=(23, 3)), rng.normal(0.5, 1.0, size=(50, 3))
    kernel = KernelSpec(1.3, categorical_dims=(2,))
    train[:, 2] = test[:5, 2] = 1.0
    whole = gram(kernel, train, test).sum(axis=1)
    monkeypatch.setattr(weights, "_GRAM_BLOCK_ELEMENTS", block)
    np.testing.assert_array_equal(weights._gram_row_sums(kernel, train, test), whole)
    monkeypatch.undo()
    a = fit_kmm(train, test, kernel=kernel)
    monkeypatch.setattr(weights, "_GRAM_BLOCK_ELEMENTS", block)
    b = fit_kmm(train, test, kernel=kernel)
    np.testing.assert_array_equal(a.values, b.values)


def test_kmm_rejects_non_finite_gram():
    train = np.array([[0.0], [np.nan]])
    test = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="Gram"):
        fit_kmm(train, test, kernel=KernelSpec(1.0))


def _bisection_projection(v, eta, lo, hi):
    """Projection onto the box and sum band by bisecting the shift tau."""
    w = np.clip(v, 0.0, eta)
    if lo <= w.sum() <= hi:
        return w
    target = lo if w.sum() < lo else hi
    a, b = v.min() - eta, v.max()  # sums n * eta and 0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if np.clip(v - mid, 0.0, eta).sum() > target:
            a = mid
        else:
            b = mid
    return np.clip(v - 0.5 * (a + b), 0.0, eta)


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=40),
    eta=st.floats(1.0, 10.0),
    eps=st.floats(0.0, 0.99),
)
def test_kmm_projection_is_the_euclidean_projection(v, eta, eps):
    v = np.asarray(v)
    n = len(v)
    lo, hi = n * (1.0 - eps), n * (1.0 + eps)
    w = _kmm_project(v, eta, lo, hi)
    assert w.min() >= 0.0 and w.max() <= eta
    assert lo - 1e-9 <= w.sum() <= hi + 1e-9
    assert np.max(np.abs(_kmm_project(w, eta, lo, hi) - w)) <= 1e-12
    assert np.max(np.abs(w - _bisection_projection(v, eta, lo, hi))) <= 1e-12


def test_kmm_projection_hits_each_violated_bound():
    v = np.array([-1.0, 0.5, 2.0, 12.0])
    # clip gives [0, 0.5, 2, 3] (sum 5.5): above hi = 4 the sum lands on hi
    assert np.isclose(_kmm_project(v, 3.0, 3.0, 4.0).sum(), 4.0, rtol=0, atol=1e-12)
    # and below lo = 7 it lands on lo, with entries still in the box
    w = _kmm_project(v, 3.0, 7.0, 8.0)
    assert np.isclose(w.sum(), 7.0, rtol=0, atol=1e-12) and w.max() <= 3.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmm_matches_trust_constr_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 12 + 6 * seed
    train = rng.normal(0, 1, size=(n, 2))
    test = rng.normal(0.8, 0.7, size=(25, 2))
    eta, eps = 4.0, 4.0 / np.sqrt(n)
    kernel = KernelSpec(1.0)
    g = gram(kernel, train, train)
    kappa = (n / len(test)) * gram(kernel, train, test).sum(axis=1)

    def f(w):
        return float(w @ g @ w - 2 * kappa @ w) / n**2

    oracle = optimize.minimize(
        f,
        np.ones(n),
        jac=lambda w: 2 * (g @ w - kappa) / n**2,
        hess=lambda w: 2 * g / n**2,
        method="trust-constr",
        bounds=optimize.Bounds(0.0, eta),
        constraints=[optimize.LinearConstraint(np.ones((1, n)), n * (1 - eps), n * (1 + eps))],
        options={"gtol": 1e-12, "xtol": 1e-12, "maxiter": 5000},
    )
    w, history = _kmm_solve(g, kappa, n, eta, eps)
    assert abs(history[-1] - f(w)) <= 1e-12
    assert f(w) <= oracle.fun + 1e-7
    assert np.max(np.abs(w - oracle.x)) <= 0.02


def test_kmm_recovers_a_gaussian_density_ratio():
    # train N(0, 1), test N(0.5, 0.8^2): the ratio p_test / p_train is smooth
    # and bounded on the train rows that matter
    rng = np.random.default_rng(3)
    train = rng.normal(0.0, 1.0, size=(400, 1))
    test = rng.normal(0.5, 0.8, size=(400, 1))
    ratio = stats.norm.pdf(train[:, 0], 0.5, 0.8) / stats.norm.pdf(train[:, 0], 0.0, 1.0)
    wv = fit_kmm(train, test)  # median-heuristic bandwidth
    assert stats.spearmanr(wv.values, ratio).statistic > 0.95
    assert np.corrcoef(wv.values, ratio)[0, 1] > 0.95


# ---------------------------------------------------------------------------
# bbse


def test_bbse_identity_confusion():
    # diagonal confusion with uniform classes: weights all one
    y = np.repeat([0, 1], 50)
    pred = y.copy()
    test_pred = np.repeat([0, 1], 50)
    cw = fit_bbse(y, pred, test_pred, n_classes=2, ridge=0.0)
    np.testing.assert_allclose(cw.values, 1.0, atol=1e-12)


def test_bbse_two_class_exact_solve():
    # C = [[.4,.1],[.1,.4]], mu = (.3,.7)  ->  w = (1/3, 5/3)
    y = np.array([0] * 4 + [1] * 1 + [0] * 1 + [1] * 4)
    pred = np.array([0] * 5 + [1] * 5)
    test_pred = np.array([0] * 3 + [1] * 7)
    cw = fit_bbse(y, pred, test_pred, n_classes=2, ridge=0.0)
    np.testing.assert_allclose(cw.values, [1.0 / 3.0, 5.0 / 3.0], atol=1e-12)


def test_bbse_three_class_shift_recovery():
    # label shift with known class weights via a near-perfect classifier
    rng = np.random.default_rng(6)
    n = 20000
    p_priors = np.array([0.5, 0.25, 0.25])
    w_true = np.array([0.5, 1.0, 2.0])
    q_priors = p_priors * w_true
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])

    def sample(priors, n):
        y = rng.choice(3, size=n, p=priors)
        x = centers[y] + rng.normal(size=(n, 2))
        return y, x

    y_src, x_src = sample(p_priors, n)
    _, x_test = sample(q_priors, n)
    classify = lambda x: np.argmin(
        ((x[:, None, :] - centers[None]) ** 2).sum(-1), axis=1
    )
    cw = fit_bbse(y_src, classify(x_src), classify(x_test), n_classes=3)
    assert np.max(np.abs(cw.values - w_true)) <= 0.05


def test_bbse_missing_class_errors():
    y = np.zeros(10, dtype=int)
    with pytest.raises(ValueError, match=r"classes \[1\]"):
        fit_bbse(y, y, y, n_classes=2)


def test_bbse_negative_clamped():
    # an inaccurate confusion matrix can produce negative solutions
    y = np.array([0, 0, 0, 1])
    pred = np.array([0, 1, 1, 1])
    test_pred = np.array([0, 0, 0, 0])
    cw = fit_bbse(y, pred, test_pred, n_classes=2)
    assert cw.values.min() >= 0.0


# ---------------------------------------------------------------------------
# expand_class_weights


def test_expand_identity():
    cw = ClassWeightVector(values=np.ones(3))
    wv = expand_class_weights(cw, np.array([0, 1, 2, 1]))
    np.testing.assert_array_equal(wv.values, np.ones(4))


def test_expand_already_mean_one():
    cw = ClassWeightVector(values=np.array([0.5, 1.5]))
    wv = expand_class_weights(cw, np.array([0, 1]))
    np.testing.assert_allclose(wv.values, [0.5, 1.5], atol=1e-15)


def test_expand_clip_then_normalize():
    # cw=(4,1), eta=2: clip 4 -> 2, mean 1.5, divide -> (4/3, 2/3)
    cw = ClassWeightVector(values=np.array([4.0, 1.0]))
    wv = expand_class_weights(cw, np.array([0, 1]), eta=2.0)
    np.testing.assert_allclose(wv.values, [4.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_expand_label_range_check():
    cw = ClassWeightVector(values=np.ones(2))
    with pytest.raises(ValueError):
        expand_class_weights(cw, np.array([0, 2]))
