import json
import warnings

import numpy as np
import pytest

import segshift.evalcv as evalcv
import segshift.learners as learners
import segshift.mr as mr
from segshift import (
    CvGrid,
    Dataset,
    MRConfig,
    SyntheticConfig,
    TaskKind,
    cross_validate,
    kfold_plan,
    metric,
    per_segment_report,
    simulate_local_covshift,
)
from segshift.learners import cluster_base_config, refine_config
from segshift.mr import _segment_weights


# ---------------------------------------------------------------------------
# metric


def test_metric_perfect_classification():
    y = np.array([0, 1, 1])
    p = np.array([0.0, 1.0, 1.0])
    assert metric(y, p, "brier")[0] == 0.0
    assert metric(y, p, "ce")[0] == pytest.approx(0.0, abs=1e-10)


def test_metric_coin_flip_ce():
    y = np.array([0, 1, 0, 1])
    p = np.full(4, 0.5)
    value, se = metric(y, p, "ce")
    assert value == pytest.approx(np.log(2), abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_metric_constant_offset_mse():
    y = np.arange(5.0)
    value, se = metric(y, y + 1.0, "mse")
    assert value == 1.0 and se == 0.0


def test_metric_multiclass_shapes():
    y = np.array([0, 2, 1])
    p = np.array([[0.8, 0.1, 0.1], [0.2, 0.2, 0.6], [0.25, 0.5, 0.25]])
    ce, _ = metric(y, p, "ce")
    assert ce == pytest.approx(-np.mean(np.log([0.8, 0.6, 0.5])), abs=1e-12)
    brier, _ = metric(y, p, "brier")
    onehot = np.eye(3)[y]
    assert brier == pytest.approx(np.mean(((p - onehot) ** 2).sum(1)), abs=1e-12)


def test_metric_uniform_weights_match_unweighted():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    p = y + rng.normal(size=50)
    a = metric(y, p, "mse")
    b = metric(y, p, "mse", sample_weight=np.full(50, 3.7))
    assert a[0] == pytest.approx(b[0], abs=1e-12)
    assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_metric_se_matches_direct_recomputation():
    rng = np.random.default_rng(1)
    y = rng.normal(size=40)
    p = y + rng.normal(size=40)
    w = rng.uniform(0.1, 3.0, size=40)
    value, se = metric(y, p, "mse", sample_weight=w)
    losses = (p - y) ** 2
    mean = np.sum(w * losses) / w.sum()
    var = np.sum(w * (losses - mean) ** 2) / w.sum()
    n_eff = w.sum() ** 2 / np.sum(w * w)
    assert value == pytest.approx(mean, abs=1e-12)
    assert se == pytest.approx(np.sqrt(var / n_eff), abs=1e-12)


def test_metric_kind_checks():
    with pytest.raises(ValueError):
        metric(np.zeros(3), np.zeros(3), "nope")
    with pytest.raises(ValueError):
        metric(np.zeros(3), np.zeros((3, 2)), "mse")


# ---------------------------------------------------------------------------
# per_segment_report


def test_report_self_baseline_all_ones():
    y = np.arange(10.0)
    p = y + np.linspace(0, 1, 10)
    segs = np.arange(10) % 2
    report = per_segment_report(y, p, segs, "mse", baseline_predictions=p)
    for row in list(report.rows) + [report.overall]:
        assert row.relative == pytest.approx(1.0)


def test_report_hand_built_relatives():
    # segment a: mse 2 vs baseline 4; segment b: 1 vs 1
    y = np.array([0.0, 0.0, 0.0, 0.0])
    segs = np.array([0, 0, 1, 1])
    preds = np.array([np.sqrt(2), -np.sqrt(2), 1.0, -1.0])
    base = np.array([2.0, -2.0, 1.0, -1.0])
    report = per_segment_report(y, preds, segs, "mse", baseline_predictions=base)
    assert report.rows[0].relative == pytest.approx(0.5)
    assert report.rows[1].relative == pytest.approx(1.0)


def test_report_overall_is_pooled_mean():
    y = np.zeros(6)
    preds = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])  # seg sizes 4 and 2
    segs = np.array([0, 0, 0, 0, 1, 1])
    report = per_segment_report(y, preds, segs, "mse")
    # pooled mean 4/6, not mean of segment means (1+0)/2
    assert report.overall.value == pytest.approx(4.0 / 6.0)


def test_report_json_and_table():
    y = np.arange(6.0)
    segs = np.array([0, 0, 0, 1, 1, 1])
    report = per_segment_report(
        y, y, segs, "mse", segment_names=("alpha", "beta"), baseline_predictions=y + 1
    )
    doc = report.to_dict()
    assert doc["format_version"] == 1
    assert set(doc["segments"]) == {"alpha", "beta"}
    table = report.table()
    assert "alpha" in table and "overall" in table and "(" in table


def test_report_alignment_check():
    with pytest.raises(ValueError):
        per_segment_report(np.zeros(3), np.zeros(3), np.zeros(2), "mse")


# ---------------------------------------------------------------------------
# cross_validate


def tiny_config(seed=0, **over):
    kwargs = dict(
        base=cluster_base_config(n_estimators=10),
        refine=refine_config(n_estimators=3),
        clusters=1,
        seed=seed,
    )
    kwargs.update(over)
    return MRConfig(**kwargs)


def sim(seed=0, n=400, segs=2):
    cfg = SyntheticConfig(n_train=n, n_test=n, n_segments=segs, seed=seed)
    return simulate_local_covshift(cfg)


def test_cv_single_point_grid():
    train, test = sim()
    grid = CvGrid(base={"n_estimators": [10]}, refine={"n_estimators": [3]})
    best, reports = cross_validate(
        train, (test.features, test.segment_id), grid, k=2, config=tiny_config()
    )
    assert best == {"base": {"n_estimators": 10}, "refine": {"n_estimators": 3}}
    assert len(reports) == 2


def test_cv_selects_dominating_point():
    # refining on the tune fold helps on this fixture: 25 trees should beat 0
    train, test = sim(seed=1, n=600)
    grid = CvGrid(base={"n_estimators": [30]}, refine={"n_estimators": [0, 25]})
    best, _ = cross_validate(
        train, (test.features, test.segment_id), grid, k=2, config=tiny_config(seed=1)
    )
    assert best["refine"]["n_estimators"] == 25


def test_cv_fold_sizes():
    train, test = sim(seed=2, n=100)
    from segshift import kfold_plan

    folds = kfold_plan(train, 5, seed=0)
    assert all(len(valid) == 20 for _, valid in folds)


def test_cv_order_invariance():
    train, test = sim(seed=3, n=300)
    g1 = CvGrid(base={"n_estimators": [40, 20]}, refine={"n_estimators": [3, 0]})
    g2 = CvGrid(base={"n_estimators": [20, 40]}, refine={"n_estimators": [0, 3]})
    cfg = tiny_config(seed=3)
    b1, r1 = cross_validate(train, (test.features, test.segment_id), g1, 2, cfg)
    b2, r2 = cross_validate(train, (test.features, test.segment_id), g2, 2, cfg)
    assert b1 == b2
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]


def test_cv_k_validation():
    train, test = sim(seed=4)
    with pytest.raises(ValueError):
        cross_validate(train, (test.features, test.segment_id), CvGrid(), 1, tiny_config())


def test_cv_grid_validation():
    with pytest.raises(ValueError, match="empty grid"):
        CvGrid(base={"n_estimators": []})


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"base": {"n_trees": [8]}}, "not a tunable GBTConfig field"),
        ({"refine": {"seed": [1, 2]}}, "'seed' is not a tunable GBTConfig field"),
        ({"base": {"n_estimators": 8}}, "must be a list"),
        ({"refine": {"max_depth": [-1]}}, "bad max_depth -1"),
        ({"base": {"n_estimators": [2.5]}}, "n_estimators must be an integer"),
        ({"refine": {"learning_rate": ["fast"]}}, "bad learning_rate 'fast'"),
        ({"base": [8]}, "must map GBTConfig fields"),
        ({"base": {"n_estimators": [3, 3]}}, "base: n_estimators 3 is listed twice"),
    ],
)
def test_cv_grid_rejects_bad_entries(grid, message):
    with pytest.raises(ValueError, match=message):
        CvGrid(**grid)


def test_cv_default_grid_is_small():
    assert len(list(CvGrid().points())) == 4


def test_cv_failing_point_excluded():
    train, test = sim(seed=5, n=200)
    # a 60-cluster request cannot be satisfied with 2 segments: always fails
    grid = CvGrid(base={"n_estimators": [5]}, refine={"n_estimators": [2, 3]})
    cfg = tiny_config(seed=5, clusters=60)
    with pytest.raises(ValueError, match="every grid point failed"):
        with pytest.warns(UserWarning):
            cross_validate(train, (test.features, test.segment_id), grid, 2, cfg)


def binary_sim(seed=0, n=450, segs=3):
    """Binary task whose test rows are shifted toward the positive class."""
    rng = np.random.default_rng(seed)

    def draw(n, offset):
        x = rng.normal(size=(n, 2))
        x[:, 0] += offset
        seg = np.arange(n) % segs
        y = (x[:, 0] + 0.3 * seg + rng.normal(0, 0.5, n) > 0).astype(np.float64)
        return Dataset(
            features=x,
            labels=y,
            segment_id=seg,
            segment_names=tuple(f"s{s}" for s in range(segs)),
            feature_names=("x0", "x1"),
            task=TaskKind.binary(),
        )

    return draw(n, 0.0), draw(n // 2, 0.5)


def test_cv_failed_stage_is_recomputed_per_point(monkeypatch):
    train, test = sim(seed=5, n=200)
    grid = CvGrid(base={"n_estimators": [5]}, refine={"n_estimators": [2, 3]})
    calls = []
    distance = mr.segment_distance_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return distance(*args, **kwargs)

    monkeypatch.setattr(mr, "segment_distance_matrix", counting)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="every grid point failed"):
            cross_validate(
                train, (test.features, test.segment_id), grid, 2, tiny_config(seed=5, clusters=60)
            )
    # the cluster cut raises, so no plan is kept: each (fold, point) recomputes and warns
    assert len(calls) == 4
    messages = [str(w.message) for w in caught]
    assert sum(m.startswith("grid point") and "on fold" in m for m in messages) == 4


@pytest.mark.parametrize("shift", ["covariate", "label"])
def test_cv_stage_reuse_matches_direct_fits(monkeypatch, shift):
    if shift == "covariate":
        train, test = sim(seed=7, n=300, segs=3)
    else:
        train, test = binary_sim(seed=8)
    cfg = tiny_config(seed=7, shift=shift)
    features = (test.features, test.segment_id)
    grid = CvGrid(base={"n_estimators": [5, 10]}, refine={"n_estimators": [0, 3]})
    k = 2
    fits, calls, current = [], [], []
    fit_mr = evalcv.fit_mr

    def recording_fit(fold_train, test_features, config, **kwargs):
        current[:] = [fold_train]
        model = fit_mr(fold_train, test_features, config, **kwargs)
        fits.append((fold_train, test_features, config, model))
        return model

    def counting(name):
        fn = getattr(mr, name)

        def wrapper(*args, **kwargs):
            calls.append((id(current[0]), name))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(evalcv, "fit_mr", recording_fit)
    stages = ("segment_distance_matrix", "fit_base_ensemble", "fit_stage1", "fit_stage2")
    for name in stages:
        monkeypatch.setattr(mr, name, counting(name))
    cross_validate(train, features, grid, k, cfg)
    monkeypatch.undo()

    assert len(fits) == 4 * k
    fold_trains = {id(f[0]): f[0] for f in fits}
    assert len(fold_trains) == k
    for fold, fold_train in fold_trains.items():
        n_segments = len(fold_train.present_segments())
        counts = {name: calls.count((fold, name)) for name in stages}
        # the 10-round ensemble and each base point's 3-round refiners serve
        # the 5-round and 0-round points as their first rounds
        assert counts == {
            "segment_distance_matrix": 1,
            "fit_base_ensemble": 1,
            "fit_stage1": 2 * n_segments,
            "fit_stage2": 2 * n_segments,
        }
    texts = []
    for fold_train, test_features, config, model in fits:
        text = json.dumps(model.to_dict(), sort_keys=True)
        direct = mr.fit_mr(fold_train, test_features, config)
        assert text == json.dumps(direct.to_dict(), sort_keys=True)
        texts.append(text)
    assert len(set(texts)) == len(texts)


def test_cv_bbse_classifier_fit_once_per_fold(monkeypatch):
    train, test = binary_sim()
    cfg = tiny_config(shift="label")
    k = 3
    # reference: the classifier refit for every (fold, segment) pair
    expected = []
    for train_idx, valid_idx in kfold_plan(train, k, cfg.seed):
        w = np.ones(len(valid_idx))
        for s in np.unique(train.segment_id[valid_idx]):
            pos = np.flatnonzero(train.segment_id[valid_idx] == s)
            rows = valid_idx[pos]
            margin_fn = evalcv._bbse_margin_fn(train, train_idx, cfg)
            test_rows = np.flatnonzero(test.segment_id == s)
            w[pos] = _segment_weights(train, rows, rows, test.features, test_rows, cfg, margin_fn).values
        expected.append(w)

    fits, used = [], []
    fit_gbt, report = learners.fit_gbt, evalcv.per_segment_report

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return fit_gbt(*args, **kwargs)

    def recording_report(*args, sample_weight=None, **kwargs):
        used.append(sample_weight)
        return report(*args, sample_weight=sample_weight, **kwargs)

    monkeypatch.setattr(learners, "fit_gbt", counting_fit)
    monkeypatch.setattr(evalcv, "per_segment_report", recording_report)
    grid = CvGrid(base={"n_estimators": [10]}, refine={"n_estimators": [0, 3]})
    cross_validate(train, (test.features, test.segment_id), grid, k, cfg)
    assert len(fits) == k
    # every grid point of a fold is scored with that fold's reference weights
    assert len(used) == 2 * k
    for i, w in enumerate(used):
        np.testing.assert_array_equal(w, expected[i // 2])


def test_cv_thread_count_invariance():
    train, test = sim(seed=6, n=300, segs=3)
    grid = CvGrid(base={"n_estimators": [5, 10]}, refine={"n_estimators": [0, 3]})
    runs = [
        cross_validate(
            train, (test.features, test.segment_id), grid, 2, tiny_config(seed=6, n_threads=t)
        )
        for t in (1, 3)
    ]
    (best1, reports1), (best3, reports3) = runs
    assert best1 == best3
    assert [r.to_dict() for r in reports1] == [r.to_dict() for r in reports3]
