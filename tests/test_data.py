import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segshift import (
    BinaryLabelShiftSpec,
    CovariateShiftSpec,
    DataError,
    Dataset,
    MulticlassLabelShiftSpec,
    SyntheticConfig,
    TaskKind,
    construct_shift,
    kfold_plan,
    load_csv,
    simulate_local_covshift,
    split_base_tune,
    write_csv,
)


def decode_onehot_categories(feature_names) -> dict:
    """Recover ``column -> set of categories`` from one-hot column names."""
    out: dict[str, set] = {}
    for name in feature_names:
        if "=" in name:
            col, cat = name.split("=", 1)
            out.setdefault(col, set()).add(cat)
    return out


def make_dataset(n, n_segments=1, seed=0, group_size=None):
    rng = np.random.default_rng(seed)
    segs = np.arange(n) % n_segments
    group = None
    if group_size is not None:
        group = np.arange(n) // group_size
    return Dataset(
        features=rng.normal(size=(n, 3)),
        labels=rng.normal(size=n),
        segment_id=segs,
        segment_names=tuple(str(s) for s in range(n_segments)),
        feature_names=("a", "b", "c"),
        task=TaskKind.regression(),
        group_id=group,
    )


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_minimal(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,seg,y\n1.0,a,2.0\n3.0,b,4.0\n")
    ds = load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())
    assert ds.n == 2 and ds.d == 1
    assert ds.feature_names == ("x1",)
    assert ds.segment_names == ("a", "b")
    np.testing.assert_array_equal(ds.labels, [2.0, 4.0])


def test_load_csv_rejects_nan_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,seg,y\n1.0,a,2.0\nNaN,a,4.0\n")
    with pytest.raises(DataError, match=r"row 3.*'x1'"):
        load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())


def test_load_csv_onehot_lexicographic(tmp_path):
    # hand-built encoding of a 3-row fixture: categories sorted (a, b)
    path = tmp_path / "d.csv"
    path.write_text("color,seg,y\nb,s,1\na,s,2\nb,s,3\n")
    ds = load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())
    assert ds.feature_names == ("color=a", "color=b")
    expected = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(ds.features, expected)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,seg,y\n1.0,a,2.0\n")
    with pytest.raises(DataError, match="'nope'"):
        load_csv(path, label_col="nope", segment_col="seg", task=TaskKind.regression())


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())


def test_onehot_roundtrip_recovers_categories(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("color,size,seg,y\nred,1,s,0\nblue,2,s,1\ngreen,1,s,0\n")
    ds = load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())
    cats = decode_onehot_categories(ds.feature_names)
    assert cats == {"color": {"red", "blue", "green"}}


def test_load_csv_unseen_category_encodes_zero(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("color,seg,y\na,s,1\nb,s,2\n")
    ds = load_csv(train, label_col="y", segment_col="seg", task=TaskKind.regression())
    test = tmp_path / "test.csv"
    test.write_text("color,seg,y\nc,s,1\na,s,2\n")
    with pytest.warns(UserWarning, match="color=c"):
        aligned = load_csv(
            test,
            label_col="y",
            segment_col="seg",
            task=TaskKind.regression(),
            feature_columns=ds.feature_names,
            segment_names=ds.segment_names,
        )
    np.testing.assert_array_equal(aligned.features, [[0.0, 0.0], [1.0, 0.0]])


def test_write_then_load_roundtrip(tmp_path):
    ds = make_dataset(20, n_segments=4)
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back = load_csv(path, label_col="y", segment_col="__segment__", task=ds.task)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.segment_id, ds.segment_id)
    assert back.segment_names == ds.segment_names


# ---------------------------------------------------------------------------
# split_base_tune


def test_split_exact_fraction():
    ds = make_dataset(10)
    plan = split_base_tune(ds, 0.8, seed=0)
    assert len(plan.base_indices) == 8 and len(plan.tune_indices) == 2


def test_split_deterministic():
    ds = make_dataset(30, n_segments=3)
    a = split_base_tune(ds, 0.8, seed=5)
    b = split_base_tune(ds, 0.8, seed=5)
    np.testing.assert_array_equal(a.base_indices, b.base_indices)
    np.testing.assert_array_equal(a.tune_indices, b.tune_indices)


def test_split_stratified_per_segment():
    ds = make_dataset(20, n_segments=2)
    plan = split_base_tune(ds, 0.8, seed=1)
    for s in range(2):
        in_base = np.isin(ds.segment_rows(s), plan.base_indices).sum()
        assert in_base == 8


def test_split_singleton_segment_errors():
    ds = Dataset(
        features=np.zeros((3, 1)),
        labels=np.zeros(3),
        segment_id=np.array([0, 0, 1]),
        segment_names=("big", "tiny"),
        feature_names=("x",),
        task=TaskKind.regression(),
    )
    with pytest.raises(DataError, match="'tiny'"):
        split_base_tune(ds, 0.5, seed=0)


def test_split_group_atomic():
    ds = make_dataset(20, n_segments=1, group_size=2)
    plan = split_base_tune(ds, 0.5, seed=3)
    for g in np.unique(ds.group_id):
        rows = np.flatnonzero(ds.group_id == g)
        sides = np.isin(rows, plan.base_indices)
        assert sides.all() or not sides.any()


@settings(max_examples=30, deadline=None)
@given(
    n_per_seg=st.integers(2, 15),
    n_segments=st.integers(1, 5),
    varsigma=st.floats(0.2, 0.9),
    seed=st.integers(0, 2**32),
)
def test_split_partitions_exactly(n_per_seg, n_segments, varsigma, seed):
    ds = make_dataset(n_per_seg * n_segments, n_segments=n_segments)
    plan = split_base_tune(ds, varsigma, seed)
    merged = np.sort(np.concatenate([plan.base_indices, plan.tune_indices]))
    np.testing.assert_array_equal(merged, np.arange(ds.n))


def test_split_label_permutation_keeps_row_assignment():
    # one global permutation drives the split, so renaming segments moves nothing
    ds = make_dataset(40, n_segments=4)
    perm = np.array([2, 0, 3, 1])
    permuted = Dataset(
        features=ds.features,
        labels=ds.labels,
        segment_id=perm[ds.segment_id],
        segment_names=tuple(str(i) for i in range(4)),
        feature_names=ds.feature_names,
        task=ds.task,
    )
    a = split_base_tune(ds, 0.75, seed=9)
    b = split_base_tune(permuted, 0.75, seed=9)
    np.testing.assert_array_equal(a.base_indices, b.base_indices)


# ---------------------------------------------------------------------------
# kfold_plan


def test_kfold_basic_partition():
    ds = make_dataset(10)
    folds = kfold_plan(ds, 5, seed=0)
    assert len(folds) == 5
    valids = [v for _, v in folds]
    assert all(len(v) == 2 for v in valids)
    np.testing.assert_array_equal(np.sort(np.concatenate(valids)), np.arange(10))


def test_kfold_group_containment():
    ds = make_dataset(10, n_segments=1, group_size=2)
    folds = kfold_plan(ds, 5, seed=0)
    for _, valid in folds:
        gs = np.unique(ds.group_id[valid])
        assert len(gs) == 1 and len(valid) == 2


def test_kfold_k1_rejected():
    with pytest.raises(ValueError, match="k must be"):
        kfold_plan(make_dataset(10), 1, seed=0)


def test_kfold_small_segment_errors():
    ds = make_dataset(9, n_segments=3)
    with pytest.raises(DataError, match="fewer than 4"):
        kfold_plan(ds, 4, seed=0)


# ---------------------------------------------------------------------------
# simulate_local_covshift


def formula(x, a0, gamma):
    # independent re-statement of the response surface
    return a0 - a0 * x.sum(axis=-1) + gamma * x[..., 1] * (1 + np.sin(3 * x[..., 0]))


def test_simulate_intercepts_evenly_spaced():
    cfg = SyntheticConfig(n_train=40, n_test=40, n_segments=20, noise_sd=0.0, seed=0)
    train, _ = simulate_local_covshift(cfg)
    # recover each segment's intercept by evaluating the formula residual
    a0 = np.linspace(-2, 2, 20)
    assert a0[0] == -2.0 and a0[-1] == 2.0
    for s in (0, 19):
        rows = train.segment_rows(s)
        x = train.features[rows]
        np.testing.assert_allclose(train.labels[rows], formula(x, a0[s], 1.0), atol=1e-12)


def test_simulate_formula_point_values():
    # the first segment has intercept -2 and slope +2 per dimension
    x0 = np.zeros((1, 4))
    assert formula(x0, -2.0, 1.0)[0] == -2.0
    x1 = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert formula(x1, -2.0, 1.0)[0] == pytest.approx(1.0, abs=1e-15)


def test_simulate_noiseless_matches_oracle_exactly():
    cfg = SyntheticConfig(n_train=200, n_test=100, n_segments=5, noise_sd=0.0, seed=3)
    train, test = simulate_local_covshift(cfg)
    a0 = np.linspace(-2, 2, 5)
    for ds in (train, test):
        expected = formula(ds.features, a0[ds.segment_id], 1.0)
        assert np.max(np.abs(ds.labels - expected)) == 0.0


def test_simulate_test_covariate_shift():
    cfg = SyntheticConfig(n_train=5000, n_test=5000, n_segments=2, seed=1)
    train, test = simulate_local_covshift(cfg)
    assert abs(train.features.mean()) < 0.1
    assert abs(test.features.mean() - 1.0) < 0.05
    assert abs(test.features.std() - 0.3) < 0.05


def test_simulate_deterministic():
    cfg = SyntheticConfig(n_train=50, n_test=50, n_segments=2, seed=11)
    a = simulate_local_covshift(cfg)
    b = simulate_local_covshift(cfg)
    np.testing.assert_array_equal(a[0].features, b[0].features)
    np.testing.assert_array_equal(a[1].labels, b[1].labels)


def test_simulate_rejects_bad_config():
    with pytest.raises(ValueError):
        SyntheticConfig(n_train=10, n_test=10, n_segments=0)
    with pytest.raises(ValueError):
        SyntheticConfig(n_train=10, n_test=10, noise_sd=-1.0)


# ---------------------------------------------------------------------------
# construct_shift


def test_covariate_shift_degenerate_probabilities():
    ds = make_dataset(50)
    spec = CovariateShiftSpec(feature="a", threshold=0.0, p_above=1.0, p_below=0.0)
    train, test = construct_shift(ds, spec, seed=0)
    assert np.all(test.features[:, 0] > 0.0)
    assert np.all(train.features[:, 0] <= 0.0)
    assert train.n + test.n == ds.n


def test_binary_label_shift_positive_rate():
    n = 50000
    rng = np.random.default_rng(0)
    ds = Dataset(
        features=rng.normal(size=(n, 2)),
        labels=(np.arange(n) % 2),
        segment_id=np.zeros(n, dtype=int),
        segment_names=("s",),
        feature_names=("a", "b"),
        task=TaskKind.binary(),
    )
    spec = BinaryLabelShiftSpec(test_frac=0.2, positive_keep=0.5)
    _, test = construct_shift(ds, spec, seed=4)
    # balanced fold, keep half the positives: rate 0.25 / 0.75 = 1/3
    assert abs(test.labels.mean() - 1.0 / 3.0) < 0.02


def test_multiclass_label_shift_rates():
    n = 50000
    rng = np.random.default_rng(2)
    ds = Dataset(
        features=rng.normal(size=(n, 2)),
        labels=(np.arange(n) % 4),
        segment_id=np.zeros(n, dtype=int),
        segment_names=("s",),
        feature_names=("a", "b"),
        task=TaskKind.multiclass(4),
    )
    spec = MulticlassLabelShiftSpec(target_rates=(0.4, 0.1, 0.1, 0.4), test_frac=0.2)
    _, test = construct_shift(ds, spec, seed=7)
    rates = np.bincount(test.labels, minlength=4) / test.n
    np.testing.assert_allclose(rates, [0.4, 0.1, 0.1, 0.4], atol=0.02)


def test_multiclass_shift_empty_class_errors():
    ds = Dataset(
        features=np.zeros((40, 1)),
        labels=np.array([0, 1, 2] * 13 + [0]),
        segment_id=np.zeros(40, dtype=int),
        segment_names=("s",),
        feature_names=("x",),
        task=TaskKind.multiclass(4),  # class 3 never appears
    )
    spec = MulticlassLabelShiftSpec(target_rates=(0.25, 0.25, 0.25, 0.25), test_frac=0.5)
    with pytest.raises(DataError, match="class 3"):
        construct_shift(ds, spec, seed=1)


def test_shift_config_validation():
    with pytest.raises(ValueError):
        CovariateShiftSpec(feature="a", threshold=0.0, p_above=1.5)
    with pytest.raises(ValueError):
        MulticlassLabelShiftSpec(target_rates=(0.5, 0.6))
