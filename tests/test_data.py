import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segshift import (
    BinaryLabelShiftSpec,
    CovariateShiftSpec,
    DataError,
    Dataset,
    MulticlassLabelShiftSpec,
    SplitPlan,
    SyntheticConfig,
    TaskKind,
    construct_shift,
    kfold_plan,
    load_csv,
    simulate_local_covshift,
    split_base_tune,
    write_csv,
)
from segshift import data as data_module
from segshift._seeds import make_rng


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


@pytest.mark.parametrize(
    "header, repeated",
    [("x,x,y,__segment__", "['x']"), ("y,x,y,__segment__", "['y']")],
)
def test_load_csv_rejects_repeated_column_names(tmp_path, header, repeated):
    # a repeated name would leave one of its columns unread
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\n1,2,3,a\n")
    with pytest.raises(DataError, match=re.escape(f"repeated column names {repeated}")):
        load_csv(path, label_col="y", segment_col="__segment__", task=TaskKind.regression())


def test_load_csv_rejects_a_one_hot_block_over_the_entry_budget(tmp_path, monkeypatch):
    # 3 rows x (x1 + 3 colors) = 12 entries: at a budget of 12 it loads, at 11 it is bad input
    path = tmp_path / "d.csv"
    path.write_text("x1,color,seg,y\n1,red,s,0\n2,blue,s,1\n3,green,s,0\n")
    monkeypatch.setattr(data_module, "ONE_HOT_MAX_ENTRIES", 12)
    assert load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression()).d == 4
    monkeypatch.setattr(data_module, "ONE_HOT_MAX_ENTRIES", 11)
    with pytest.raises(DataError, match=r"column 'color' has 3 categories.* 3 x 4 = 12 entries, over 11"):
        load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression())


def test_load_csv_group_ids_follow_first_appearance(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,user,seg,y\n1,u9,a,0\n2,u1,a,0\n3,u9,a,0\n4,u5,b,0\n5,u1,a,0\n")
    ds = load_csv(path, label_col="y", segment_col="seg", task=TaskKind.regression(), group_col="user")
    np.testing.assert_array_equal(ds.group_id, [0, 1, 0, 2, 1])
    assert ds.feature_names == ("x",)


def test_aligned_load_reads_only_the_columns_the_encoding_names(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,color,user,seg,y\n1,a,u1,s,1\n2,b,u2,s,2\n")
    ds = load_csv(train, label_col="y", segment_col="seg", task=TaskKind.regression(), group_col="user")
    assert ds.feature_names == ("x", "color=a", "color=b")
    test = tmp_path / "test.csv"
    # the unread columns hold a group id and a value no feature column may hold
    test.write_text("user,x,extra,color,seg,y\nu7,3,inf,b,s,1\nu8,4,nan,a,s,2\n")
    with pytest.warns(UserWarning) as record:
        aligned = load_csv(
            test,
            label_col="y",
            segment_col="seg",
            task=TaskKind.regression(),
            feature_columns=ds.feature_names,
            segment_names=ds.segment_names,
        )
    assert [str(w.message) for w in record] == [
        f"{test}: columns ['user', 'extra'] are absent from the reference encoding and were not read"
    ]
    assert aligned.feature_names == ds.feature_names
    np.testing.assert_array_equal(aligned.features, [[3.0, 0.0, 1.0], [4.0, 1.0, 0.0]])


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
# both splits against the per-segment loops they replaced


def _reference_largest_remainder_counts(sizes, frac, total_target, order_key):
    base = np.floor(sizes * frac).astype(np.int64)
    base = np.minimum(np.maximum(base, 1), sizes - 1)
    remainders = sizes * frac - np.floor(sizes * frac)
    order = sorted(range(len(sizes)), key=lambda s: (-remainders[s], order_key[s]))
    diff = total_target - int(base.sum())
    i = 0
    while diff != 0 and i < 4 * len(sizes):
        s = order[i % len(sizes)]
        if diff > 0 and base[s] < sizes[s] - 1:
            base[s] += 1
            diff -= 1
        elif diff < 0 and base[s] > 1:
            base[s] -= 1
            diff += 1
        i += 1
    return base


def _reference_group_check(data):
    if data.group_id is None:
        return
    for g in np.unique(data.group_id):
        segs = np.unique(data.segment_id[data.group_id == g])
        if len(segs) > 1:
            raise DataError(f"group {g} spans segments {segs.tolist()}")


def reference_split_base_tune(data, varsigma, seed):
    """The split as one loop per segment, with a branch for grouped data."""
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must be in (0, 1)")
    segs = data.present_segments()
    sizes = np.asarray([len(data.segment_rows(s)) for s in segs])
    for s, ns in zip(segs, sizes):
        if ns < 2:
            raise DataError(
                f"segment {data.segment_names[s]!r} has {ns} row(s); need >= 2 to split"
            )
    _reference_group_check(data)
    rank = make_rng(seed, "split").permutation(data.n)
    order_key = [int(data.segment_rows(s).min()) for s in segs]
    counts = _reference_largest_remainder_counts(
        sizes, varsigma, int(round(varsigma * data.n)), order_key
    )
    base_parts = []
    tune_parts = []
    for s, k in zip(segs, counts):
        rows = data.segment_rows(s)
        if data.group_id is None:
            ordered = rows[np.argsort(rank[rows], kind="stable")]
            base_parts.append(ordered[:k])
            tune_parts.append(ordered[k:])
        else:
            groups = {}
            for r in rows:
                groups.setdefault(int(data.group_id[r]), []).append(int(r))
            glist = sorted(groups.values(), key=lambda rs: min(rank[r] for r in rs))
            taken = []
            rest = []
            for g_rows in glist:
                if len(taken) < k:
                    taken.extend(g_rows)
                else:
                    rest.extend(g_rows)
            if not rest and len(glist) > 1:
                rest = glist[-1]
                taken = [r for g_rows in glist[:-1] for r in g_rows]
            base_parts.append(np.asarray(sorted(taken), dtype=np.int64))
            tune_parts.append(np.asarray(sorted(rest), dtype=np.int64))
    base = np.sort(np.concatenate(base_parts))
    tune = np.sort(np.concatenate(tune_parts))
    return SplitPlan(base_indices=base, tune_indices=tune, varsigma=varsigma)


def reference_kfold_plan(data, k, seed):
    """The k-fold partition as one loop per segment, with a branch for grouped data."""
    if k < 2:
        raise ValueError("k must be >= 2")
    segs = data.present_segments()
    for s in segs:
        if len(data.segment_rows(s)) < k:
            raise DataError(
                f"segment {data.segment_names[s]!r} has fewer than {k} rows"
            )
    _reference_group_check(data)
    rank = make_rng(seed, "kfold").permutation(data.n)
    folds = [[] for _ in range(k)]
    for s in segs:
        rows = data.segment_rows(s)
        if data.group_id is None:
            ordered = rows[np.argsort(rank[rows], kind="stable")]
            for j, r in enumerate(ordered):
                folds[j % k].append(int(r))
        else:
            groups = {}
            for r in rows:
                groups.setdefault(int(data.group_id[r]), []).append(int(r))
            glist = sorted(groups.values(), key=lambda rs: min(rank[r] for r in rs))
            sizes = [0] * k
            for g_rows in glist:
                j = int(np.argmin(sizes))
                folds[j].extend(g_rows)
                sizes[j] += len(g_rows)
    plans = []
    all_idx = np.arange(data.n)
    for j in range(k):
        valid = np.asarray(sorted(folds[j]), dtype=np.int64)
        train = np.setdiff1d(all_idx, valid, assume_unique=False)
        plans.append((train, valid))
    return plans


def random_split_dataset(seed, n_segments, min_rows, extra_rows, grouped, span):
    """Segments of min_rows..min_rows + extra_rows rows in shuffled order, optionally in groups.

    Each segment's rows fall in 1..rows groups with scattered ids, so
    single-group and single-row segments occur; ``span`` moves one row into
    a group of another segment.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(min_rows, min_rows + extra_rows + 1, size=n_segments)
    segment = rng.permutation(np.repeat(np.arange(n_segments), sizes))
    group = None
    if grouped:
        group = np.empty(len(segment), dtype=np.int64)
        labels = rng.permutation(len(segment) * 3)
        offset = 0
        for s, ns in enumerate(sizes):
            rows = np.flatnonzero(segment == s)
            group[rows] = labels[offset + rng.integers(0, rng.integers(1, ns + 1), size=ns)]
            offset += ns
        if span and n_segments > 1:
            group[np.flatnonzero(segment == 0)[0]] = group[np.flatnonzero(segment == 1)[0]]
    return Dataset(
        features=np.zeros((len(segment), 1)),
        labels=np.zeros(len(segment)),
        segment_id=segment,
        segment_names=tuple(f"s{s}" for s in range(n_segments)),
        feature_names=("x",),
        task=TaskKind.regression(),
        group_id=group,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, DataError) as exc:
        return type(exc), str(exc)


def assert_same_indices(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n_segments=st.integers(1, 7),
    min_rows=st.sampled_from([1, 2, 5]),
    extra_rows=st.sampled_from([0, 1, 3, 10, 25]),
    grouped=st.booleans(),
    span=st.booleans(),
    varsigma=st.floats(0.05, 0.95),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_splits_match_per_segment_reference(
    data_seed, n_segments, min_rows, extra_rows, grouped, span, varsigma, k, seed
):
    ds = random_split_dataset(data_seed, n_segments, min_rows, extra_rows, grouped, span and grouped)
    got, want = outcome(split_base_tune, ds, varsigma, seed), outcome(
        reference_split_base_tune, ds, varsigma, seed
    )
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_indices((got.base_indices, got.tune_indices), (want.base_indices, want.tune_indices))
    got, want = outcome(kfold_plan, ds, k, seed), outcome(reference_kfold_plan, ds, k, seed)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert len(got) == len(want) == k
        for got_fold, want_fold in zip(got, want):
            assert_same_indices(got_fold, want_fold)


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
