import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist

from segshift import (
    Dataset,
    KernelSpec,
    MRConfig,
    TaskKind,
    choose_num_clusters,
    cluster_segments,
    median_bandwidth,
    mmd_unbiased,
    segment_distance_matrix,
)
from segshift import segmentation
from segshift._seeds import make_rng
from segshift.mr import plan_fit
from segshift.segmentation import SegmentDistanceMatrix, _ward_merge_sequence, gram


def brute_force_mmd(u, v, kfn):
    m1, m2 = len(u), len(v)
    a = sum(kfn(u[i], u[j]) for i in range(m1) for j in range(m1) if i != j)
    b = sum(kfn(v[i], v[j]) for i in range(m2) for j in range(m2) if i != j)
    c = sum(kfn(u[i], v[j]) for i in range(m1) for j in range(m2))
    return a / (m1 * (m1 - 1)) + b / (m2 * (m2 - 1)) - 2 * c / (m1 * m2)


# ---------------------------------------------------------------------------
# mmd_unbiased


def test_mmd_identical_constant_samples_zero():
    u = np.zeros((2, 1))
    assert mmd_unbiased(u, u.copy(), KernelSpec(1.0)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("c,sigma", [(1.0, 1.0), (2.5, 0.7), (0.3, 3.0)])
def test_mmd_two_constant_clusters_closed_form(c, sigma):
    u = np.zeros((2, 1))
    v = np.full((2, 1), c)
    kfn = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * sigma**2))
    got = mmd_unbiased(u, v, KernelSpec(sigma))
    assert got == pytest.approx(2 * (1 - np.exp(-(c**2) / (2 * sigma**2))), abs=1e-12)
    assert got == pytest.approx(brute_force_mmd(u, v, kfn), abs=1e-12)


def test_mmd_categorical_delta():
    # two categories encoded as 0/1 in a delta dimension
    u = np.array([[0.0], [0.0]])
    v = np.array([[1.0], [1.0]])
    kernel = KernelSpec(1.0, categorical_dims=(0,))
    kfn = lambda a, b: float(a[0] == b[0])
    assert mmd_unbiased(u, v, kernel) == pytest.approx(2.0, abs=1e-15)
    assert brute_force_mmd(u, v, kfn) == pytest.approx(2.0, abs=1e-15)


def test_mmd_exact_symmetry():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(15, 3))
    v = rng.normal(1.0, 1.0, size=(25, 3))
    k = KernelSpec(0.8)
    assert mmd_unbiased(u, v, k) == mmd_unbiased(v, u, k)
    km = KernelSpec("median")
    assert mmd_unbiased(u, v, km) == mmd_unbiased(v, u, km)


def test_mmd_rejects_singletons():
    with pytest.raises(ValueError, match="at least 2"):
        mmd_unbiased(np.zeros((1, 1)), np.zeros((5, 1)), KernelSpec(1.0))


def test_mmd_same_distribution_small():
    # null-distribution magnitude check: |mmd^2| < 0.05 in >= 95/100 trials
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(2000, 2))
        v = rng.normal(size=(2000, 2))
        if abs(mmd_unbiased(u, v, KernelSpec("median"))) < 0.05:
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# median_bandwidth


def test_median_bandwidth_two_points():
    assert median_bandwidth(np.array([[0.0], [3.0]])) == 3.0


def test_median_bandwidth_degenerate_fallback():
    assert median_bandwidth(np.zeros((5, 2))) == 1.0


def test_median_bandwidth_line():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    # pairwise distances {1,1,1,2,2,3}; median = 1.5
    assert median_bandwidth(x) == 1.5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.one_of(st.integers(2, 60), st.integers(990, 1100)),
    d=st.integers(1, 5),
    decimals=st.sampled_from([None, 0, 1]),
)
def test_median_bandwidth_matches_np_median(seed, n, d, decimals):
    x = np.random.default_rng(seed).normal(size=(n, d))
    if decimals is not None:  # rounded rows give tied and zero distances
        x = np.round(x, decimals)
    sample = x
    if n > 1000:
        sample = x[np.sort(make_rng(0, "bandwidth").permutation(n)[:1000])]
    want = float(np.median(pdist(sample)))
    got = median_bandwidth(x)
    assert got == (want if want > 0 else 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_median_bandwidth_rejects_non_finite_rows(bad):
    x = np.random.default_rng(0).normal(size=(20, 3))
    x[7, 1] = bad
    with pytest.raises(ValueError, match="finite rows"):
        median_bandwidth(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0, True, "foo"])
def test_bad_bandwidth_rejected_at_construction(bad):
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec(bad)
    with pytest.raises(ValueError, match="bandwidth"):
        MRConfig(bandwidth=bad)


# ---------------------------------------------------------------------------
# segment_distance_matrix


def segments_dataset(per_gen, n_segments=4, shift=2.0, seed=0, d=2):
    rng = np.random.default_rng(seed)
    feats, labels, segs = [], [], []
    for s in range(n_segments):
        mu = 0.0 if s < n_segments // 2 else shift
        x = rng.normal(mu, 1.0, size=(per_gen, d))
        feats.append(x)
        labels.append(x.sum(axis=1) + rng.normal(0, 0.3, per_gen))
        segs.append(np.full(per_gen, s))
    return Dataset(
        features=np.vstack(feats),
        labels=np.concatenate(labels),
        segment_id=np.concatenate(segs),
        segment_names=tuple(str(s) for s in range(n_segments)),
        feature_names=tuple(f"x{j}" for j in range(d)),
        task=TaskKind.regression(),
    )


def test_distance_matrix_single_segment():
    ds = segments_dataset(10, n_segments=1)
    d = segment_distance_matrix(ds)
    assert d.values.shape == (1, 1) and d.values[0, 0] == 0.0


def test_distance_matrix_same_generator_closer():
    ds = segments_dataset(2000, n_segments=4, shift=2.0, seed=1)
    d = segment_distance_matrix(ds, seed=1)
    assert d.values[0, 1] < d.values[0, 2]
    assert d.values[2, 3] < d.values[1, 3]


def test_distance_matrix_symmetric_zero_diagonal():
    ds = segments_dataset(50, n_segments=3, seed=2)
    d = segment_distance_matrix(ds, seed=2)
    np.testing.assert_array_equal(d.values, d.values.T)
    assert np.all(np.diag(d.values) == 0.0)
    assert np.all(d.values >= 0.0)


def test_distance_matrix_matches_mmd_op():
    ds = segments_dataset(40, n_segments=3, seed=3)
    kernel = KernelSpec(1.3)
    d = segment_distance_matrix(ds, kernel=kernel)
    for i in range(3):
        for j in range(i + 1, 3):
            ri = ds.segment_rows(i)
            rj = ds.segment_rows(j)
            ui = np.hstack([ds.labels[ri, None], ds.features[ri]])
            uj = np.hstack([ds.labels[rj, None], ds.features[rj]])
            ref = max(mmd_unbiased(ui, uj, kernel), 0.0)
            assert d.values[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_distance_matrix_threads_identical():
    ds = segments_dataset(100, n_segments=4, seed=5)
    a = segment_distance_matrix(ds, seed=0, n_threads=1)
    b = segment_distance_matrix(ds, seed=0, n_threads=4)
    np.testing.assert_array_equal(a.values, b.values)


def test_distance_matrix_rejects_singleton_segment():
    ds = Dataset(
        features=np.zeros((3, 1)),
        labels=np.zeros(3),
        segment_id=np.array([0, 0, 1]),
        segment_names=("a", "b"),
        feature_names=("x",),
        task=TaskKind.regression(),
    )
    with pytest.raises(ValueError, match="'b'"):
        segment_distance_matrix(ds)


def test_classification_labels_use_delta_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    # identical features, opposite labels: distance driven by the label kernel
    ds = Dataset(
        features=np.vstack([x, x]),
        labels=np.concatenate([np.zeros(200, int), np.ones(200, int)]),
        segment_id=np.repeat([0, 1], 200),
        segment_names=("a", "b"),
        feature_names=("x0", "x1"),
        task=TaskKind.binary(),
    )
    d = segment_distance_matrix(ds, seed=0)
    assert d.values[0, 1] > 0.5


# ---------------------------------------------------------------------------
# ward clustering


def block_matrix():
    values = np.full((4, 4), 1.0)
    values[0, 1] = values[1, 0] = 0.1
    values[2, 3] = values[3, 2] = 0.1
    np.fill_diagonal(values, 0.0)
    return SegmentDistanceMatrix(values, (0, 1, 2, 3), ("0", "1", "2", "3"))


def test_cluster_extremes():
    d = block_matrix()
    singles = cluster_segments(d, 4)
    assert singles.clusters == ((0,), (1,), (2,), (3,))
    one = cluster_segments(d, 1)
    assert one.clusters == ((0, 1, 2, 3),)


def ward_within_cost(partition, values):
    # total within-cluster variance for squared-distance input:
    # sum_C (1/|C|) sum_{i<j in C} d_ij
    total = 0.0
    for cluster in partition:
        for i, j in itertools.combinations(cluster, 2):
            total += values[i, j] / len(cluster)
    return total


def all_two_partitions(items):
    items = list(items)
    for mask in range(1, 2 ** (len(items) - 1)):
        left = tuple(x for i, x in enumerate(items) if (mask >> i) & 1)
        right = tuple(x for i, x in enumerate(items) if not (mask >> i) & 1)
        yield (left, right)


def test_block_matrix_two_clusters_brute_force():
    d = block_matrix()
    got = cluster_segments(d, 2)
    assert set(map(frozenset, got.clusters)) == {frozenset({0, 1}), frozenset({2, 3})}
    best = min(all_two_partitions(range(4)), key=lambda p: ward_within_cost(p, d.values))
    assert set(map(frozenset, best)) == set(map(frozenset, got.clusters))


def test_ward_merges_agree_with_brute_force():
    # for euclidean point sets, each greedy merge must minimize the exact
    # increase in within-cluster variance over all candidate pairs
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(6, 2))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        partitions = _ward_merge_sequence(sq.copy())
        for step in range(len(partitions) - 1):
            current = partitions[step]
            merged = partitions[step + 1]
            new_cluster = [c for c in merged if c not in current]
            assert len(new_cluster) == 1

            def merge_cost(a, b):
                mu_a = pts[list(a)].mean(axis=0)
                mu_b = pts[list(b)].mean(axis=0)
                return (
                    len(a) * len(b) / (len(a) + len(b)) * float(((mu_a - mu_b) ** 2).sum())
                )

            best = min(
                merge_cost(a, b)
                for a, b in itertools.combinations(current, 2)
            )
            got_pair = [c for c in current if set(c) <= set(new_cluster[0])]
            assert merge_cost(*got_pair) == pytest.approx(best, rel=1e-9)


def test_cluster_permutation_equivariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 2))
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    d = SegmentDistanceMatrix(sq, tuple(range(5)), tuple("abcde"))
    perm = np.array([3, 0, 4, 1, 2])
    sq_p = sq[np.ix_(perm, perm)]
    d_p = SegmentDistanceMatrix(sq_p, tuple(range(5)), tuple("abcde"))
    for m in (2, 3):
        base = cluster_segments(d, m)
        permuted = cluster_segments(d_p, m)
        # position i in the permuted matrix is original segment perm[i]
        mapped = {frozenset(int(perm[i]) for i in c) for c in permuted.clusters}
        assert mapped == set(map(frozenset, base.clusters))


def test_cluster_m_out_of_range():
    d = block_matrix()
    with pytest.raises(ValueError):
        cluster_segments(d, 0)
    with pytest.raises(ValueError):
        cluster_segments(d, 5)


def test_choose_num_clusters():
    assert choose_num_clusters(block_matrix()) == 2
    two = SegmentDistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1), ("a", "b"))
    assert choose_num_clusters(two) == 1
    one = SegmentDistanceMatrix(np.zeros((1, 1)), (0,), ("a",))
    assert choose_num_clusters(one) == 1


def test_auto_plan_runs_one_ward_merge_sequence(monkeypatch):
    calls = []
    merge = segmentation._ward_merge_sequence

    def counting(d):
        calls.append(1)
        return merge(d)

    monkeypatch.setattr(segmentation, "_ward_merge_sequence", counting)
    train = segments_dataset(40, n_segments=6)
    plan = plan_fit(train, (train.features, train.segment_id), MRConfig(clusters="auto"))
    # choose_num_clusters and cluster_segments read the same merge sequence
    assert len(calls) == 1
    assert plan.assignment.n_clusters == 2


def test_gram_requires_resolved_bandwidth():
    with pytest.raises(ValueError, match="resolved"):
        gram(KernelSpec("median"), np.zeros((2, 1)), np.zeros((2, 1)))


@pytest.mark.parametrize("cat", [(), (0,)])
@pytest.mark.parametrize("shape", [(1, 1, 1), (7, 5, 2), (300, 1, 3), (200, 400, 4)])
def test_gram_equals_the_plain_expression(shape, cat):
    # the in-place exponent must give the bits of exp(-d / 2h^2) computed out of place
    n, m, d = shape
    rng = np.random.default_rng(n * m + d)
    a = rng.normal(size=(n, d))
    b = rng.normal(size=(m, d))
    a[:, 0] = rng.integers(0, 3, size=n)
    b[:, 0] = rng.integers(0, 3, size=m)
    for bandwidth in (0.3, 1.0, 7.5):
        kernel = KernelSpec(bandwidth, cat)
        keep = [j for j in range(d) if j not in cat]
        if keep:
            want = np.exp(-cdist(a[:, keep], b[:, keep], "sqeuclidean") / (2.0 * bandwidth**2))
        else:
            want = np.ones((n, m))
        for j in cat:
            want = want * (a[:, j : j + 1] == b[:, j : j + 1].T)
        assert gram(kernel, a, b).tobytes() == want.tobytes()
