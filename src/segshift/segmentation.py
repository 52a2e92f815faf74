"""Kernel two-sample distances between segments and cluster assignment.

Segments are compared through the unbiased MMD U-statistic on their joint
(label, features) samples with a product kernel: Gaussian on continuous
dimensions, an indicator ("delta") kernel on categorical ones. The distance
matrix feeds a Ward-linkage agglomeration, with the matrix entries treated
as squared distances (MMD values are squared RKHS distances between mean
embeddings).
"""

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist, pdist

from ._seeds import make_rng
from .data import Dataset


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel: Gaussian over continuous dims, delta over ``categorical_dims``.

    ``bandwidth`` is the Gaussian scale sigma in exp(-||u - v||^2 / (2 sigma^2)),
    or the string "median" for the median-pairwise-distance heuristic.
    """

    bandwidth: float | str = "median"
    categorical_dims: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "categorical_dims", tuple(self.categorical_dims))
        check_bandwidth(self.bandwidth)

    def resolved(self, pooled: np.ndarray, seed: int = 0) -> "KernelSpec":
        """Replace a 'median' bandwidth using the pooled continuous dims."""
        if not isinstance(self.bandwidth, str):
            return self
        cont = _continuous_part(pooled, self.categorical_dims)
        if cont.shape[1] == 0:
            return KernelSpec(1.0, self.categorical_dims)
        return KernelSpec(median_bandwidth(cont, seed), self.categorical_dims)


def check_max_per_segment(max_per_segment) -> None:
    """Reject a per-segment sample cap that is not an integer >= 2.

    Each segment's MMD U-statistic needs two rows; a negative cap would
    silently drop rows from the end of the sample.
    """
    if (
        isinstance(max_per_segment, bool)
        or not isinstance(max_per_segment, numbers.Integral)
        or max_per_segment < 2
    ):
        raise ValueError(f"max_per_segment must be an integer >= 2, got {max_per_segment!r}")


def check_bandwidth(bandwidth) -> None:
    """Reject a bandwidth other than "median" or a finite positive number.

    A NaN scale makes every MMD NaN, and an infinite one every kernel entry
    1, so every MMD 0 and every KMM weight 1.
    """
    if bandwidth == "median":
        return
    ok = isinstance(bandwidth, numbers.Real) and not isinstance(bandwidth, bool)
    if not (ok and 0.0 < bandwidth < np.inf):
        raise ValueError(
            f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}"
        )


def _continuous_part(x: np.ndarray, categorical_dims) -> np.ndarray:
    keep = [j for j in range(x.shape[1]) if j not in set(categorical_dims)]
    return x[:, keep]


def median_bandwidth(x: np.ndarray, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over at most 1000 rows (1.0 if zero).

    Over 1000 rows, a seeded subsample of 1000 is used. The median is
    ``np.median``'s arithmetic, bit for bit, from one selection at the upper
    middle index: the middle distance for an odd count, else the mean of it
    and the largest distance below it. ``np.median`` also selects its NaN
    check, and a selection at several indices is several times slower;
    non-finite rows are rejected instead.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if not np.isfinite(x).all():
        raise ValueError("median bandwidth needs finite rows")
    if x.shape[0] > 1000:
        rows = np.sort(make_rng(seed, "bandwidth").permutation(x.shape[0])[:1000])
        x = x[rows]
    d = pdist(x)
    k = len(d) // 2
    d.partition(k)
    med = float(d[k] if len(d) % 2 else np.mean([d[:k].max(), d[k]]))
    return med if med > 0 else 1.0


def gram(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel matrix k(a_i, b_j); bandwidth must already be resolved."""
    if isinstance(kernel.bandwidth, str):
        raise ValueError("bandwidth not resolved; call KernelSpec.resolved first")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    cat = set(kernel.categorical_dims)
    ca = _continuous_part(a, cat)
    cb = _continuous_part(b, cat)
    if ca.shape[1] > 0:
        # in place: the same operations as exp(-d / 2h^2) without two more n x m temporaries
        k = cdist(ca, cb, "sqeuclidean")
        np.negative(k, out=k)
        np.divide(k, 2.0 * kernel.bandwidth**2, out=k)
        np.exp(k, out=k)
    else:
        k = np.ones((a.shape[0], b.shape[0]))
    for j in kernel.categorical_dims:
        k = k * (a[:, j : j + 1] == b[:, j : j + 1].T)
    return k


def mmd_unbiased(u: np.ndarray, v: np.ndarray, kernel: KernelSpec) -> float:
    """Unbiased MMD^2 U-statistic between two samples.

    Diagonal terms are excluded from the within-sample sums, so the value
    can be slightly negative. Exactly symmetric in (u, v).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if u.shape[0] < 2 or v.shape[0] < 2:
        raise ValueError("need at least 2 samples on each side")
    # canonical operand order makes the estimator bitwise symmetric
    if (v.shape[0], v.tobytes()) < (u.shape[0], u.tobytes()):
        u, v = v, u
    kernel = kernel.resolved(np.vstack([u, v]))
    m1, m2 = u.shape[0], v.shape[0]
    kuu = gram(kernel, u, u)
    kvv = gram(kernel, v, v)
    kuv = gram(kernel, u, v)
    term_u = (kuu.sum() - np.trace(kuu)) / (m1 * (m1 - 1))
    term_v = (kvv.sum() - np.trace(kvv)) / (m2 * (m2 - 1))
    return float(term_u + term_v - 2.0 * kuv.mean())


@dataclass(frozen=True)
class SegmentDistanceMatrix:
    values: np.ndarray  # (S, S), symmetric, zero diagonal
    segment_ids: tuple  # dataset segment ids, ascending
    segment_names: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "segment_ids", tuple(self.segment_ids))
        object.__setattr__(self, "segment_names", tuple(self.segment_names))
        if vals.shape != (len(self.segment_ids), len(self.segment_ids)):
            raise ValueError("distance matrix shape mismatch")
        if not np.array_equal(vals, vals.T) or np.any(np.diag(vals) != 0):
            raise ValueError("distance matrix must be symmetric with zero diagonal")

    @property
    def n_segments(self) -> int:
        return len(self.segment_ids)

    @cached_property
    def ward_partitions(self) -> tuple:
        """The Ward partitions of segment positions after each merge, computed once."""
        return tuple(_ward_merge_sequence(self.values))


def _joint_sample(data: Dataset, rows: np.ndarray) -> np.ndarray:
    y = data.labels[rows].astype(np.float64).reshape(-1, 1)
    return np.hstack([y, data.features[rows]])


def segment_distance_matrix(
    train: Dataset,
    kernel: KernelSpec | None = None,
    max_per_segment: int = 2000,
    seed: int = 0,
    n_threads: int = 1,
) -> SegmentDistanceMatrix:
    """Pairwise MMD^2 between segment joint (label, features) samples.

    Classification labels use the delta kernel; regression labels join the
    continuous dimensions. A 'median' bandwidth is resolved once on the
    pooled (subsampled) joint sample. Negative U-statistic values are
    floored at zero. Segments larger than ``max_per_segment`` are
    subsampled deterministically from ``seed``.
    """
    check_max_per_segment(max_per_segment)
    segs = [int(s) for s in train.present_segments()]
    samples = []
    for s in segs:
        rows = train.segment_rows(s)
        if len(rows) < 2:
            raise ValueError(
                f"segment {train.segment_names[s]!r} has fewer than 2 rows"
            )
        if len(rows) > max_per_segment:
            pick = make_rng(seed, "segsample", s).permutation(len(rows))[:max_per_segment]
            rows = rows[np.sort(pick)]
        samples.append(_joint_sample(train, rows))

    if kernel is None:
        cat = (0,) if train.task.is_classification else ()
        kernel = KernelSpec("median", cat)
    kernel = kernel.resolved(np.vstack(samples), seed)

    n_seg = len(segs)
    values = np.zeros((n_seg, n_seg))
    pairs = [(i, j) for i in range(n_seg) for j in range(i + 1, n_seg)]

    # each segment's within-sample U-statistic term is shared by all its
    # pairs; computing it once matches mmd_unbiased exactly (same kernel)
    def within(i):
        s = samples[i]
        k = gram(kernel, s, s)
        m = s.shape[0]
        return (k.sum() - np.trace(k)) / (m * (m - 1))

    def cross(pair):
        i, j = pair
        return gram(kernel, samples[i], samples[j]).mean()

    if n_threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            self_terms = list(pool.map(within, range(n_seg)))
            cross_terms = list(pool.map(cross, pairs))
    else:
        self_terms = [within(i) for i in range(n_seg)]
        cross_terms = [cross(p) for p in pairs]
    for (i, j), c in zip(pairs, cross_terms):
        v = max(float(self_terms[i] + self_terms[j] - 2.0 * c), 0.0)
        values[i, j] = v
        values[j, i] = v
    return SegmentDistanceMatrix(
        values=values,
        segment_ids=tuple(segs),
        segment_names=tuple(train.segment_names[s] for s in segs),
    )


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of segment ids into clusters; the all-segments cluster is implicit."""

    clusters: tuple  # tuple of tuples of segment ids

    def __post_init__(self):
        clusters = tuple(tuple(int(s) for s in c) for c in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if not clusters or any(len(c) == 0 for c in clusters):
            raise ValueError("clusters must be nonempty")
        flat = [s for c in clusters for s in c]
        if len(set(flat)) != len(flat):
            raise ValueError("clusters must be disjoint")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def _ward_merge_sequence(d: np.ndarray):
    """Greedy Ward merges on a matrix of squared distances.

    Maintains the Ward merge cost between active clusters via the
    Lance-Williams recurrence (initialized to d/2, the singleton merge
    cost); ties break on the smallest (min-member, min-member) pair.
    Returns the list of partitions after each merge.
    """
    n = d.shape[0]
    members = [(i,) for i in range(n)]
    sizes = [1] * n
    cost = d / 2.0
    active = list(range(n))
    partitions = [tuple(members)]
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                c = cost[i, j]
                if best is None or c < best[0]:
                    best = (c, ai, aj)
        _, ai, aj = best
        i, j = active[ai], active[aj]
        ni, nj = sizes[i], sizes[j]
        for k in active:
            if k in (i, j):
                continue
            nk = sizes[k]
            new = ((ni + nk) * cost[i, k] + (nj + nk) * cost[j, k] - nk * cost[i, j]) / (
                ni + nj + nk
            )
            cost[i, k] = cost[k, i] = new
        members[i] = tuple(sorted(members[i] + members[j]))
        sizes[i] = ni + nj
        active.pop(aj)
        partitions.append(tuple(members[a] for a in active))
    return partitions


def cluster_segments(d: SegmentDistanceMatrix, m: int) -> ClusterAssignment:
    """Cut the Ward agglomeration at ``m`` clusters (of segment ids)."""
    n = d.n_segments
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}]")
    part = d.ward_partitions[n - m]
    ids = d.segment_ids
    clusters = sorted((tuple(ids[i] for i in c) for c in part), key=lambda c: min(c))
    return ClusterAssignment(clusters=tuple(clusters))


def choose_num_clusters(d: SegmentDistanceMatrix, min_cluster_size: int = 2) -> int:
    """Largest cut with no cluster below ``min_cluster_size`` (1 if none)."""
    n = d.n_segments
    if n == 1:
        return 1
    partitions = d.ward_partitions
    for m in range(n, 1, -1):
        if all(len(c) >= min_cluster_size for c in partitions[n - m]):
            return m
    return 1
