"""Benchmark of segment clustering as the number of segments grows.

Times the three steps of an ``auto`` cluster plan on a seeded synthetic
regression set of S segments with 60 rows each, for S in {20, 100, 400}:

- ``distance_matrix``: ``segment_distance_matrix`` (pairwise MMD^2 of the
  segments' joint (label, features) samples, median bandwidth);
- ``merge_sequence``: one ``_ward_merge_sequence`` over that matrix;
- ``auto_cut``: ``choose_num_clusters`` and then ``cluster_segments`` on a
  fresh copy of the matrix, as ``plan_fit`` and ``segshift cluster`` run
  them, with the chosen cluster count.

Segment s draws 3 features from N(mu_s, I) with mu_s one of 5 group means,
and y = x0 + x1 * x2 + N(0, 0.3^2). Each figure is the median and the
minimum, in seconds, over 3 runs. Run from the repository root; it prints
one JSON object with the machine facts:

    python3 tools/cluster_bench.py
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from segshift import Dataset, TaskKind  # noqa: E402
from segshift.segmentation import (  # noqa: E402
    SegmentDistanceMatrix,
    _ward_merge_sequence,
    choose_num_clusters,
    cluster_segments,
    segment_distance_matrix,
)

ROWS_PER_SEGMENT = 60
REPEATS = 3


def dataset(n_segments, d=3, seed=0):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.5, size=(5, d))
    seg = np.repeat(np.arange(n_segments), ROWS_PER_SEGMENT)
    x = rng.normal(size=(len(seg), d)) + means[seg % len(means)]
    y = x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0, 0.3, len(seg))
    return Dataset(
        features=x,
        labels=y,
        segment_id=seg,
        segment_names=tuple(f"s{s}" for s in range(n_segments)),
        feature_names=tuple(f"x{j}" for j in range(d)),
        task=TaskKind.regression(),
    )


def timed(fn):
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return {"s_median": round(float(np.median(times)), 4), "s_min": round(min(times), 4)}, result


def auto_cut(d):
    fresh = SegmentDistanceMatrix(d.values, d.segment_ids, d.segment_names)
    m = choose_num_clusters(fresh)
    return cluster_segments(fresh, m)


def bench(n_segments):
    train = dataset(n_segments)
    dist_t, d = timed(lambda: segment_distance_matrix(train))
    merge_t, _ = timed(lambda: _ward_merge_sequence(np.array(d.values)))
    cut_t, assignment = timed(lambda: auto_cut(d))
    return {
        "segments": n_segments,
        "rows_per_segment": ROWS_PER_SEGMENT,
        "clusters": assignment.n_clusters,
        "distance_matrix": dist_t,
        "merge_sequence": merge_t,
        "auto_cut": cut_t,
    }


def main():
    results = [bench(s) for s in (20, 100, 400)]
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({"machine": machine, "results": results}, indent=1))


if __name__ == "__main__":
    main()
