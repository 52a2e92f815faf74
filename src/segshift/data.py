"""Datasets, CSV ingestion, deterministic splits, and synthetic fixtures.

A Dataset is an immutable bundle of a float feature matrix, labels, integer
segment ids (with the original segment strings retained for reporting), an
optional observational-unit group id, and the task kind. All split and
generation operations are pure functions of their inputs and a seed.

Both splits keep units whole. A unit is a group, or a single row when the
dataset has no group ids; groups must not span segments. Each split walks
one list of units per segment, ordered by a seeded rank of their rows.
"""

import csv
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._seeds import make_rng

SEGMENT_COLUMN = "__segment__"
GROUP_COLUMN = "__group__"


class DataError(ValueError):
    """Malformed input data (bad CSV cell, missing column, bad labels)."""


@dataclass(frozen=True)
class TaskKind:
    kind: str  # "regression" | "binary" | "multiclass"
    n_classes: int = 0

    def __post_init__(self):
        if self.kind not in ("regression", "binary", "multiclass"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "multiclass" and self.n_classes < 3:
            raise ValueError("multiclass task requires n_classes >= 3")
        if self.kind == "binary":
            object.__setattr__(self, "n_classes", 2)
        if self.kind == "regression":
            object.__setattr__(self, "n_classes", 0)

    @property
    def is_classification(self) -> bool:
        return self.kind != "regression"

    @classmethod
    def regression(cls) -> "TaskKind":
        return cls("regression")

    @classmethod
    def binary(cls) -> "TaskKind":
        return cls("binary")

    @classmethod
    def multiclass(cls, n_classes: int) -> "TaskKind":
        return cls("multiclass", n_classes)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) float64, or int64 class indices
    segment_id: np.ndarray  # (n,) int64 into segment_names
    segment_names: tuple
    feature_names: tuple
    task: TaskKind
    group_id: np.ndarray | None = None

    def __post_init__(self):
        feats = _readonly(np.asarray(self.features, dtype=np.float64))
        segs = _readonly(np.asarray(self.segment_id, dtype=np.int64))
        if self.task.is_classification:
            labels = _readonly(np.asarray(self.labels, dtype=np.int64))
        else:
            labels = _readonly(np.asarray(self.labels, dtype=np.float64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "segment_id", segs)
        object.__setattr__(self, "segment_names", tuple(self.segment_names))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.group_id is not None:
            object.__setattr__(
                self, "group_id", _readonly(np.asarray(self.group_id, dtype=np.int64))
            )
        n = feats.shape[0]
        if n < 1:
            raise DataError("dataset is empty")
        if feats.ndim != 2 or len(self.feature_names) != feats.shape[1]:
            raise DataError("feature matrix / feature_names mismatch")
        if labels.shape != (n,) or segs.shape != (n,):
            raise DataError("labels and segment_id must have one entry per row")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if self.task.is_classification:
            if labels.min() < 0 or labels.max() >= self.task.n_classes:
                raise DataError(
                    f"class labels must lie in [0, {self.task.n_classes})"
                )
        elif not np.all(np.isfinite(labels)):
            raise DataError("labels contain non-finite values")
        if segs.min() < 0 or segs.max() >= len(self.segment_names):
            raise DataError("segment ids out of range of segment_names")
        if self.group_id is not None and self.group_id.shape != (n,):
            raise DataError("group_id must have one entry per row")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_segments(self) -> int:
        return len(self.segment_names)

    def present_segments(self) -> np.ndarray:
        return np.unique(self.segment_id)

    def segment_rows(self, seg: int) -> np.ndarray:
        return np.flatnonzero(self.segment_id == seg)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Row subset; keeps the full segment vocabulary."""
        rows = np.asarray(rows)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            segment_id=self.segment_id[rows],
            segment_names=self.segment_names,
            feature_names=self.feature_names,
            task=self.task,
            group_id=None if self.group_id is None else self.group_id[rows],
        )


@dataclass(frozen=True)
class SplitPlan:
    base_indices: np.ndarray
    tune_indices: np.ndarray
    varsigma: float

    def __post_init__(self):
        base = _readonly(np.asarray(self.base_indices, dtype=np.int64))
        tune = _readonly(np.asarray(self.tune_indices, dtype=np.int64))
        object.__setattr__(self, "base_indices", base)
        object.__setattr__(self, "tune_indices", tune)
        n = len(base) + len(tune)
        merged = np.concatenate([base, tune])
        if len(np.unique(merged)) != n or merged.min() != 0 or merged.max() != n - 1:
            raise ValueError("base and tune indices must partition 0..n-1")


@dataclass(frozen=True)
class SyntheticConfig:
    """Local covariate-shift regression simulator settings.

    ``gamma`` is the per-segment interaction coefficient: a scalar applies
    to every segment, a sequence gives one value per segment.
    """

    n_train: int
    n_test: int
    n_segments: int = 20
    gamma: float | tuple = 1.0
    noise_sd: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.n_train < self.n_segments or self.n_test < self.n_segments:
            raise ValueError("need at least one sample per segment on each side")

    def gamma_values(self) -> np.ndarray:
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim == 0:
            return np.full(self.n_segments, float(g))
        if g.shape != (self.n_segments,):
            raise ValueError("gamma must be scalar or one value per segment")
        return g


@dataclass(frozen=True)
class CovariateShiftSpec:
    feature: str
    threshold: float
    p_above: float = 0.8
    p_below: float = 0.2

    def __post_init__(self):
        for p in (self.p_above, self.p_below):
            if not 0.0 <= p <= 1.0:
                raise ValueError("selection probabilities must be in [0, 1]")


@dataclass(frozen=True)
class BinaryLabelShiftSpec:
    test_frac: float = 0.2
    positive_keep: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")
        if not 0.0 <= self.positive_keep <= 1.0:
            raise ValueError("positive_keep must be in [0, 1]")


@dataclass(frozen=True)
class MulticlassLabelShiftSpec:
    target_rates: tuple
    test_frac: float = 0.2

    def __post_init__(self):
        rates = tuple(float(r) for r in self.target_rates)
        object.__setattr__(self, "target_rates", rates)
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")
        if any(r < 0 for r in rates):
            raise ValueError("target_rates must be nonnegative")
        if abs(sum(rates) - 1.0) > 1e-12:
            raise ValueError("target_rates must sum to 1")


ShiftConstructionConfig = CovariateShiftSpec | BinaryLabelShiftSpec | MulticlassLabelShiftSpec


# ---------------------------------------------------------------------------
# CSV ingestion


def _numbers(cells) -> tuple[np.ndarray, np.ndarray]:
    """Each cell as ``float`` reads it, NaN where it does not, and the mask of cells it reads."""
    values = np.full(len(cells), np.nan)
    numeric = np.zeros(len(cells), dtype=bool)
    for r, cell in enumerate(cells):
        try:
            values[r] = float(cell)
        except ValueError:
            continue
        numeric[r] = True
    return values, numeric


def _first_appearance_ids(cells, names=()) -> tuple[np.ndarray, list]:
    """Each cell's id and the names by id: ``names`` keep their ids, new values follow by first appearance."""
    names = list(names)
    lookup = {name: i for i, name in enumerate(names)}
    ids = np.empty(len(cells), dtype=np.int64)
    for r, cell in enumerate(cells):
        i = lookup.get(cell)
        if i is None:
            i = lookup[cell] = len(names)
            names.append(cell)
        ids[r] = i
    return ids, names


def load_csv(
    path,
    label_col: str | None,
    segment_col: str,
    task: TaskKind,
    group_col: str | None = None,
    feature_columns: tuple | None = None,
    segment_names: tuple | None = None,
) -> Dataset:
    """Load a UTF-8, RFC-4180 CSV with a header row into a Dataset.

    Numeric feature columns are parsed as 64-bit reals; columns with any
    non-numeric cell are one-hot encoded as ``col=value`` with categories in
    lexicographic order. Segment and group strings map to ids by first
    appearance. Column names must not repeat.

    ``feature_columns`` / ``segment_names`` align this file to a previously
    loaded dataset's encoding and segment vocabulary (unseen categories
    encode as all zeros with a warning; unseen segments get new ids). Such a
    load reads only the feature columns the encoding names, as ``c`` or
    ``c=...``, and ignores the others with one warning.
    ``label_col=None`` fills labels with zeros (prediction-only inputs).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows")
    repeated = sorted(c for c, times in Counter(header).items() if times > 1)
    if repeated:
        raise DataError(f"{path}: repeated column names {repeated}")
    for col in filter(None, (label_col, segment_col, group_col)):
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
    n = len(rows)
    column = dict(zip(header, zip(*rows)))
    feature_cols = [c for c in header if c not in (segment_col, label_col, group_col)]
    if feature_columns is not None:
        # the encoding names a column c, or its categories as c=...
        named = set(feature_columns)
        named.update(f[:i] for f in feature_columns for i, ch in enumerate(f) if ch == "=")
        ignored = [c for c in feature_cols if c not in named]
        if ignored:
            warnings.warn(
                f"{path}: columns {ignored} are absent from the reference encoding and were not read"
            )
        feature_cols = [c for c in feature_cols if c in named]

    # a column with any non-numeric cell is categorical; a non-finite
    # numeric cell is rejected outright, in either kind of column
    blocks = []
    names: list[str] = []
    for c in feature_cols:
        values, numeric = _numbers(column[c])
        bad = np.flatnonzero(numeric & ~np.isfinite(values))
        if bad.size:
            raise DataError(f"{path}: non-finite value at row {bad[0] + 2}, column {c!r}")
        if numeric.all():
            blocks.append(values.reshape(n, 1))
            names.append(c)
            continue
        ids, cats = _first_appearance_ids(column[c])
        order = sorted(range(len(cats)), key=cats.__getitem__)
        block = np.zeros((n, len(cats)))
        block[np.arange(n), np.argsort(order)[ids]] = 1.0
        blocks.append(block)
        names.extend(f"{c}={cats[j]}" for j in order)
    features = np.hstack(blocks) if blocks else np.zeros((n, 0))

    if feature_columns is not None:
        target = list(feature_columns)
        aligned = np.zeros((n, len(target)))
        pos = {name: j for j, name in enumerate(names)}
        unseen = [name for name in names if name not in set(target)]
        if unseen:
            warnings.warn(
                f"{path}: encoded columns {unseen} are absent from the reference "
                "encoding and were dropped (unseen categories become all-zero rows)"
            )
        for j, name in enumerate(target):
            if name in pos:
                aligned[:, j] = features[:, pos[name]]
        features, names = aligned, target

    seg_ids, seg_names = _first_appearance_ids(column[segment_col], segment_names or ())

    if label_col is None:
        labels = np.zeros(n)
    else:
        labels, _ = _numbers(column[label_col])
        bad = np.flatnonzero(~np.isfinite(labels))
        if bad.size:
            raise DataError(
                f"{path}: unparseable label at row {bad[0] + 2}, column {label_col!r}"
            )
        if task.is_classification:
            rounded = np.rint(labels)
            if np.any(np.abs(labels - rounded) > 1e-9):
                raise DataError(f"{path}: classification labels must be integers")
            labels = rounded

    group = None if group_col is None else _first_appearance_ids(column[group_col])[0]
    return Dataset(
        features=features,
        labels=labels,
        segment_id=seg_ids,
        segment_names=tuple(seg_names),
        feature_names=tuple(names),
        task=task,
        group_id=group,
    )


def write_csv(data: Dataset, path, label_name: str = "y") -> None:
    """Write a dataset back out with a ``__segment__`` string column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = list(data.feature_names) + [label_name, SEGMENT_COLUMN]
        if data.group_id is not None:
            header.append(GROUP_COLUMN)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            if data.task.is_classification:
                row.append(str(int(data.labels[i])))
            else:
                row.append(repr(float(data.labels[i])))
            row.append(data.segment_names[data.segment_id[i]])
            if data.group_id is not None:
                row.append(str(int(data.group_id[i])))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Splits


def _segment_group_check(data: Dataset) -> None:
    if data.group_id is None:
        return
    # group-aware stratification needs groups nested inside segments
    for g in np.unique(data.group_id):
        segs = np.unique(data.segment_id[data.group_id == g])
        if len(segs) > 1:
            raise DataError(f"group {g} spans segments {segs.tolist()}")


def _largest_remainder_counts(sizes: np.ndarray, frac: float, total_target: int, order_key):
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


def _unit_walk(data: Dataset, rank: np.ndarray):
    """(rows in walk order, each unit's row count, each unit's rows before it in its segment).

    The walk takes segments in id order and, inside a segment, units by the
    rank of their first row, the lowest rank among their rows. A unit's rows
    are adjacent in the walk, so a unit starts a segment when it has no rows
    before it. Groups must not span segments (``_segment_group_check``).
    """
    unit = np.arange(data.n) if data.group_id is None else data.group_id
    _, unit_index = np.unique(unit, return_inverse=True)
    first_rank = np.full(data.n, data.n)
    np.minimum.at(first_rank, unit_index, rank)
    key = data.segment_id * data.n + first_rank[unit_index]
    walk = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[walk], prepend=-1))
    new_segment = np.diff(data.segment_id[walk[starts]], prepend=-1) != 0
    segment_start = np.maximum.accumulate(np.where(new_segment, starts, 0))
    return walk, np.diff(starts, append=data.n), starts - segment_start


def split_base_tune(data: Dataset, varsigma: float, seed: int) -> SplitPlan:
    """Segment-stratified (and group-aware) base/tune split.

    Each segment's base fold takes whole units in walk order until it holds
    the segment's count, and leaves the last unit to the tune fold unless it
    is the only one. The split is driven by one global random permutation,
    so renaming or permuting segment labels leaves every segment's row
    assignment unchanged.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must be in (0, 1)")
    segs, first_rows, sizes = np.unique(data.segment_id, return_index=True, return_counts=True)
    for s, ns in zip(segs, sizes):
        if ns < 2:
            raise DataError(
                f"segment {data.segment_names[s]!r} has {ns} row(s); need >= 2 to split"
            )
    _segment_group_check(data)
    rank = make_rng(seed, "split").permutation(data.n)
    counts = _largest_remainder_counts(
        sizes, varsigma, int(round(varsigma * data.n)), first_rows
    )
    walk, unit_rows, before = _unit_walk(data, rank)
    # each unit's position in segs: the walk takes segments in id order
    segment = np.cumsum(before == 0) - 1
    last = np.append(before[1:] == 0, True)
    in_base = np.repeat((before < counts[segment]) & ~(last & (before > 0)), unit_rows)
    return SplitPlan(
        base_indices=np.sort(walk[in_base]), tune_indices=np.sort(walk[~in_base]), varsigma=varsigma
    )


def kfold_plan(data: Dataset, k: int, seed: int):
    """Segment-stratified, group-aware k-fold partition of 0..n-1.

    Inside each segment, each unit in walk order goes to the fold with the
    fewest rows so far, the lowest-numbered on a tie.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    segs, sizes = np.unique(data.segment_id, return_counts=True)
    for s, ns in zip(segs, sizes):
        if ns < k:
            raise DataError(
                f"segment {data.segment_names[s]!r} has fewer than {k} rows"
            )
    _segment_group_check(data)
    rank = make_rng(seed, "kfold").permutation(data.n)
    walk, unit_rows, before = _unit_walk(data, rank)
    unit_fold = []
    for rows, rows_before in zip(unit_rows.tolist(), before.tolist()):
        if rows_before == 0:
            fold_rows = [0] * k
        j = fold_rows.index(min(fold_rows))
        unit_fold.append(j)
        fold_rows[j] += rows
    fold = np.empty(data.n, dtype=np.int64)
    fold[walk] = np.repeat(unit_fold, unit_rows)
    return [(np.flatnonzero(fold != j), np.flatnonzero(fold == j)) for j in range(k)]


# ---------------------------------------------------------------------------
# Synthetic generator and constructed shifts


def _segment_blocks(n: int, n_segments: int) -> np.ndarray:
    sizes = np.full(n_segments, n // n_segments, dtype=np.int64)
    sizes[: n % n_segments] += 1
    return np.repeat(np.arange(n_segments, dtype=np.int64), sizes)


def _nonlinear_response(x, seg, alpha0, gamma, eps):
    # alpha1_s = -alpha0_s * 1_d, so the linear term is -alpha0_s * sum(x)
    a0 = alpha0[seg]
    return a0 - a0 * x.sum(axis=1) + gamma[seg] * x[:, 1] * (1.0 + np.sin(3.0 * x[:, 0])) + eps


def simulate_local_covshift(cfg: SyntheticConfig):
    """Regression simulator with a common test-time covariate shift.

    Train covariates are N(0, I_4), test covariates N(1, 0.09 I_4). Segment
    intercepts are evenly spaced over [-2, 2] with slopes -intercept per
    dimension plus a nonlinear interaction term; noise is N(0, noise_sd^2).
    Test labels are produced too, for evaluation only.
    """
    rng = make_rng(cfg.seed, "simulate")
    s_count = cfg.n_segments
    alpha0 = np.linspace(-2.0, 2.0, s_count) if s_count > 1 else np.asarray([-2.0])
    gamma = cfg.gamma_values()

    seg_tr = _segment_blocks(cfg.n_train, s_count)
    seg_te = _segment_blocks(cfg.n_test, s_count)
    x_tr = rng.normal(0.0, 1.0, size=(cfg.n_train, 4))
    eps_tr = rng.normal(0.0, cfg.noise_sd, size=cfg.n_train)
    x_te = rng.normal(1.0, 0.3, size=(cfg.n_test, 4))
    eps_te = rng.normal(0.0, cfg.noise_sd, size=cfg.n_test)

    names = tuple(str(s + 1) for s in range(s_count))
    feature_names = ("x1", "x2", "x3", "x4")
    task = TaskKind.regression()
    train = Dataset(
        features=x_tr,
        labels=_nonlinear_response(x_tr, seg_tr, alpha0, gamma, eps_tr),
        segment_id=seg_tr,
        segment_names=names,
        feature_names=feature_names,
        task=task,
    )
    test = Dataset(
        features=x_te,
        labels=_nonlinear_response(x_te, seg_te, alpha0, gamma, eps_te),
        segment_id=seg_te,
        segment_names=names,
        feature_names=feature_names,
        task=task,
    )
    return train, test


def construct_shift(data: Dataset, cfg: ShiftConstructionConfig, seed: int):
    """Split a dataset into shifted train/test pairs (see the config types)."""
    rng = make_rng(seed, "shift")
    if isinstance(cfg, CovariateShiftSpec):
        if cfg.feature not in data.feature_names:
            raise DataError(f"unknown feature {cfg.feature!r}")
        col = data.features[:, data.feature_names.index(cfg.feature)]
        p = np.where(col > cfg.threshold, cfg.p_above, cfg.p_below)
        to_test = rng.random(data.n) < p
        if not to_test.any() or to_test.all():
            raise DataError("constructed covariate shift left one side empty")
        return data.subset(np.flatnonzero(~to_test)), data.subset(np.flatnonzero(to_test))

    if isinstance(cfg, BinaryLabelShiftSpec):
        if data.task.kind != "binary":
            raise DataError("binary label shift requires a binary task")
        to_test = rng.random(data.n) < cfg.test_frac
        test_rows = np.flatnonzero(to_test)
        keep = np.ones(len(test_rows), dtype=bool)
        pos = data.labels[test_rows] == 1
        keep[pos] = rng.random(int(pos.sum())) < cfg.positive_keep
        test_rows = test_rows[keep]
        if len(test_rows) == 0 or to_test.all():
            raise DataError("constructed label shift left one side empty")
        return data.subset(np.flatnonzero(~to_test)), data.subset(test_rows)

    if isinstance(cfg, MulticlassLabelShiftSpec):
        if data.task.kind != "multiclass":
            raise DataError("multiclass label shift requires a multiclass task")
        k = data.task.n_classes
        if len(cfg.target_rates) != k:
            raise DataError(f"target_rates must have {k} entries")
        to_test = rng.random(data.n) < cfg.test_frac
        test_rows = np.flatnonzero(to_test)
        n_te = len(test_rows)
        if n_te == 0 or to_test.all():
            raise DataError("constructed label shift left one side empty")
        rates = np.asarray(cfg.target_rates)
        counts = np.floor(rates * n_te).astype(np.int64)
        frac = rates * n_te - counts
        for j in np.argsort(-frac, kind="stable")[: n_te - int(counts.sum())]:
            counts[j] += 1
        chosen = []
        for c in range(k):
            if counts[c] == 0:
                continue
            rows_c = test_rows[data.labels[test_rows] == c]
            if len(rows_c) == 0:
                raise DataError(f"class {c} is empty in the test fold before resampling")
            chosen.append(rng.choice(rows_c, size=int(counts[c]), replace=True))
        resampled = np.sort(np.concatenate(chosen))
        return data.subset(np.flatnonzero(~to_test)), data.subset(resampled)

    raise TypeError(f"unsupported shift config {type(cfg).__name__}")
