"""Datasets, CSV ingestion, deterministic splits, and synthetic fixtures.

A Dataset is an immutable bundle of a float feature matrix, labels, integer
segment ids (with the original segment strings retained for reporting), an
optional observational-unit group id, and the task kind. All split and
generation operations are pure functions of their inputs and a seed.
"""

import csv
import warnings
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


def _parse_numeric(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


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
    lexicographic order. Segment strings map to ids by first appearance.

    ``feature_columns`` / ``segment_names`` align this file to a previously
    loaded dataset's encoding and segment vocabulary (unseen categories
    encode as all zeros with a warning; unseen segments get new ids).
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
    for col in filter(None, (label_col, segment_col, group_col)):
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
    col_idx = {name: i for i, name in enumerate(header)}
    reserved = {segment_col} | ({label_col} if label_col else set()) | (
        {group_col} if group_col else set()
    )
    feature_cols = [c for c in header if c not in reserved]

    n = len(rows)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")

    # decide numeric vs categorical per feature column; any non-finite
    # numeric cell is rejected outright
    parsed: dict[str, list] = {}
    categorical: dict[str, bool] = {}
    for c in feature_cols:
        i = col_idx[c]
        vals = []
        is_cat = False
        for r, row in enumerate(rows):
            v = _parse_numeric(row[i])
            if v is not None and not np.isfinite(v):
                raise DataError(f"{path}: non-finite value at row {r + 2}, column {c!r}")
            if v is None:
                is_cat = True
            vals.append(v if v is not None else row[i])
        if is_cat:
            vals = [row[col_idx[c]] for row in rows]
        parsed[c] = vals
        categorical[c] = is_cat

    blocks = []
    names: list[str] = []
    for c in feature_cols:
        if not categorical[c]:
            blocks.append(np.asarray(parsed[c], dtype=np.float64).reshape(n, 1))
            names.append(c)
        else:
            cats = sorted(set(parsed[c]))
            block = np.zeros((n, len(cats)))
            lookup = {v: j for j, v in enumerate(cats)}
            for r, v in enumerate(parsed[c]):
                block[r, lookup[v]] = 1.0
            blocks.append(block)
            names.extend(f"{c}={v}" for v in cats)
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

    seg_raw = [row[col_idx[segment_col]] for row in rows]
    seg_names = list(segment_names) if segment_names is not None else []
    seg_lookup = {s: i for i, s in enumerate(seg_names)}
    seg_ids = np.empty(n, dtype=np.int64)
    for r, s in enumerate(seg_raw):
        if s not in seg_lookup:
            seg_lookup[s] = len(seg_names)
            seg_names.append(s)
        seg_ids[r] = seg_lookup[s]

    if label_col is None:
        labels = np.zeros(n)
    else:
        i = col_idx[label_col]
        labels = np.empty(n)
        for r, row in enumerate(rows):
            v = _parse_numeric(row[i])
            if v is None or not np.isfinite(v):
                raise DataError(
                    f"{path}: unparseable label at row {r + 2}, column {label_col!r}"
                )
            labels[r] = v
        if task.is_classification:
            rounded = np.rint(labels)
            if np.any(np.abs(labels - rounded) > 1e-9):
                raise DataError(f"{path}: classification labels must be integers")
            labels = rounded

    group = None
    if group_col is not None:
        graw = [row[col_idx[group_col]] for row in rows]
        glookup: dict[str, int] = {}
        group = np.empty(n, dtype=np.int64)
        for r, gs in enumerate(graw):
            if gs not in glookup:
                glookup[gs] = len(glookup)
            group[r] = glookup[gs]

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


def split_base_tune(data: Dataset, varsigma: float, seed: int) -> SplitPlan:
    """Segment-stratified (and group-aware) base/tune split.

    The split is driven by one global random permutation, so renaming or
    permuting segment labels leaves every segment's row assignment
    unchanged.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError("varsigma must be in (0, 1)")
    segs = data.present_segments()
    sizes = np.asarray([len(data.segment_rows(s)) for s in segs])
    for s, ns in zip(segs, sizes):
        if ns < 2:
            raise DataError(
                f"segment {data.segment_names[s]!r} has {ns} row(s); need >= 2 to split"
            )
    _segment_group_check(data)
    rank = make_rng(seed, "split").permutation(data.n)
    order_key = [int(data.segment_rows(s).min()) for s in segs]
    counts = _largest_remainder_counts(
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
            taken: list[int] = []
            rest: list[int] = []
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


def kfold_plan(data: Dataset, k: int, seed: int):
    """Segment-stratified, group-aware k-fold partition of 0..n-1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    segs = data.present_segments()
    for s in segs:
        if len(data.segment_rows(s)) < k:
            raise DataError(
                f"segment {data.segment_names[s]!r} has fewer than {k} rows"
            )
    _segment_group_check(data)
    rank = make_rng(seed, "kfold").permutation(data.n)
    folds: list[list[int]] = [[] for _ in range(k)]
    for s in segs:
        rows = data.segment_rows(s)
        if data.group_id is None:
            ordered = rows[np.argsort(rank[rows], kind="stable")]
            for j, r in enumerate(ordered):
                folds[j % k].append(int(r))
        else:
            groups: dict[int, list[int]] = {}
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
