"""Metrics, per-segment reporting, and the cross-validation driver.

Metric values are (weighted) means of per-sample losses; standard errors
divide the weighted standard deviation of per-sample losses by the square
root of the effective sample size (sum w)^2 / sum w^2. Reports mirror the
"value (se)" convention, optionally relative to a named baseline.
"""

import itertools
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._seeds import derive_seed
from .data import Dataset, kfold_plan
from .learners import GBTConfig
from .mr import FitStages, MRConfig, fit_mr, _pooled_weights

CE_CLIP = 1e-12


def _per_sample_losses(y_true, predictions, kind):
    y = np.asarray(y_true)
    p = np.asarray(predictions, dtype=np.float64)
    if kind == "mse":
        if p.ndim != 1:
            raise ValueError("mse expects one prediction per row")
        return (p - y.astype(np.float64)) ** 2
    yi = y.astype(np.int64)
    if kind == "ce":
        if p.ndim == 1:
            p = np.clip(p, CE_CLIP, 1.0 - CE_CLIP)
            return -(yi * np.log(p) + (1 - yi) * np.log1p(-p))
        rows = np.clip(p[np.arange(len(yi)), yi], CE_CLIP, 1.0 - CE_CLIP)
        return -np.log(rows)
    if kind == "brier":
        if p.ndim == 1:
            return (p - yi) ** 2
        onehot = np.zeros_like(p)
        onehot[np.arange(len(yi)), yi] = 1.0
        return ((p - onehot) ** 2).sum(axis=1)
    raise ValueError(f"unknown metric kind {kind!r}")


def metric(y_true, predictions, kind: str, sample_weight=None):
    """(value, standard error) of a per-sample loss mean.

    ``kind`` is one of mse (regression), ce or brier (classification;
    probabilities clamped to [1e-12, 1 - 1e-12] for ce).
    """
    losses = _per_sample_losses(y_true, predictions, kind)
    if sample_weight is None:
        w = np.ones(len(losses))
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != losses.shape:
            raise ValueError("sample_weight length mismatch")
    value = float(np.average(losses, weights=w))
    var = float(np.average((losses - value) ** 2, weights=w))
    n_eff = float(w.sum() ** 2 / (w * w).sum())
    return value, float(np.sqrt(var / n_eff))


@dataclass(frozen=True)
class SegmentRow:
    name: str
    n: int
    value: float
    se: float
    relative: float | None = None


@dataclass(frozen=True)
class SegmentReport:
    kind: str
    baseline_name: str | None
    rows: tuple  # per-segment SegmentRow entries
    overall: SegmentRow

    def to_dict(self) -> dict:
        def row(r):
            d = {"n": r.n, "value": r.value, "se": r.se}
            if r.relative is not None:
                d["relative"] = r.relative
            return d

        return {
            "format_version": 1,
            "metric": self.kind,
            "baseline": self.baseline_name,
            "segments": {r.name: row(r) for r in self.rows},
            "overall": row(self.overall),
        }

    def table(self) -> str:
        """Aligned 'value (se)' text table."""
        headers = ["segment", "n", f"{self.kind} (se)"]
        if self.baseline_name is not None:
            headers.append("relative")
        lines = []
        for r in list(self.rows) + [self.overall]:
            cells = [r.name, str(r.n), f"{r.value:.6g} ({r.se:.3g})"]
            if self.baseline_name is not None:
                cells.append("" if r.relative is None else f"{r.relative:.4f}")
            lines.append(cells)
        widths = [max(len(h), *(len(l[i]) for l in lines)) for i, h in enumerate(headers)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*headers)]
        out.extend(fmt.format(*cells) for cells in lines)
        return "\n".join(out)


def per_segment_report(
    y_true,
    predictions,
    segments,
    kind: str,
    baseline_predictions=None,
    segment_names=None,
    baseline_name: str | None = None,
    sample_weight=None,
) -> SegmentReport:
    """One metric row per segment plus an overall row.

    Relative values divide by the baseline metric computed on the same
    rows. The overall value is the mean over per-sample losses, not the
    mean of segment means.
    """
    segments = np.asarray(segments, dtype=np.int64)
    y_true = np.asarray(y_true)
    if len(y_true) != len(segments):
        raise ValueError("labels and segments must align")
    if baseline_predictions is not None and baseline_name is None:
        baseline_name = "baseline"

    def one(rows, name):
        if len(rows) == 0:
            raise ValueError(f"segment {name!r} has no rows")
        w = None if sample_weight is None else np.asarray(sample_weight)[rows]
        preds = np.asarray(predictions)[rows]
        value, se = metric(y_true[rows], preds, kind, sample_weight=w)
        rel = None
        if baseline_predictions is not None:
            bvalue, _ = metric(
                y_true[rows], np.asarray(baseline_predictions)[rows], kind, sample_weight=w
            )
            rel = value / bvalue if bvalue != 0 else float("inf")
        return SegmentRow(name=name, n=len(rows), value=value, se=se, relative=rel)

    rows_out = []
    for s in np.unique(segments):
        name = segment_names[s] if segment_names is not None else str(int(s))
        rows_out.append(one(np.flatnonzero(segments == s), name))
    overall = one(np.arange(len(segments)), "overall")
    return SegmentReport(
        kind=kind, baseline_name=baseline_name, rows=tuple(rows_out), overall=overall
    )


@dataclass(frozen=True)
class CvGrid:
    """Named hyperparameter lists for the base and refinement models.

    Each key is a ``GBTConfig`` field other than ``seed``, which the
    pipeline derives itself, and each value a non-empty list of distinct
    settings for it. The default is a small base x refine grid that varies
    only ``n_estimators``: per fold, ``cross_validate`` fits one 200-round
    base ensemble and, per base point, one set of 25-round refiners; the
    smaller settings take the first rounds of those fits.
    """

    base: dict = field(default_factory=lambda: {"n_estimators": [50, 200]})
    refine: dict = field(default_factory=lambda: {"n_estimators": [0, 25]})

    def __post_init__(self):
        names = {f.name for f in fields(GBTConfig)} - {"seed"}
        for section, grid in (("base", self.base), ("refine", self.refine)):
            if not isinstance(grid, dict):
                raise ValueError(f"{section} must map GBTConfig fields to lists")
            for key, values in grid.items():
                if key not in names:
                    raise ValueError(f"{section}: {key!r} is not a tunable GBTConfig field")
                if not isinstance(values, (list, tuple)):
                    raise ValueError(f"{section}: {key!r} must be a list of values")
                if not values:
                    raise ValueError(f"empty grid list for {key!r}")
                for i, value in enumerate(values):
                    try:
                        GBTConfig(**{key: value})
                    except (TypeError, ValueError) as exc:
                        raise ValueError(f"{section}: bad {key} {value!r}: {exc}") from exc
                    if value in values[:i]:
                        raise ValueError(f"{section}: {key} {value!r} is listed twice")

    def points(self):
        """Cartesian product as (base_overrides, refine_overrides) dicts."""
        base_keys = sorted(self.base)
        refine_keys = sorted(self.refine)
        for bvals in itertools.product(*(self.base[k] for k in base_keys)):
            for rvals in itertools.product(*(self.refine[k] for k in refine_keys)):
                yield dict(zip(base_keys, bvals)), dict(zip(refine_keys, rvals))


def _point_key(point):
    base, refine = point
    return (tuple(sorted(base.items())), tuple(sorted(refine.items())))


def _metric_kind(task) -> str:
    return "mse" if task.kind == "regression" else "ce"


def cross_validate(train: Dataset, test_features, grid: CvGrid, k: int, config: MRConfig):
    """Pick the grid point with the lowest mean weighted validation loss.

    Each fold fits the pipeline on its train fold, computes importance
    weights *on the validation fold* against the test features, and scores
    weighted validation loss. Returns (best point, per-fold reports for
    the best point).

    Every (fold, point) model is a ``fit_mr`` call, and a fold's calls share
    one ``FitStages`` memo, dropped after the fold. A fold visits its points
    in descending (base, refine) ``n_estimators`` order, so the longest
    boosted fits come first and a smaller ``n_estimators`` takes their
    first rounds. So the work runs:

    - once per fold: the validation weights (and the BBSE classifier behind
      them), the base/tune split, the distance matrix and the cluster cut;
    - once per (fold, base settings but ``n_estimators``): the base
      ensemble, fitted for the most rounds the grid asks for;
    - once per (fold, base point): per segment its importance weights, tune
      margins and stage-1 stacking;
    - once per (fold, base point, refine settings but ``n_estimators``):
      the per-segment refiners, fitted for the most rounds asked for;
    - once per (fold, grid point): the validation predictions and the score.

    Each model is the same bytes as a ``fit_mr`` of that fold and point on
    its own. A point whose fit fails on a fold warns and is skipped there.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    test_x, test_segments = test_features
    test_x = np.asarray(test_x, dtype=np.float64)
    test_segments = np.asarray(test_segments, dtype=np.int64)
    folds = kfold_plan(train, k, config.seed)
    kind = _metric_kind(train.task)

    fold_weights = []
    for train_idx, valid_idx in folds:
        margin_fn = _bbse_margin_fn(train, train_idx, config)
        fold_weights.append(
            _pooled_weights(train, valid_idx, test_x, test_segments, config, lambda s: margin_fn)
        )

    points = list(grid.points())
    # the longest fits first: a smaller n_estimators takes their first rounds
    visit = sorted(
        points,
        key=lambda p: (
            p[0].get("n_estimators", config.base.n_estimators),
            p[1].get("n_estimators", config.refine.n_estimators),
        ),
        reverse=True,
    )
    losses: dict = {_point_key(p): [] for p in points}
    reports: dict = {_point_key(p): [] for p in points}
    for fold_i, (train_idx, valid_idx) in enumerate(folds):
        fold_train = train.subset(train_idx)
        fold_cfg = replace(config, seed=derive_seed(config.seed, "cv-fold", fold_i))
        stages = FitStages(fold_train, test_features)
        for point in visit:
            base_over, refine_over = point
            cfg = replace(
                fold_cfg,
                base=replace(fold_cfg.base, **base_over),
                refine=replace(fold_cfg.refine, **refine_over),
            )
            try:
                model = fit_mr(fold_train, test_features, cfg, stages=stages)
                preds = model.predict(
                    train.features[valid_idx], train.segment_id[valid_idx]
                )
            except (ValueError, KeyError) as exc:
                warnings.warn(f"grid point {point} failed on fold {fold_i}: {exc}")
                losses[_point_key(point)].append(None)
                reports[_point_key(point)].append(None)
                continue
            report = per_segment_report(
                train.labels[valid_idx],
                preds,
                train.segment_id[valid_idx],
                kind,
                segment_names=train.segment_names,
                sample_weight=fold_weights[fold_i],
            )
            losses[_point_key(point)].append(report.overall.value)
            reports[_point_key(point)].append(report)
        del stages  # the next fold's rows differ; free this fold's models

    scored = []
    for point in points:
        key = _point_key(point)
        vals = [v for v in losses[key] if v is not None]
        if not vals:
            warnings.warn(f"grid point {point} failed on every fold; excluded")
            continue
        scored.append((float(np.mean(vals)), key, point))
    if not scored:
        raise ValueError("every grid point failed on every fold")
    scored.sort(key=lambda t: (t[0], t[1]))
    _, best_key, best_point = scored[0]
    best = {"base": best_point[0], "refine": best_point[1]}
    return best, [r for r in reports[best_key] if r is not None]


def _bbse_margin_fn(train: Dataset, train_idx: np.ndarray, config: MRConfig):
    """Classifier for validation-fold label-shift weights, fit on the train fold."""
    if config.resolved_weight_method != "bbse":
        return lambda xm: np.zeros(len(xm))
    from .learners import fit_gbt
    from .mr import task_loss

    loss = task_loss(train.task)
    model = fit_gbt(
        train.features[train_idx],
        train.labels[train_idx],
        loss,
        config.base.with_seed(config.seed),
    )
    return model.predict_margin
