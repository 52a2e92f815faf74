"""Two-stage per-segment estimation over a clustered base-model ensemble.

The pipeline: split training rows into base/tune folds, cluster segments by
joint-distribution distance, train one boosted model per cluster plus one
on all segments, then per segment (a) estimate importance weights against
that segment's test rows, (b) fit a linear combination of the base-model
margins on the tune fold (optionally constrained to the unit ball by a
warm-started Newton path in the ridge penalty), and (c) refine with a small
weighted boosted model that treats the stage-1 margin as its base margin. A segment unseen at fit
time gets the all-segments base model's prediction.

Also provides the standalone pooled baselines: a global model refined with
pooled per-segment weights (dr), optionally with one-hot segment features
(dr-sf).
"""

import hashlib
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ._seeds import derive_seed, index_digest
from .data import Dataset, DataError, TaskKind, split_base_tune
from .learners import (
    GBTConfig,
    GBTModel,
    LOGISTIC,
    SQUARED,
    LossKind,
    cluster_base_config,
    fit_gbt,
    losses,
    refine_config,
)
from .learners.gbt import json_number, json_numbers, stacked_margins
from .learners.linear import fit_glm
from .segmentation import (
    ClusterAssignment,
    KernelSpec,
    SegmentDistanceMatrix,
    check_bandwidth,
    check_max_per_segment,
    cluster_segments,
    choose_num_clusters,
    segment_distance_matrix,
)
from .weights import (
    DEFAULT_ETA,
    WeightVector,
    expand_class_weights,
    fit_bbse,
    fit_discriminative_weights,
    fit_kmm,
    uniform_weights,
)

LAMBDA_MIN = 1e-8
BALL_TOL = 1e-3
# KMM builds an n x n float64 Gram over a segment's rows: 800 MB at this many
# rows, 3.2 GB at twice as many. A larger segment fails before the Gram.
KMM_MAX_ROWS = 10_000
# The layout of MRModel and DRModel files; version 2 holds each forest as node
# columns. Reports and the cluster and cv outputs have their own version 1.
MODEL_FORMAT_VERSION = 2


def _check_lambda_max(lambda_max: float) -> None:
    """Reject a ``lambda_max`` that leaves stage 1's path no finite upper end."""
    if not LAMBDA_MIN < lambda_max < np.inf:
        raise ValueError(f"lambda_max must be finite and above {LAMBDA_MIN:g}, got {lambda_max!r}")


def _check_format_version(d: dict) -> None:
    """Reject a model file of another layout than the one this version writes."""
    version = d.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model format_version {version!r} is not {MODEL_FORMAT_VERSION}, "
            "the only one this segshift reads; re-fit the model"
        )


def task_loss(task: TaskKind) -> LossKind:
    if task.kind == "regression":
        return SQUARED
    if task.kind == "binary":
        return LOGISTIC
    return losses.softmax_loss(task.n_classes)


def _check_model(model: GBTModel, loss: LossKind, n_features: int, role: str) -> GBTModel:
    """``model``, once its loss and feature count are the ones its file's task needs."""
    if model.loss != loss or model.n_features != n_features:
        raise ValueError(
            f"{role} has loss {model.loss.name}/{model.loss.n_classes} on {model.n_features} "
            f"features; the model's task needs {loss.name}/{loss.n_classes} on {n_features}"
        )
    return model


def segment_onehot(segment_id: np.ndarray, n_segments: int) -> np.ndarray:
    """One-hot columns for segment ids; out-of-range ids encode as zeros."""
    out = np.zeros((len(segment_id), n_segments))
    ok = (segment_id >= 0) & (segment_id < n_segments)
    out[np.flatnonzero(ok), segment_id[ok]] = 1.0
    return out


def _normalise_clusters(clusters):
    """``clusters`` as ``MRConfig`` keeps it: "auto", a count >= 1 or a tuple of id tuples."""
    if isinstance(clusters, ClusterAssignment):
        return clusters.clusters
    if isinstance(clusters, (tuple, list)):
        return ClusterAssignment(clusters).clusters
    if isinstance(clusters, numbers.Integral) and not isinstance(clusters, bool):
        if clusters >= 1:
            return int(clusters)
    elif clusters == "auto":
        return clusters
    raise ValueError(
        f"clusters must be 'auto', an integer >= 1 or segment groups, got {clusters!r}"
    )


@dataclass(frozen=True)
class MRConfig:
    """Settings of ``fit_mr`` and ``fit_dr``; an out-of-range value raises ``ValueError``.

    ``clusters`` is kept as "auto", a count or a tuple of segment-id tuples.
    ``n_threads`` sets the distance matrix's workers and is not saved with a model.
    """

    shift: str = "covariate"  # "covariate" | "label"
    weight_method: str | None = None  # default: discriminative / bbse by shift
    eta: float = DEFAULT_ETA
    varsigma: float = 0.8
    clusters: object = "auto"  # "auto" | int | explicit tuple of tuples
    min_cluster_size: int = 2
    base: GBTConfig = field(default_factory=cluster_base_config)
    refine: GBTConfig = field(default_factory=refine_config)
    ball: bool = True
    fit_intercept: bool = True
    lambda_max: float = 1e6
    bandwidth: float | str = "median"
    max_per_segment: int = 2000
    seed: int = 0
    n_threads: int = 1

    def __post_init__(self):
        if self.shift not in ("covariate", "label"):
            raise ValueError("shift must be 'covariate' or 'label'")
        allowed = {
            "covariate": ("discriminative", "kmm", "none"),
            "label": ("bbse", "none"),
        }[self.shift]
        if self.weight_method is not None and self.weight_method not in allowed:
            raise ValueError(
                f"weight method {self.weight_method!r} incompatible with "
                f"{self.shift} shift (choose from {allowed})"
            )
        if not self.eta > 0:  # also NaN; +inf means no cap
            raise ValueError(f"eta must be > 0, got {self.eta!r}")
        if not 0.0 < self.varsigma < 1.0:
            raise ValueError("varsigma must be in (0, 1)")
        object.__setattr__(self, "clusters", _normalise_clusters(self.clusters))
        for name in ("min_cluster_size", "n_threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        check_max_per_segment(self.max_per_segment)
        _check_lambda_max(self.lambda_max)
        check_bandwidth(self.bandwidth)

    @property
    def resolved_weight_method(self) -> str:
        if self.weight_method is not None:
            return self.weight_method
        return "discriminative" if self.shift == "covariate" else "bbse"

    def to_dict(self) -> dict:
        d = asdict(self)
        if isinstance(self.clusters, tuple):
            d["clusters"] = [list(c) for c in self.clusters]
        d.pop("n_threads")  # execution detail, not part of the model identity
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MRConfig":
        d = dict(d)
        d.pop("n_threads", None)
        d["base"] = GBTConfig(**d["base"])
        d["refine"] = GBTConfig(**d["refine"])
        return cls(**d)


# ---------------------------------------------------------------------------
# Base ensemble


@dataclass
class BaseEnsemble:
    """Cluster models followed by the all-segments model (always last)."""

    models: list  # GBTModel, length M+1
    assignment: ClusterAssignment
    loss: LossKind

    @property
    def n_models(self) -> int:
        return len(self.models)

    def margins(self, x: np.ndarray) -> np.ndarray:
        """Stacked raw margins, (n, M+1) or (n, M+1, K) for softmax.

        All M+1 boosted models are packed into one forest, on first use, and
        walked once; each model's trees are summed in round order, so the
        result equals the stacked per-model ``predict_margin`` bit for bit.
        Other models (such as linear test doubles) are stacked one by one.
        """
        if not all(isinstance(m, GBTModel) for m in self.models):
            return np.stack([m.predict_margin(x) for m in self.models], axis=1)
        out = stacked_margins(self, self.models, x)
        w = self.loss.margin_width
        return out if w == 1 else out.reshape(len(out), self.n_models, w)

    def first_rounds(self, r: int) -> "BaseEnsemble":
        """The ensemble of each model's first ``r`` boosting rounds (``GBTModel.first_rounds``)."""
        return BaseEnsemble(
            models=[m.first_rounds(r) for m in self.models],
            assignment=self.assignment,
            loss=self.loss,
        )

    def to_dict(self) -> dict:
        return {
            "clusters": [list(c) for c in self.assignment.clusters],
            "models": [m.to_dict() for m in self.models],
        }

    @classmethod
    def from_dict(cls, d: dict, loss: LossKind) -> "BaseEnsemble":
        return cls(
            models=[GBTModel.from_dict(m) for m in d["models"]],
            assignment=ClusterAssignment(tuple(tuple(c) for c in d["clusters"])),
            loss=loss,
        )


def _content_digest(features: np.ndarray, labels: np.ndarray) -> bytes:
    """Digest of a row set that ignores row order and segment labels."""
    arr = np.hstack([features, labels.astype(np.float64).reshape(-1, 1)])
    order = np.lexsort(tuple(arr[:, j] for j in range(arr.shape[1] - 1, -1, -1)))
    return hashlib.blake2b(np.ascontiguousarray(arr[order]).tobytes(), digest_size=8).digest()


def fit_base_ensemble(
    train_base: Dataset, clusters: ClusterAssignment, cfg: GBTConfig
) -> BaseEnsemble:
    """Fit one model per segment cluster plus the all-segments model.

    Cluster model order and per-model sub-seeds are keyed on the cluster's
    row *content*, so shuffling rows or relabeling segments leaves the
    serialized ensemble identical (models themselves are row-order
    invariant; see fit_gbt).
    """
    loss = task_loss(train_base.task)
    entries = []
    for cluster in clusters.clusters:
        rows = np.flatnonzero(np.isin(train_base.segment_id, cluster))
        if len(rows) == 0:
            names = [train_base.segment_names[s] for s in cluster]
            raise DataError(f"cluster {names} has no rows in the base fold")
        digest = _content_digest(train_base.features[rows], train_base.labels[rows])
        entries.append((digest, min(cluster), cluster, rows))
    entries.sort(key=lambda e: (e[0], e[1]))
    ordered = ClusterAssignment(tuple(c for _, _, c, _ in entries))
    models = []
    for digest, _, _, rows in entries:
        seed = derive_seed(cfg.seed, "base-model", digest)
        models.append(
            fit_gbt(
                train_base.features[rows],
                train_base.labels[rows],
                loss,
                cfg.with_seed(seed),
            )
        )
    all_digest = _content_digest(train_base.features, train_base.labels)
    seed = derive_seed(cfg.seed, "base-model", all_digest)
    models.append(
        fit_gbt(train_base.features, train_base.labels, loss, cfg.with_seed(seed))
    )
    return BaseEnsemble(models=models, assignment=ordered, loss=loss)


# ---------------------------------------------------------------------------
# Stage 1: constrained stacking


@dataclass
class Stage1Model:
    beta: np.ndarray  # (M+1,), shared across classes for softmax
    intercept: np.ndarray  # scalar array, or (K,)
    lambda_used: float
    ball_warning: bool = False

    def margin(self, h: np.ndarray) -> np.ndarray:
        """Combine stacked base margins: (n, M+1) -> (n,), (n, M+1, K) -> (n, K).

        The models are added one after another, so a row's margin does not
        depend on the other rows. A BLAS product would sum in an order that
        changes with the batch size.
        """
        if h.shape[1] != len(self.beta):
            raise ValueError(f"beta has {len(self.beta)} weights for {h.shape[1]} base models")
        out = h[:, 0] * self.beta[0]
        for m in range(1, len(self.beta)):
            out = out + h[:, m] * self.beta[m]
        return out + self.intercept

    def to_dict(self) -> dict:
        return {
            "beta": self.beta.tolist(),
            "intercept": self.intercept.tolist(),
            "lambda_used": self.lambda_used,
            "ball_warning": self.ball_warning,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Stage1Model":
        """The model of its dict; the intercept is one JSON number, or a list of them for softmax."""
        intercept = d["intercept"]
        if isinstance(intercept, list):
            intercept = json_numbers(intercept, "stage 1 intercept")
        else:
            intercept = np.float64(json_number(intercept, "stage 1 intercept"))
        return cls(
            beta=json_numbers(d["beta"], "stage 1 beta"),
            intercept=np.asarray(intercept),
            lambda_used=float(json_number(d["lambda_used"], "stage 1 lambda_used")),
            ball_warning=bool(d["ball_warning"]),
        )


def _check_stage1(stage1: Stage1Model, n_models: int, loss: LossKind, role: str) -> Stage1Model:
    """``stage1``, once its beta, intercepts and ``lambda_used`` fit the model and are finite.

    It needs one weight per base model, one intercept per class and a
    positive ``lambda_used``.
    """
    intercept_shape = () if loss.margin_width == 1 else (loss.margin_width,)
    if stage1.beta.shape != (n_models,) or stage1.intercept.shape != intercept_shape:
        raise ValueError(
            f"{role} stage 1 has beta shape {stage1.beta.shape} and intercept shape "
            f"{stage1.intercept.shape}; the model needs {(n_models,)} and {intercept_shape}"
        )
    if not (np.isfinite(stage1.beta).all() and np.isfinite(stage1.intercept).all()):
        raise ValueError(f"{role} stage 1 beta or intercept is not finite")
    if not 0.0 < stage1.lambda_used < np.inf:
        raise ValueError(f"{role} stage 1 lambda_used {stage1.lambda_used!r} is not finite and positive")
    return stage1


def _stage1_design(h, loss, fit_intercept):
    """The stacking GLM's design over stacked base margins ``h``.

    Squared and logistic loss: h's columns, then a column of ones for the
    intercept. Softmax: one row per (sample, class) pair, class k's base
    margins h[i, :, k], then, with the intercept, the indicators of the
    first K - 1 classes. The last class's intercept is pinned at 0: one
    common shift of every intercept leaves the softmax unchanged, and
    without the pin the Hessian is singular along it, so rounding would set
    the stored intercepts' level.
    """
    n, n_models = h.shape[:2]
    if loss.name != "softmax":
        return np.hstack([h, np.ones((n, 1))]) if fit_intercept else h
    k = h.shape[2]
    design = h.transpose(0, 2, 1).reshape(n * k, n_models)
    if fit_intercept:
        design = np.hstack([design, np.tile(np.eye(k)[:, :-1], (n, 1))])
    return design


def _stage1_model(theta, loss, n_models, fit_intercept, lambda_used, ball_warning=False):
    """The ``Stage1Model`` of the stacking GLM's parameters ``theta``."""
    if loss.name != "softmax":
        intercept = np.asarray(theta[n_models] if fit_intercept else 0.0)
    elif fit_intercept:
        intercept = np.append(theta[n_models:], 0.0)
    else:
        intercept = np.zeros(loss.margin_width)
    return Stage1Model(
        beta=theta[:n_models], intercept=intercept, lambda_used=lambda_used, ball_warning=ball_warning
    )


def _solve_shared_softmax(h, y, loss, l2, fit_intercept):
    """(beta, intercepts) of one shared-softmax stacking solve at ``l2``.

    Fits margins z_ik = sum_m beta_m h_imk + c_k, with L2 on beta and c_K = 0,
    by ``fit_glm`` over ``_stage1_design``.
    """
    n_models = h.shape[1]
    theta, _ = fit_glm(_stage1_design(h, loss, fit_intercept), y, loss, l2, np.ones(len(y)), n_models)
    s1 = _stage1_model(theta, loss, n_models, fit_intercept, l2)
    return s1.beta, s1.intercept


def fit_stage1(
    tune_segment,
    ensemble: BaseEnsemble,
    ball: bool = True,
    lambda_max: float = 1e6,
    fit_intercept: bool = True,
    margins: np.ndarray | None = None,
) -> Stage1Model:
    """Linear combination of base-model margins fit on one segment's tune rows.

    The stacking is one GLM (``fit_glm``) with an L2 penalty lambda on the
    weights beta; the intercept is unpenalized and outside the norm. The
    first solve is at ``LAMBDA_MIN``. With ``ball`` enabled and ||beta|| > 1
    there, a path in lambda pulls ||beta|| into [1 - BALL_TOL, 1]. Each step
    is Newton's on phi(lambda) = 1/||beta(lambda)|| - 1/(1 - BALL_TOL/2), the
    secular-equation step of More & Sorensen (1983): phi is concave, so
    Newton approaches its root from below, and it aims at the middle of the
    band to land inside it. dbeta/dlambda solves H theta' = -[beta; 0] with
    the penalised Hessian H of the last solve, and each solve starts from
    the previous one's parameters. The step is safeguarded by a bracket: the
    largest lambda solved with ||beta|| > 1 and the smallest with
    ||beta|| <= 1 (``lambda_max`` before there is one). A step that leaves
    the bracket takes the geometric mean of its ends; one that reaches
    ``lambda_max`` solves there, and if ||beta|| > 1 even there, that
    solution is returned with ``ball_warning`` set. After 60 steps the
    bracket's upper solution is returned. ``margins`` may pass precomputed
    ``ensemble.margins(x)``.
    """
    x, y = tune_segment
    x = np.asarray(x, dtype=np.float64)
    n_models = ensemble.n_models
    if x.shape[0] < n_models + 1:
        raise DataError(
            f"need at least {n_models + 1} tune rows to stack "
            f"{n_models} base models, got {x.shape[0]}"
        )
    if ball:
        _check_lambda_max(lambda_max)
    h = ensemble.margins(x) if margins is None else margins
    loss = ensemble.loss
    y = np.asarray(y, dtype=np.float64)
    design = _stage1_design(h, loss, fit_intercept)
    w = np.ones(len(y))

    def result(theta, lam, ball_warning=False):
        return _stage1_model(theta, loss, n_models, fit_intercept, lam, ball_warning)

    lam = LAMBDA_MIN
    theta, hess = fit_glm(design, y, loss, lam, w, n_models)
    norm = np.linalg.norm(theta[:n_models])
    if not ball or norm <= 1.0:
        return result(theta, lam)
    target = 1.0 / (1.0 - BALL_TOL / 2)
    lo, hi, inside = LAMBDA_MIN, lambda_max, None  # inside: the solve at hi, once there is one
    steps = 60
    for step in range(steps):
        beta = theta[:n_models]
        try:
            dtheta = np.linalg.solve(hess, -np.append(beta, np.zeros(len(theta) - n_models)))
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = -(beta @ dtheta[:n_models]) / norm**3
                lam_next = lam - (1.0 / norm - target) / slope
        except np.linalg.LinAlgError:
            lam_next = np.nan
        if inside is None and (lam_next >= lambda_max or step == steps - 1):
            # hi is still lambda_max, unsolved: a step that reaches it, or
            # the last step, solves there
            lam_next = lambda_max
        elif not lo < lam_next < hi:
            lam_next = float(np.sqrt(lo * hi))
        lam = float(lam_next)
        theta, hess = fit_glm(design, y, loss, lam, w, n_models, theta)
        norm = np.linalg.norm(theta[:n_models])
        if norm > 1.0:
            if lam == lambda_max:
                warnings.warn("unit-ball bisection hit lambda_max; returning that solution")
                return result(theta, lam, ball_warning=True)
            lo = lam
        elif norm >= 1.0 - BALL_TOL:
            return result(theta, lam)
        else:
            hi, inside = lam, theta
    return result(inside, hi)


def fit_stage2(
    tune_segment,
    stage1: Stage1Model,
    ensemble: BaseEnsemble,
    weight: WeightVector,
    refine_cfg: GBTConfig,
    margins: np.ndarray | None = None,
) -> GBTModel:
    """Weighted boosted refinement on top of the stage-1 margin."""
    x, y = tune_segment
    x = np.asarray(x, dtype=np.float64)
    if len(weight.values) != x.shape[0]:
        raise ValueError("weights are not aligned to the tune rows")
    delta = stage1.margin(ensemble.margins(x) if margins is None else margins)
    return fit_gbt(
        x,
        y,
        ensemble.loss,
        refine_cfg,
        sample_weight=weight.values,
        base_margin=delta,
    )


# ---------------------------------------------------------------------------
# Pooled baselines (dr / dr-sf)


@dataclass
class DRModel:
    """Global model refined on pooled per-segment weights."""

    task: TaskKind
    base: GBTModel
    refiner: GBTModel
    with_segment_features: bool
    n_segments: int
    segment_names: tuple
    feature_names: tuple

    def _expand(self, x, segments):
        if not self.with_segment_features:
            return np.asarray(x, dtype=np.float64)
        return np.hstack([x, segment_onehot(np.asarray(segments), self.n_segments)])

    def predict_margin(self, x, segments=None):
        fx = self._expand(x, segments)
        base = self.base.predict_margin(fx)
        return self.refiner.predict_margin(fx, base_margin=base)

    def predict(self, x, segments=None):
        margin = self.predict_margin(x, segments)
        if self.task.kind == "regression":
            return margin
        return losses.margin_to_proba(margin, task_loss(self.task))

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "dr-sf" if self.with_segment_features else "dr",
            "task": {"kind": self.task.kind, "n_classes": self.task.n_classes},
            "n_segments": self.n_segments,
            "segment_names": list(self.segment_names),
            "feature_names": list(self.feature_names),
            "base": self.base.to_dict(),
            "refiner": self.refiner.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DRModel":
        _check_format_version(d)
        task = TaskKind(d["task"]["kind"], d["task"]["n_classes"])
        with_segment_features = d["kind"] == "dr-sf"
        n_segments = json_number(d["n_segments"], "n_segments", integer=True)
        n_features = len(d["feature_names"]) + (n_segments if with_segment_features else 0)
        base, refiner = (
            _check_model(GBTModel.from_dict(d[role]), task_loss(task), n_features, role)
            for role in ("base", "refiner")
        )
        return cls(
            task=task,
            base=base,
            refiner=refiner,
            with_segment_features=with_segment_features,
            n_segments=n_segments,
            segment_names=tuple(d["segment_names"]),
            feature_names=tuple(d["feature_names"]),
        )


def _segment_weights(
    train: Dataset,
    rows: np.ndarray,
    eval_rows: np.ndarray,
    test_x: np.ndarray,
    test_rows: np.ndarray,
    config: MRConfig,
    classifier_margin,
) -> WeightVector:
    """Weights for one segment's ``eval_rows``, estimated per the config.

    ``rows`` are all the segment's training rows (used to fit the weight
    model where applicable); ``classifier_margin`` maps a feature matrix to
    margins for the label-shift path.
    """
    method = config.resolved_weight_method
    if method == "none":
        return uniform_weights(len(eval_rows), config.eta)
    seg_name = train.segment_names[train.segment_id[eval_rows[0]]]
    if len(test_rows) == 0:
        warnings.warn(
            f"segment {seg_name!r} missing from the test data; using uniform weights"
        )
        return uniform_weights(len(eval_rows), config.eta)
    if method == "discriminative":
        return fit_discriminative_weights(
            train.features[rows],
            test_x[test_rows],
            eta=config.eta,
            eval_x=train.features[eval_rows],
        )
    if method == "kmm":
        if len(eval_rows) > KMM_MAX_ROWS:
            raise DataError(
                f"segment {seg_name!r} has {len(eval_rows)} rows, over the "
                f"{KMM_MAX_ROWS}-row limit of KMM weights (their Gram is rows x rows)"
            )
        kernel = KernelSpec(config.bandwidth)
        return fit_kmm(
            train.features[eval_rows], test_x[test_rows], kernel=kernel, eta=config.eta
        )
    # bbse: held-out predicted labels on the eval rows vs test predictions
    k = train.task.n_classes
    src_pred = _predicted_classes(classifier_margin(train.features[eval_rows]))
    test_pred = _predicted_classes(classifier_margin(test_x[test_rows]))
    cw = fit_bbse(train.labels[eval_rows], src_pred, test_pred, k)
    return expand_class_weights(cw, train.labels[eval_rows], eta=config.eta)


def _pooled_weights(
    train: Dataset,
    rows: np.ndarray,
    test_x: np.ndarray,
    test_segments: np.ndarray,
    config: MRConfig,
    segment_margin,
) -> np.ndarray:
    """Importance weights of ``rows``, each estimated within its own segment.

    ``segment_margin(s)`` returns segment ``s``'s ``classifier_margin`` for
    ``_segment_weights``. Returns one weight per entry of ``rows``.
    """
    out = np.ones(len(rows))
    row_segments = train.segment_id[rows]
    for s in np.unique(row_segments):
        pos = np.flatnonzero(row_segments == s)
        seg_rows = rows[pos]
        test_rows = np.flatnonzero(test_segments == s)
        out[pos] = _segment_weights(
            train, seg_rows, seg_rows, test_x, test_rows, config, segment_margin(int(s))
        ).values
    return out


def _predicted_classes(margin: np.ndarray) -> np.ndarray:
    if margin.ndim == 1:
        return (margin > 0).astype(np.int64)
    return np.argmax(margin, axis=1).astype(np.int64)


def fit_dr(
    train: Dataset,
    test_features,
    config: MRConfig,
    with_segment_features: bool = False,
) -> DRModel:
    """Global unweighted model refined on pooled per-segment weights."""
    test_x, test_segments = test_features
    test_x = np.asarray(test_x, dtype=np.float64)
    test_segments = np.asarray(test_segments, dtype=np.int64)
    loss = task_loss(train.task)
    if config.resolved_weight_method == "bbse" and not train.task.is_classification:
        raise ValueError("bbse weights require a classification task")

    fx = train.features
    if with_segment_features:
        fx = np.hstack([fx, segment_onehot(train.segment_id, train.n_segments)])
    tag = int(with_segment_features)
    base = fit_gbt(
        fx, train.labels, loss, config.base.with_seed(derive_seed(config.seed, "dr-base", tag))
    )

    def segment_margin(s):
        def margin_fn(xm):
            if with_segment_features:
                seg = np.full(xm.shape[0], s, dtype=np.int64)
                xm = np.hstack([xm, segment_onehot(seg, train.n_segments)])
            return base.predict_margin(xm)

        return margin_fn

    pooled = _pooled_weights(train, np.arange(train.n), test_x, test_segments, config, segment_margin)
    refiner = fit_gbt(
        fx,
        train.labels,
        loss,
        config.refine.with_seed(derive_seed(config.seed, "dr-refine", tag)),
        sample_weight=pooled,
        base_margin=base.predict_margin(fx),
    )
    return DRModel(
        task=train.task,
        base=base,
        refiner=refiner,
        with_segment_features=with_segment_features,
        n_segments=train.n_segments,
        segment_names=train.segment_names,
        feature_names=train.feature_names,
    )


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class SegmentModel:
    stage1: Stage1Model
    refiner: GBTModel
    weight_summary: dict


@dataclass
class MRModel:
    task: TaskKind
    ensemble: BaseEnsemble
    segments: dict  # segment id -> SegmentModel
    segment_names: tuple
    feature_names: tuple
    config: MRConfig

    def predict_margin(self, x: np.ndarray, segments: np.ndarray) -> np.ndarray:
        """Margins of each row's segment model.

        A segment without a fitted model, one unseen at fit time, takes the
        all-segments base model's margin from the same ensemble pass.
        """
        x = np.asarray(x, dtype=np.float64)
        segments = np.asarray(segments, dtype=np.int64)
        # one ensemble pass serves every row; then each segment's head
        h = self.ensemble.margins(x)
        out = h[:, -1].copy()
        for s in np.unique(segments):
            seg_model = self.segments.get(int(s))
            if seg_model is None:
                continue
            rows = np.flatnonzero(segments == s)
            delta = seg_model.stage1.margin(h[rows])
            out[rows] = delta + seg_model.refiner.predict_margin(x[rows])
        return out

    def predict(self, x: np.ndarray, segments: np.ndarray) -> np.ndarray:
        margin = self.predict_margin(x, segments)
        if self.task.kind == "regression":
            return margin
        return losses.margin_to_proba(margin, task_loss(self.task))

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "mr",
            "task": {"kind": self.task.kind, "n_classes": self.task.n_classes},
            "config": self.config.to_dict(),
            "segment_names": list(self.segment_names),
            "feature_names": list(self.feature_names),
            "ensemble": self.ensemble.to_dict(),
            "segments": {
                str(s): {
                    "stage1": m.stage1.to_dict(),
                    "weight_summary": m.weight_summary,
                    "refiner": m.refiner.to_dict(),
                }
                for s, m in sorted(self.segments.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MRModel":
        _check_format_version(d)
        task = TaskKind(d["task"]["kind"], d["task"]["n_classes"])
        loss = task_loss(task)
        n_features = len(d["feature_names"])
        ensemble = BaseEnsemble.from_dict(d["ensemble"], loss)
        for i, m in enumerate(ensemble.models):
            _check_model(m, loss, n_features, f"base model {i}")
        segments = {
            int(s): SegmentModel(
                stage1=_check_stage1(
                    Stage1Model.from_dict(m["stage1"]), ensemble.n_models, loss, f"segment {s}"
                ),
                refiner=_check_model(
                    GBTModel.from_dict(m["refiner"]), loss, n_features, f"segment {s} refiner"
                ),
                weight_summary=m["weight_summary"],
            )
            for s, m in d["segments"].items()
        }
        return cls(
            task=task,
            ensemble=ensemble,
            segments=segments,
            segment_names=tuple(d["segment_names"]),
            feature_names=tuple(d["feature_names"]),
            config=MRConfig.from_dict(d["config"]),
        )


def _resolve_clusters(
    train: Dataset, config: MRConfig, max_auto: int | None = None
) -> tuple[SegmentDistanceMatrix | None, ClusterAssignment]:
    """(distance matrix, cluster assignment) for ``config.clusters``.

    An explicit assignment needs no matrix, which is then None. ``max_auto``
    caps the count that ``"auto"`` picks.
    """
    if isinstance(config.clusters, tuple):
        return None, ClusterAssignment(config.clusters)
    d = segment_distance_matrix(
        train,
        kernel=None if config.bandwidth == "median" else KernelSpec(config.bandwidth),
        max_per_segment=config.max_per_segment,
        seed=derive_seed(config.seed, "distance"),
        n_threads=config.n_threads,
    )
    if config.clusters == "auto":
        m = choose_num_clusters(d, config.min_cluster_size)
        if max_auto is not None and m > max_auto:
            # smallest tune fold must still fit an (m+1)-column stacking
            m = max(1, max_auto)
    else:
        m = config.clusters
    return d, cluster_segments(d, m)


@dataclass
class FitPlan:
    """Stage 1 of ``fit_mr``: the checked test features, the split and the clusters."""

    test_x: np.ndarray
    test_segments: np.ndarray
    tune_mask: np.ndarray  # bool over the training rows
    base_fold: Dataset
    assignment: ClusterAssignment
    segments: list  # training segment ids, ascending


@dataclass
class SegmentHead:
    """Stage 3 of ``fit_mr`` for one segment: what its refiner is fit on."""

    tune_rows: np.ndarray
    weights: WeightVector
    tune_margins: np.ndarray
    stage1: Stage1Model


def plan_fit(train: Dataset, test_features, config: MRConfig) -> FitPlan:
    """Check the inputs, split base/tune rows and assign segment clusters."""
    test_x, test_segments = test_features
    test_x = np.asarray(test_x, dtype=np.float64)
    test_segments = np.asarray(test_segments, dtype=np.int64)
    if test_x.shape[1] != train.d:
        raise ValueError("test features must match the training dimension")
    if config.resolved_weight_method == "bbse" and not train.task.is_classification:
        raise ValueError("bbse weights require a classification task")
    train_segs = set(int(s) for s in train.present_segments())
    if not train_segs & set(int(s) for s in np.unique(test_segments)):
        raise ValueError("train and test segment vocabularies do not overlap")

    split = split_base_tune(train, config.varsigma, config.seed)
    tune_mask = np.zeros(train.n, dtype=bool)
    tune_mask[split.tune_indices] = True
    min_tune = min(int(tune_mask[train.segment_rows(s)].sum()) for s in train_segs)
    return FitPlan(
        test_x=test_x,
        test_segments=test_segments,
        tune_mask=tune_mask,
        base_fold=train.subset(split.base_indices),
        assignment=_resolve_clusters(train, config, max_auto=min_tune - 2)[1],
        segments=sorted(train_segs),
    )


def fit_segment_head(
    train: Dataset, plan: FitPlan, ensemble: BaseEnsemble, config: MRConfig, s: int
) -> SegmentHead:
    """Segment ``s``'s importance weights, tune-row base margins and stage 1."""
    seg_rows = train.segment_rows(s)
    tune_rows = seg_rows[plan.tune_mask[seg_rows]]
    if len(tune_rows) < ensemble.n_models + 1:
        raise DataError(
            f"segment {train.segment_names[s]!r} has {len(tune_rows)} tune rows; "
            f"need at least {ensemble.n_models + 1}"
        )
    test_rows = np.flatnonzero(plan.test_segments == s)
    all_model = ensemble.models[-1]
    wv = _segment_weights(
        train, seg_rows, tune_rows, plan.test_x, test_rows, config,
        lambda xm: all_model.predict_margin(xm),
    )
    tune_margins = ensemble.margins(train.features[tune_rows])
    stage1 = fit_stage1(
        (train.features[tune_rows], train.labels[tune_rows]),
        ensemble,
        ball=config.ball,
        lambda_max=config.lambda_max,
        fit_intercept=config.fit_intercept,
        margins=tune_margins,
    )
    return SegmentHead(tune_rows=tune_rows, weights=wv, tune_margins=tune_margins, stage1=stage1)


def _config_key(config: MRConfig, *without: str) -> tuple:
    """The config's fields other than ``without``, as a hashable key."""
    return tuple((f.name, getattr(config, f.name)) for f in fields(config) if f.name not in without)


def _memo(table: dict, key, compute):
    """``table[key]``, computed on first use; a ``compute`` that raises stores nothing."""
    if key not in table:
        table[key] = compute()
    return table[key]


def _rounds_memo(table: dict, key, rounds: int, fit):
    """A boosted fit of ``rounds`` rounds, served from the longest fit kept under ``key``.

    ``table[key]`` holds (rounds, model) of the fit with the most rounds so
    far. A request for at most that many takes its first rounds; a request
    for more calls ``fit()`` and replaces the entry. A ``fit`` that raises
    stores nothing.
    """
    if key not in table or table[key][0] < rounds:
        table[key] = (rounds, fit())
    held, model = table[key]
    return model if held == rounds else model.first_rounds(rounds)


class FitStages:
    """Stage results shared by ``fit_mr`` calls on one ``(train, test_features)`` pair.

    Each stage is keyed on the ``MRConfig`` fields it reads:

    - the plan (stage 1): every field but ``base`` and ``refine``;
    - the base ensemble (stage 2): every field but ``refine`` and the base
      ``n_estimators``;
    - each segment's head (stage 3): its base point, every field but
      ``refine``, since it reads the ensemble's margins and the BBSE weights
      use the all-segments base model;
    - each segment's refiner (stage 4): its base point, its segment and the
      ``refine`` settings but their ``n_estimators``.

    Stages 2 and 4 keep the fit with the most rounds asked for so far and
    serve a smaller ``n_estimators`` as its first rounds. Boosting is
    stagewise, so that is the same bytes as a fit of that many rounds.
    """

    def __init__(self, train: Dataset, test_features):
        self.train = train
        self.test_features = test_features
        self.plans: dict = {}
        self.ensembles: dict = {}  # base settings but rounds -> (rounds, BaseEnsemble)
        self.heads: dict = {}  # base key -> (BaseEnsemble, {segment id: SegmentHead})
        self.refiners: dict = {}  # (base key, segment id, refine but rounds) -> (rounds, GBTModel)


def fit_mr(
    train: Dataset, test_features, config: MRConfig, *, stages: FitStages | None = None
) -> MRModel:
    """Run the full pipeline and return the per-segment refined model.

    ``test_features`` is an (x, segment_ids) pair with ids in the training
    dataset's segment vocabulary. The pipeline runs in four stages:

    1. ``plan_fit``: input checks, the base/tune split and the cluster
       assignment (MMD distance matrix and Ward cut);
    2. ``fit_base_ensemble``: one model per cluster plus the all-segments
       model, on the base fold;
    3. ``fit_segment_head``, per segment: importance weights, the tune
       rows' base margins and the stage-1 stacking (``fit_stage1``);
    4. ``fit_stage2``, per segment: the weighted refiner.

    ``config.n_threads`` sets the workers of the distance matrix only.
    ``stages``, a ``FitStages`` built for this ``(train, test_features)``
    pair, keeps the results of every stage for later calls with other
    ``base`` or ``refine`` settings. A call whose only change is a smaller
    ``n_estimators`` takes the first rounds of the kept ensemble or
    refiners rather than fitting again. The model is the same bytes as a
    fit without ``stages``.
    """
    if stages is None:
        stages = FitStages(train, test_features)
    elif stages.train is not train or stages.test_features is not test_features:
        raise ValueError("fit stages were built for another (train, test_features) pair")
    plan_key = _config_key(config, "base", "refine")
    plan = _memo(stages.plans, plan_key, lambda: plan_fit(train, test_features, config))
    base_key = _config_key(config, "refine")

    def base_point():
        ensemble = _rounds_memo(
            stages.ensembles,
            (plan_key, replace(config.base, n_estimators=0)),
            config.base.n_estimators,
            lambda: fit_base_ensemble(
                plan.base_fold, plan.assignment, config.base.with_seed(config.seed)
            ),
        )
        return ensemble, {}

    ensemble, heads = _memo(stages.heads, base_key, base_point)
    refine_key = replace(config.refine, n_estimators=0)

    def fit_one_segment(s: int) -> SegmentModel:
        head = _memo(heads, s, lambda: fit_segment_head(train, plan, ensemble, config, s))
        refine_cfg = config.refine.with_seed(
            derive_seed(config.seed, "refine", index_digest(head.tune_rows))
        )
        tune_xy = (train.features[head.tune_rows], train.labels[head.tune_rows])
        refiner = _rounds_memo(
            stages.refiners, (base_key, s, refine_key), config.refine.n_estimators,
            lambda: fit_stage2(
                tune_xy, head.stage1, ensemble, head.weights, refine_cfg,
                margins=head.tune_margins,
            ),
        )
        return SegmentModel(
            stage1=head.stage1, refiner=refiner, weight_summary=head.weights.summary()
        )

    return MRModel(
        task=train.task,
        ensemble=ensemble,
        segments={s: fit_one_segment(s) for s in plan.segments},
        segment_names=train.segment_names,
        feature_names=train.feature_names,
        config=config,
    )
