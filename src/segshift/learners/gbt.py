"""Second-order gradient boosted trees with histogram splits and base margins.

Rows are binned once into per-feature quantile bins; each round fits one
regression tree (K trees for softmax, one per class) to the gradient and
hessian of the loss at the current margin. Split gain and leaf values use
the standard second-order formulas with an L2 leaf penalty.

A node's split search reads a per-bin histogram of its rows. Only the
smaller child of a split gets one built from its rows; its sibling's is
the parent's minus it (the histogram subtraction of LightGBM and XGBoost).
The grower's partition of the rows also gives the new training margin.

Two determinism guarantees beyond seeding: training rows are put into a
canonical content order before fitting, so fitted models are invariant to
input row order, and sample weights are rescaled to mean one, so models
are invariant to the overall weight scale.

Prediction packs trees into one flat forest of tree groups, one group per
(model, class), and walks it once: every row descends every tree for
exactly the forest's depth, because leaves route to themselves. Each
group's leaf values are then summed sequentially in round order, so a
row's margin is the same bits whatever batch it is predicted in.
"""

import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from .._seeds import make_rng
from . import losses
from .losses import LossKind


@dataclass(frozen=True)
class GBTConfig:
    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    min_child_weight: float = 1.0
    leaf_l2: float = 1.0
    n_bins: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("n_estimators", "max_depth", "n_bins"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not (0.0 < self.subsample <= 1.0 and 0.0 < self.colsample_bytree <= 1.0):
            raise ValueError("subsample and colsample_bytree must be in (0, 1]")
        for name in ("learning_rate", "min_child_weight", "leaf_l2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.min_child_weight < 0.0 or self.leaf_l2 < 0.0:
            raise ValueError("min_child_weight and leaf_l2 must be >= 0")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")

    def with_seed(self, seed: int) -> "GBTConfig":
        return replace(self, seed=seed)


def cluster_base_config(seed: int = 0, **overrides) -> GBTConfig:
    """Defaults for models trained on segment clusters."""
    cfg = dict(
        n_estimators=200,
        max_depth=3,
        learning_rate=0.1,
        subsample=0.8,
        colsample_bytree=1.0,
        seed=seed,
    )
    cfg.update(overrides)
    return GBTConfig(**cfg)


def refine_config(seed: int = 0, **overrides) -> GBTConfig:
    """Defaults for the margin-refinement step."""
    cfg = dict(
        n_estimators=25,
        max_depth=2,
        learning_rate=0.3,
        subsample=1.0,
        colsample_bytree=1.0,
        seed=seed,
    )
    cfg.update(overrides)
    return GBTConfig(**cfg)


@dataclass
class Tree:
    """One regression tree as flat node arrays; leaves have feature == -1.

    Children come after their parent (``parent < child < n_nodes``), so
    every path ends. Fitted trees are built that way; ``GBTModel.from_dict``
    checks it for the trees it reads.
    """

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64, predicate: x[feature] < threshold goes left
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64
    class_k: int = 0

    def to_dict(self) -> dict:
        return {
            "class_k": self.class_k,
            "nodes": [
                {
                    "feature": int(self.feature[i]),
                    "threshold": float(self.threshold[i]),
                    "left": int(self.left[i]),
                    "right": int(self.right[i]),
                    "value": float(self.value[i]),
                }
                for i in range(len(self.feature))
            ],
        }


def _index_field(nodes: list, key: str) -> np.ndarray:
    """One int32 index field of every node, rejecting non-integers.

    The field is read with the dtype JSON gave it, so that ``1.5`` is
    rejected rather than truncated to ``1``, and must fit int32.
    """
    raw = np.array([n[key] for n in nodes])
    if raw.dtype.kind not in "iu":
        raise ValueError(f"tree node {key!r} values are not all integers")
    out = raw.astype(np.int32)
    if np.any(out != raw):
        raise ValueError(f"tree node {key!r} value outside the int32 range")
    return out


def _read_trees(docs: list, n_features: int) -> list:
    """Trees from their dicts, rejecting node links a walk could not follow.

    An internal node (feature != -1) must split on a feature in
    [0, n_features) and name two children in (node, n_nodes) of its tree.
    The model's nodes are read into one array per field, and the trees are
    views of them: numpy calls per tree would cost more than the parse.
    """
    if not docs:
        return []
    sizes = np.asarray([len(t["nodes"]) for t in docs], dtype=np.intp)
    if np.any(sizes == 0):
        raise ValueError("tree has no nodes")
    nodes = [n for t in docs for n in t["nodes"]]
    feature, left, right = (_index_field(nodes, key) for key in ("feature", "left", "right"))
    threshold, value = (
        np.array([n[key] for n in nodes], dtype=np.float64) for key in ("threshold", "value")
    )
    starts = np.cumsum(sizes) - sizes
    internal = feature != -1
    node = (np.arange(len(feature)) - np.repeat(starts, sizes))[internal]
    n_nodes = np.repeat(sizes, sizes)[internal]
    if np.any((feature[internal] < 0) | (feature[internal] >= n_features)):
        raise ValueError(f"tree splits on a feature outside [0, {n_features})")
    for side, child in (("left", left[internal]), ("right", right[internal])):
        if np.any((child <= node) | (child >= n_nodes)):
            raise ValueError(f"tree {side} child index is not in (node, n_nodes)")
    return [
        Tree(
            feature=feature[i : i + m],
            threshold=threshold[i : i + m],
            left=left[i : i + m],
            right=right[i : i + m],
            value=value[i : i + m],
            class_k=int(t["class_k"]),
        )
        for t, i, m in zip(docs, starts.tolist(), sizes.tolist())
    ]


# Elements of one (trees, rows) work array: the row chunk of a traversal is
# this divided by the tree count, so memory does not grow with the forest.
_CHUNK_ELEMENTS = 1 << 17


# A single leaf of value 0.0 pads short groups at their end: adding 0.0
# leaves a sum unchanged.
_ZERO_TREE = Tree(
    feature=np.array([-1], dtype=np.int32),
    threshold=np.zeros(1),
    left=np.array([-1], dtype=np.int32),
    right=np.array([-1], dtype=np.int32),
    value=np.zeros(1),
)


class _PackedForest:
    """Groups of trees in flat node arrays, walked in one fixed-depth pass.

    Leaves route to themselves (left = right = self, feature 0), so after
    ``depth`` steps every row sits at its leaf in every tree, with no test
    for rows still moving. Short groups are padded at their end with zero
    trees, so the leaves of a chunk form one (groups, trees, rows) block.
    """

    def __init__(self, groups):
        self.n_groups = len(groups)
        self.group_size = max((len(g) for g in groups), default=0)
        trees = [
            t for g in groups for t in [*g, *[_ZERO_TREE] * (self.group_size - len(g))]
        ]
        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        self.depth = 0
        if not trees:
            return
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        leaf = feature < 0
        node = np.arange(len(feature))
        left = np.concatenate([t.left + r for t, r in zip(trees, self.roots)]).astype(np.intp)
        right = np.concatenate([t.right + r for t, r in zip(trees, self.roots)]).astype(np.intp)
        self.left = np.where(leaf, node, left)
        self.right = np.where(leaf, node, right)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, 0.0, np.concatenate([t.threshold for t in trees]))
        self.value = np.concatenate([t.value for t in trees])
        # children follow their parent, so the frontier empties within n_nodes levels
        frontier = self.roots[~leaf[self.roots]]
        while frontier.size:
            self.depth += 1
            children = np.concatenate([left[frontier], right[frontier]])
            frontier = np.unique(children[~leaf[children]])

    def sums(self, x: np.ndarray) -> np.ndarray:
        """(n, n_groups): each group's leaf values summed over its trees in order."""
        n, d = x.shape
        n_trees = len(self.roots)
        out = np.zeros((n, self.n_groups))
        if n_trees == 0:
            return out
        chunk = max(1, _CHUNK_ELEMENTS // n_trees)
        for start in range(0, n, chunk):
            xc = np.ascontiguousarray(x[start : start + chunk]).ravel()
            m = len(xc) // d
            row_base = np.arange(m) * d
            node = np.repeat(self.roots, m).reshape(n_trees, m)
            for _ in range(self.depth):
                go_left = xc.take(self.feature.take(node) + row_base) < self.threshold.take(node)
                node = np.where(go_left, self.left.take(node), self.right.take(node))
            leaves = self.value.take(node).reshape(self.n_groups, self.group_size, m)
            # cumsum adds tree after tree at every chunk size; a reduction
            # would switch to pairwise sums for a single row
            out[start : start + m] = leaves.cumsum(axis=1)[:, -1].T
        return out


_PACK_LOCK = threading.Lock()


def cached_forest(owner, groups) -> _PackedForest:
    """The forest of ``groups()``, packed on first use and kept on ``owner``.

    Safe when threads share ``owner``: the pack is built once, under a lock.
    """
    forest = owner.__dict__.get("_packed")
    if forest is None:
        with _PACK_LOCK:
            forest = owner.__dict__.get("_packed")
            if forest is None:
                forest = _PackedForest(groups())
                owner.__dict__["_packed"] = forest
    return forest


@dataclass
class GBTModel:
    loss: LossKind
    n_features: int
    trees: list
    init_margin: np.ndarray | None  # (W,) constant, or None when trained on an external margin
    learning_rate: float

    def tree_groups(self) -> list:
        """This model's trees per class, each in round order."""
        return [
            [t for t in self.trees if t.class_k == k] for k in range(self.loss.margin_width)
        ]

    def predict_margin(
        self, x: np.ndarray, base_margin: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw margins; an external base margin is added only when supplied."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) features")
        w = self.loss.margin_width
        out = np.zeros((x.shape[0], w))
        if self.init_margin is not None:
            out += self.init_margin
        if self.trees:
            out += cached_forest(self, self.tree_groups).sums(x)
        if base_margin is not None:
            out += np.asarray(base_margin, dtype=np.float64).reshape(x.shape[0], w)
        return out[:, 0] if w == 1 else out

    def predict_proba(
        self, x: np.ndarray, base_margin: np.ndarray | None = None
    ) -> np.ndarray:
        return losses.margin_to_proba(self.predict_margin(x, base_margin), self.loss)

    def to_dict(self) -> dict:
        return {
            "model": "gbt",
            "loss": self.loss.name,
            "n_classes": self.loss.n_classes,
            "n_features": self.n_features,
            "learning_rate": self.learning_rate,
            "init_margin": None if self.init_margin is None else self.init_margin.tolist(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GBTModel":
        loss = LossKind(d["loss"], d["n_classes"])
        n_features = int(d["n_features"])
        width = loss.margin_width
        init = d["init_margin"]
        if init is not None:
            init = np.asarray(init, dtype=np.float64)
            if init.shape != (width,):
                raise ValueError(f"init_margin must hold {width} values")
        trees = _read_trees(d["trees"], n_features)
        if any(not 0 <= t.class_k < width for t in trees):
            raise ValueError(f"tree class_k outside [0, {width})")
        return cls(
            loss=loss,
            n_features=n_features,
            trees=trees,
            init_margin=init,
            learning_rate=float(d["learning_rate"]),
        )


def _bin_features(x: np.ndarray, n_bins: int):
    """Quantile bin edges per feature and the binned integer codes."""
    n, d = x.shape
    qs = np.arange(1, n_bins) / n_bins
    edges = []
    codes = np.empty((n, d), dtype=np.int32)
    for j in range(d):
        col = x[:, j]
        e = np.unique(np.quantile(col, qs))
        # drop edges below every value or above every value: they split nothing
        e = e[(e > col.min()) & (e <= col.max())]
        edges.append(e)
        codes[:, j] = np.searchsorted(e, col, side="right")
    return edges, codes


def _canonical_order(x, y, w, base_margin):
    keys = [w, y.astype(np.float64)]
    if base_margin is not None:
        bm = base_margin.reshape(len(y), -1)
        keys = [bm[:, j] for j in range(bm.shape[1] - 1, -1, -1)] + keys
    for j in range(x.shape[1] - 1, -1, -1):
        keys.append(x[:, j])
    return np.lexsort(tuple(keys))


def _histogram(flat, n_bins, g, h, rows):
    """(3, n_cols, n_bins) sums of g, of h and of 1 over ``rows`` per (column, bin).

    ``flat`` is (n_cols, n): column i's bin codes shifted by i * n_bins.
    """
    n_cols = flat.shape[0]
    size = n_cols * n_bins
    idx = flat.take(rows, axis=1).ravel()
    hist = np.empty((3, size))
    hist[0] = np.bincount(idx, weights=np.tile(g[rows], n_cols), minlength=size)
    hist[1] = np.bincount(idx, weights=np.tile(h[rows], n_cols), minlength=size)
    hist[2] = np.bincount(idx, minlength=size)
    return hist.reshape(3, n_cols, n_bins)


class _TreeGrower:
    """Grows one tree at a time on the binned training rows.

    A node's histogram is one (3, n_cols, max_bins) array of gradient sums,
    hessian sums and row counts per (sampled column, bin). Only the smaller
    child of a split (by row count, ties go left) gets one built from its
    rows; its sibling's is the parent's minus it. Children at ``max_depth``
    get none, and a child's g and h sums come from the parent's histogram.

    Out-of-bag rows are partitioned by the same ``bin <= b`` test as in-bag
    ones, so each leaf's value lands on all of its rows: ``x < edges[b]`` is
    exactly ``bin <= b``, so this is a walk of the fitted tree, bit for bit.
    """

    def __init__(self, codes, edges, cfg):
        self.edges = edges
        self.cfg = cfg
        self.max_bins = max((len(e) + 1 for e in edges), default=1)
        # feature j's bins, shifted to [j * max_bins, (j + 1) * max_bins)
        self.flat = np.ascontiguousarray(codes.T, dtype=np.intp)
        self.flat += (np.arange(codes.shape[1]) * self.max_bins)[:, None]

    def grow(self, g, h, rows, oob, cols):
        """A tree fitted on in-bag ``rows`` over ``cols``: its node arrays,
        then its value at each of the n rows, ``rows`` and ``oob`` alike.
        """
        cfg = self.cfg
        nb = self.max_bins
        nc = len(cols)
        # the sampled columns' bins, shifted to [i * nb, (i + 1) * nb)
        flat = self.flat[cols] - ((cols - np.arange(nc)) * nb)[:, None]
        nodes = []  # [feature, threshold, left, right, value] in pre-order
        fitted = np.empty(len(g))
        root = _histogram(flat, nb, g, h, rows) if cfg.max_depth > 0 else None
        # (rows, out-of-bag rows, g sum, h sum, histogram, depth, parent if a right child)
        stack = [(rows, oob, float(g[rows].sum()), float(h[rows].sum()), root, 0, None)]
        # gains divide by zero only where a split is invalid
        with np.errstate(divide="ignore", invalid="ignore"):
            while stack:
                rows, oob, gs, hs, hist, depth, parent = stack.pop()
                if parent is not None:
                    parent[3] = len(nodes)
                split = None if hist is None else self._best_split(hist, gs, hs, len(rows))
                if split is None:
                    denom = hs + cfg.leaf_l2
                    val = 0.0 if denom <= 0 else -gs / denom * cfg.learning_rate
                    fitted[rows] = val
                    fitted[oob] = val
                    nodes.append([-1, 0.0, -1, -1, val])
                    continue
                i, b, gl, hl = split
                j = int(cols[i])
                # the left child is popped next, so it takes the next index
                node = [j, float(self.edges[j][b]), len(nodes) + 1, -1, 0.0]
                nodes.append(node)
                go_left = flat[i].take(rows) <= i * nb + b
                oob_left = flat[i].take(oob) <= i * nb + b
                rows_l, rows_r = rows[go_left], rows[~go_left]
                hist_l = hist_r = None
                if depth + 1 < cfg.max_depth:
                    if len(rows_l) <= len(rows_r):
                        hist_l = _histogram(flat, nb, g, h, rows_l)
                        hist_r = hist - hist_l
                    else:
                        hist_r = _histogram(flat, nb, g, h, rows_r)
                        hist_l = hist - hist_r
                stack.append((rows_r, oob[~oob_left], gs - gl, hs - hl, hist_r, depth + 1, node))
                stack.append((rows_l, oob[oob_left], gl, hl, hist_l, depth + 1, None))
        feat, thr, left, right, value = (np.asarray(v) for v in zip(*nodes))
        i32 = np.int32
        return feat.astype(i32), thr, left.astype(i32), right.astype(i32), value, fitted

    def _best_split(self, hist, gs, hs, n_rows):
        """The best split as (column position, bin, left g sum, left h sum), or None."""
        cfg = self.cfg
        lam = cfg.leaf_l2
        parent = gs * gs / (hs + lam) if hs + lam > 0 else 0.0
        # bin b sends bins <= b left; the last bin sends every row left, and
        # cl < n_rows rules it out
        gl, hl, cl = hist.cumsum(axis=2)
        gr = gs - gl
        hr = hs - hl
        h_min = np.minimum(hl, hr)
        valid = (cl > 0) & (cl < n_rows) & (h_min >= cfg.min_child_weight) & (h_min + lam > 0)
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        gains[~valid] = -np.inf
        # row-major argmax: ties go to the smallest (feature, bin) pair
        idx = int(np.argmax(gains))
        if gains.flat[idx] <= 0.0:
            return None
        i, b = divmod(idx, self.max_bins)
        return i, b, float(gl[i, b]), float(hl[i, b])


def fit_gbt(
    x: np.ndarray,
    y: np.ndarray,
    loss: LossKind,
    cfg: GBTConfig,
    sample_weight: np.ndarray | None = None,
    base_margin: np.ndarray | None = None,
) -> GBTModel:
    """Train a boosted-tree model.

    ``base_margin`` (per-row, (n,) or (n, K) for softmax) shifts the
    starting margin; the fitted trees are then an additive correction and
    the model's own predictions exclude the margin unless it is passed
    again at prediction time. Without it, training starts from the
    constant weighted-loss minimizer (zeros for softmax).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be (n, d)")
    n, d = x.shape
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError("y must be length n")
    if loss.is_classification:
        y = y.astype(np.int64)
        k_max = loss.n_classes if loss.name == "softmax" else 2
        if y.min() < 0 or y.max() >= k_max:
            raise ValueError("class labels out of range")
    else:
        y = y.astype(np.float64)
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("sample_weight must be length n, finite and nonnegative")
    if w.sum() <= 0:
        raise ValueError("sample weights sum to zero")
    w = w / w.mean()  # weight-scale invariance
    width = loss.margin_width
    if base_margin is not None:
        base_margin = np.asarray(base_margin, dtype=np.float64).reshape(n, width)

    order = _canonical_order(x, y, w, base_margin)
    x, y, w = x[order], y[order], w[order]
    if base_margin is not None:
        base_margin = base_margin[order]

    edges, codes = _bin_features(x, cfg.n_bins)
    if base_margin is not None:
        margin = base_margin.copy()
        init = None
    else:
        init = losses.initial_margin(loss, y, w)
        margin = np.tile(init, (n, 1))

    rng = make_rng(cfg.seed)
    grower = _TreeGrower(codes, edges, cfg)
    trees: list[Tree] = []
    n_sub = max(1, int(round(cfg.subsample * n)))
    n_cols = max(1, int(round(cfg.colsample_bytree * d)))

    for _ in range(cfg.n_estimators):
        m = margin[:, 0] if width == 1 else margin
        g, h = losses.grad_hess(loss, y, m)
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(h)):
            raise ValueError("non-finite gradients during boosting")
        g = g.reshape(n, width) * w[:, None]
        h = h.reshape(n, width) * w[:, None]
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rng.permutation(n)[:n_sub] if cfg.subsample < 1.0 else slice(None)] = True
        rows, oob = np.flatnonzero(in_bag), np.flatnonzero(~in_bag)
        for k in range(width):
            if cfg.colsample_bytree < 1.0:
                cols = np.sort(rng.permutation(d)[:n_cols])
            else:
                cols = np.arange(d)
            *arrays, fitted = grower.grow(g[:, k], h[:, k], rows, oob, cols)
            trees.append(Tree(*arrays, class_k=k))
            margin[:, k] += fitted

    return GBTModel(
        loss=loss,
        n_features=d,
        trees=trees,
        init_margin=init,
        learning_rate=cfg.learning_rate,
    )
