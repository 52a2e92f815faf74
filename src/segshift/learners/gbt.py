"""Second-order gradient boosted trees with histogram splits and base margins.

Rows are binned once into per-feature quantile bins, keeping only the bins
that training values fall in (LightGBM likewise gives a column no more bins
than it has distinct values); each round fits one regression tree (K trees
for softmax, one per class) to the gradient and hessian of the loss at the
current margin. Split gain and leaf values use the standard second-order
formulas with an L2 leaf penalty.

A node's split search reads a per-bin histogram of its rows. Only the
smaller child of a split gets one built from its rows; its sibling's is
the parent's minus it (the histogram subtraction of LightGBM and XGBoost).
The grower's partition of the rows also gives the new training margin.

Two determinism guarantees beyond seeding: training rows are put into a
canonical content order before fitting, so fitted models are invariant to
input row order, and sample weights are rescaled to mean one, so models
are invariant to the overall weight scale.

A model's trees are one ``Forest`` record of flat node arrays, from the
grower (joined once per fit) to the JSON, which holds the same arrays as
node columns: one list per node field, plus each tree's node count and
class (as XGBoost's JSON model stores each tree as parallel arrays).
Prediction concatenates the records of one or more models into one packed
forest of tree groups, one group per (model, class), and walks it once:
every row descends every tree for exactly the forest's depth, because
leaves route to themselves. Each node's two children sit side by side, so
a step is one gather at ``2 node + (x < threshold)``; the first step
compares each row with the roots by broadcast, and the last reads leaf
values straight from the pair of children. Each group's leaf values are
then summed sequentially in round order, so a row's margin is the same
bits whatever batch it is predicted in.
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


_NODE_FIELDS = ("feature", "threshold", "left", "right", "value")


@dataclass(eq=False)
class Forest:
    """Every tree of a model as flat node arrays, tree after tree.

    Tree ``i`` holds nodes ``offsets[i]:offsets[i + 1]`` and adds to margin
    column ``class_k[i]``; leaves have feature == -1. Child indices are
    local to their tree, as in the JSON, and come after their parent
    (``node < child < n_nodes``), so every path ends. Fitted trees are built
    that way; ``GBTModel.from_dict`` checks it for the trees it reads. The
    JSON form (``to_dict``) is these arrays as lists, with ``n_nodes`` in
    place of ``offsets``.
    """

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64, predicate: x[feature] < threshold goes left
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64
    offsets: np.ndarray  # intp, (n_trees + 1,)
    class_k: np.ndarray  # int32, (n_trees,)

    def __len__(self) -> int:
        return len(self.class_k)

    @classmethod
    def join(cls, trees: list, class_k: list) -> "Forest":
        """The record of trees given as (feature, threshold, left, right, value) sequences."""
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64)
        return cls(
            *(np.array([v for t in trees for v in t[j]], dtype=dt) for j, dt in enumerate(dtypes)),
            offsets=np.array([0, *(len(t[0]) for t in trees)], dtype=np.intp).cumsum(),
            class_k=np.asarray(class_k, dtype=np.int32),
        )

    def to_dict(self) -> dict:
        """The trees as JSON node columns, nodes tree after tree.

        ``{"feature", "threshold", "left", "right", "value"}``: one list per
        node field; ``"n_nodes"`` and ``"class_k"``: one value per tree.
        """
        d = {key: getattr(self, key).tolist() for key in _NODE_FIELDS}
        d["n_nodes"] = np.diff(self.offsets).tolist()
        d["class_k"] = self.class_k.tolist()
        return d


def json_numbers(values, what: str, integer: bool = False) -> np.ndarray:
    """A JSON list of numbers as float64, or of integers as int64 with ``integer``.

    Any other value is rejected: a boolean, a string, a null or a nested
    list, where numpy would read ``true`` as 1 and ``"0.5"`` as 0.5, and
    with ``integer`` a fraction, so that ``1.5`` is not truncated to ``1``.
    The check is one pass over the list's types.
    """
    kinds, dtype, kind_name = (
        ({int}, np.int64, "integers") if integer else ({int, float}, np.float64, "numbers")
    )
    if type(values) is not list or not set(map(type, values)) <= kinds:
        raise ValueError(f"{what} values are not all {kind_name}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{what} value outside the int64 range") from None


def json_number(value, what: str, integer: bool = False):
    """``value``, once it is a JSON number (an integer with ``integer``) and not a boolean."""
    kinds, kind_name = (int, "an integer") if integer else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{what} {value!r} is not {kind_name}")
    return value


def _index_column(doc: dict, key: str, what: str = "tree node") -> np.ndarray:
    """One int32 index column of the trees: JSON integers (``json_numbers``) that fit int32."""
    raw = json_numbers(doc[key], f"{what} {key!r}", integer=True)
    out = raw.astype(np.int32)
    if np.any(out != raw):
        raise ValueError(f"{what} {key!r} value outside the int32 range")
    return out


def _read_trees(doc: dict, n_features: int, width: int) -> Forest:
    """The forest of the JSON node columns, rejecting what a walk could not follow.

    Each tree needs a node and a class_k in [0, width), and each node column
    one value per node. An internal node (feature != -1) must split on a
    feature in [0, n_features) and name two children in (node, n_nodes) of
    its tree. Every check is one numpy expression over the whole column.
    """
    sizes = _index_column(doc, "n_nodes", what="tree")
    class_k = _index_column(doc, "class_k", what="tree")
    if len(class_k) != len(sizes):
        raise ValueError(f"tree 'class_k' has {len(class_k)} values for {len(sizes)} trees")
    if np.any(sizes < 1):
        raise ValueError("tree has no nodes")
    if np.any((class_k < 0) | (class_k >= width)):
        raise ValueError(f"tree class_k outside [0, {width})")
    offsets = np.append(0, sizes.cumsum(dtype=np.intp))
    feature, left, right = (_index_column(doc, key) for key in ("feature", "left", "right"))
    threshold, value = (
        json_numbers(doc[key], f"tree node {key!r}") for key in ("threshold", "value")
    )
    for key, column in zip(_NODE_FIELDS, (feature, threshold, left, right, value)):
        if column.shape != (offsets[-1],):
            raise ValueError(
                f"tree node {key!r} has {column.size} values for {offsets[-1]} nodes"
            )
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise ValueError("tree node threshold or value is not finite")
    internal = feature != -1
    node = (np.arange(len(feature)) - np.repeat(offsets[:-1], sizes))[internal]
    n_nodes = np.repeat(sizes, sizes)[internal]
    if np.any((feature[internal] < 0) | (feature[internal] >= n_features)):
        raise ValueError(f"tree splits on a feature outside [0, {n_features})")
    for side, child in (("left", left[internal]), ("right", right[internal])):
        if np.any((child <= node) | (child >= n_nodes)):
            raise ValueError(f"tree {side} child index is not in (node, n_nodes)")
    return Forest(feature, threshold, left, right, value, offsets, class_k)


# Elements of one (trees, rows) work array: the row chunk of a traversal is
# this divided by the tree count, so memory does not grow with the forest.
_CHUNK_ELEMENTS = 1 << 17


class _PackedForest:
    """Forests in one set of flat node arrays, walked in one fixed-depth pass.

    The forests, at least one tree among them, are concatenated node by
    node, each child index shifted by its tree's first node, and one zero
    leaf is added at the end. Leaves route to themselves (both children
    self, feature 0, whatever the threshold), so after ``depth`` steps every
    row sits at its leaf in every tree, with no test for rows still moving.

    Node i's children are paired: its right child is ``children[2 i]`` and
    its left child ``children[2 i + 1]``, so a row at node i moves to
    ``children[2 i + (x[feature] < threshold)]``, one gather in place of
    two and a select (the fixed-depth predication walk of Asadi, Lin and de
    Vries, IEEE TKDE 2014). ``child_value`` is ``value[children]``, so the
    last step reads the leaf value where it would read the child; a depth-0
    forest reads ``child_value[2 root]``. Every row starts at its tree's
    root, so the first step compares the rows' values at ``root_feature``
    with ``root_threshold`` by broadcast, with no gather per (tree, row).

    The trees form one group per (forest, class), each in round order; the
    zero leaf pads short groups at their end, so the leaves of a chunk form
    one (groups, trees, rows) block, and its 0.0 leaves a group's sum as is.
    The block is summed over its tree axis, which adds tree after tree
    while the rows axis is the fast one; numpy sums pairwise only along
    the fast axis. A one-row chunk makes the tree axis the fast one, so it
    takes a cumsum instead, which is sequential: one row gets the bits it
    gets in any batch.
    """

    def __init__(self, forests: list, width: int):
        self.n_groups = len(forests) * width
        shift = np.cumsum([0, *(f.offsets[-1] for f in forests)], dtype=np.intp)
        starts = np.concatenate([f.offsets[:-1] + s for f, s in zip(forests, shift)])
        group = np.concatenate([r * width + f.class_k for r, f in enumerate(forests)])
        counts = np.bincount(group, minlength=self.n_groups)
        self.group_size = int(counts.max(initial=0))
        # a stable sort keeps each group's trees in round order
        order = np.argsort(group, kind="stable")
        slot = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
        roots = np.full((self.n_groups, self.group_size), shift[-1])
        roots[group[order], slot] = starts[order]
        self.roots = roots.ravel()
        feature, threshold, left, right, value = (
            np.concatenate([*(getattr(f, key) for f in forests), [zero_leaf]])
            for key, zero_leaf in zip(_NODE_FIELDS, (-1, 0.0, -1, -1, 0.0))
        )
        leaf, node = feature < 0, np.arange(len(feature))
        first = np.append(starts, shift[-1])  # the zero leaf is a one-node tree
        base = np.repeat(first, np.diff(first, append=shift[-1] + 1))  # each node's tree start
        left, right = (np.where(leaf, node, c + base) for c in (left, right))
        self.children = np.stack([right, left], axis=1).ravel()  # x < threshold reads 2 i + 1
        self.child_value = value.take(self.children)
        self.feature = np.where(leaf, 0, feature).astype(np.intp)
        self.threshold = threshold
        self.root_feature = self.feature.take(self.roots)
        self.root_threshold = threshold.take(self.roots)[:, None]
        # children follow their parent, so the frontier empties within n_nodes levels
        self.depth = 0
        frontier = starts[~leaf[starts]]
        while frontier.size:
            self.depth += 1
            children = np.concatenate([left[frontier], right[frontier]])
            frontier = np.unique(children[~leaf[children]])

    def sums(self, x: np.ndarray) -> np.ndarray:
        """(n, n_groups): each group's leaf values summed over its trees in order."""
        n, d = x.shape
        n_trees = len(self.roots)
        out = np.empty((n, self.n_groups))
        chunk = max(1, _CHUNK_ELEMENTS // n_trees)
        for start in range(0, n, chunk):
            xc = np.ascontiguousarray(x[start : start + chunk])
            m = len(xc)
            # node holds 2 i, plus 1 where the row goes left of node i
            node = 2 * self.roots[:, None]
            if self.depth:
                node = node + (xc.T.take(self.root_feature, axis=0) < self.root_threshold)
            xc = xc.ravel()
            row_base = np.arange(m) * d
            for _ in range(self.depth - 1):
                node = self.children.take(node)
                at = self.feature.take(node)
                at += row_base
                go_left = xc.take(at) < self.threshold.take(node)
                node *= 2
                node += go_left
            leaves = self.child_value.take(node).reshape(self.n_groups, self.group_size, -1)
            if leaves.shape[2] > 1:
                # tree after tree, rows being the fast axis; from -0.0, the exact identity
                # of +, so all -0.0 leaves sum to -0.0 as in the cumsum (numpy starts at 0.0)
                sums = np.add.reduce(leaves, axis=1, initial=-0.0)
            else:
                sums = leaves.cumsum(axis=1)[:, -1]  # trees would be the fast axis of a reduce
            out[start : start + m] = sums.T
        return out


_PACK_LOCK = threading.Lock()


def stacked_margins(owner, models: list, x: np.ndarray) -> np.ndarray:
    """(n, len(models) * width): each model's init margin plus its trees' sums.

    The models share one loss and feature count. Their init margins and
    forests are packed on first use and kept on ``owner``; when threads
    share ``owner``, the pack is built once, under a lock.
    """
    x = np.asarray(x, dtype=np.float64)
    n_features = models[0].n_features
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(f"expected (n, {n_features}) features")
    with _PACK_LOCK:
        if "_packed" not in owner.__dict__:
            width = models[0].loss.margin_width
            init = [np.zeros(width) if m.init_margin is None else m.init_margin for m in models]
            trees = [m.trees for m in models]
            forest = _PackedForest(trees, width) if any(map(len, trees)) else None
            owner.__dict__["_packed"] = np.concatenate(init), forest
        init, forest = owner.__dict__["_packed"]
    out = init + np.zeros((x.shape[0], len(init)))
    # out is never -0.0, so the zeros of no trees would leave its bits as they are
    if forest is not None:
        out += forest.sums(x)
    return out


@dataclass
class GBTModel:
    loss: LossKind
    n_features: int
    trees: Forest
    init_margin: np.ndarray | None  # (W,) constant, or None when trained on an external margin
    learning_rate: float

    def predict_margin(
        self, x: np.ndarray, base_margin: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw margins; an external base margin is added only when supplied."""
        out = stacked_margins(self, [self], x)
        if base_margin is not None:
            out += np.asarray(base_margin, dtype=np.float64).reshape(out.shape)
        return out[:, 0] if self.loss.margin_width == 1 else out

    def predict_proba(
        self, x: np.ndarray, base_margin: np.ndarray | None = None
    ) -> np.ndarray:
        return losses.margin_to_proba(self.predict_margin(x, base_margin), self.loss)

    def first_rounds(self, r: int) -> "GBTModel":
        """The model of its first ``r`` boosting rounds, its trees views of this one's.

        ``fit_gbt`` reads ``n_estimators`` only as its round count: the
        canonical order, the bins, the init margin and every round's row and
        column draws do not depend on it. So this is the same bytes as the
        fit with ``n_estimators=r`` (boosting is stagewise).
        """
        n_trees = r * self.loss.margin_width
        if not 0 <= n_trees <= len(self.trees):
            rounds = len(self.trees) // self.loss.margin_width
            raise ValueError(f"the model has {rounds} rounds, fewer than {r}")
        t = self.trees
        end = t.offsets[n_trees]
        trees = Forest(
            *(getattr(t, key)[:end] for key in _NODE_FIELDS),
            offsets=t.offsets[: n_trees + 1],
            class_k=t.class_k[:n_trees],
        )
        return replace(self, trees=trees)

    def to_dict(self) -> dict:
        return {
            "model": "gbt",
            "loss": self.loss.name,
            "n_classes": self.loss.n_classes,
            "n_features": self.n_features,
            "learning_rate": self.learning_rate,
            "init_margin": None if self.init_margin is None else self.init_margin.tolist(),
            "trees": self.trees.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GBTModel":
        loss = LossKind(d["loss"], d["n_classes"])
        n_features = json_number(d["n_features"], "n_features", integer=True)
        width = loss.margin_width
        init = d["init_margin"]
        if init is not None:
            init = json_numbers(init, "init_margin")
            if init.shape != (width,):
                raise ValueError(f"init_margin must hold {width} values")
            if not np.isfinite(init).all():
                raise ValueError("init_margin is not finite")
        return cls(
            loss=loss,
            n_features=n_features,
            trees=_read_trees(d["trees"], n_features, width),
            init_margin=init,
            learning_rate=float(json_number(d["learning_rate"], "learning_rate")),
        )


def _bin_features(x: np.ndarray, n_bins: int):
    """Quantile bin edges per feature and the binned integer codes.

    A column gets no more bins than its training values fill: an edge is
    kept only where the bin that ends at it holds a value. A bin empty of
    training rows is empty in every node, so its split would tie exactly
    with the one an edge earlier, which the split search picks anyway.
    """
    n, d = x.shape
    qs = np.arange(1, n_bins) / n_bins
    edges = []
    codes = np.empty((n, d), dtype=np.int32)
    for j in range(d):
        col = x[:, j]
        e = np.unique(np.quantile(col, qs))
        # drop edges below every value or above every value: they split nothing
        e = e[(e > col.min()) & (e <= col.max())]
        code = np.searchsorted(e, col, side="right")
        # keep each e[k] whose bin [e[k - 1], e[k]) holds a value; bin 0
        # holds the column's minimum, so e[0] stays
        keep = np.bincount(code, minlength=len(e) + 1)[: len(e)] > 0
        edges.append(e[keep])
        codes[:, j] = np.concatenate([[0], np.cumsum(keep)])[code]
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
    # each row's g and h once per column, laid out as idx is
    weights = np.empty((2, n_cols, len(rows)))
    weights[0] = g.take(rows)
    weights[1] = h.take(rows)
    hist = np.empty((3, size))
    hist[0] = np.bincount(idx, weights=weights[0].ravel(), minlength=size)
    hist[1] = np.bincount(idx, weights=weights[1].ravel(), minlength=size)
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
        """A tree fitted on in-bag ``rows`` over ``cols``: its nodes' feature,
        threshold, left, right and value tuples, then its value at each of
        the n rows, ``rows`` and ``oob`` alike.
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
        return (*zip(*nodes), fitted)

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
    trees = []
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
            *tree, fitted = grower.grow(g[:, k], h[:, k], rows, oob, cols)
            trees.append(tree)
            margin[:, k] += fitted

    return GBTModel(
        loss=loss,
        n_features=d,
        trees=Forest.join(trees, np.tile(np.arange(width), cfg.n_estimators)),
        init_margin=init,
        learning_rate=cfg.learning_rate,
    )
