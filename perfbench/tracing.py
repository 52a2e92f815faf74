"""Span tracing of segshift from outside the package.

``Tracer.install`` replaces the package's public layer functions and
methods with wrappers that record a span per call; ``Tracer.restore`` puts
the originals back. A function is replaced under every module attribute
that holds it, because callers look functions up in their own module
(``mr.fit_gbt``) or through a lazy import (``learners.fit_gbt`` inside
``evalcv``); wrapping only one name silently misses the other calls.

Spans live in memory as (id, parent, name, start, end, work) records. A
span opened on a worker thread with no open span of its own takes the
main thread's innermost open span as its parent: the package's thread
pools run inside a call that the main thread blocks in.
"""

import itertools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root
    name: str
    start: float
    end: float
    work: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, pos, name) -> int:
    return len(args[pos] if len(args) > pos else kwargs[name])


# (span name, module or class path, attribute, work count from (args, kwargs, result))
FUNCTIONS = [
    ("segmentation.segment_distance_matrix", "segshift.segmentation", "segment_distance_matrix", None),
    ("segmentation.gram", "segshift.segmentation", "gram", lambda a, k, r: r.size),
    ("segmentation.choose_num_clusters", "segshift.segmentation", "choose_num_clusters", None),
    ("segmentation.cluster_segments", "segshift.segmentation", "cluster_segments", None),
    ("weights.fit_discriminative_weights", "segshift.weights", "fit_discriminative_weights", None),
    ("weights.fit_kmm", "segshift.weights", "fit_kmm", lambda a, k, r: _rows(a, k, 0, "train_x")),
    ("weights.fit_bbse", "segshift.weights", "fit_bbse", None),
    ("learners.fit_gbt", "segshift.learners.gbt", "fit_gbt", lambda a, k, r: len(r.trees) * _rows(a, k, 0, "x")),
    ("learners.fit_linear", "segshift.learners.linear", "fit_linear", None),
    # stage 1's own Newton solve for softmax stacking: the linear fit of the
    # multiclass path, so learners.fit_linear_* covers stage 1 on every task
    ("learners.fit_linear", "segshift.mr", "_solve_shared_softmax", None),
    ("mr.fit_mr", "segshift.mr", "fit_mr", None),
    ("mr.fit_base_ensemble", "segshift.mr", "fit_base_ensemble", None),
    ("mr.fit_dr", "segshift.mr", "fit_dr", None),
    ("mr.fit_stage1", "segshift.mr", "fit_stage1", None),
    ("mr.fit_stage2", "segshift.mr", "fit_stage2", None),
    ("evalcv.cross_validate", "segshift.evalcv", "cross_validate", None),
]

METHODS = [
    ("learners.predict_margin", "segshift.learners.gbt", "GBTModel", "predict_margin",
     lambda a, k, r: len(a[0].trees) * _rows(a, k, 1, "x")),
    ("learners.to_dict", "segshift.learners.gbt", "GBTModel", "to_dict", None),
    ("learners.from_dict", "segshift.learners.gbt", "GBTModel", "from_dict", None),
    ("mr.ensemble_margins", "segshift.mr", "BaseEnsemble", "margins", None),
    ("mr.predict", "segshift.mr", "MRModel", "predict", None),
    ("mr.to_dict", "segshift.mr", "MRModel", "to_dict", None),
    ("mr.from_dict", "segshift.mr", "MRModel", "from_dict", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original raw value)

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, work=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        count = work(args, kwargs, result) if work is not None else 0
        self.spans.append(Span(sid, parent, name, start, end, int(count)))
        return result

    def root(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a root span named ``name`` and return its result."""
        if self._main_stack:
            raise RuntimeError("root spans cannot nest")
        return self.call(name, fn, args, kwargs)

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name, fn, work):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("wrappers already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "segshift" or n.startswith("segshift.")]
        try:
            for name, module, attr, work in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
            for name, module, cls_name, attr, work in METHODS:
                cls = getattr(sys.modules[module], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, work))
                else:
                    new = self._wrap(name, raw, work)
                self._replace(cls, attr, new)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# Reducing spans to per-layer metrics


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.wall - covered
    return out


def subtree(spans, root_id) -> list:
    """The root span with id ``root_id`` and all its descendants."""
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    out = [s for s in spans if s.id == root_id]
    frontier = [root_id]
    while frontier:
        kids = by_parent.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(k.id for k in kids)
    return out


def layer_metrics(spans) -> dict:
    """Self time, call counts and work counts per layer function."""
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, []))

    def calls(name):
        return len(by_name.get(name, []))

    def work(name):
        return sum(s.work for s in by_name.get(name, []))

    return {
        "segmentation.segment_distance_matrix_s": self_s("segmentation.segment_distance_matrix"),
        "segmentation.segment_distance_matrix_calls": calls("segmentation.segment_distance_matrix"),
        "segmentation.gram_s": self_s("segmentation.gram"),
        "segmentation.gram_calls": calls("segmentation.gram"),
        "segmentation.gram_entries": work("segmentation.gram"),
        "segmentation.cluster_s": self_s("segmentation.choose_num_clusters", "segmentation.cluster_segments"),
        # one self time for all estimators: each workload uses one method, and
        # a per-method time would read 0 on every run of the others
        "weights.fit_weights_s": self_s(
            "weights.fit_discriminative_weights", "weights.fit_kmm", "weights.fit_bbse"
        ),
        "weights.fit_discriminative_weights_calls": calls("weights.fit_discriminative_weights"),
        "weights.fit_kmm_calls": calls("weights.fit_kmm"),
        "weights.fit_kmm_rows": work("weights.fit_kmm"),
        "weights.fit_bbse_calls": calls("weights.fit_bbse"),
        "learners.fit_gbt_s": self_s("learners.fit_gbt"),
        "learners.fit_gbt_calls": calls("learners.fit_gbt"),
        "learners.fit_gbt_tree_rows": work("learners.fit_gbt"),
        "learners.predict_margin_s": self_s("learners.predict_margin"),
        "learners.predict_margin_calls": calls("learners.predict_margin"),
        "learners.predict_margin_tree_rows": work("learners.predict_margin"),
        "learners.fit_linear_s": self_s("learners.fit_linear"),
        "learners.fit_linear_calls": calls("learners.fit_linear"),
        "learners.to_dict_s": self_s("learners.to_dict"),
        "learners.from_dict_s": self_s("learners.from_dict"),
        "mr.fit_mr_self_s": self_s("mr.fit_mr"),
        "mr.fit_base_ensemble_s": self_s("mr.fit_base_ensemble"),
        "mr.fit_base_ensemble_calls": calls("mr.fit_base_ensemble"),
        "mr.fit_dr_s": self_s("mr.fit_dr"),
        "mr.fit_dr_calls": calls("mr.fit_dr"),
        "mr.fit_stage1_s": self_s("mr.fit_stage1"),
        "mr.fit_stage1_calls": calls("mr.fit_stage1"),
        "mr.fit_stage2_s": self_s("mr.fit_stage2"),
        "mr.ensemble_margins_s": self_s("mr.ensemble_margins"),
        "mr.ensemble_margins_calls": calls("mr.ensemble_margins"),
        "mr.predict_self_s": self_s("mr.predict"),
    }


def cv_metrics(spans, k: int, n_base_points: int) -> dict:
    """Waste counters of one ``cross_validate`` call's span tree."""
    selfs = self_times(spans)
    cv_ids = {s.id for s in spans if s.name == "evalcv.cross_validate"}
    n_dist = sum(s.name == "segmentation.segment_distance_matrix" for s in spans)
    n_base = sum(s.name == "mr.fit_base_ensemble" for s in spans)
    return {
        "evalcv.cross_validate_self_s": sum(selfs[i] for i in cv_ids),
        "evalcv.fit_gbt_calls": sum(
            s.name == "learners.fit_gbt" and s.parent in cv_ids for s in spans
        ),
        "evalcv.distance_matrix_useful_ratio": k / n_dist,
        "evalcv.base_fit_useful_ratio": k * n_base_points / n_base,
    }


def ensemble_passes(spans) -> float:
    """``BaseEnsemble.margins`` calls per ``MRModel.predict`` call in ``spans``."""
    names = [s.name for s in spans]
    return names.count("mr.ensemble_margins") / names.count("mr.predict")
