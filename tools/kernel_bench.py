"""Micro-benchmark of the kernels that dominate fitting and predicting.

Times three kernels of ``segshift.learners.gbt`` and the KMM solver on
fixed shapes and seeded data:

- ``histogram``: one node histogram (``_histogram``) over all n rows of d
  columns with 256 bins, for n in {1000, 8000} and d in {4, 5};
- ``best_split``: one split search (``_TreeGrower._best_split``) on that
  histogram;
- ``forest_sums``: one traversal (``_PackedForest.sums``) of the pack of a
  200-tree, depth-3 squared-loss model's forest record (``GBTModel.trees``)
  fitted on 8000 rows of d columns, for 1 row and for 4000 rows; and of
  a pack shaped like labelshift-mc3's base ensemble: 4 softmax models of
  200 rounds, K = 3 classes (2,400 depth-3 trees), each fitted on 2000 rows
  of 5 columns, for 1 row and for 4000 rows;
- ``median_bandwidth``: one ``segmentation.median_bandwidth`` on 1000 rows
  of N(0, I_4) (499,500 pairwise distances);
- ``kmm_solve``: one ``weights._kmm_solve`` on the Gram of n rows drawn from
  N(0, I_5) against n test rows from N(shift, I_5), with ``fit_kmm``'s
  defaults (median-heuristic bandwidth, eta = 10, epsilon = eta / sqrt(n)),
  for n in {300, 750, 1500} and shift in {0.5, 1.0}, with the solve's step
  count. At shift 0.5 about half the weights are free of the box; at 1.0
  about 90% sit at zero;
- ``stage1_solve``: one stage-1 Newton solve at ``mr.LAMBDA_MIN`` with an
  intercept, on the margins of M = 4 cluster models plus the all-segments
  model, each the true logits plus N(0, 1) noise: a logistic
  ``fit_linear`` on n = 150 rows of those 5 columns, and a shared-softmax
  ``mr._solve_shared_softmax`` over K = 3 classes for n in {140, 3000};
- ``stage1_fit``: one whole ``mr.fit_stage1`` whose unit ball binds, on the
  same shapes with each model's margin 0.3 times the true logit (the
  logistic one: logit difference) plus N(0, 0.3^2) noise, with its GLM
  solve count and the norm it lands at;
- ``small_fit``: one ``fit_gbt`` of the shape of a cross-validation
  refiner: 24 rows of 4 columns, logistic loss, 10 rounds of depth 2, with
  sample weights and a base margin;
- ``model_json``: the model file's share of ``forest_sums``' models, the
  200-tree squared ones and the softmax pack: ``save`` is ``to_dict`` plus
  ``json.dumps(sort_keys=True, indent=1)``, as ``segshift fit`` writes a
  model, and ``load`` is ``json.loads`` plus ``GBTModel.from_dict``, with
  the text's size in bytes.

Each figure is the per-call time in microseconds: the median and the
minimum over 7 repeats of a loop that runs for at least 0.1 s. Run from
the repository root; it prints one JSON object with the machine facts:

    python3 tools/kernel_bench.py
"""

import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from segshift import mr  # noqa: E402
from segshift.learners import (  # noqa: E402
    LOGISTIC,
    LossKind,
    fit_gbt,
    fit_linear,
    linear,
    refine_config,
    softmax_loss,
)
from segshift.learners.gbt import (  # noqa: E402
    GBTModel,
    _bin_features,
    _histogram,
    _PackedForest,
    _TreeGrower,
    cluster_base_config,
)
from segshift.mr import LAMBDA_MIN, BaseEnsemble, _solve_shared_softmax, fit_stage1  # noqa: E402
from segshift.segmentation import (  # noqa: E402
    ClusterAssignment,
    KernelSpec,
    gram,
    median_bandwidth,
)
from segshift.weights import DEFAULT_ETA, _kmm_solve  # noqa: E402

N_BINS = 256
REPEATS = 7


def per_call_us(fn):
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < 0.1:
        number *= 2
    times = np.asarray(timer.repeat(repeat=REPEATS, number=number)) / number * 1e6
    return {"us_median": round(float(np.median(times)), 3), "us_min": round(float(times.min()), 3)}


def data(n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x[:, 0] * x[:, 1] + np.sin(2 * x[:, 2]) + rng.normal(0, 0.3, n)
    return x, y


def node_kernels(n, d):
    x, y = data(n, d)
    edges, codes = _bin_features(x, N_BINS)
    cfg = cluster_base_config()
    grower = _TreeGrower(codes, edges, cfg)
    rng = np.random.default_rng(1)
    g, h = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)
    rows = np.arange(n)
    nb = grower.max_bins
    hist = _histogram(grower.flat, nb, g, h, rows)
    gs, hs = float(g.sum()), float(h.sum())

    def split():
        with np.errstate(divide="ignore", invalid="ignore"):
            return grower._best_split(hist, gs, hs, n)

    shape = {"n": n, "d": d, "bins": N_BINS}
    return [
        {"kernel": "histogram", **shape, **per_call_us(lambda: _histogram(grower.flat, nb, g, h, rows))},
        {"kernel": "best_split", **shape, **per_call_us(split)},
    ]


def squared_model(d):
    x, y = data(8000, d)
    return fit_gbt(x, y, LossKind("squared"), cluster_base_config(seed=2))


def forest_kernels(model, d):
    forest = _PackedForest([model.trees], model.loss.margin_width)
    xt = np.random.default_rng(3).normal(size=(4000, d))
    shape = {"trees": len(model.trees), "depth": forest.depth, "d": d}
    return [
        {"kernel": "forest_sums", **shape, "rows": m, **per_call_us(lambda m=m: forest.sums(xt[:m]))}
        for m in (1, 4000)
    ]


def softmax_pack(n_models=4, classes=3, n=2000, d=5):
    """The models of a pack shaped like labelshift-mc3's base ensemble, and test rows."""
    rng = np.random.default_rng(8)
    loss = softmax_loss(classes)
    models = []
    for seed in range(n_models):
        x = rng.normal(size=(n, d))
        y = np.argmax(x[:, :classes] + rng.gumbel(size=(n, classes)), axis=1)
        models.append(fit_gbt(x, y, loss, cluster_base_config(seed=seed)))
    return models, rng.normal(size=(4000, d))


def softmax_pack_kernels(models, xt):
    classes = models[0].loss.margin_width
    forest = _PackedForest([m.trees for m in models], classes)
    shape = {"models": len(models), "classes": classes, "trees": len(forest.roots)}
    shape.update(depth=forest.depth, d=xt.shape[1])
    return [
        {"kernel": "forest_sums", **shape, "rows": m, **per_call_us(lambda m=m: forest.sums(xt[:m]))}
        for m in (1, 4000)
    ]


def model_json_kernels(models):
    def save():
        return json.dumps([m.to_dict() for m in models], sort_keys=True, indent=1)

    text = save()

    def load():
        return [GBTModel.from_dict(doc) for doc in json.loads(text)]

    shape = {"models": len(models), "loss": models[0].loss.name, "d": models[0].n_features}
    shape.update(trees=sum(len(m.trees) for m in models), bytes=len(text))
    return [
        {"kernel": "model_json", "op": op, **shape, **per_call_us(fn)}
        for op, fn in (("save", save), ("load", load))
    ]


def median_kernel(n=1000, d=4):
    x = np.random.default_rng(9).normal(size=(n, d))
    return {"kernel": "median_bandwidth", "n": n, "d": d, **per_call_us(lambda: median_bandwidth(x))}


def kmm_kernel(n, shift, d=5):
    rng = np.random.default_rng(4)
    train, test = rng.normal(size=(n, d)), rng.normal(shift, 1.0, size=(n, d))
    kernel = KernelSpec().resolved(np.vstack([train, test]))
    g = gram(kernel, train, train)
    kappa = gram(kernel, train, test).sum(axis=1)
    eta = DEFAULT_ETA
    _, history = _kmm_solve(g, kappa, n, eta, eta / np.sqrt(n))
    timing = per_call_us(lambda: _kmm_solve(g, kappa, n, eta, eta / np.sqrt(n)))
    shape = {"n": n, "d": d, "shift": shift}
    return {"kernel": "kmm_solve", **shape, "steps": len(history) - 1, **timing}


def stacking_data(n, classes, n_models, scale, noise):
    """(loss, base margins, labels): each margin is ``scale`` times the true
    logit (logistic: logit difference) plus N(0, noise^2)."""
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(n, classes)) * 1.5
    y = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1).astype(float)
    if classes == 2:
        truth = (logits[:, 1] - logits[:, 0])[:, None]
        return LOGISTIC, scale * truth + rng.normal(0, noise, size=(n, n_models)), y
    h = scale * logits[:, None, :] + rng.normal(0, noise, size=(n, n_models, classes))
    return softmax_loss(classes), h, y


def stage1_kernel(n, classes, n_models=5):
    loss, h, y = stacking_data(n, classes, n_models, 1.0, 1.0)
    shape = {"loss": loss.name, "n": n, "models": n_models, "classes": classes}
    if classes == 2:
        timing = per_call_us(lambda: fit_linear(h, y, LOGISTIC, l2=LAMBDA_MIN))
    else:
        timing = per_call_us(lambda: _solve_shared_softmax(h, y, loss, LAMBDA_MIN, True))
    return {"kernel": "stage1_solve", **shape, **timing}


def glm_solves(fn):
    """``fn()`` and the number of ``fit_glm`` solves it made."""
    calls = []
    original = linear.fit_glm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # fit_linear looks fit_glm up in its module, stage 1 in mr's
    linear.fit_glm = mr.fit_glm = counting
    try:
        return fn(), len(calls)
    finally:
        linear.fit_glm = mr.fit_glm = original


def stage1_fit_kernel(n, classes, n_models=5):
    loss, h, y = stacking_data(n, classes, n_models, 0.3, 0.3)
    # margins are passed in, so the ensemble only gives the loss and model count
    ensemble = BaseEnsemble([None] * n_models, ClusterAssignment(((0,),)), loss)
    x = np.zeros((n, 1))

    def fit():
        return fit_stage1((x, y), ensemble, margins=h)

    model, solves = glm_solves(fit)
    shape = {"loss": loss.name, "n": n, "models": n_models, "classes": classes}
    stats = {"solves": solves, "norm": round(float(np.linalg.norm(model.beta)), 6)}
    return {"kernel": "stage1_fit", **shape, **stats, **per_call_us(fit)}


def small_fit_kernel(n=24, d=4):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + rng.normal(size=n) > 0).astype(float)
    w = rng.uniform(0.2, 3.0, size=n)
    base = rng.normal(size=n)
    cfg = refine_config(n_estimators=10, seed=7)
    timing = per_call_us(lambda: fit_gbt(x, y, LOGISTIC, cfg, sample_weight=w, base_margin=base))
    shape = {"n": n, "d": d, "rounds": cfg.n_estimators, "depth": cfg.max_depth}
    return {"kernel": "small_fit", **shape, **timing}


def main():
    results = [r for n in (1000, 8000) for d in (4, 5) for r in node_kernels(n, d)]
    squared = {d: squared_model(d) for d in (4, 5)}
    results += [r for d in (4, 5) for r in forest_kernels(squared[d], d)]
    pack, xt = softmax_pack()
    results += softmax_pack_kernels(pack, xt)
    results.append(median_kernel())
    results += [kmm_kernel(n, shift) for shift in (0.5, 1.0) for n in (300, 750, 1500)]
    results += [stage1_kernel(150, 2), stage1_kernel(140, 3), stage1_kernel(3000, 3)]
    results += [stage1_fit_kernel(150, 2), stage1_fit_kernel(140, 3), stage1_fit_kernel(3000, 3)]
    results.append(small_fit_kernel())
    results += [r for d in (4, 5) for r in model_json_kernels([squared[d]])]
    results += model_json_kernels(pack)
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({"machine": machine, "results": results}, indent=1))


if __name__ == "__main__":
    main()
