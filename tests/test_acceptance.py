"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure). The simulation-trend fixture is shared by the first two
criteria and runs 20 seeds at two sample sizes; its model-fitting time
is tracked against the stated budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from segshift import (
    Dataset,
    MRConfig,
    SyntheticConfig,
    TaskKind,
    cluster_segments,
    fit_bbse,
    fit_discriminative_weights,
    fit_dr,
    fit_gbt,
    fit_mr,
    fit_stage1,
    fit_stage2,
    metric,
    refine_config,
    segment_distance_matrix,
    simulate_local_covshift,
    uniform_weights,
)
from segshift.cli import main as cli_main
from segshift.learners import LossKind, losses
from segshift.learners.linear import LinearModel
from segshift.mr import BaseEnsemble, ClusterAssignment

N_SEEDS = 20


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def simulation_results():
    """Relative test MSE of mr / dr / dr-sf vs the plain global model."""
    out = {"rel_mr_10000": [], "rel_mr_1000": [], "rel_dr": [], "rel_drsf": []}
    timed = 0.0
    for seed in range(N_SEEDS):
        for n_train in (10000, 1000):
            start = time.perf_counter()
            cfg = SyntheticConfig(n_train=n_train, n_test=4000, n_segments=20, seed=seed)
            train, test = simulate_local_covshift(cfg)
            test_features = (test.features, test.segment_id)
            mr_cfg = MRConfig(seed=seed)
            mr = fit_mr(train, test_features, mr_cfg)
            plain_cfg = replace(
                mr_cfg, weight_method="none", refine=replace(mr_cfg.refine, n_estimators=0)
            )
            plain = fit_dr(train, test_features, plain_cfg)
            # the dr baseline of criterion 2 is timed with the fits it is compared to
            dr = fit_dr(train, test_features, mr_cfg) if n_train == 10000 else None
            timed += time.perf_counter() - start

            def mse(model):
                preds = model.predict(test.features, test.segment_id)
                return float(np.mean((preds - test.labels) ** 2))

            base = mse(plain)
            if n_train == 10000:
                out["rel_mr_10000"].append(mse(mr) / base)
                out["rel_dr"].append(mse(dr) / base)
                drsf = fit_dr(train, test_features, mr_cfg, with_segment_features=True)
                out["rel_drsf"].append(mse(drsf) / base)
            else:
                out["rel_mr_1000"].append(mse(mr) / base)
    out["timed_seconds"] = timed
    return out


def test_criterion_1_simulation_trend(simulation_results):
    r = simulation_results
    wins = sum(1 for v in r["rel_mr_10000"] if v < 1.0)
    mean_large = float(np.mean(r["rel_mr_10000"]))
    mean_small = float(np.mean(r["rel_mr_1000"]))
    ok = wins >= 18 and mean_large < mean_small and r["timed_seconds"] <= 300.0
    check(
        "criterion 1 (simulation trend)",
        ok,
        f"mr beats plain model in {wins}/20 seeds at n=10000; "
        f"mean relative mse {mean_large:.4f} (n=10000) vs {mean_small:.4f} (n=1000); "
        f"fit time {r['timed_seconds']:.0f}s <= 300s",
    )


def test_criterion_2_baseline_ordering(simulation_results):
    r = simulation_results
    mr = float(np.mean(r["rel_mr_10000"]))
    dr = float(np.mean(r["rel_dr"]))
    drsf = float(np.mean(r["rel_drsf"]))
    ok = mr < drsf and drsf <= 1.02 * dr
    check(
        "criterion 2 (baseline ordering)",
        ok,
        f"mean relative mse at n=10000: mr {mr:.4f} < dr-sf {drsf:.4f} <= 1.02*dr ({1.02 * dr:.4f})",
    )


def test_criterion_3_bbse_recovery():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(1234))
    n = 50000
    p_priors = np.array([0.5, 0.25, 0.25])
    w_true = np.array([0.5, 1.0, 2.0])
    q_priors = p_priors * w_true  # sums to 1 by construction
    centers = np.array([[0.0, 0.0], [3.5, 0.0], [0.0, 3.5]])

    def sample(priors):
        y = rng.choice(3, size=n, p=priors)
        return y, centers[y] + rng.normal(size=(n, 2))

    y_src, x_src = sample(p_priors)
    _, x_test = sample(q_priors)
    classify = lambda x: np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
    cw = fit_bbse(y_src, classify(x_src), classify(x_test), n_classes=3)
    err = float(np.max(np.abs(cw.values - w_true)))
    elapsed = time.perf_counter() - start
    ok = err <= 0.05 and elapsed <= 10.0
    check(
        "criterion 3 (bbse recovery)",
        ok,
        f"max class-weight error {err:.4f} <= 0.05 in {elapsed:.1f}s <= 10s",
    )


def test_criterion_4_discriminative_recovery():
    rng = np.random.Generator(np.random.Philox(99))
    n = 50000
    train = rng.normal(0.0, 1.0, size=(n, 2))
    test = rng.normal(1.0, 1.0, size=(n, 2))
    wv = fit_discriminative_weights(train, test)
    truth = np.exp(train.sum(axis=1) - 1.0)
    rel_l1 = float(np.mean(np.abs(wv.values - truth) / truth))
    ok = rel_l1 <= 0.1
    check("criterion 4 (discriminative recovery)", ok, f"mean relative L1 error {rel_l1:.4f} <= 0.1")


def test_criterion_5_unit_ball_and_dominance():
    worst_norm = 0.0
    worst_gap = -np.inf
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(2000 + i))
        n_models = int(rng.integers(2, 5))
        d = 3
        models = [
            LinearModel(
                coef=rng.normal(size=d), intercept=np.asarray(0.0),
                loss=LossKind("squared"), l2=0.0,
            )
            for _ in range(n_models)
        ]
        ensemble = BaseEnsemble(
            models=models,
            assignment=ClusterAssignment(tuple((j,) for j in range(max(1, n_models - 1)))),
            loss=LossKind("squared"),
        )
        x = rng.normal(size=(80, d))
        h = ensemble.margins(x)
        scale = 3.0 if i % 2 else 0.4  # half the instances need the ball
        beta_true = rng.normal(size=n_models) * scale / np.sqrt(n_models)
        y = h @ beta_true + rng.normal(0, 0.2, size=80)
        model = fit_stage1((x, y), ensemble, ball=True)
        norm = float(np.linalg.norm(model.beta))
        worst_norm = max(worst_norm, norm)
        fitted_loss = float(np.mean((model.margin(h) - y) ** 2))
        best_single = min(float(np.mean((h[:, m] - y) ** 2)) for m in range(n_models))
        worst_gap = max(worst_gap, fitted_loss - best_single)
    ok = worst_norm <= 1.0 + 1e-4 and worst_gap <= 1e-4
    check(
        "criterion 5 (unit ball + dominance)",
        ok,
        f"max ||beta|| {worst_norm:.6f} <= 1+1e-4; max (stacked - best single) loss gap "
        f"{worst_gap:.2e} <= 1e-4 over 100 instances",
    )


def test_criterion_6_collapse_exactness():
    cfg = SyntheticConfig(n_train=1200, n_test=600, n_segments=4, seed=21)
    train, test = simulate_local_covshift(cfg)
    mr_cfg = MRConfig(
        seed=21, weight_method="none", refine=refine_config(n_estimators=0)
    )
    model = fit_mr(train, (test.features, test.segment_id), mr_cfg)
    preds = model.predict(test.features, test.segment_id)
    bitwise = True
    for s, seg_model in model.segments.items():
        rows = np.flatnonzero(test.segment_id == s)
        stage1_only = seg_model.stage1.margin(model.ensemble.margins(test.features[rows]))
        bitwise = bitwise and np.array_equal(preds[rows], stage1_only)

    # squared-loss residual fitting equals base-margin fitting
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.normal(size=(300, 3))
    y = np.sin(x[:, 0]) + x[:, 1] + rng.normal(0, 0.1, 300)
    ens = BaseEnsemble(
        models=[LinearModel(coef=np.array([1.0, 1.0, 0.0]), intercept=np.asarray(0.0),
                            loss=LossKind("squared"), l2=0.0)],
        assignment=ClusterAssignment(((0,),)),
        loss=LossKind("squared"),
    )
    s1 = fit_stage1((x, y), ens)
    delta = s1.margin(ens.margins(x))
    rcfg = refine_config(n_estimators=20, seed=3)
    margin_path = fit_stage2((x, y), s1, ens, uniform_weights(300), rcfg)
    residual_path = fit_gbt(x, y - delta, LossKind("squared"), rcfg, base_margin=np.zeros(300))
    gap = float(np.max(np.abs(
        (delta + margin_path.predict_margin(x)) - (delta + residual_path.predict_margin(x))
    )))
    ok = bitwise and gap <= 1e-10
    check(
        "criterion 6 (collapse exactness)",
        ok,
        f"zero-tree refinement reproduces stage-1 bitwise: {bitwise}; "
        f"residual vs base-margin path max gap {gap:.2e} <= 1e-10",
    )


def test_criterion_7_gradient_correctness():
    step = 1e-5
    worst = 0.0
    for loss in (LossKind("squared"), LossKind("logistic"), LossKind("softmax", 3)):
        rng = np.random.Generator(np.random.Philox(404))
        for _ in range(20):
            if loss.name == "softmax":
                y = np.asarray([int(rng.integers(0, 3))])
                z = rng.normal(scale=1.5, size=(1, 3))
            elif loss.name == "logistic":
                y = np.asarray([float(rng.integers(0, 2))])
                z = rng.normal(scale=1.5, size=1)
            else:
                y = rng.normal(size=1)
                z = rng.normal(scale=1.5, size=1)
            g, h = losses.grad_hess(loss, y, z)
            flat = np.atleast_1d(z.ravel())
            for idx in range(flat.size):
                up = flat.copy()
                dn = flat.copy()
                up[idx] += step
                dn[idx] -= step
                shape = z.shape
                lu = losses.loss_values(loss, y, up.reshape(shape)).sum()
                ld = losses.loss_values(loss, y, dn.reshape(shape)).sum()
                g_fd = (lu - ld) / (2 * step)
                gu = losses.grad_hess(loss, y, up.reshape(shape))[0].ravel()[idx]
                gd = losses.grad_hess(loss, y, dn.reshape(shape))[0].ravel()[idx]
                h_fd = (gu - gd) / (2 * step)
                g_val = np.atleast_1d(g.ravel())[idx]
                h_val = np.atleast_1d(h.ravel())[idx]
                worst = max(worst, abs(g_val - g_fd) / max(abs(g_fd), 1e-8))
                worst = max(worst, abs(h_val - h_fd) / max(abs(h_fd), 1e-8))
    ok = worst <= 1e-5
    check("criterion 7 (gradient correctness)", ok, f"max relative error {worst:.2e} <= 1e-5")


def test_criterion_8_clustering_recovery():
    recovered = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(3000 + seed))
        feats, labels, segs = [], [], []
        for s in range(20):
            mu = 0.0 if s % 2 == 0 else 2.0
            x = rng.normal(mu, 1.0, size=(500, 2))
            feats.append(x)
            labels.append(x.sum(axis=1) + rng.normal(0, 0.3, 500))
            segs.append(np.full(500, s))
        ds = Dataset(
            features=np.vstack(feats),
            labels=np.concatenate(labels),
            segment_id=np.concatenate(segs),
            segment_names=tuple(str(i) for i in range(20)),
            feature_names=("x0", "x1"),
            task=TaskKind.regression(),
        )
        d = segment_distance_matrix(ds, seed=seed, n_threads=4)
        got = {frozenset(c) for c in cluster_segments(d, 2).clusters}
        want = {frozenset(range(0, 20, 2)), frozenset(range(1, 20, 2))}
        recovered += int(got == want)
    ok = recovered >= 95
    check("criterion 8 (clustering recovery)", ok, f"exact partition in {recovered}/100 seeds >= 95")


def test_criterion_9_debiasing():
    rng = np.random.Generator(np.random.Philox(555))
    n = 50000
    mu = np.array([0.5, 0.5])
    x_train = rng.normal(0.0, 1.0, size=(n, 2))
    x_test = rng.normal(0.0, 1.0, size=(n, 2)) + mu

    def truth(x):
        return 1.0 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * x[:, 0] * x[:, 1]

    def fixed_model(x):
        return 0.8 * x[:, 0] - 0.4 * x[:, 1] + 0.5

    y_train = truth(x_train) + rng.normal(0, 0.5, n)
    y_test = truth(x_test) + rng.normal(0, 0.5, n)
    oracle_w = np.exp(x_train @ mu - 0.5 * float(mu @ mu))
    weighted_train, se_train = metric(
        y_train, fixed_model(x_train), "mse", sample_weight=oracle_w
    )
    test_risk, se_test = metric(y_test, fixed_model(x_test), "mse")
    gap = abs(weighted_train - test_risk)
    bound = 3.0 * float(np.hypot(se_train, se_test))
    ok = gap <= bound
    check(
        "criterion 9 (debiasing)",
        ok,
        f"|weighted train risk - test risk| {gap:.4f} <= 3 combined SEs ({bound:.4f})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        argv_sim = [
            "simulate", "--segments", "4", "--n-train", "2000", "--n-test", "800",
            "--seed", "17",
            "--out-train", str(d / "train.csv"), "--out-test", str(d / "test.csv"),
        ]
        argv_fit = [
            "fit", "--method", "mr",
            "--train", str(d / "train.csv"), "--test", str(d / "test.csv"),
            "--task", "regression", "--seed", "17",
            "--base-n-estimators", "40",
            "--out-model", str(d / "model.json"),
            "--out-report", str(d / "fit_report.json"),
        ]
        argv_eval = [
            "evaluate", "--model", str(d / "model.json"),
            "--test", str(d / "test.csv"),
            "--out-report", str(d / "report.json"),
        ]
        assert cli_main(argv_sim) == 0
        assert cli_main(argv_fit) == 0
        assert cli_main(argv_eval) == 0
        outputs.append(
            ((d / "model.json").read_bytes(), (d / "report.json").read_bytes())
        )
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    check(
        "criterion 10 (cli determinism)",
        ok,
        "simulate+fit+evaluate twice gives byte-identical model.json and report.json",
    )
