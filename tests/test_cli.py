import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from segshift import GBTConfig, MRConfig, MRModel, TaskKind, load_csv, mr
from segshift import data as data_module
from segshift.cli import build_parser, main


def run(argv):
    return main(argv)


def simulate_args(tmp_path, n_train=300, n_test=200, segments=3, seed=7):
    return [
        "simulate",
        "--segments", str(segments),
        "--n-train", str(n_train),
        "--n-test", str(n_test),
        "--seed", str(seed),
        "--out-train", str(tmp_path / "train.csv"),
        "--out-test", str(tmp_path / "test.csv"),
    ]


def fit_args(tmp_path, method="mr", extra=()):
    return [
        "fit",
        "--method", method,
        "--train", str(tmp_path / "train.csv"),
        "--test", str(tmp_path / "test.csv"),
        "--task", "regression",
        "--base-n-estimators", "15",
        "--refine-n-estimators", "3",
        "--seed", "1",
        "--threads", "1",
        "--out-model", str(tmp_path / "model.json"),
        "--out-report", str(tmp_path / "fit_report.json"),
        *extra,
    ]


def command_args(tmp_path, command):
    """Arguments of ``fit``, ``cv`` or ``cluster`` on the simulated pair."""
    if command == "fit":
        return fit_args(tmp_path)
    data = ["--train", str(tmp_path / "train.csv"), "--task", "regression"]
    if command == "cv":
        return ["cv", *data, "--test", str(tmp_path / "test.csv"), "--out", str(tmp_path / "cv.json")]
    return ["cluster", *data, "--out", str(tmp_path / "clusters.json")]


def test_simulate_writes_rows(tmp_path):
    assert run(simulate_args(tmp_path, n_train=100, n_test=50)) == 0
    lines = (tmp_path / "train.csv").read_text().splitlines()
    assert len(lines) == 101
    assert lines[0].split(",")[-1] == "__segment__"


def test_simulate_deterministic_bytes(tmp_path):
    run(simulate_args(tmp_path))
    first = (tmp_path / "train.csv").read_bytes()
    run(simulate_args(tmp_path))
    assert (tmp_path / "train.csv").read_bytes() == first


def test_simulate_invalid_segments_exit_2(tmp_path):
    args = simulate_args(tmp_path)
    args[args.index("--segments") + 1] = "0"
    assert run(args) == 2


def test_simulate_unwritable_path_exit_2(tmp_path):
    args = simulate_args(tmp_path)
    args[args.index("--out-train") + 1] = str(tmp_path / "nosuchdir" / "train.csv")
    assert run(args) == 2


def test_fit_mr_and_report(tmp_path):
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path)) == 0
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["format_version"] == 2 and model["kind"] == "mr"
    assert set(model["segments"]) == {"1", "2", "3"} or len(model["segments"]) == 3
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["format_version"] == 1 and report["method"] == "mr"
    assert "clusters" in report
    for seg in report["segments"].values():
        assert {"beta", "weights", "lambda"} <= set(seg)
        assert {"min", "mean", "max"} <= set(seg["weights"])


def test_fit_dr_sf_records_width(tmp_path):
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path, method="dr-sf")) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["input_width"] == 4 + 3


def test_fit_unknown_method_exit_2(tmp_path, capsys):
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path, method="wat")) == 2
    err = capsys.readouterr().err
    assert "mr" in err and "dr-sf" in err


def test_evaluate_self_baseline(tmp_path, capsys):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    code = run([
        "evaluate",
        "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"),
        "--baseline-model", str(tmp_path / "model.json"),
        "--out-report", str(tmp_path / "report.json"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overall"]["relative"] == pytest.approx(1.0)
    assert len(report["segments"]) == 3
    out = capsys.readouterr().out
    assert "overall" in out


def test_evaluate_without_baseline_absolute_only(tmp_path):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    run([
        "evaluate",
        "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"),
        "--out-report", str(tmp_path / "report.json"),
    ])
    report = json.loads((tmp_path / "report.json").read_text())
    assert "relative" not in report["overall"]
    assert report["baseline"] is None


def test_evaluate_missing_label_column_exit_2(tmp_path):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    code = run([
        "evaluate",
        "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"),
        "--label-col", "missing",
        "--out-report", str(tmp_path / "report.json"),
    ])
    assert code == 2


def test_predict_writes_csv(tmp_path):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    code = run([
        "predict",
        "--model", str(tmp_path / "model.json"),
        "--data", str(tmp_path / "test.csv"),
        "--label-col", "y",
        "--out", str(tmp_path / "predictions.csv"),
    ])
    assert code == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "prediction,__segment__"
    assert len(lines) == 201


def test_fit_runtime_data_error_exit_3(tmp_path):
    # a segment with a single row cannot be split: runtime/data error
    (tmp_path / "train.csv").write_text(
        "x1,__segment__,y\n" + "\n".join(f"{i}.0,a,{i}.0" for i in range(10)) + "\n1.0,b,1.0\n"
    )
    (tmp_path / "test.csv").write_text("x1,__segment__,y\n0.5,a,0.0\n")
    code = run(fit_args(tmp_path))
    assert code == 3


def _add_user_column(tmp_path):
    """Give the simulated train.csv and test.csv a ``user`` column of five rows per user.

    Users are named by segment, so each stays inside its segment.
    """
    for name in ("train.csv", "test.csv"):
        header, *rows = (tmp_path / name).read_text().splitlines()
        users = [f"{row.rsplit(',', 1)[1]}-u{i // 5}" for i, row in enumerate(rows)]
        lines = [f"{header},user"] + [f"{row},{user}" for row, user in zip(rows, users)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")


def test_fit_with_group_col_is_deterministic(tmp_path, recwarn):
    run(simulate_args(tmp_path))
    _add_user_column(tmp_path)
    args = fit_args(tmp_path, extra=("--group-col", "user"))
    assert run(args) == 0
    first = (tmp_path / "model.json").read_bytes(), (tmp_path / "fit_report.json").read_bytes()
    assert json.loads(first[0])["feature_names"] == ["x1", "x2", "x3", "x4"]
    # the test file's user column is not in the training encoding: one warning, nothing encoded
    test_csv = tmp_path / "test.csv"
    assert [str(w.message) for w in recwarn] == [
        f"{test_csv}: columns ['user'] are absent from the reference encoding and were not read"
    ]
    assert run(args) == 0
    assert ((tmp_path / "model.json").read_bytes(), (tmp_path / "fit_report.json").read_bytes()) == first


def test_fit_group_spanning_segments_exit_3(tmp_path, capsys, recwarn):
    run(simulate_args(tmp_path))
    _add_user_column(tmp_path)
    train = tmp_path / "train.csv"
    header, *rows = train.read_text().splitlines()
    # the first row (segment 1) joins the last row's user (segment 3); ids follow first appearance
    rows[0] = rows[0].rsplit(",", 1)[0] + "," + rows[-1].rsplit(",", 1)[1]
    train.write_text("\n".join([header, *rows]) + "\n")
    assert run(fit_args(tmp_path, extra=("--group-col", "user"))) == 3
    assert "group 0 spans segments [0, 2]" in capsys.readouterr().err


def test_fit_missing_group_col_exit_2(tmp_path, capsys):
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path, extra=("--group-col", "user"))) == 2
    assert "missing column 'user'" in capsys.readouterr().err


def test_repeated_column_name_exit_2(tmp_path, capsys):
    run(simulate_args(tmp_path))
    train = tmp_path / "train.csv"
    train.write_text(train.read_text().replace("x1,x2,", "x1,x1,", 1))
    assert run(fit_args(tmp_path)) == 2
    assert "repeated column names ['x1']" in capsys.readouterr().err


def test_one_hot_column_over_the_entry_budget_exit_2(tmp_path, capsys, monkeypatch):
    # a near-unique text column must end as bad input, not in a MemoryError
    run(simulate_args(tmp_path))
    train = tmp_path / "train.csv"
    header, *rows = train.read_text().splitlines()
    lines = [f"{header},note"] + [f"{row},n{i}" for i, row in enumerate(rows)]
    train.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(data_module, "ONE_HOT_MAX_ENTRIES", 1000)
    assert run(fit_args(tmp_path)) == 2
    assert f"column 'note' has {len(rows)} categories" in capsys.readouterr().err


def test_predict_feature_only_input(tmp_path, recwarn):
    # prediction inputs may omit the label column and must not warn about it
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    rows = (tmp_path / "test.csv").read_text().splitlines()
    header = rows[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "y"]
    stripped = "\n".join(",".join(line.split(",")[i] for i in keep) for line in rows)
    (tmp_path / "features.csv").write_text(stripped + "\n")
    code = run([
        "predict",
        "--model", str(tmp_path / "model.json"),
        "--data", str(tmp_path / "features.csv"),
        "--out", str(tmp_path / "preds.csv"),
    ])
    assert code == 0
    assert not [w for w in recwarn if "reference encoding" in str(w.message)]
    with_labels = tmp_path / "preds2.csv"
    run([
        "predict",
        "--model", str(tmp_path / "model.json"),
        "--data", str(tmp_path / "test.csv"),
        "--out", str(with_labels),
    ])
    assert (tmp_path / "preds.csv").read_bytes() == with_labels.read_bytes()


def test_cluster_command(tmp_path):
    run(simulate_args(tmp_path))
    code = run([
        "cluster",
        "--train", str(tmp_path / "train.csv"),
        "--task", "regression",
        "--out", str(tmp_path / "clusters.json"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "clusters.json").read_text())
    assert doc["format_version"] == 1
    flat = sorted(s for c in doc["clusters"] for s in c)
    assert flat == ["1", "2", "3"]
    assert len(doc["distance_matrix"]) == 3


def test_cluster_command_matches_plan_fit(tmp_path, monkeypatch):
    # over 1,000 pooled rows the median bandwidth subsamples with the seed,
    # so the command must seed the distance matrix the way plan_fit does
    run(simulate_args(tmp_path, n_train=1500, segments=4, seed=2))
    flags = ["--seed", "5", "--max-per-segment", "300", "--threads", "1"]
    code = run([
        "cluster",
        "--train", str(tmp_path / "train.csv"),
        "--task", "regression",
        "--out", str(tmp_path / "clusters.json"),
        *flags,
    ])
    assert code == 0
    doc = json.loads((tmp_path / "clusters.json").read_text())

    seen = []
    distance_matrix = mr.segment_distance_matrix

    def recording(*args, **kwargs):
        seen.append(distance_matrix(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(mr, "segment_distance_matrix", recording)
    task = TaskKind.regression()
    train = load_csv(tmp_path / "train.csv", "y", "__segment__", task)
    test = load_csv(tmp_path / "test.csv", "y", "__segment__", task,
                    segment_names=train.segment_names)
    config = MRConfig(seed=5, max_per_segment=300)
    plan = mr.plan_fit(train, (test.features, test.segment_id), config)
    assert len(seen) == 1
    assert doc["distance_matrix"] == [[float(v) for v in row] for row in seen[0].values]
    assert doc["clusters"] == [
        [train.segment_names[s] for s in c] for c in plan.assignment.clusters
    ]


def test_config_file_with_cli_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("segments=2\nn-train=80\nn-test=40\nseed=9\n"
                       f"out-train={tmp_path/'train.csv'}\nout-test={tmp_path/'test.csv'}\n")
    assert run(["simulate", "--config", str(cfgfile), "--n-train", "120"]) == 0
    lines = (tmp_path / "train.csv").read_text().splitlines()
    assert len(lines) == 121  # CLI --n-train beats the file's 80


@pytest.mark.parametrize("value", ["abc", "-1", "nan"])
@pytest.mark.parametrize("command", ["fit", "cv", "cluster"])
def test_bad_bandwidth_exit_2(tmp_path, capsys, command, value):
    run(simulate_args(tmp_path))
    assert run([*command_args(tmp_path, command), "--bandwidth", value]) == 2
    assert "--bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting, message",
    [
        *[
            pytest.param(
                c, [f"--max-per-segment={v}"], "max_per_segment must be an integer >= 2",
                id=f"{c}-max-per-segment{v}",
            )
            for c in ("fit", "cv", "cluster")
            for v in ("-5", "0", "1")
        ],
        pytest.param(
            "fit", ["--eta=-1", "--weight-method", "none"], "eta must be > 0", id="fit-negative-eta"
        ),
        pytest.param("fit", ["--eta", "nan"], "eta must be > 0", id="fit-nan-eta"),
        pytest.param("cv", ["--eta", "0"], "eta must be > 0", id="cv-zero-eta"),
        pytest.param("fit", ["--clusters", "0"], "clusters must be", id="fit-zero-clusters"),
        pytest.param("cv", ["--clusters=-1"], "clusters must be", id="cv-negative-clusters"),
        pytest.param("cluster", ["--clusters", "0"], "clusters must be", id="cluster-zero-clusters"),
        pytest.param("cv", ["--k", "1"], "--k must be >= 2", id="cv-k-1"),
        *[
            pytest.param(c, [f"--threads={v}"], "n_threads must be an integer >= 1", id=f"{c}-threads{v}")
            for c, v in (("fit", "0"), ("fit", "-3"), ("cv", "0"), ("cluster", "-2"))
        ],
        *[
            pytest.param(
                c, [f"--min-cluster-size={v}"], "min_cluster_size must be an integer >= 1",
                id=f"{c}-min-cluster-size{v}",
            )
            for c, v in (("fit", "-4"), ("fit", "0"), ("cluster", "0"))
        ],
    ],
)
def test_out_of_range_setting_exit_2(tmp_path, capsys, command, setting, message):
    # unchecked, --max-per-segment -5 dropped 5 rows of each segment's distance
    # sample and a negative eta with no weights went into the model, both with
    # exit 0; the others failed mid-fit with runtime errors (exit 3)
    run(simulate_args(tmp_path))
    assert run([*command_args(tmp_path, command), *setting]) == 2
    assert message in capsys.readouterr().err


def _subcommand_actions(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _spec(action):
    return (
        action.option_strings, action.default, action.type, action.choices,
        action.required, type(action), action.help,
    )


def test_parser_mirrors_the_config_types():
    tunable = [f for f in dataclasses.fields(GBTConfig) if f.name != "seed"]
    mr_defaults = {
        f.name: f.default for f in dataclasses.fields(MRConfig)
        if f.default is not dataclasses.MISSING
    }
    for command in ("fit", "cv"):
        actions = _subcommand_actions(command)
        for prefix in ("base", "refine"):
            for f in tunable:
                action = actions.pop(f"{prefix}_{f.name}")
                assert action.option_strings == [f"--{prefix}-{f.name.replace('_', '-')}"]
                assert action.type is type(f.default) and action.default is None
        assert not [dest for dest in actions if dest.startswith(("base_", "refine_"))]
        # "auto" stands for MRConfig's None, and --threads defaults to the CPU count
        assert actions.pop("weight_method").default == "auto"
        assert actions.pop("threads").default >= 1
        actions["fit_intercept"] = actions.pop("intercept")
        named = {dest: a.default for dest, a in actions.items() if dest in mr_defaults}
        assert named == {name: mr_defaults[name] for name in named}
        assert sorted(named) == sorted(
            ["shift", "eta", "varsigma", "clusters", "min_cluster_size", "ball",
             "fit_intercept", "lambda_max", "bandwidth", "max_per_segment", "seed"]
        )
    shared = ("clusters", "min_cluster_size", "bandwidth", "max_per_segment", "seed", "threads")
    cluster, fit, cv = (_subcommand_actions(c) for c in ("cluster", "fit", "cv"))
    for dest in shared:
        assert _spec(cluster[dest]) == _spec(fit[dest]) == _spec(cv[dest])


def test_config_file_missing_exit_2(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "none.cfg")]) == 2


def test_cv_command(tmp_path):
    run(simulate_args(tmp_path, n_train=200, n_test=100, segments=2))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"base": {"n_estimators": [8]}, "refine": {"n_estimators": [0, 2]}}))
    code = run([
        "cv",
        "--train", str(tmp_path / "train.csv"),
        "--test", str(tmp_path / "test.csv"),
        "--task", "regression",
        "--clusters", "1",
        "--k", "2",
        "--grid", str(grid),
        "--seed", "3",
        "--out", str(tmp_path / "cv.json"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "cv.json").read_text())
    assert doc["format_version"] == 1
    assert doc["best"]["refine"]["n_estimators"] in (0, 2)
    assert len(doc["fold_reports"]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"base": {"n_trees": [8]}},
        {"base": {"n_estimators": 8}},
        ["x"],
        {"base": {"max_depth": [-1]}},
        {"bases": {"n_estimators": [8]}},
        {"refine": {"n_estimators": [2, 2]}},
    ],
    ids=["unknown-field", "not-a-list", "not-an-object", "invalid-value", "unknown-section",
         "repeated-value"],
)
def test_cv_bad_grid_file_exit_2(tmp_path, capsys, doc):
    run(simulate_args(tmp_path, n_train=200, n_test=100, segments=2))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    code = run([
        "cv",
        "--train", str(tmp_path / "train.csv"),
        "--test", str(tmp_path / "test.csv"),
        "--task", "regression",
        "--grid", str(grid),
        "--out", str(tmp_path / "cv.json"),
    ])
    assert code == 2
    assert "bad grid file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("fit", ["--base-min-child-weight", "nan"]),
        ("fit", ["--refine-leaf-l2", "inf"]),
        ("fit", ["--base-learning-rate", "inf"]),
        ("cv", {"base": {"min_child_weight": [float("nan")]}}),
        ("cv", {"refine": {"leaf_l2": [1.0, float("inf")]}}),
        ("cv", {"base": {"learning_rate": [float("inf")]}}),
    ],
    ids=["fit-nan-min-child-weight", "fit-inf-leaf-l2", "fit-inf-learning-rate",
         "cv-nan-min-child-weight", "cv-inf-leaf-l2", "cv-inf-learning-rate"],
)
def test_non_finite_gbt_setting_exit_2(tmp_path, capsys, command, setting):
    run(simulate_args(tmp_path, n_train=200, n_test=100, segments=2))
    if command == "fit":
        argv = fit_args(tmp_path, extra=setting)
    else:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(setting))  # json writes NaN and Infinity literals
        argv = [
            "cv",
            "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"),
            "--grid", str(grid),
            "--out", str(tmp_path / "cv.json"),
        ]
    assert run(argv) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "cv"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_lambda_max_without_a_finite_bracket_exit_2(tmp_path, capsys, command, value):
    # unchecked, a NaN or infinite lambda_max fits a constant model (beta = 0)
    # and the others fail mid-fit with runtime errors
    run(simulate_args(tmp_path, n_train=200, n_test=100, segments=2))
    setting = [f"--lambda-max={value}"]
    if command == "fit":
        argv = fit_args(tmp_path, extra=setting)
    else:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"base": {"n_estimators": [3]}}))
        argv = [
            "cv",
            "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"),
            "--grid", str(grid),
            "--out", str(tmp_path / "cv.json"),
            *setting,
        ]
    assert run(argv) == 2
    assert "lambda_max must be finite" in capsys.readouterr().err


def test_full_chain_byte_deterministic(tmp_path):
    # simulate + fit + evaluate twice: identical model.json and report.json
    outputs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        run(simulate_args(d, n_train=200, n_test=100, segments=2, seed=5))
        run(fit_args(d))
        run([
            "evaluate",
            "--model", str(d / "model.json"),
            "--test", str(d / "test.csv"),
            "--out-report", str(d / "report.json"),
        ])
        outputs.append(((d / "model.json").read_bytes(), (d / "report.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def _corrupt_first_tree(tmp_path, **root):
    doc = json.loads((tmp_path / "model.json").read_text())
    trees = doc["ensemble"]["models"][0]["trees"]
    for key, value in root.items():
        trees[key][0] = value  # the first tree's root
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize(
    "root, message",
    [
        (dict(left=0, right=0), "child index"),
        (dict(left=10**6), "child index"),
        (dict(left=1.5), "not all integers"),
        (dict(left=True), "not all integers"),
        (dict(threshold=float("inf")), "threshold or value is not finite"),
    ],
    ids=["cyclic", "child-out-of-range", "non-integer-child", "boolean-child", "infinite-threshold"],
)
def test_predict_malformed_tree_exit_2(tmp_path, capsys, root, message):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    bad = _corrupt_first_tree(tmp_path, **root)
    code = run([
        "predict",
        "--model", str(bad),
        "--data", str(tmp_path / "test.csv"),
        "--out", str(tmp_path / "preds.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def _binarize(tmp_path):
    """Relabel the simulated CSVs for a binary task: y > the train median."""
    lines = {name: (tmp_path / name).read_text().splitlines() for name in ("train.csv", "test.csv")}
    cut = np.median([float(line.split(",")[-2]) for line in lines["train.csv"][1:]])
    for name, (header, *rows) in lines.items():
        cells = [line.split(",") for line in rows]
        rows = [",".join([*c[:-2], str(int(float(c[-2]) > cut)), c[-1]]) for c in cells]
        (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")


def _class_k_half(doc):
    doc["ensemble"]["models"][0]["trees"]["class_k"][0] = 0.5


def _relabel_softmax(doc):
    model = doc["ensemble"]["models"][0]
    model.update(loss="softmax", n_classes=3, init_margin=model["init_margin"] * 3)


def _all_segments_wide(doc):
    doc["ensemble"]["models"][-1]["n_features"] = 99


def _refiner_logistic(doc):
    refiner = next(iter(doc["segments"].values()))["refiner"]
    refiner.update(loss="logistic", n_classes=0)


@pytest.mark.parametrize(
    "task, corrupt, message",
    [
        ("regression", _class_k_half, "'class_k' values are not all integers"),
        ("binary", _relabel_softmax, "base model 0 has loss softmax/3"),
        ("regression", _all_segments_wide, "on 99 features"),
        ("regression", _refiner_logistic, "refiner has loss logistic"),
    ],
    ids=["fractional-class-k", "softmax-base-in-binary", "wide-all-segments", "logistic-refiner"],
)
def test_predict_model_disagreeing_with_task_exit_2(tmp_path, capsys, task, corrupt, message):
    run(simulate_args(tmp_path))
    if task == "binary":
        _binarize(tmp_path)
    assert run(fit_args(tmp_path, extra=("--task", task))) == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    corrupt(doc)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run([
        "predict",
        "--model", str(bad),
        "--data", str(tmp_path / "test.csv"),
        "--out", str(tmp_path / "preds.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def _nan_leaf(doc):
    trees = doc["ensemble"]["models"][0]["trees"]
    trees["value"][trees["feature"].index(-1)] = float("nan")


def _infinite_init_margin(doc):
    doc["ensemble"]["models"][0]["init_margin"] = [float("inf")]


def _short_stage1_beta(doc):
    next(iter(doc["segments"].values()))["stage1"]["beta"].pop()


def _nan_lambda_used(doc):
    next(iter(doc["segments"].values()))["stage1"]["lambda_used"] = float("nan")


def _zero_lambda_used(doc):
    next(iter(doc["segments"].values()))["stage1"]["lambda_used"] = 0.0


def _infinite_lambda_max(doc):
    doc["config"]["lambda_max"] = float("inf")


def _nan_bandwidth(doc):
    doc["config"]["bandwidth"] = float("nan")


def _infinite_bandwidth(doc):
    doc["config"]["bandwidth"] = float("inf")


def _negative_eta(doc):
    doc["config"]["eta"] = -1.0


def _zero_clusters(doc):
    doc["config"]["clusters"] = 0


def _small_max_per_segment(doc):
    doc["config"]["max_per_segment"] = 1


def _zero_min_cluster_size(doc):
    doc["config"]["min_cluster_size"] = 0


def _boolean_leaf(doc):
    trees = doc["ensemble"]["models"][0]["trees"]
    trees["value"][trees["feature"].index(-1)] = True


def _string_threshold(doc):
    trees = doc["ensemble"]["models"][0]["trees"]
    trees["threshold"][0] = "0.5"


def _boolean_stage1_beta(doc):
    next(iter(doc["segments"].values()))["stage1"]["beta"][0] = True


def _string_lambda_used(doc):
    next(iter(doc["segments"].values()))["stage1"]["lambda_used"] = "1e-8"


def _fractional_n_features(doc):
    doc["ensemble"]["models"][0]["n_features"] = 4.7


def _v1_trees(trees):
    """Node columns in the version-1 layout: one dict per node, a list per tree."""
    fields = ("feature", "threshold", "left", "right", "value")
    nodes = [dict(zip(fields, node)) for node in zip(*(trees[key] for key in fields))]
    out, start = [], 0
    for k, n in zip(trees["class_k"], trees["n_nodes"]):
        out.append({"class_k": k, "nodes": nodes[start : start + n]})
        start += n
    return out


def _format_version_1(doc):
    # a file as segshift wrote it before node columns
    doc["format_version"] = 1
    for gbt in (*doc["ensemble"]["models"], *(m["refiner"] for m in doc["segments"].values())):
        gbt["trees"] = _v1_trees(gbt["trees"])


def _format_version_99(doc):
    doc["format_version"] = 99


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_leaf, "threshold or value is not finite"),
        (_infinite_init_margin, "init_margin is not finite"),
        (_short_stage1_beta, "stage 1 has beta shape"),
        (_nan_lambda_used, "lambda_used nan is not finite and positive"),
        (_zero_lambda_used, "lambda_used 0.0 is not finite and positive"),
        (_infinite_lambda_max, "lambda_max must be finite"),
        (_nan_bandwidth, "bandwidth must be 'median' or a finite positive number"),
        (_infinite_bandwidth, "bandwidth must be 'median' or a finite positive number"),
        (_negative_eta, "eta must be > 0"),
        (_zero_clusters, "clusters must be"),
        (_small_max_per_segment, "max_per_segment must be an integer >= 2"),
        (_zero_min_cluster_size, "min_cluster_size must be an integer >= 1"),
        (_format_version_1, "format_version 1 is not 2, the only one this segshift reads; re-fit"),
        (_format_version_99, "format_version 99 is not 2, the only one this segshift reads; re-fit"),
        (_boolean_leaf, "tree node 'value' values are not all numbers"),
        (_string_threshold, "tree node 'threshold' values are not all numbers"),
        (_boolean_stage1_beta, "stage 1 beta values are not all numbers"),
        (_string_lambda_used, "stage 1 lambda_used '1e-8' is not a number"),
        (_fractional_n_features, "n_features 4.7 is not an integer"),
    ],
    ids=["nan-leaf", "infinite-init-margin", "short-stage1-beta", "nan-lambda-used",
         "zero-lambda-used", "infinite-lambda-max", "nan-bandwidth", "infinite-bandwidth",
         "negative-eta", "zero-clusters", "small-max-per-segment", "zero-min-cluster-size",
         "format-version-1", "format-version-99", "boolean-leaf", "string-threshold",
         "boolean-stage1-beta", "string-lambda-used", "fractional-n-features"],
)
def test_predict_model_with_bad_numbers_exit_2(tmp_path, capsys, corrupt, message):
    # JSON's NaN and Infinity parse, and a short beta only fails at predict time
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path)) == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    corrupt(doc)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run([
        "predict",
        "--model", str(bad),
        "--data", str(tmp_path / "test.csv"),
        "--out", str(tmp_path / "preds.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def test_fit_kmm_segment_over_the_row_cap_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mr, "KMM_MAX_ROWS", 10)
    run(simulate_args(tmp_path))
    assert run(fit_args(tmp_path, extra=("--weight-method", "kmm"))) == 3
    err = capsys.readouterr().err
    assert re.search(r"segment '\d' has \d+ rows, over the 10-row limit of KMM weights", err)


def test_evaluate_baseline_feature_mismatch_exit_2(tmp_path, capsys):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    # the baseline is fitted on the same rows with one extra feature column
    wide = tmp_path / "wide"
    wide.mkdir()
    for name in ("train.csv", "test.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        rows = [lines[0] + ",extra"] + [f"{line},{i % 7}.0" for i, line in enumerate(lines[1:])]
        (wide / name).write_text("\n".join(rows) + "\n")
    assert run(fit_args(wide, method="gbt")) == 0
    code = run([
        "evaluate",
        "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"),
        "--baseline-model", str(wide / "model.json"),
        "--out-report", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert "extra" in capsys.readouterr().err


def _read_rows(path):
    """(features, labels, segment names) of a CSV written by ``simulate``."""
    lines = path.read_text().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    x = np.array([[float(v) for v in c[:-2]] for c in cells])
    y = np.array([float(c[-2]) for c in cells])
    return x, y, [c[-1] for c in cells]


def _mr_model(path):
    return MRModel.from_dict(json.loads(path.read_text()))


def test_predict_unseen_segment_uses_all_segments_model(tmp_path):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    lines = (tmp_path / "test.csv").read_text().splitlines()
    # every third row names a segment that training never saw
    renamed = [line.rsplit(",", 1)[0] + ",zz" if i % 3 == 0 else line
               for i, line in enumerate(lines[1:])]
    (tmp_path / "unseen.csv").write_text("\n".join([lines[0], *renamed]) + "\n")
    for data, out in (("test.csv", "known.csv"), ("unseen.csv", "mixed.csv")):
        code = run([
            "predict",
            "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / data),
            "--out", str(tmp_path / out),
        ])
        assert code == 0
    known, mixed = (
        np.array([float(line.split(",")[0]) for line in (tmp_path / out).read_text().splitlines()[1:]])
        for out in ("known.csv", "mixed.csv")
    )
    x, _, names = _read_rows(tmp_path / "unseen.csv")
    written = [line.split(",")[1] for line in (tmp_path / "mixed.csv").read_text().splitlines()[1:]]
    assert written == names
    unseen = np.array([name == "zz" for name in names])
    all_segments = _mr_model(tmp_path / "model.json").ensemble.models[-1].predict_margin(x)
    np.testing.assert_array_equal(mixed[unseen], all_segments[unseen])
    np.testing.assert_array_equal(mixed[~unseen], known[~unseen])


def test_evaluate_baseline_segments_matched_by_name(tmp_path):
    run(simulate_args(tmp_path))
    run(fit_args(tmp_path))
    # the baseline is fitted without segment "1", so its ids for "2" and "3" differ
    other = tmp_path / "other"
    other.mkdir()
    lines = (tmp_path / "train.csv").read_text().splitlines()
    kept = [line for line in lines[1:] if line.rsplit(",", 1)[1] != "1"]
    (other / "train.csv").write_text("\n".join([lines[0], *kept]) + "\n")
    (other / "test.csv").write_text((tmp_path / "test.csv").read_text())
    assert run(fit_args(other)) == 0
    code = run([
        "evaluate",
        "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"),
        "--baseline-model", str(other / "model.json"),
        "--out-report", str(tmp_path / "report.json"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())

    model, baseline = _mr_model(tmp_path / "model.json"), _mr_model(other / "model.json")
    assert baseline.segment_names == ("2", "3")
    x, y, names = _read_rows(tmp_path / "test.csv")
    preds = model.predict(x, np.array([model.segment_names.index(n) for n in names]))
    # "1" is unseen by the baseline: any id past its vocabulary
    base_ids = [baseline.segment_names.index(n) if n in baseline.segment_names else 99 for n in names]
    base_preds = baseline.predict(x, np.array(base_ids))
    for name in ("1", "2", "3"):
        rows = np.array([n == name for n in names])
        expected = np.mean((preds[rows] - y[rows]) ** 2) / np.mean((base_preds[rows] - y[rows]) ** 2)
        assert report["segments"][name]["relative"] == pytest.approx(expected, rel=1e-12)
