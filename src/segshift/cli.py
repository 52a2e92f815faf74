"""Batch command-line interface.

Subcommands: simulate, cluster, fit, predict, evaluate, cv. Every JSON
output carries a "format_version" and is byte-deterministic given the
same flags and inputs. Model files are version 2
(``mr.MODEL_FORMAT_VERSION``), with each forest as node columns; a model
file of another version exits 2 and must be re-fit. Reports and the
cluster and cv outputs are version 1. Exit codes: 0 success, 2
usage/config error, 3 runtime/data error. A ``--config`` file provides
flat key=value pairs for any flag; explicit command-line flags override it.

The pipeline flags take their defaults from ``MRConfig``, and ``fit`` and
``cv`` have a ``--base-<field>`` and a ``--refine-<field>`` flag for every
``GBTConfig`` field but ``seed``. ``MRConfig`` and ``GBTConfig`` check the
values, so an out-of-range setting exits 2.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .data import (
    DataError,
    Dataset,
    SyntheticConfig,
    TaskKind,
    load_csv,
    simulate_local_covshift,
    write_csv,
)
from .evalcv import CvGrid, cross_validate, per_segment_report
from .learners import GBTConfig, cluster_base_config, refine_config
from .mr import DRModel, MRConfig, MRModel, _resolve_clusters, fit_dr, fit_mr

FIT_METHODS = ("mr", "dr", "dr-sf", "gbt")
# GBTConfig fields with a --base-* and a --refine-* flag; the seed is derived
_GBT_FLAG_FIELDS = tuple(f for f in fields(GBTConfig) if f.name != "seed")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _usage(message: str) -> CliError:
    return CliError(2, message)


def _runtime(message: str) -> CliError:
    return CliError(3, message)


def _dump_json(obj, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise _usage(f"cannot write {path}: {exc}") from exc


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _usage(f"cannot read {path}: {exc}") from exc


def _task_from_args(args) -> TaskKind:
    try:
        if args.task == "regression":
            return TaskKind.regression()
        if args.task == "binary":
            return TaskKind.binary()
        return TaskKind.multiclass(args.classes)
    except ValueError as exc:
        raise _usage(str(exc)) from exc


def _load_train(args, task: TaskKind) -> Dataset:
    try:
        return load_csv(
            args.train,
            label_col=args.label_col,
            segment_col=args.segment_col,
            task=task,
            group_col=args.group_col,
        )
    except (DataError, OSError, ValueError) as exc:
        raise _usage(f"train data: {exc}") from exc


def _header_of(path) -> list:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return next(csv.reader(fh))
    except (OSError, StopIteration) as exc:
        raise _usage(f"cannot read {path}: {exc}") from exc


def _load_aligned(
    path, label_col, args, task, feature_names, segment_names, label_optional=False
) -> Dataset:
    # feature-only inputs may omit the label column entirely
    if label_optional and label_col is not None and label_col not in _header_of(path):
        label_col = None
    try:
        return load_csv(
            path,
            label_col=label_col,
            segment_col=args.segment_col,
            task=task,
            group_col=None,
            feature_columns=tuple(feature_names),
            segment_names=tuple(segment_names),
        )
    except (DataError, OSError, ValueError) as exc:
        raise _usage(f"{path}: {exc}") from exc


def _gbt_config(args, prefix: str, factory) -> GBTConfig:
    values = {f.name: getattr(args, f"{prefix}_{f.name}") for f in _GBT_FLAG_FIELDS}
    return factory(seed=args.seed, **{k: v for k, v in values.items() if v is not None})


def _bandwidth(args) -> float | str:
    if args.bandwidth == "median":
        return "median"
    try:
        value = float(args.bandwidth)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value > 0):
        raise _usage(f"--bandwidth must be 'median' or a positive number, got {args.bandwidth!r}")
    return value


def _clusters(args) -> int | str:
    if args.clusters == "auto":
        return "auto"
    try:
        return int(args.clusters)
    except ValueError:
        raise _usage(f"--clusters must be 'auto' or an integer, got {args.clusters!r}")


def _mr_config(args, cluster_only: bool = False) -> MRConfig:
    """The config the flags set; a value ``MRConfig`` or ``GBTConfig`` rejects exits 2.

    ``cluster_only`` reads just the flags of ``_add_cluster_flags``.
    """
    settings = dict(
        clusters=_clusters(args),
        min_cluster_size=args.min_cluster_size,
        bandwidth=_bandwidth(args),
        max_per_segment=args.max_per_segment,
        seed=args.seed,
        n_threads=args.threads,
    )
    try:
        if not cluster_only:
            settings.update(
                shift=args.shift,
                weight_method=None if args.weight_method == "auto" else args.weight_method,
                eta=args.eta,
                varsigma=args.varsigma,
                base=_gbt_config(args, "base", cluster_base_config),
                refine=_gbt_config(args, "refine", refine_config),
                ball=args.ball,
                fit_intercept=args.intercept,
                lambda_max=args.lambda_max,
            )
        return MRConfig(**settings)
    except ValueError as exc:
        raise _usage(str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    try:
        cfg = SyntheticConfig(
            n_train=args.n_train,
            n_test=args.n_test if args.n_test is not None else args.n_train,
            n_segments=args.segments,
            gamma=args.gamma,
            noise_sd=args.noise_sd,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _usage(str(exc)) from exc
    train, test = simulate_local_covshift(cfg)
    try:
        write_csv(train, args.out_train)
        write_csv(test, args.out_test)
    except OSError as exc:
        raise _usage(f"cannot write output: {exc}") from exc
    print(f"wrote {train.n} train rows to {args.out_train}, {test.n} test rows to {args.out_test}")
    return 0


def cmd_cluster(args) -> int:
    # a fit's config with this command's flags, so the matrix is the one plan_fit computes
    config = _mr_config(args, cluster_only=True)
    task = _task_from_args(args)
    train = _load_train(args, task)
    try:
        d, assignment = _resolve_clusters(train, config)
    except (DataError, ValueError) as exc:
        raise _runtime(str(exc)) from exc
    out = {
        "format_version": 1,
        "n_clusters": assignment.n_clusters,
        "clusters": [
            [train.segment_names[s] for s in cluster] for cluster in assignment.clusters
        ],
        "segment_order": list(d.segment_names),
        "distance_matrix": [[float(v) for v in row] for row in d.values],
    }
    _dump_json(out, args.out)
    print(f"{assignment.n_clusters} clusters over {d.n_segments} segments -> {args.out}")
    return 0


def _fit_report(method: str, model, train: Dataset) -> dict:
    report = {
        "format_version": 1,
        "method": method,
        "n_train_rows": train.n,
        "n_features": train.d,
    }
    if isinstance(model, MRModel):
        report["input_width"] = train.d
        report["clusters"] = [
            [train.segment_names[s] for s in c] for c in model.ensemble.assignment.clusters
        ]
        report["segments"] = {
            train.segment_names[s]: {
                "beta": m.stage1.beta.tolist(),
                "intercept": m.stage1.intercept.tolist(),
                "lambda": m.stage1.lambda_used,
                "ball_warning": m.stage1.ball_warning,
                "weights": m.weight_summary,
            }
            for s, m in sorted(model.segments.items())
        }
    else:
        report["input_width"] = train.d + (
            model.n_segments if model.with_segment_features else 0
        )
    return report


def cmd_fit(args) -> int:
    if args.method not in FIT_METHODS:
        raise _usage(f"unknown method {args.method!r}; valid methods: {', '.join(FIT_METHODS)}")
    task = _task_from_args(args)
    train = _load_train(args, task)
    test = _load_aligned(
        args.test, args.label_col, args, task, train.feature_names,
        train.segment_names, label_optional=True,
    )
    config = _mr_config(args)
    test_features = (test.features, test.segment_id)
    try:
        if args.method == "mr":
            model = fit_mr(train, test_features, config)
        elif args.method == "dr":
            model = fit_dr(train, test_features, config, with_segment_features=False)
        elif args.method == "dr-sf":
            model = fit_dr(train, test_features, config, with_segment_features=True)
        else:  # plain global model: unweighted, no refinement
            plain = replace(
                config,
                weight_method="none",
                refine=replace(config.refine, n_estimators=0),
            )
            model = fit_dr(train, test_features, plain, with_segment_features=False)
    except (DataError, ValueError) as exc:
        raise _runtime(str(exc)) from exc
    _dump_json(model.to_dict(), args.out_model)
    _dump_json(_fit_report(args.method, model, train), args.out_report)
    print(f"fitted {args.method} model -> {args.out_model}")
    return 0


def _load_model(path):
    doc = _load_json(path)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "mr":
        reader = MRModel.from_dict
    elif kind in ("dr", "dr-sf"):
        reader = DRModel.from_dict
    else:
        raise _usage(f"{path}: unknown model kind {kind!r}")
    try:
        return reader(doc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise _usage(f"{path}: malformed {kind} model: {exc!r}") from exc


def cmd_predict(args) -> int:
    model = _load_model(args.model)
    task = model.task
    label_col = args.label_col if args.label_col is not None else "y"
    data = _load_aligned(
        args.data, label_col, args, task, model.feature_names,
        model.segment_names, label_optional=True,
    )
    try:
        preds = model.predict(data.features, data.segment_id)
    except ValueError as exc:
        raise _runtime(str(exc)) from exc
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if task.kind == "multiclass":
                header = [f"p{k}" for k in range(task.n_classes)]
            elif task.kind == "binary":
                header = ["p1"]
            else:
                header = ["prediction"]
            writer.writerow(header + ["__segment__"])
            for i in range(data.n):
                row = preds[i] if preds.ndim == 2 else [preds[i]]
                writer.writerow(
                    [repr(float(v)) for v in row] + [data.segment_names[data.segment_id[i]]]
                )
    except OSError as exc:
        raise _usage(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {data.n} predictions to {args.out}")
    return 0


def _encode_segments(segment_id, names, vocabulary) -> np.ndarray:
    """Re-encode ids over ``names`` into ``vocabulary`` by name.

    A name the vocabulary lacks gets an id past its end, so a model serves
    those rows as a segment unseen at fit time.
    """
    lookup = {name: i for i, name in enumerate(vocabulary)}
    codes = np.array([lookup.get(name, len(vocabulary)) for name in names], dtype=np.int64)
    return codes[segment_id]


def cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    task = model.task
    if args.label_col is None:
        raise _usage("evaluate requires --label-col")
    test = _load_aligned(
        args.test, args.label_col, args, task, model.feature_names, model.segment_names
    )
    kind = args.metric or ("mse" if task.kind == "regression" else "ce")
    if task.kind == "regression" and kind != "mse":
        raise _usage(f"metric {kind!r} is not defined for regression")
    if task.kind != "regression" and kind == "mse":
        raise _usage("metric 'mse' is not defined for classification")
    baseline = None
    baseline_name = None
    if args.baseline_model:
        baseline = _load_model(args.baseline_model)
        # the test columns are read in the model's feature order
        if baseline.feature_names != model.feature_names:
            raise _usage(
                f"{args.baseline_model}: baseline features {list(baseline.feature_names)} "
                f"differ from the model's {list(model.feature_names)}"
            )
        baseline_name = os.path.basename(args.baseline_model)
    try:
        baseline_preds = None
        if baseline is not None:
            baseline_segments = _encode_segments(
                test.segment_id, test.segment_names, baseline.segment_names
            )
            baseline_preds = baseline.predict(test.features, baseline_segments)
        preds = model.predict(test.features, test.segment_id)
        report = per_segment_report(
            test.labels,
            preds,
            test.segment_id,
            kind,
            baseline_predictions=baseline_preds,
            segment_names=test.segment_names,
            baseline_name=baseline_name,
        )
    except ValueError as exc:
        raise _runtime(str(exc)) from exc
    _dump_json(report.to_dict(), args.out_report)
    print(report.table())
    return 0


def cmd_cv(args) -> int:
    task = _task_from_args(args)
    train = _load_train(args, task)
    test = _load_aligned(
        args.test, args.label_col, args, task, train.feature_names,
        train.segment_names, label_optional=True,
    )
    config = _mr_config(args)
    if args.k < 2:
        raise _usage(f"--k must be >= 2, got {args.k}")
    if args.grid == "default":
        grid = CvGrid()
    else:
        doc = _load_json(args.grid)
        if not isinstance(doc, dict) or not set(doc) <= {"base", "refine"}:
            raise _usage("bad grid file: expected an object with 'base' and 'refine' entries")
        try:
            grid = CvGrid(base=doc.get("base", {}), refine=doc.get("refine", {}))
        except ValueError as exc:
            raise _usage(f"bad grid file: {exc}") from exc
    try:
        best, reports = cross_validate(
            train, (test.features, test.segment_id), grid, args.k, config
        )
    except (DataError, ValueError) as exc:
        raise _runtime(str(exc)) from exc
    out = {
        "format_version": 1,
        "k": args.k,
        "best": best,
        "fold_reports": [r.to_dict() for r in reports],
    }
    _dump_json(out, args.out)
    print(f"best grid point: {json.dumps(best, sort_keys=True)}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_data_flags(p):
    p.add_argument("--label-col", default="y")
    p.add_argument("--segment-col", default="__segment__")
    p.add_argument("--group-col", default=None)
    p.add_argument("--task", choices=("regression", "binary", "multiclass"), default="regression")
    p.add_argument("--classes", type=int, default=3, help="class count for multiclass tasks")


def _add_cluster_flags(p):
    """The flags of the distance matrix and the cluster cut, shared by cluster, fit and cv."""
    p.add_argument("--clusters", default=MRConfig.clusters, help="'auto' or a cluster count")
    p.add_argument("--min-cluster-size", type=int, default=MRConfig.min_cluster_size)
    p.add_argument("--bandwidth", default=MRConfig.bandwidth)
    p.add_argument("--max-per-segment", type=int, default=MRConfig.max_per_segment)
    p.add_argument("--seed", type=int, default=MRConfig.seed)
    p.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="workers for the segment distance matrix",
    )


def _add_pipeline_flags(p):
    _add_cluster_flags(p)
    p.add_argument("--shift", choices=("covariate", "label"), default=MRConfig.shift)
    p.add_argument(
        "--weight-method",
        choices=("auto", "discriminative", "kmm", "bbse", "none"),
        default="auto",
    )
    p.add_argument("--eta", type=float, default=MRConfig.eta)
    p.add_argument("--varsigma", type=float, default=MRConfig.varsigma)
    p.add_argument("--ball", action=argparse.BooleanOptionalAction, default=MRConfig.ball)
    p.add_argument(
        "--intercept", action=argparse.BooleanOptionalAction, default=MRConfig.fit_intercept
    )
    p.add_argument("--lambda-max", type=float, default=MRConfig.lambda_max)
    for prefix in ("base", "refine"):
        for f in _GBT_FLAG_FIELDS:
            flag = f"--{prefix}-{f.name.replace('_', '-')}"
            p.add_argument(flag, type=type(f.default), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segshift",
        description="Segment-local distribution shift adaptation for tabular data",
    )
    parser.add_argument("--version", action="version", version=f"segshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic shifted train/test pair")
    p.add_argument("--segments", type=int, default=20)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--noise-sd", type=float, default=0.3)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, default=None, help="defaults to --n-train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", default="train.csv")
    p.add_argument("--out-test", default="test.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cluster", help="cluster segments by joint-distribution distance")
    p.add_argument("--train", required=True)
    _add_data_flags(p)
    _add_cluster_flags(p)
    p.add_argument("--out", default="clusters.json")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("fit", help="fit a model (mr, dr, dr-sf, or plain gbt)")
    p.add_argument("--method", default="mr")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True, help="test features CSV (labels optional)")
    _add_data_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out-report", default="fit_report.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", default=None)
    p.add_argument("--segment-col", default="__segment__")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="per-segment metric report for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label-col", default="y")
    p.add_argument("--segment-col", default="__segment__")
    p.add_argument("--metric", choices=("mse", "ce", "brier"), default=None)
    p.add_argument("--baseline-model", default=None)
    p.add_argument("--out-report", default="report.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="k-fold grid search with weighted validation folds")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_data_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument(
        "--grid", default="default",
        help="'default' (base n_estimators 50, 200 x refine n_estimators 0, 25) "
        "or a JSON grid file",
    )
    p.add_argument("--out", default="cv.json")
    p.set_defaults(func=cmd_cv)
    return parser


def _apply_config_file(argv: list) -> list:
    """Expand ``--config FILE`` into leading flags (command line wins)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _usage("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _usage(f"cannot read config file {path}: {exc}") from exc
    injected = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _usage(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        injected.extend([f"--{key.strip()}", value.strip()])
    if not rest:
        return injected
    # keep the subcommand first, then file values, then explicit flags
    return [rest[0]] + injected + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
