"""segshift benchmark: drives the public library API on seeded workloads.

Run from the root of a segshift checkout:

    python3 perfbench/run.py --workload covshift-reg20 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` repeats the workload's primary training call untraced, then runs the
workload once with every layer wrapped (see tracing.py) and reports
per-layer metrics. The last line of standard output is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the spans and the
machine facts go to ``perfbench/out/``. See README.md for the metrics.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

RUN_SECONDS = 25  # run_seconds of BENCHMARK.json and the --seconds default
SETUP_REPS = 3  # set-ups per run; setup_s is their median plus the import
PRIMARY_SHARE = 0.4  # share of --seconds for the workload's primary training call
SECONDARY_SHARE = 0.2  # share of --seconds for the other training call; short operations fill the rest
MIN_SAMPLES = 3  # slices of short operations per run, at the least
CHUNK_1ROW = 100  # 1-row requests per slice of short operations
TRACE_1ROW = 500  # 1-row requests in the traced run
OVERHEAD_PAIRS = 3  # untraced/traced pairs of the primary call for trace.overhead_s
OVERHEAD_BUDGET_S = 45  # no pair past the second starts after this many seconds

# name, unit, better, bound (share of the parent's median), what
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "import, then median of 3 x (smoke warm-up + data generation)"),
    ("fit_s", "s", "lower", 0.25, "one fit_mr call, p90 of the run's calls"),
    ("cv_s", "s", "lower", 0.25, "one cross_validate call, p90 of the run's calls"),
    ("predict_batch_rows_per_s", "rows/s", "higher", 0.25, "one MRModel.predict over the test set, p90 of the run's calls"),
    ("predict_1row_ms_p90", "ms", "lower", 0.25, "closed loop, one caller, >= 300 one-row requests; p50, p75 and p99 go to the run record"),
    ("save_s", "s", "lower", 0.25, "to_dict + json.dumps(sort_keys=True, indent=1), p90 of the run's calls"),
    ("load_s", "s", "lower", 0.25, "json.loads + MRModel.from_dict, p90 of the run's calls"),
    ("model_bytes", "bytes", "lower", 0.1, "length of the saved JSON"),
    ("test_loss", "loss", "lower", 0.25, "segshift.metric on the held-out test labels: mse or ce"),
    ("peak_rss_mb", "MB", "lower", 0.25, "peak resident set of the run's process"),
]

# name, unit, better
PER_LAYER = [
    ("segmentation.segment_distance_matrix_s", "s", "lower"),
    ("segmentation.segment_distance_matrix_calls", "count", "lower"),
    ("segmentation.gram_s", "s", "lower"),
    ("segmentation.gram_calls", "count", "lower"),
    ("segmentation.gram_entries", "count", "lower"),
    ("segmentation.cluster_s", "s", "lower"),
    ("weights.fit_weights_s", "s", "lower"),
    ("weights.fit_discriminative_weights_calls", "count", "lower"),
    ("weights.fit_kmm_calls", "count", "lower"),
    ("weights.fit_kmm_rows", "count", "lower"),
    ("weights.fit_bbse_calls", "count", "lower"),
    ("learners.fit_gbt_s", "s", "lower"),
    ("learners.fit_gbt_calls", "count", "lower"),
    ("learners.fit_gbt_tree_rows", "count", "lower"),
    ("learners.predict_margin_s", "s", "lower"),
    ("learners.predict_margin_calls", "count", "lower"),
    ("learners.predict_margin_tree_rows", "count", "lower"),
    ("learners.fit_linear_s", "s", "lower"),
    ("learners.fit_linear_calls", "count", "lower"),
    ("learners.to_dict_s", "s", "lower"),
    ("learners.from_dict_s", "s", "lower"),
    ("mr.fit_mr_self_s", "s", "lower"),
    ("mr.fit_base_ensemble_s", "s", "lower"),
    ("mr.fit_base_ensemble_calls", "count", "lower"),
    ("mr.fit_dr_s", "s", "lower"),
    ("mr.fit_dr_calls", "count", "lower"),
    ("mr.fit_stage1_s", "s", "lower"),
    ("mr.fit_stage1_calls", "count", "lower"),
    ("mr.fit_stage2_s", "s", "lower"),
    ("mr.ensemble_margins_s", "s", "lower"),
    ("mr.ensemble_margins_calls", "count", "lower"),
    ("mr.predict_self_s", "s", "lower"),
    ("mr.predict_ensemble_passes", "ratio", "lower"),
    ("evalcv.cross_validate_self_s", "s", "lower"),
    ("evalcv.fit_gbt_calls", "count", "lower"),
    ("evalcv.distance_matrix_useful_ratio", "ratio", "higher"),
    ("evalcv.base_fit_useful_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def use_checkout_source(root: Path) -> None:
    """Import segshift from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "segshift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no segshift sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))


def check_source(root: Path) -> None:
    import segshift

    src = (root / "src").resolve()
    if not Path(segshift.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: segshift imported from {segshift.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Operations and checks


class Ledger:
    """Attempted and failed operations; an exception or failed check is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn, *args):
        """Run one operation, returning (seconds, result).

        An exception ends the run with a non-zero exit and no result line.
        """
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result

    def check(self, what, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")


def save(model) -> str:
    """The model JSON exactly as ``segshift fit`` writes it."""
    return json.dumps(model.to_dict(), sort_keys=True, indent=1)


def load(text: str):
    import segshift as ss

    return ss.MRModel.from_dict(json.loads(text))


@contextmanager
def collector_paused():
    """Collect garbage, then keep the cyclic collector off, as timeit does.

    The short operations run inside this, so that collector pauses, whose
    timing depends on what the benchmark itself allocated before, stay out
    of their samples.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def predict_1row(model, x, seg, order):
    """Closed loop, one caller: one request per test row in ``order``."""
    latencies, preds = [], []
    for i in order:
        start = time.perf_counter()
        p = model.predict(x[i : i + 1], seg[i : i + 1])
        latencies.append(time.perf_counter() - start)
        preds.append(p[0])
    return latencies, preds


def check_predictions(ledger, preds, test) -> None:
    task = test.task
    shape = (test.n, task.n_classes) if task.kind == "multiclass" else (test.n,)
    ledger.check("prediction shape", preds.shape == shape)
    ledger.check("predictions finite", bool(np.all(np.isfinite(preds))))
    if task.is_classification:
        ledger.check("probabilities in [0, 1]", bool(np.all((preds >= 0) & (preds <= 1))))
    if task.kind == "multiclass":
        ledger.check("class probabilities sum to 1", bool(np.allclose(preds.sum(axis=1), 1.0, atol=1e-9)))


def check_round_trip(ledger, model, text, test, preds) -> None:
    loaded = load(text)
    again = loaded.predict(test.features, test.segment_id)
    ledger.check("loaded model predicts bitwise-equal output", np.array_equal(again, preds))
    ledger.check("loaded model re-serializes to identical JSON", save(loaded) == text)


def check_1row(ledger, one, preds, order) -> None:
    ledger.check(
        "1-row predictions match the batch",
        bool(np.allclose(np.asarray(one), preds[order], rtol=1e-9, atol=1e-12)),
    )


def check_cv(ledger, result, w) -> None:
    """Checks of one ``Run.cv`` result; every failed grid-point fit is one failure."""
    best, reports, failures = result
    for message in failures:
        ledger.check(message, False)
    points = [{"base": b, "refine": r} for b, r in w.cv_grid.points()]
    ledger.check("cross_validate returns a grid point", best in points)
    ledger.check("every fold scored the chosen point", len(reports) == w.cv_k)


# ---------------------------------------------------------------------------
# One workload run


def set_up(w, seed: int, reps: int):
    """Warm up on smoke-size data, then generate the inputs; median seconds."""
    import segshift as ss

    light = replace(
        w.config,
        base=replace(w.config.base, n_estimators=5),
        refine=replace(w.config.refine, n_estimators=5),
    )
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        s_train, s_test = w.data(seed, smoke=True)
        model = ss.fit_mr(s_train, (s_test.features, s_test.segment_id), light)
        load(save(model)).predict(s_test.features, s_test.segment_id)
        train, test = w.data(seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), train, test


class Run:
    """State shared by the untraced and the traced passes of one workload."""

    def __init__(self, w, seed, train, test):
        self.w = w
        self.train = train
        self.test = test
        self.test_features = (test.features, test.segment_id)
        self.perm = np.random.default_rng(seed).permutation(test.n)
        self.ledger = Ledger()

    def requests(self, n: int, size: int):
        """Test rows of the ``n``-th ``size`` one-row requests, cycling through a permutation."""
        i = np.arange(n * size, (n + 1) * size)
        return self.perm[i % len(self.perm)]

    def fit(self):
        import segshift as ss

        return ss.fit_mr(self.train, self.test_features, self.w.config)

    def cv(self):
        """cross_validate; returns (best point, reports, failed grid-point fits).

        cross_validate skips a grid point whose fit fails on a fold and only
        warns, so the warnings are caught here and counted as failures.
        """
        import segshift as ss

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best, reports = ss.cross_validate(
                self.train, self.test_features, self.w.cv_grid, self.w.cv_k, self.w.cv_config
            )
        failures = [str(c.message) for c in caught if str(c.message).startswith("grid point")]
        return best, reports, failures

    def primary(self):
        return self.cv() if self.w.primary == "cv" else self.fit()

    def test_loss(self, preds) -> float:
        import segshift as ss

        return ss.metric(self.test.labels, preds, self.w.metric_kind)[0]


def p90(times) -> float:
    """Upper decile of a run's samples of one operation.

    The host runs in a slow state most of the time and in a faster one
    for stretches of seconds to minutes, and how much of a run the fast
    state covers differs from run to run. The slow state shows up in every
    run, so the upper decile reads it on every run, where the median and
    the minimum read whichever state covered more of the run. One sample
    is its own upper decile.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def measure(w, seed: int, seconds: float, train, test) -> tuple[Run, dict]:
    """End-to-end metrics with tracing off.

    The run fits first, then makes one step at a time until ``seconds``
    have passed, the other training call has run and MIN_SAMPLES slices of
    short operations ran. A step is the training call that is due and
    furthest behind its share (PRIMARY_SHARE of ``seconds`` for the
    workload's primary call, SECONDARY_SHARE for the other), or else one
    slice of short operations: a batch predict, CHUNK_1ROW one-row
    requests, a save and a load, each with the collector paused. A call is
    due while its time so far stays within its share of the time elapsed,
    and of ``seconds`` with one more call. The short operations so fill
    the rest of the run between the training calls, in slices of a second
    or less. The machine's speed drifts over seconds, and samples taken all
    over the run average that drift out, where samples taken in a few
    stretches follow it.
    """
    run = Run(w, seed, train, test)
    ledger = run.ledger
    x, seg = test.features, test.segment_id
    cv_times, fit_times, batch_times, save_times, load_times = [], [], [], [], []
    cv_share = PRIMARY_SHARE if w.primary == "cv" else SECONDARY_SHARE
    calls = {"cv": (cv_times, cv_share), "fit": (fit_times, PRIMARY_SHARE + SECONDARY_SHARE - cv_share)}

    def due(name, elapsed):
        times, share = calls[name]
        if not times:
            return True
        used = sum(times)
        return used <= share * elapsed and used + statistics.mean(times) <= share * seconds

    latencies = []
    slices = 0
    start = time.perf_counter()
    t, model = ledger.op(run.fit)
    fit_times.append(t)
    while time.perf_counter() - start < seconds or not cv_times or slices < MIN_SAMPLES:
        elapsed = time.perf_counter() - start
        waiting = [n for n in calls if due(n, elapsed)]
        call = min(waiting, key=lambda n: sum(calls[n][0]) / calls[n][1], default=None)
        if call == "cv":
            t, result = ledger.op(run.cv)
            cv_times.append(t)
            check_cv(ledger, result, w)
            best = result[0]
            continue
        if call == "fit":
            model = None  # peak memory must not depend on how many fits ran
            t, model = ledger.op(run.fit)
            fit_times.append(t)
            continue
        with collector_paused():
            t, preds = ledger.op(model.predict, x, seg)
        batch_times.append(t)
        rows = run.requests(slices, CHUNK_1ROW)
        with collector_paused():
            lat, one = predict_1row(model, x, seg, rows)
        ledger.attempted += len(lat)
        latencies += lat
        check_1row(ledger, one, preds, rows)
        with collector_paused():
            t, text = ledger.op(save, model)
        save_times.append(t)
        with collector_paused():
            load_times.append(ledger.op(load, text)[0])
        slices += 1
    check_predictions(ledger, preds, test)
    check_round_trip(ledger, model, text, test, preds)

    loss = run.test_loss(preds)
    ledger.check("test loss finite", math.isfinite(loss))
    ms = [1e3 * t for t in latencies]
    pct = statistics.quantiles(ms, n=100)
    metrics = {
        "fit_s": p90(fit_times),
        "cv_s": p90(cv_times),
        "predict_batch_rows_per_s": test.n / p90(batch_times),
        "predict_1row_ms_p90": pct[89],
        "save_s": p90(save_times),
        "load_s": p90(load_times),
        "model_bytes": len(text.encode()),
        "test_loss": loss,
    }
    run.details = {
        "cv_times": cv_times,
        "fit_times": fit_times,
        "batch_times": batch_times,
        "save_times": save_times,
        "load_times": load_times,
        "slices": slices,
        "best_point": best,
        "predict_1row_samples": len(ms),
        "predict_1row_ms_p50": pct[49],
        "predict_1row_ms_p75": pct[74],
        "predict_1row_ms_p99": pct[98],
        "measure_s": time.perf_counter() - start,
    }
    return run, metrics


def trace(w, seed: int, train, test) -> tuple[Run, dict]:
    """Per-layer metrics from one traced pass, plus the tracing overhead.

    trace.overhead_s is the median, over up to OVERHEAD_PAIRS pairs, of a
    traced primary call's time minus that of the untraced call next to it;
    pairing keeps the machine's drift out of the difference, and the order
    within a pair alternates so that which call runs first does not bias it.
    """
    import tracing

    run = Run(w, seed, train, test)
    ledger = run.ledger
    t_start = time.perf_counter()

    def checked_primary():
        result = run.primary()
        if w.primary == "cv":
            check_cv(ledger, result, w)
        return result

    untraced_s, untraced = ledger.op(checked_primary)
    tracer = tracing.Tracer()
    with tracer:
        root = tracer.root
        traced_s, primary = ledger.op(root, "bench." + w.primary, run.primary)
        cv_result = primary if w.primary == "cv" else root("bench.cv", run.cv)
        model = primary if w.primary == "fit" else root("bench.fit", run.fit)
        preds = root("bench.predict", model.predict, test.features, test.segment_id)
        rows = run.requests(0, TRACE_1ROW)
        _, one = root("bench.predict_1row", predict_1row, model, test.features, test.segment_id, rows)
        text = root("bench.save", save, model)
        root("bench.load", load, text)
    ledger.attempted += 4 + len(rows)
    overheads = [traced_s - untraced_s]
    while len(overheads) < OVERHEAD_PAIRS and time.perf_counter() - t_start < OVERHEAD_BUDGET_S:
        traced_first = len(overheads) % 2 == 1  # untraced-traced, traced-untraced, ...
        if not traced_first:
            u, _ = ledger.op(checked_primary)
        with tracing.Tracer() as probe:
            t, _ = ledger.op(probe.root, "bench." + w.primary, checked_primary)
        if traced_first:
            u, _ = ledger.op(checked_primary)
        overheads.append(t - u)

    check_cv(ledger, cv_result, w)
    check_predictions(ledger, preds, test)
    check_1row(ledger, one, preds, rows)
    check_round_trip(ledger, model, text, test, preds)
    best = cv_result[0]
    if w.primary == "fit":
        ledger.check("traced fit saves the same JSON as the untraced fit", save(untraced) == text)
    else:
        ledger.check("traced CV picks the same point as the untraced CV", untraced[0] == best)

    spans = tracer.spans
    roots = {s.name: s.id for s in spans if s.parent == 0}
    layer_roots = ["bench." + w.primary, "bench.predict", "bench.predict_1row", "bench.save", "bench.load"]
    layer_spans = [s for r in layer_roots for s in tracing.subtree(spans, roots[r])]
    metrics = tracing.layer_metrics(layer_spans)
    metrics["mr.predict_ensemble_passes"] = tracing.ensemble_passes(
        tracing.subtree(spans, roots["bench.predict"])
    )
    n_base_points = len({json.dumps(b, sort_keys=True) for b, _ in w.cv_grid.points()})
    metrics.update(tracing.cv_metrics(tracing.subtree(spans, roots["bench.cv"]), w.cv_k, n_base_points))
    metrics["trace.overhead_s"] = statistics.median(overheads)
    run.details = {
        "test_loss": run.test_loss(preds),
        "model_bytes": len(text.encode()),
        "best_point": best,
        "trace_overheads_s": overheads,
    }
    run.spans = spans
    return run, metrics


# ---------------------------------------------------------------------------
# Reporting


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_workload(name: str, seed: int, seconds: float, traced: bool, import_s: float) -> dict:
    import workloads

    w = workloads.WORKLOADS[name]
    setup_s, train, test = set_up(w, seed, 1 if traced else SETUP_REPS)
    if traced:
        run, metrics = trace(w, seed, train, test)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        run, metrics = measure(w, seed, seconds, train, test)
        metrics["setup_s"] = import_s + setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {n: u for n, u, *_ in END_TO_END}
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "n_threads": w.config.n_threads,
        "sizes": w.sizes,
        "n_train": train.n,
        "n_test": test.n,
        "machine": machine_facts(),
        "details": run.details,
        "errors": run.ledger.errors,
        "metrics": metrics,
    }
    if traced:
        t0 = min(s.start for s in run.spans)
        record["spans"] = [
            [s.id, s.parent, s.name, s.start - t0, s.end - t0, s.work] for s in run.spans
        ]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(record, fh)
    return {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={rate:.4g} ratio")
        for metric, v in result["metrics"].items():
            print(f"  {metric:45s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def spec() -> dict:
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    use_checkout_source(Path.cwd())
    sys.path.insert(0, str(HERE))
    import_start = time.perf_counter()
    import workloads  # imports scipy and segshift

    import_s = time.perf_counter() - import_start
    check_source(Path.cwd())
    if args.write_spec:
        with open("BENCHMARK.json", "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    warnings.simplefilter("ignore")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
