"""Self-tests of the benchmark, at smoke size.

Run from the repository root: python3 -m pytest perfbench -q
"""

import functools
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@functools.cache
def smoke(name: str, traced: bool):
    w = workloads.WORKLOADS[name]
    train, test = w.data(SEED, smoke=True)
    if traced:
        return run.trace(w, SEED, train, test)
    return run.measure(w, SEED, 0.0, train, test)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    plain, metrics = smoke(name, False)
    traced, _ = smoke(name, True)
    assert plain.ledger.errors == [] and traced.ledger.errors == []
    assert traced.details["test_loss"] == metrics["test_loss"]
    assert traced.details["model_bytes"] == metrics["model_bytes"]
    assert traced.details["best_point"] == plain.details["best_point"]


def test_failed_grid_point_fit_counts_as_failure(monkeypatch):
    import segshift.evalcv

    fit_mr = segshift.evalcv.fit_mr
    calls = itertools.count()

    def second_call_fails(*args, **kwargs):
        if next(calls) == 1:
            raise ValueError("injected failure")
        return fit_mr(*args, **kwargs)

    monkeypatch.setattr(segshift.evalcv, "fit_mr", second_call_fails)
    w = workloads.WORKLOADS["cv-binlabel"]
    train, test = w.data(SEED, smoke=True)
    plain, _ = run.measure(w, SEED, 0.0, train, test)
    assert plain.ledger.failed >= 1
    assert any("injected failure" in e for e in plain.ledger.errors)


def _package_bindings():
    bound = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "segshift" or mod_name.startswith("segshift."):
            for key, value in vars(mod).items():
                bound[(mod_name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("segshift"):
                    for attr, raw in vars(value).items():
                        bound[(mod_name, key, attr)] = raw
    return bound


def test_wrappers_cover_every_lookup_site_and_are_restored():
    import segshift.evalcv
    import segshift.learners
    import segshift.mr
    import segshift.weights

    before = _package_bindings()
    sites = [
        (segshift.mr, "fit_gbt"),
        (segshift.learners, "fit_gbt"),
        (segshift.weights, "fit_linear"),
        (segshift.learners, "fit_linear"),
        (segshift.evalcv, "fit_mr"),
        (segshift.mr, "fit_kmm"),
    ]
    with tracing.Tracer():
        for owner, attr in sites:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner.__name__, attr)
        assert hasattr(segshift.GBTModel.__dict__["from_dict"].__func__, "__wrapped__")
    after = _package_bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_root_wall(name):
    traced, _ = smoke(name, True)
    selfs = tracing.self_times(traced.spans)
    roots = [s for s in traced.spans if s.parent == 0]
    assert {r.name for r in roots} == {
        "bench.fit", "bench.cv", "bench.predict", "bench.predict_1row", "bench.save", "bench.load"
    }
    threaded = workloads.WORKLOADS[name].config.n_threads > 1
    for r in roots:
        total = sum(selfs[s.id] for s in tracing.subtree(traced.spans, r.id))
        if threaded:  # overlapping worker spans each count their own self time
            assert total >= r.wall - 1e-9
        else:
            assert total == pytest.approx(r.wall, rel=1e-9, abs=1e-9)


def test_count_formulas():
    w = workloads.WORKLOADS["cv-binlabel"]
    _, metrics = smoke("cv-binlabel", True)
    n_points = len(list(w.cv_grid.points()))
    assert metrics["segmentation.segment_distance_matrix_calls"] == w.cv_k * n_points
    assert metrics["evalcv.distance_matrix_useful_ratio"] == pytest.approx(1 / n_points)

    w = workloads.WORKLOADS["kmm-bigseg"]
    _, metrics = smoke("kmm-bigseg", True)
    assert metrics["weights.fit_kmm_calls"] == 2 * w.smoke_sizes["n_segments"]


def test_counts_repeat_exactly():
    w = workloads.WORKLOADS["covshift-reg20"]
    _, first = smoke("covshift-reg20", True)
    train, test = w.data(SEED, smoke=True)
    _, second = run.trace(w, SEED, train, test)
    counts = [n for n, unit, _ in run.PER_LAYER if unit == "count" or n.endswith("_ratio")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_benchmark_json_matches_spec_and_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == run.spec()
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]}["setup_s"] == "s"
    assert all(unit.match(m["unit"]) for m in spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covshift-reg20", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
