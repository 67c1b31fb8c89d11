"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import hypmetrics.extrapolation  # noqa: E402
import worker  # noqa: E402
from spans import WRAPPED, Tracer, instrument  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ["oracle.calls", "metrics.eval_many.calls", "metrics.eval_many.points",
          "curvature.curvature_at.calls", "distances.calls", "inequalities.calls",
          "extrapolation.extrapolate.calls"]


def traced_pass(name: str, seed: int) -> dict:
    """One traced pass of the oracle workload, or one in-process verify sweep."""
    wl = worker.make_workload(name, seed, ROOT) if name == "oracle-xval" \
        else worker.VerifySweep(seed)
    tracer = Tracer()
    with instrument(tracer):
        oks = [wl.op(i, tracer) for i in range(getattr(wl, "pass_len", 1))]
    assert all(oks), wl.detail
    return worker.layer_metrics(tracer, 1)


@pytest.mark.parametrize("name", ["oracle-xval", "sweep"])
def test_counts_repeat_exactly(name):
    first, second = traced_pass(name, 3), traced_pass(name, 3)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    used = ["oracle.calls", "metrics.eval_many.points"] if name == "oracle-xval" else \
        ["curvature.curvature_at.calls", "distances.calls"]
    assert all(first[k] > 0 for k in used)


# the traced cli run also covers the in-process sweep behind the layer metrics
@pytest.mark.parametrize("workload,trace,key", [("oracle-xval", 0, "end_to_end"),
                                                ("cli", 1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(workload, trace, key):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= worker.MIN_OPS
    assert sorted(out["metrics"]) == sorted(m["name"] for m in SPEC[key])


def test_wrong_or_raising_oracle_value_is_a_failure(monkeypatch):
    wl = worker.make_workload("oracle-xval", 0, ROOT)
    label, dom, z1, z2, lift, extra = wl.pairs[0]
    truth = getattr(worker.distances, lift)(z1, z2, *extra)

    monkeypatch.setattr(worker.oracle, "geodesic_oracle", lambda *a, **k: truth)
    assert wl.op(0, None)
    wrong = worker.distances.DistanceResult(truth.value + 0.05, truth.method)
    monkeypatch.setattr(worker.oracle, "geodesic_oracle", lambda *a, **k: wrong)
    assert not wl.op(0, None)

    def boom(*a, **k):
        raise worker.oracle.OutsideDomain("injected")
    monkeypatch.setattr(worker.oracle, "geodesic_oracle", boom)
    assert not wl.op(0, None)
    assert len(wl.detail) == 2 and "injected" in wl.detail[1]


def test_known_red_checks_are_reported_not_failed():
    wl = worker.VerifySweep(0)
    assert wl._suite("phi", None)
    assert wl.known_red == {"phi:expansion-limit", "phi:disk-functional-limit"}


def test_removed_function_is_a_missing_metric(monkeypatch):
    assert not any(f.startswith("_") for names in WRAPPED.values() for f in names)
    monkeypatch.delattr(hypmetrics.extrapolation, "extrapolate")
    tracer = Tracer()
    with instrument(tracer):
        pass
    assert tracer.missing == ["extrapolation.extrapolate"]
    metrics = worker.layer_metrics(tracer, 1)
    assert "extrapolation.extrapolate_ms" not in metrics
    assert "curvature.curvature_at_ms" in metrics


def test_compare_verdicts():
    parent = [100.0 + (i % 3) for i in range(10)]
    assert compare.verdict(parent, [v - 20 for v in parent], "lower", 0.1) == "improved"
    assert compare.verdict(parent, [v + 20 for v in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    assert compare.verdict(parent[:5], parent[:5], "lower", 0.1) == "unresolved"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
