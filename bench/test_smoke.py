"""Smoke test of the benchmark itself.

Runs every workload once (a budget of zero seconds still runs one timed
operation), traced and untraced, and checks that tracing leaves no wrapper
behind, so it never leaks into an untraced run.  Not part of the tier-1
suite; run it with

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from geneigopt import geneig  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def patched_attributes():
    return [(owner, attr, getattr(owner, attr))
            for _, owner, attr in tracing.TRACE_POINTS]


def assert_restored(before):
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{attr} left wrapped"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_traced_then_untraced(name):
    wl = workloads.WORKLOADS[name]
    before = patched_attributes()
    traced = workloads.measure(wl, 0, 0.0, True, REFERENCE)
    assert_restored(before)
    assert traced.failed == 0 and not traced.errors
    layers = workloads.per_layer_metrics(traced)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["trace.spans"][0] > 0

    plain = workloads.measure(wl, 0, 0.0, False, REFERENCE)
    assert plain.failed == 0 and not plain.errors
    assert len(plain.op_s) == 1
    e2e = workloads.end_to_end_metrics(plain)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())


def test_wrappers_record_nested_spans():
    tracer = tracing.Tracer()
    x = np.diag([1.0, 2.0, 0.0])
    y = np.diag([1.0, 1.0, 0.0])
    with tracing.traced(tracer):
        tracer.recording = True
        assert geneig.lambda_max_ext(x, y).value == pytest.approx(2.0)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "geneig.lambda_max_ext"
    assert "symmat.kernel_basis" in names and "lapack.scipy_eigh" in names
    parents = list(tracer.parent)
    assert parents[0] == -1 and all(p >= 0 for p in parents[1:])
    table = tracing.SpanTable(tracer)
    assert table.layer_outer_s("geneig") == pytest.approx(
        table.incl_s("geneig.lambda_max_ext"))


def test_traced_restores_after_an_error():
    before = patched_attributes()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("inside the traced block")
    assert_restored(before)


def test_pairs_follow_the_seed():
    a, b = workloads.make_pairs(3), workloads.make_pairs(3)
    assert all(np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y)
               for p, q in zip(a, b))
    c = workloads.make_pairs(4)
    assert not np.array_equal(a[1].x, c[1].x)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_contract_line(trace, group):
    cmd = SPEC["command"] + ["--workload", "pairs_ext", "--seed", "5",
                             "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "pairs_ext", "--seed", "0",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
