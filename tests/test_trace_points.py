"""The benchmark's span tracer wraps library attributes by name.

``bench/tracing.TRACE_POINTS`` lists (span name, owner, attribute) for every
layer boundary it times; a renamed or removed attribute would break the
traced benchmark run, so each must still resolve to a callable.  A traced
call moved to another path breaks the span nesting instead, which the
benchmark smoke test's two in-process tracer checks catch; they run here too.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    assert tracing.TRACE_POINTS
    for name, owner, attr in tracing.TRACE_POINTS:
        assert callable(getattr(owner, attr, None)), name


def test_bench_tracer_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import test_smoke

    test_smoke.test_wrappers_record_nested_spans()
    test_smoke.test_traced_restores_after_an_error()
