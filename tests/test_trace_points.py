"""The benchmark's span tracer wraps library attributes by name.

``bench/tracing.TRACE_POINTS`` lists (span name, owner, attribute) for every
layer boundary it times; a renamed or removed attribute would break the
traced benchmark run, so each must still resolve to a callable.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    assert tracing.TRACE_POINTS
    for name, owner, attr in tracing.TRACE_POINTS:
        assert callable(getattr(owner, attr, None)), name
