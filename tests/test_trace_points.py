"""The benchmark's span tracer wraps library attributes by name.

``bench/tracing.TRACE_POINTS`` lists (span name, owner, attribute) for every
layer boundary it times; a renamed or removed attribute would break the
traced benchmark run, so each must still resolve to a callable.  A traced
call moved to another path breaks the span nesting instead, which the
benchmark smoke test's two in-process tracer checks catch; they run here too.
"""

from pathlib import Path

from geneigopt import problems, solvers

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


def test_solvers_call_the_traced_names(monkeypatch):
    # the benchmark's geneig.value_grad_* and geneig.smoothed_* rows read
    # these spans; a solver calling the geneig functions directly would
    # leave both rows at 0
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    spec = problems.ProblemSpec(
        problems.ROBUST_COMPLIANCE, problems.robust_two_bar_model(),
        problems.FeasibleSet(l=[1.0, 1.0], v0=2.0), eps=1e-6)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.recording = True
        solvers.projected_subgradient(spec)
        solvers.smoothed_apg(spec, opts=solvers.SolverOptions(max_iters=5))
    table = tracing.SpanTable(tracer)
    assert table.calls("geneig._pencil_value_grad") >= 1
    assert table.calls("geneig._smoothed_value_grad") >= 1
