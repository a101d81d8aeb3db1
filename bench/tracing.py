"""Span tracing for the benchmark's traced run.

For the duration of a ``with traced(tracer):`` block, the module and class
attributes through which one geneigopt layer calls the next are replaced by
wrappers that record a span (name, parent, start, end) per call.  Nothing
under ``src/`` is edited: the library reaches the wrappers because it looks
these names up at call time (``symmat.is_psd``, ``scipy.linalg.eigh``, the
module globals of ``solvers``...).  Every attribute is restored when the
block exits, also on an exception.

Spans are kept in flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from geneigopt import cli, geneig, problems, solvers, symmat, truss

#: (span name, owner, attribute): the layer boundaries that get a span.
#: The span name's prefix up to the first dot is the layer.
TRACE_POINTS = [
    ("cli.load_config", cli, "load_config"),
    ("cli.build_from_config", cli, "build_from_config"),
    ("cli.problem_from_config", cli, "problem_from_config"),
    ("truss.generate_ground_structure", truss, "generate_ground_structure"),
    ("truss.build_model", truss, "build_model"),
    ("solvers.projected_subgradient", solvers, "projected_subgradient"),
    ("solvers.smoothed_apg", solvers, "smoothed_apg"),
    ("solvers.bisection_global", solvers, "bisection_global"),
    ("solvers._sublevel_feasible", solvers, "_sublevel_feasible"),
    ("solvers.project_feasible", solvers, "project_feasible"),
    ("problems.psi_exact", problems, "psi_exact"),
    ("problems.phi_exact", problems, "phi_exact"),
    ("geneig._pencil_value_grad", solvers, "_pencil_value_grad"),
    ("geneig._smoothed_value_grad", solvers, "_smoothed_value_grad"),
    ("geneig.AffinePencil.__call__", geneig.AffinePencil, "__call__"),
    ("geneig.lambda_max_ext", geneig, "lambda_max_ext"),
    ("geneig.lambda_min_ext", geneig, "lambda_min_ext"),
    ("geneig.lambda_max_eps", geneig, "lambda_max_eps"),
    ("symmat.is_psd", symmat, "is_psd"),
    ("symmat.kernel_basis", symmat, "kernel_basis"),
    ("symmat.range_basis", symmat, "range_basis"),
    ("lapack.scipy_eigh", scipy.linalg, "eigh"),
    ("lapack.numpy_eigh", np.linalg, "eigh"),
    ("lapack.numpy_eigvalsh", np.linalg, "eigvalsh"),
]


class Tracer:
    """In-memory span store; records only while ``recording`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.recording = False
        self.current_op = -1
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def wrap(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced_call

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code, e.g. one whole timed operation."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def write_tsv(self, path):
        """One line per span: id, parent, op, name, start and end (s)."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


@contextmanager
def traced(tracer: Tracer, points=TRACE_POINTS):
    """Install span wrappers on ``points`` and restore the originals on exit."""
    saved = []
    try:
        for name, owner, attr in points:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured extra cost of one recorded span over a plain call."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    probe.recording = True
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max(time.perf_counter() - t0 - plain, 0.0) / repeats


class SpanTable:
    """Aggregates over a tracer's spans.

    A span's self time is its duration minus the time of its child spans.
    A layer's outer time sums the spans whose parent lies in another layer,
    so a call nested inside the same layer is not counted twice.
    """

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        n = len(self.dur)
        nested = self.parent >= 0
        self.self_time = self.dur - np.bincount(
            self.parent[nested], weights=self.dur[nested], minlength=n)
        layer_ids = {}
        name_layer = np.array([layer_ids.setdefault(name.split(".", 1)[0],
                                                    len(layer_ids))
                               for name in self.names] or [0], dtype=np.int64)
        self.layer_ids = layer_ids
        self.layer = name_layer[self.name_id]
        parent_layer = np.where(nested, self.layer[np.maximum(self.parent, 0)],
                                -1)
        self.outer = parent_layer != self.layer

    def _named(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, *names: str) -> int:
        return int(sum(np.sum(self._named(n)) for n in names))

    def incl_s(self, *names: str, parent: str | None = None) -> float:
        sel = np.zeros(len(self.dur), dtype=bool)
        for n in names:
            sel |= self._named(n)
        if parent is not None:
            under = self._named(parent)
            sel &= (self.parent >= 0) & under[np.maximum(self.parent, 0)]
        return float(np.sum(self.dur[sel]))

    def layer_calls(self, layer: str) -> int:
        return int(np.sum(self.layer == self.layer_ids.get(layer, -2)))

    def layer_outer_s(self, layer: str) -> float:
        sel = (self.layer == self.layer_ids.get(layer, -2)) & self.outer
        return float(np.sum(self.dur[sel]))

    def layer_self_s(self, layer: str) -> float:
        sel = self.layer == self.layer_ids.get(layer, -2)
        return float(np.sum(self.self_time[sel]))
