"""geneigopt benchmark workloads: set-up, one timed operation, and checks.

Run one workload in this process:

    PYTHONPATH=src python3 bench/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1

``bench/run.py`` starts this file in a child process whose BLAS and OpenMP
thread counts are pinned to 1 before numpy is imported; use that entry point
for numbers.  The last line printed is the JSON result.

Why each workload exists is written down in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
import scipy

import geneigopt
from geneigopt import cli, geneig, problems, solvers
from geneigopt.errors import GenEigError

from tracing import SpanTable, Tracer, span_cost_s, traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = ROOT / ".bench_out"

#: Relative tolerance of the objective against ``reference.json``.  The
#: objectives repeat exactly today; this leaves room for a change of
#: rounding, not for a different answer.
REFERENCE_RTOL = 1e-6

#: Set-up repeats at least SETUP_REPS times and for at least SETUP_S seconds.
SETUP_REPS = 5
SETUP_S = 1.0

#: Errors the library raises for an operation it cannot complete; they count
#: as failed operations.  Anything else is a defect and stops the run.
OP_ERRORS = (GenEigError, ValueError, np.linalg.LinAlgError)


# --- truss workloads ------------------------------------------------------

@dataclass
class TrussCase:
    model: object
    spec: problems.ProblemSpec
    solves: list    # (config stem, solver name, SolverOptions)


class TrussWorkload:
    """Config files through ``cli`` set-up and the solvers they name.

    ``solves`` maps each config (a file under ``configs/``) to the relative
    tolerance of its objective re-evaluation.  The configs of one workload
    differ only in their solver: set-up builds the model from the first,
    and one timed operation runs every config's solver on it, in turn.

    The inputs do not depend on the seed: every seed is the configs as
    written, so objectives and iteration counts repeat exactly.
    """

    def __init__(self, name: str, solves: dict):
        self.name = name
        self.solves = solves

    def setup(self, seed: int) -> TrussCase:
        cfgs = {stem: cli.load_config(
                    str(BENCH_DIR / "configs" / f"{stem}.json"))
                for stem in self.solves}
        first = next(iter(cfgs.values()))
        _, model = cli.build_from_config(first)
        spec = cli.problem_from_config(first, model)
        return TrussCase(model, spec, [
            (stem, cfg["solver"]["name"], cli.solver_options_from_config(cfg))
            for stem, cfg in cfgs.items()])

    def ops(self, case: TrussCase) -> int:
        return len(case.solves)

    def run(self, case: TrussCase) -> list:
        reports = []
        for _, name, opts in case.solves:
            if name == "bisection":
                reports.append(solvers.bisection_global(case.spec, opts=opts))
            elif name == "smoothed_apg":
                reports.append(solvers.smoothed_apg(case.spec, None, opts))
            else:
                reports.append(
                    solvers.projected_subgradient(case.spec, None, opts))
        return reports

    def check(self, case: TrussCase, reports: list, reference: dict):
        spec = case.spec
        evaluate = problems.psi_eps if spec.kind == problems.ROBUST_COMPLIANCE \
            else problems.phi_eps
        errors, failed, info = [], 0, {}
        for (stem, _, _), rep in zip(case.solves, reports):
            errs = []
            if not spec.feasible.contains(rep.x_final):
                errs.append("design outside the feasible set")
            # bisection returns a level, not the objective at its witness:
            # the witness meets the level up to the feasibility search's slack
            again = evaluate(spec.model, rep.x_final, spec.eps)
            if not abs(again - rep.obj_final) <= self.solves[stem] * abs(again):
                errs.append(f"obj_final {rep.obj_final!r} but re-evaluation "
                            f"gives {again!r}")
            ref = reference[stem]["objective"]
            if not abs(rep.obj_final - ref) <= REFERENCE_RTOL * abs(ref):
                errs.append(f"obj_final {rep.obj_final!r} differs from the "
                            f"reference {ref!r}")
            failed += bool(errs)
            errors.extend(f"{stem}: {e}" for e in errs)
            # obj_exact = inf is information, not a failure: on the
            # eigenfrequency model the regularized optimum leaves a massed
            # mechanism, where the exact objective is +inf
            info[stem] = {"obj_final": rep.obj_final,
                          "obj_exact": repr(rep.obj_exact),
                          "iterations": rep.iterations,
                          "termination": rep.termination}
        return len(reports), failed, reports[0].obj_final, info, errors

    def layer_counts(self, case: TrussCase, reports: list) -> dict:
        return {"solvers.iterations": sum(r.iterations for r in reports),
                "solvers.bisect_levels": sum(
                    r.iterations for (_, name, _), r in zip(case.solves, reports)
                    if name == "bisection")}


# --- extended-real pair batch ---------------------------------------------

PAIR_DIMS = (24, 48, 80)
PAIRS_PER_DIM = 200
MAX_KERNEL_DIM = 6
PAIR_EPS = 1e-6
PAIR_RTOL = 1e-8

ZERO_ZERO = "zero_zero"
ESCAPE = "kernel_escape"
FINITE = "finite"
#: Case of slot i is CASE_CYCLE[i % 10]: 10% zero-zero, 30% escape.
CASE_CYCLE = (ZERO_ZERO, ESCAPE, FINITE, FINITE, ESCAPE, FINITE, FINITE,
              ESCAPE, FINITE, FINITE)


@dataclass(frozen=True)
class Pair:
    x: np.ndarray
    y: np.ndarray
    case: str
    top: float      # planted reduced-pencil maximum
    bottom: float   # planted reduced-pencil minimum


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def planted_top(slot: int) -> float:
    """Top generalized eigenvalue planted in a slot; it fixes the batch mean."""
    return 1.0 + 0.5 * (slot % 8)


def make_pair(rng, n: int, slot: int) -> Pair:
    """PSD pair whose extended eigenvalues are known by construction.

    Y = U D U' on an (n-k)-dimensional range U with a planted kernel of
    dimension k.  X = F diag(mu) F' with F = U D^(1/2) P, so the pencil
    reduced to the range has eigenvalues exactly mu.  A kernel-escape pair
    adds z z' for a unit z in ker Y, which makes lambda_max infinite and
    leaves lambda_min at min(mu).
    """
    case = CASE_CYCLE[slot % len(CASE_CYCLE)]
    if case == ZERO_ZERO:
        return Pair(np.zeros((n, n)), np.zeros((n, n)), case, 0.0, math.inf)
    k = int(rng.integers(1 if case == ESCAPE else 0, MAX_KERNEL_DIM + 1))
    r = n - k
    basis = _orthogonal(rng, n)
    half = basis[:, :r] * np.sqrt(rng.uniform(0.5, 2.0, r))
    top = planted_top(slot)
    mu = np.concatenate(([top], top * rng.uniform(0.05, 0.9, r - 1)))
    f = half @ _orthogonal(rng, r)
    x = (f * mu) @ f.T
    if case == ESCAPE:
        z = basis[:, r:] @ rng.standard_normal(k)
        z /= np.linalg.norm(z)
        x = x + np.outer(z, z)
    return Pair(x, half @ half.T, case, top, float(np.min(mu)))


def make_pairs(seed: int) -> list[Pair]:
    rng = np.random.default_rng(seed)
    return [make_pair(rng, n, slot)
            for n in PAIR_DIMS for slot in range(PAIRS_PER_DIM)]


def pair_errors(p: Pair, out) -> list[str]:
    """What the construction of ``p`` says ``out`` must be."""
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    lmax, lmin, leps = out
    errors = []
    if not leps <= lmax * (1.0 + 1e-9):
        errors.append(f"lambda_max_eps {leps!r} > lambda_max_ext {lmax!r}")
    if p.case == ZERO_ZERO:
        if not (lmax == 0.0 and lmin == math.inf and leps == 0.0):
            errors.append(f"zero-zero gave {out!r}")
        return errors
    if not abs(lmin - p.bottom) <= PAIR_RTOL * p.top:
        errors.append(f"lambda_min_ext {lmin!r}, planted {p.bottom!r}")
    if p.case == ESCAPE:
        # the escape direction z has quotient z'Xz / z'(Y+eps I)z = 1/eps
        if lmax != math.inf or not (1.0 - 1e-6) / PAIR_EPS <= leps < math.inf:
            errors.append(f"kernel escape gave {lmax!r}, eps value {leps!r}")
    elif not abs(lmax - p.top) <= PAIR_RTOL * p.top:
        errors.append(f"lambda_max_ext {lmax!r}, planted {p.top!r}")
    return errors


class PairsWorkload:
    """A seeded batch of PSD pairs through the extended-real functions."""

    name = "pairs_ext"

    def setup(self, seed: int) -> list[Pair]:
        return make_pairs(seed)

    def ops(self, batch) -> int:
        return len(batch)

    def run(self, batch):
        out = []
        for p in batch:
            try:
                out.append((geneig.lambda_max_ext(p.x, p.y).value,
                            geneig.lambda_min_ext(p.x, p.y),
                            geneig.lambda_max_eps(p.x, p.y, PAIR_EPS).value))
            except OP_ERRORS as exc:
                out.append(exc)
        return out

    def check(self, batch, outs, reference: dict):
        errors, failed, finite = [], 0, []
        for i, (p, out) in enumerate(zip(batch, outs)):
            errs = pair_errors(p, out)
            if errs:
                failed += 1
                errors.extend(f"pair {i} ({p.case}): {e}" for e in errs)
            elif p.case == FINITE:
                finite.append(out[0])
        objective = statistics.fmean(finite) if finite else math.nan
        ref = reference[self.name]["objective"]
        if not abs(objective - ref) <= REFERENCE_RTOL * abs(ref):
            errors.append(f"mean finite lambda_max_ext {objective!r} differs "
                          f"from the reference {ref!r}")
            failed = max(failed, 1)
        counts = {c: sum(p.case == c for p in batch)
                  for c in (FINITE, ESCAPE, ZERO_ZERO)}
        return len(batch), failed, objective, counts, errors

    def layer_counts(self, batch, outs) -> dict:
        return {"solvers.iterations": 0, "solvers.bisect_levels": 0}


WORKLOADS = {
    "robust_7x4_subgrad": TrussWorkload(
        "robust_7x4_subgrad", {"robust_7x4_subgrad": 1e-9}),
    "eigfreq_5x3": TrussWorkload(
        "eigfreq_5x3", {"eigfreq_5x3_bisect": 1e-4, "eigfreq_5x3_apg": 1e-9}),
    "pairs_ext": PairsWorkload(),
}


# --- measurement ----------------------------------------------------------

def array_nbytes(obj, seen=None) -> int:
    """Bytes of every distinct numpy array reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else array_nbytes(obj.base, seen)
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif is_dataclass(obj):
        items = [getattr(obj, f.name) for f in fields(obj)]
    elif hasattr(type(obj), "__slots__"):
        items = [getattr(obj, s) for s in type(obj).__slots__]
    else:
        return 0
    return sum(array_nbytes(item, seen) for item in items)


@dataclass
class Measurement:
    setup_s: list
    op_s: list
    attempted: int
    failed: int
    objectives: list
    info: object
    errors: list
    layer_counts: dict
    case: object
    setup_trace: Tracer
    op_trace: Tracer


def measure(wl, seed: int, seconds: float, trace: bool,
            reference: dict) -> Measurement:
    """Set up a few times (see SETUP_REPS), then repeat the operation for about
    ``seconds`` seconds (at least once), checking every result untimed.
    Another operation starts while it would end, on its mean time, less
    than half an operation past ``seconds``.

    Set-up and the operations each have their own tracer, so per-operation
    layer numbers exclude set-up.  Only with ``trace`` are the library's
    layer boundaries wrapped; otherwise a tracer records one span per
    operation and nothing else.
    """
    install = traced if trace else (lambda tracer: nullcontext())
    setup_trace, op_trace = Tracer(), Tracer()

    setup_s = []
    with install(setup_trace):
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_S:
            setup_trace.recording = True
            t0 = time.perf_counter()
            case = wl.setup(seed)
            setup_s.append(time.perf_counter() - t0)
            setup_trace.recording = False

    op_s, objectives, errors = [], [], []
    attempted = failed = 0
    info, layer_counts = None, {}
    start = time.perf_counter()
    with install(op_trace):
        while True:
            op_trace.current_op = len(op_s)
            op_trace.recording = True
            t0 = time.perf_counter()
            try:
                with op_trace.span("bench.op"):
                    out = wl.run(case)
            except OP_ERRORS as exc:
                out = exc
            op_s.append(time.perf_counter() - t0)
            op_trace.recording = False
            if isinstance(out, Exception):
                attempted += wl.ops(case)
                failed += wl.ops(case)
                errors.append(f"{type(out).__name__}: {out}")
            else:
                n, bad, objective, info, errs = wl.check(case, out, reference)
                attempted += n
                failed += bad
                objectives.append(objective)
                errors.extend(errs)
                layer_counts = wl.layer_counts(case, out)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * statistics.fmean(op_s) > seconds:
                break
    return Measurement(setup_s, op_s, attempted, failed, objectives, info,
                       errors, layer_counts, case, setup_trace, op_trace)


def end_to_end_metrics(m: Measurement) -> dict:
    objective = statistics.median(m.objectives) if m.objectives else math.nan
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "solve_s": (statistics.fmean(m.op_s), "s"),
        "objective": (objective, "value"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "ok_frac": (1.0 - m.failed / m.attempted, "ratio"),
    }


def per_layer_metrics(m: Measurement) -> dict:
    """Per-layer numbers from the traced run: set-up rows per set-up, the
    rest per timed operation (one run of each of the workload's solvers,
    or one pass over the pair batch)."""
    st = SpanTable(m.setup_trace)
    ot = SpanTable(m.op_trace)
    reps = len(m.setup_s)
    ops = len(m.op_s)
    spans = len(m.op_trace)
    traced_op_s = statistics.fmean(m.op_s)
    model = getattr(m.case, "model", None)
    rows = {
        "truss.generate_s": (st.incl_s("truss.generate_ground_structure")
                             / reps, "s"),
        "truss.build_model_s": (st.incl_s("truss.build_model") / reps, "s"),
        "truss.model_mb": (array_nbytes(model) / 1e6 if model else 0.0, "MB"),
        "cli.self_s": (st.layer_self_s("cli") / reps, "s"),
        "geneig.value_grad_calls": (ot.calls("geneig._pencil_value_grad"),
                                    "count"),
        "geneig.value_grad_s": (ot.incl_s("geneig._pencil_value_grad"), "s"),
        "geneig.assemble_calls": (ot.calls("geneig.AffinePencil.__call__"),
                                  "count"),
        "geneig.assemble_s": (ot.incl_s("geneig.AffinePencil.__call__"), "s"),
        "geneig.smoothed_calls": (ot.calls("geneig._smoothed_value_grad"),
                                  "count"),
        "geneig.smoothed_s": (ot.incl_s("geneig._smoothed_value_grad"), "s"),
        "geneig.ext_calls": (ot.calls("geneig.lambda_max_ext"), "count"),
        "geneig.ext_s": (ot.incl_s("geneig.lambda_max_ext"), "s"),
        "geneig.eps_s": (ot.incl_s("geneig.lambda_max_eps"), "s"),
        "geneig.min_ext_s": (ot.incl_s("geneig.lambda_min_ext"), "s"),
        "symmat.spectral_calls": (ot.layer_calls("symmat"), "count"),
        "symmat.spectral_s": (ot.layer_outer_s("symmat"), "s"),
        "solvers.project_calls": (ot.calls("solvers.project_feasible"),
                                  "count"),
        "solvers.project_s": (ot.incl_s("solvers.project_feasible"), "s"),
        "solvers.sublevel_calls": (ot.calls("solvers._sublevel_feasible"),
                                   "count"),
        "solvers.sublevel_s": (ot.incl_s("solvers._sublevel_feasible"), "s"),
        "solvers.warmstart_s": (ot.incl_s("solvers.projected_subgradient",
                                          parent="solvers.bisection_global"),
                                "s"),
        "solvers.self_s": (ot.layer_self_s("solvers"), "s"),
        "problems.exact_s": (ot.incl_s("problems.psi_exact",
                                       "problems.phi_exact"), "s"),
        "lapack.eigh_calls": (ot.layer_calls("lapack"), "count"),
        "lapack.eigh_s": (ot.layer_outer_s("lapack"), "s"),
    }
    per_op = {}
    for key, (value, unit) in rows.items():
        per_setup = key.startswith(("truss.", "cli."))
        per_op[key] = (value if per_setup else value / ops, unit)
    for key, value in m.layer_counts.items():
        per_op[key] = (value, "count")
    per_op["trace.spans"] = (spans / ops, "count")
    per_op["trace.solve_s"] = (traced_op_s, "s")
    per_op["trace.overhead_frac"] = (span_cost_s() * spans / ops / traced_op_s,
                                     "ratio")
    return per_op


def environment() -> dict:
    def blas_version(config):
        return config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    threads = {v: os.environ.get(v) for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas_version(np.show_config),
            "scipy_openblas": blas_version(scipy.show_config)}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(geneigopt.__file__).resolve().parents:
        print(f"geneigopt imported from {geneigopt.__file__}, not from the "
              "checkout's src/", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    wl = WORKLOADS[args.workload]
    m = measure(wl, args.seed, args.seconds, bool(args.trace), reference)

    print("# env " + json.dumps(environment()))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"setup_reps={len(m.setup_s)} ops={len(m.op_s)} "
          f"op_s={[round(t, 4) for t in m.op_s]}")
    print(f"# {args.workload} fail_frac={m.failed / m.attempted!r} "
          f"({m.failed}/{m.attempted}) info={json.dumps(m.info)}")
    for err in m.errors[:20]:
        print(f"# CHECK FAILED: {err}")
    if args.trace:
        metrics = per_layer_metrics(m)
        TRACE_DIR.mkdir(exist_ok=True)
        for label, tracer in (("setup", m.setup_trace), ("ops", m.op_trace)):
            tracer.write_tsv(TRACE_DIR / f"{args.workload}.{label}.spans.tsv")
    else:
        metrics = end_to_end_metrics(m)
    for key, (value, unit) in metrics.items():
        print(f"# {args.workload} {key} = {value!r} {unit}")
    print(result_line(not m.errors and m.failed == 0, m.attempted, m.failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
