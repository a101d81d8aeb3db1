"""Optimization engines for the eigenvalue topology problems.

Three routes to a minimizer:

* projected subgradient on the epsilon-regularized objective, stepping by an
  adaptive Polyak level scheme, which exploits sharpness of the
  max-eigenvalue objectives;
* an accelerated projected gradient method on a log-sum-exp smoothing of the
  objective, with smoothing parameter mu0/(k+1) and a restart whenever the
  objective rises;
* global bisection on the objective level alpha, deciding feasibility of the
  convex sublevel set {x : alpha*B(x) - A(x) >= 0} by minimizing the maximum
  eigenvalue of the affine map A(x) - alpha*B(x) over the feasible set.

``solve`` runs one by name; ``eps_continuation`` chains solves of any over a
decreasing epsilon schedule, warm starting each from the last.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import problems as probs
from .errors import BracketError, InvalidMatrix
from .geneig import AffinePencil, _log_sum_exp, _pencil_eigh, _top_pair
# the benchmark's tracer times the solvers' calls under these two names
from .geneig import composite_value_grad as _pencil_value_grad
from .geneig import smoothed_value_grad as _smoothed_value_grad
from .problems import FeasibleSet, ProblemSpec

#: Bars below this fraction of the largest area count as removed.
DISPLAY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings; each solver reads only some of them.

    * ``max_iters``: ``projected_subgradient``'s budget; ``smoothed_apg``
      always runs all of them; ``bisection_global`` caps its subgradient
      warm start at 4000 and each level's feasibility search at 1000.
    * ``tol_obj`` (the Polyak level's stop): ``projected_subgradient`` and
      the warm start.
    * ``smoothing_mu0`` (mu_k = mu0 / (k + 1)): ``smoothed_apg``, which
      ignores ``tol_obj``.  ``bisect_tol``: ``bisection_global``.
    """

    max_iters: int = 5000
    smoothing_mu0: float = 1e-2
    tol_obj: float = 1e-10
    bisect_tol: float = 1e-8

    def __post_init__(self):
        it = self.max_iters  # numpy integers too, but not bool, 2.5 or NaN
        if isinstance(it, bool) or not isinstance(it, numbers.Integral) \
                or it < 1:
            raise ValueError("max_iters must be an integer of at least 1")
        if not all(0 < v < math.inf for v in (self.smoothing_mu0,
                                               self.tol_obj, self.bisect_tol)):
            raise ValueError("smoothing and tolerances must be positive and finite")


@dataclass
class SolveReport:
    x_final: np.ndarray
    obj_final: float
    obj_exact: float
    history: list[tuple[int, float]] = field(repr=False)
    eps_used: float = 0.0
    iterations: int = 0
    termination: str = "max_iters"
    active_bars: int = 0


def _count_active(x: np.ndarray) -> int:
    top = float(np.max(x)) if len(x) else 0.0
    return 0 if top <= 0 else int(np.sum(x >= DISPLAY_THRESHOLD * top))


def _squared_norm(g: np.ndarray) -> float:
    """g @ g, or ``InvalidMatrix`` (no numpy warning) where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = float(g @ g)
    if not g2 < math.inf:  # inf or NaN: no step along g is usable
        raise InvalidMatrix(f"the subgradient's squared norm is {g2}")
    return g2


def project_feasible(y, fs: FeasibleSet) -> np.ndarray:
    """Euclidean projection onto {x >= lower_bound, l'x <= V0 (or = V0)}.

    The multiplier tau solves sum_j l_j max(lb, y_j - tau l_j) = V0, found
    exactly in O(m log m) from the sorted breakpoints (y_j - lb) / l_j.
    """
    y = np.asarray(y, dtype=float)
    l = fs.l
    lb = fs.lower_bound
    clamped = np.maximum(y, lb)
    vol = float(l @ clamped)
    if fs.kind == probs.VOLUME_LE and vol <= fs.v0:
        return clamped

    # With the k largest breakpoints free the volume meets V0 at taus[k-1];
    # the root is the first such tau at or above the next breakpoint.
    excess = y - lb
    breaks = excess / l
    order = breaks.argsort()[::-1]
    above = fs.v0 - lb * l.sum() if lb else fs.v0  # volume above the floor
    taus = ((l * excess)[order].cumsum() - above) / (l * l)[order].cumsum()
    valid = taus[:-1] >= breaks[order[1:]]
    root = float(taus[valid.argmax() if valid.any() else -1])

    # Bracket tau to 1e-12 as a bisection would, with the root deciding each
    # step, and read the active set at the midpoint: the Polyak stops react
    # to the last bits of a bar whose breakpoint lies that close to the root.
    # lo and hi share one sign, so |hi| + |lo| is |hi + lo|, to the bit.
    lo, hi = 0.0, 1.0
    while hi < abs(root):
        hi *= 2.0
    if vol < fs.v0:
        lo, hi = -hi, 0.0
    while hi - lo > 1e-12 * (1.0 + abs(hi + lo)):
        mid = 0.5 * (lo + hi)
        if mid < root:
            lo = mid
        else:
            hi = mid
    # Exact multiplier from the active set at the bracketed tau.
    tau = 0.5 * (lo + hi)
    free = y - tau * l > lb
    l_free = l[free]
    denom = float(l_free @ l_free)
    if denom > 0:
        fixed_vol = lb * float(l[~free].sum()) if lb else 0.0
        tau = (float(l_free @ y[free]) - (fs.v0 - fixed_vol)) / denom
    return np.maximum(y - tau * l, lb)


def _report(spec: ProblemSpec, x: np.ndarray, obj: float, history,
            iterations: int, termination: str) -> SolveReport:
    """Report for the design x, with its exact (unregularized) objective."""
    exact = probs.psi_exact if spec.kind == probs.ROBUST_COMPLIANCE \
        else probs.phi_exact
    return SolveReport(x_final=x, obj_final=obj, obj_exact=exact(spec.model, x),
                       history=history, eps_used=spec.eps,
                       iterations=iterations, termination=termination,
                       active_bars=_count_active(x))


def _start_point(spec: ProblemSpec, x0) -> np.ndarray:
    if x0 is None:
        m = spec.model.k_pencil.nvars
        total = float(spec.feasible.l @ np.ones(m))
        x0 = np.full(m, spec.feasible.v0 / total)
    return project_feasible(np.asarray(x0, dtype=float), spec.feasible)


def projected_subgradient(spec: ProblemSpec, x0=None,
                          opts: SolverOptions = SolverOptions()) -> SolveReport:
    """Projected subgradient descent; returns the best iterate seen."""
    pa, pb = spec.objective_pencils()
    fs = spec.feasible
    x = _start_point(spec, x0)
    best_x = x.copy()
    best_f = math.inf
    history: list[tuple[int, float]] = []
    termination = "max_iters"

    # Adaptive Polyak level state: the level delta below the record is
    # halved whenever the record fails to drop by a fraction of delta
    # within a patience window.
    delta = None
    stall = 0
    for k in range(opts.max_iters):
        f, g, _ = _pencil_value_grad(pa, pb, x, spec.eps)
        history.append((k, min(f, best_f)))
        if f < best_f:
            best_f, best_x = f, x.copy()
        gnorm = math.sqrt(_squared_norm(g))  # np.linalg.norm's bits
        if gnorm <= 1e-16:
            termination = "obj_tol"
            break

        if delta is None:
            delta = max(0.1 * (abs(f) + 1.0), opts.tol_obj)
            anchor_f = best_f
        floor = opts.tol_obj * (1.0 + abs(best_f))
        if best_f <= anchor_f - 0.2 * delta:
            anchor_f = best_f
            stall = 0
        else:
            stall += 1
        if stall > 60:
            stall = 0
            anchor_f = best_f
            if delta <= floor:
                termination = "obj_tol"
                break
            delta = max(0.5 * delta, floor)
        target = best_f - delta
        t = max(f - target, 0.0) / (gnorm * gnorm)
        x = project_feasible(x - t * g, fs)

    return _report(spec, best_x, best_f, history, len(history), termination)


def smoothed_apg(spec: ProblemSpec, x0=None,
                 opts: SolverOptions = SolverOptions()) -> SolveReport:
    """Accelerated projected gradient on the log-sum-exp smoothed objective.

    The smoothing parameter is mu0 / (k + 1), and the momentum restarts
    whenever the objective rises; the best iterate is tracked by the true
    (unsmoothed) regularized objective, read from the same eigenvalues as
    the accepted step's smoothed value.
    """
    pa, pb = spec.objective_pencils()
    fs = spec.feasible
    x = _start_point(spec, x0)
    y = x.copy()
    theta = 1.0
    lips = 1.0
    best_x = x.copy()
    best_f = _pencil_value_grad(pa, pb, x, spec.eps)[0]
    prev_f = best_f
    history: list[tuple[int, float]] = [(0, best_f)]

    for k in range(opts.max_iters):
        mu = opts.smoothing_mu0 / (k + 1.0)
        fy, gy = _smoothed_value_grad(pa, pb, y, spec.eps, mu)
        _squared_norm(gy)
        # Backtracking on the smoothed model.
        for _ in range(60):
            x_new = project_feasible(y - gy / lips, fs)
            d = x_new - y
            w, _ = _pencil_eigh(pa, pb, x_new, spec.eps)
            fx_new = _log_sum_exp(w, mu)[0]
            if fx_new <= fy + float(gy @ d) + 0.5 * lips * float(d @ d) + 1e-15:
                break
            lips *= 2.0
        lips = max(lips * 0.9, 1e-12)

        f_true = max(float(w[-1]), 0.0)
        history.append((k + 1, min(f_true, best_f)))
        if f_true < best_f:
            best_f, best_x = f_true, x_new.copy()

        if f_true > prev_f:
            theta = 1.0
            y = x_new.copy()
        else:
            theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            y = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
            y = project_feasible(y, fs)
            theta = theta_new
        x = x_new
        prev_f = f_true

    return _report(spec, best_x, best_f, history, opts.max_iters, "max_iters")


def _sublevel_feasible(pencil: AffinePencil, fs: FeasibleSet,
                       x_start: np.ndarray, slack: float, max_iters: int):
    """Search the feasible set for x with lmax(C(x)) <= slack, C = pencil:
    Polyak steps on h(x) = lmax(C(x)) with dsyevr's top pair (h, v) alone
    and the subgradient v'C_j v.  Returns (found, x, best_h)."""
    x = project_feasible(x_start, fs)
    best_h = math.inf
    best_x = x.copy()
    since_improve = 0
    for _ in range(max_iters):
        w, vecs = _top_pair(pencil(x))
        h = float(w[0])
        if math.isinf(best_h) or h < best_h - 1e-14 * (1.0 + abs(best_h)):
            best_h, best_x, since_improve = h, x.copy(), 0
        else:
            since_improve += 1
        if h <= slack:
            return True, x, h
        if since_improve > 300:
            break
        g = pencil.quad(vecs[:, 0])
        gnorm2 = _squared_norm(g)
        if gnorm2 <= 1e-30:
            break
        x = project_feasible(x - (h / gnorm2) * g, fs)
    return best_h <= slack, best_x, best_h


def bisection_global(spec: ProblemSpec, opts: SolverOptions = SolverOptions(),
                     x0=None) -> SolveReport:
    """Global solve of the quasiconvex problem by bisection on the level.

    A level alpha is feasible iff some feasible x satisfies
    alpha * B(x) - A(x) >= 0, i.e. min over the feasible set of
    lmax(A(x) - alpha * B(x)) is (numerically) nonpositive.  Requires affine
    pencils; returns the smallest feasible level found and its witness.

    A short regularized subgradient solve from x0 gives the initial witness
    and upper level; starting the feasibility searches near an optimizer
    matters on larger instances, where the convex search from a cold start
    can fail to certify feasible levels.
    """
    pa, pb = spec.objective_pencils()
    fs = spec.feasible

    warm = projected_subgradient(
        replace(spec, eps=max(spec.eps, 1e-6)), x0,
        replace(opts, max_iters=min(4000, opts.max_iters)))

    scale_a, scale_b = pa.scale(), pb.scale(spec.eps)

    def feasible(alpha, x_from):
        # an unbounded objective shows up as a margin that ignores alpha;
        # the doubling loop aborts on that before the slack can grow enough
        # to absorb it
        slack = 1e-9 * (1.0 + scale_a + alpha * scale_b)
        # warm-started searches settle quickly; a tight budget keeps the
        # many infeasible-side probes from dominating the run time
        return _sublevel_feasible(pa.level(pb, alpha, spec.eps), fs, x_from,
                                  slack, min(opts.max_iters, 1000))

    ok, x_w, _ = feasible(0.0, warm.x_final)
    if ok:
        return _report(spec, x_w, 0.0, [], 0, "bisected")

    alpha_hi = max(warm.obj_final * (1.0 + 1e-3), 10.0 * opts.bisect_tol)
    ok, x_w, h_prev = feasible(alpha_hi, warm.x_final)
    doublings = stagnant = 0
    while not ok:
        alpha_hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise BracketError("no feasible level found while doubling")
        ok, x_w, h = feasible(alpha_hi, warm.x_final)
        if not ok:
            # raising the level must shrink the infeasibility margin unless
            # the objective is infinite on the whole feasible set
            if h >= h_prev - 1e-9 * (1.0 + abs(h_prev)):
                stagnant += 1
                if stagnant >= 3:
                    raise BracketError(
                        "infeasibility margin does not improve with the "
                        "level; the objective appears unbounded")
            else:
                stagnant = 0
            h_prev = h
    witness = x_w

    lo, hi = 0.0, alpha_hi
    history = []
    tol = opts.bisect_tol * (1.0 + alpha_hi)
    # with tol below one ulp, the midpoint rounds to lo or hi: stop there
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        ok, x_w, _ = feasible(mid, witness)
        if ok:
            hi = mid
            witness = x_w
        else:
            lo = mid
        history.append((len(history) + 1, hi))

    return _report(spec, witness, hi, history, len(history), "bisected")


def eps_continuation(spec: ProblemSpec, eps_schedule,
                     opts: SolverOptions = SolverOptions(),
                     method: str = "subgradient") -> list[SolveReport]:
    """Solve the regularized problem along a decreasing epsilon schedule.

    Epsilon shifts the pencil, K(x) + eps I, when ``spec.eps > 0`` and is
    else the area floor x >= eps (``spec.feasible.lower_bound > 0``); an
    exact spec has nothing to sweep.  Each ``solve(step, method)`` starts
    from the previous solution projected into the new feasible set.
    Returns one report per epsilon, in schedule order.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(e <= 0 for e in eps_schedule) or \
            any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing and positive")
    shift = spec.eps > 0
    if not shift and spec.feasible.lower_bound <= 0:
        raise ValueError("an exact spec (eps = 0, lower bound 0) has no "
                         "regularization to sweep")
    reports = []
    for eps in eps_schedule:
        x = reports[-1].x_final if reports else None
        step = replace(spec, eps=eps) if shift else \
            replace(spec, feasible=replace(spec.feasible, lower_bound=eps))
        reports.append(solve(step, method, opts, x))
    return reports


def solve(spec: ProblemSpec, name: str = "subgradient",
          opts: SolverOptions = SolverOptions(), x0=None) -> SolveReport:
    """Run solver ``name`` from x0, looked up per call so a swapped one runs."""
    named = {"subgradient": projected_subgradient,
             "smoothed_apg": smoothed_apg, "bisection": bisection_global}
    if name not in named:
        raise ValueError(f"solver {name!r} is not one of {', '.join(named)}")
    return named[name](spec, x0=x0, opts=opts)
