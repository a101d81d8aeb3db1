"""Numerical certification suites.

Each suite runs a batch of randomized or closed-form checks and returns a
machine-readable list of results.  The membership-bisection oracle here is an
independent route to the extended maximum generalized eigenvalue (it only
uses the PSD test), kept separate from the kernel-reduction algorithm it
cross-checks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import geneig, problems, solvers, symmat
from .problems import (
    EIGENFREQUENCY,
    ROBUST_COMPLIANCE,
    FeasibleSet,
    ProblemSpec,
    demo_model_with_mass,
    demo_model_without_mass,
    robust_two_bar_model,
)
from .solvers import SolverOptions


def lambda_max_by_membership(x, y) -> float:
    """inf{alpha >= 0 | alpha*Y - X >= 0} by doubling plus bisection; +inf
    once eigh's rounding on alpha*Y, about alpha*n*u*(1 + max|Y|), reaches
    the PSD slack, where a feasible verdict would be rounding alone."""
    a = symmat.as_symmetric(x)
    b = symmat.as_symmetric(y)
    # Anchor the PSD slack to |X| alone: a tolerance scaled by the shifted
    # matrix would grow with alpha and eventually absorb genuinely negative
    # eigenvalues of size ~|X|.
    floor = -symmat.PSD_TOL * (1.0 + float(np.max(np.abs(a))))
    noise = a.shape[0] * np.finfo(float).eps * (1.0 + float(np.max(np.abs(b))))

    def feasible(alpha):
        return scipy.linalg.eigh(alpha * b - a, eigvals_only=True,
                                 subset_by_index=[0, 0])[0] >= floor

    if feasible(0.0):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi * noise > -floor:
            return math.inf
    lo = 0.0
    while hi - lo > 1e-12 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def random_psd_pair(rng, dim, singular_y_prob=0.4, zero_prob=0.05):
    """Random PSD pair with forced-degenerate cases mixed in."""

    def one(force_singular):
        if rng.random() < zero_prob:
            return np.zeros((dim, dim))
        # exact zero eigenvalues for the singular cases, positive spectrum
        # bounded away from zero so the kernel threshold never straddles it
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rank = int(rng.integers(1, dim)) if force_singular else dim
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 5.0, rank)
        return (q * vals) @ q.T

    x = one(rng.random() < 0.3)
    y = one(rng.random() < singular_y_prob)
    return x, y


def _check(name, passed, detail="", seed=None):
    return {"name": name, "passed": bool(passed), "detail": str(detail),
            "seed": seed}


def suite_geneig(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []

    worst_gap = 0.0
    bad = None
    for i in range(200):
        x, y = random_psd_pair(rng, int(rng.integers(2, 7)))
        exact = geneig.lambda_max_ext(x, y).value
        oracle = lambda_max_by_membership(x, y)
        if math.isinf(exact) != math.isinf(oracle):
            bad = i
            break
        if math.isfinite(exact):
            gap = abs(exact - oracle) / (1.0 + abs(oracle))
            worst_gap = max(worst_gap, gap)
    results.append(_check(
        "definition_equivalence",
        bad is None and worst_gap <= 1e-8,
        f"worst relative gap {worst_gap:.3e}" if bad is None
        else f"branch mismatch at pair {bad}",
        seed))

    mono_ok = True
    for _ in range(50):
        x, y = random_psd_pair(rng, int(rng.integers(2, 7)))
        e1, e2 = sorted(rng.uniform(1e-6, 1.0, size=2))
        v1 = geneig.lambda_max_eps(x, y, e1).value
        v2 = geneig.lambda_max_eps(x, y, e2).value
        mono_ok &= v1 >= v2 - 1e-12
    results.append(_check("eps_monotonicity", mono_ok, "", seed))

    recip_ok = True
    for _ in range(100):
        x, y = random_psd_pair(rng, int(rng.integers(2, 6)))
        # lambda_min_ext(Y, X) is 1 / lambda_max_ext(X, Y) by construction:
        # the membership oracle is the independent side of the identity
        lmax = lambda_max_by_membership(x, y)
        lmin = geneig.lambda_min_ext(y, x)
        if math.isinf(lmax):
            recip_ok &= lmin <= 1e-6 * (1 + np.max(np.abs(y)))
        elif lmax <= 1e-12:
            recip_ok &= math.isinf(lmin)
        else:
            recip_ok &= abs(lmax * lmin - 1.0) <= 1e-7
    results.append(_check("reciprocal_identity", recip_ok, "", seed))

    conv_ok = True
    for _ in range(50):
        x, y = random_psd_pair(rng, int(rng.integers(2, 6)))
        exact = geneig.lambda_max_ext(x, y).value
        vals = [geneig.lambda_max_eps(x, y, 10.0 ** (-p)).value
                for p in range(1, 10)]
        if math.isfinite(exact):
            conv_ok &= abs(vals[-1] - exact) <= 1e-6 * (1.0 + abs(exact))
        else:
            conv_ok &= vals[-1] * 1e-9 > 1e-12
    results.append(_check("pointwise_convergence", conv_ok, "", seed))

    return results


def suite_examples() -> list[dict]:
    """Closed-form two-bar instances on a grid of designs."""
    ts = np.linspace(0.0, 2.0, 50)

    wo = demo_model_without_mass()
    w = demo_model_with_mass()

    def phi1(x):
        if x[1] > 0:
            return 2.0
        if x[0] > 0:
            return 1.0
        return 0.0

    def phi1_eps(x, e):
        return max(x[0] / (x[0] + e), 2.0 * x[1] / (x[1] + e))

    def phi2(x):
        # With the nonstructural mass the value on the x2 = 0 edge stays at
        # 1 + 1/x1 for every x1 > 0: the second eigenvalue branch (constant 2)
        # only exists while x2 > 0.
        if x[0] == 0:
            return math.inf
        if x[1] == 0 or x[0] < 1:
            return 1.0 + 1.0 / x[0]
        return 2.0

    def phi2_eps(x, e):
        return max((x[0] + 1.0) / (x[0] + e), 2.0 * x[1] / (x[1] + e))

    worst = 0.0
    ok = True
    for x1 in ts:
        for x2 in ts:
            x = np.array([x1, x2])
            for model, exact, reg in ((wo, phi1, phi1_eps), (w, phi2, phi2_eps)):
                v, ref = problems.phi_exact(model, x), exact(x)
                if math.isinf(ref) != math.isinf(v):
                    ok = False
                elif math.isfinite(ref):
                    worst = max(worst, abs(v - ref))
                for e in (0.2, 0.01):
                    worst = max(worst, abs(problems.phi_eps(model, x, e) - reg(x, e)))
    return [_check("two_bar_closed_forms", ok and worst <= 1e-10,
                   f"worst abs error {worst:.3e}")]


def suite_solvers(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []

    proj_ok = True
    for _ in range(50):
        m = int(rng.integers(2, 8))
        l = rng.uniform(0.5, 2.0, m)
        fs = FeasibleSet(l=l, v0=float(rng.uniform(0.5, 3.0)),
                         kind=rng.choice([problems.VOLUME_LE, problems.VOLUME_EQ]))
        y = rng.standard_normal(m) * 2.0
        p = solvers.project_feasible(y, fs)
        # KKT certificate: p in F is max(y - tau*l, 0) for one tau, and on
        # "le" tau >= 0 with the volume active when tau > 0
        free = p > 1e-9
        tau = float(np.mean((y - p)[free] / l[free])) if free.any() else 0.0
        proj_ok &= fs.contains(p) and np.allclose(
            p, np.maximum(y - tau * l, 0.0), rtol=0.0, atol=1e-9)
        if fs.kind == problems.VOLUME_LE:
            proj_ok &= tau >= -1e-9 and (
                tau <= 1e-9 or abs(float(l @ p) - fs.v0) <= 1e-9)
    results.append(_check("projection_optimality", proj_ok, "", seed))

    fs_eq = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0, kind=problems.VOLUME_EQ)
    opts = SolverOptions(max_iters=20_000, tol_obj=1e-12)

    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(), fs_eq, eps=0.01)
    rep = solvers.projected_subgradient(spec, None, opts)
    # The regularized objective on the volume line x1 + x2 = 2 is the max of
    # x1/(x1+e) (increasing) and 2(2-x1)/(2-x1+e) (decreasing); the minimizer
    # is the crossing point, the positive root of x1^2 + (3e-2)x1 - 4e = 0.
    e = 0.01
    x1 = 0.5 * ((2.0 - 3.0 * e) + math.sqrt(9.0 * e * e + 4.0 * e + 4.0))
    x_ref = np.array([x1, 2.0 - x1])
    err = float(np.max(np.abs(rep.x_final - x_ref)))
    results.append(_check("two_bar_eps_minimizer", err <= 1e-4,
                          f"max |x - x*| = {err:.2e}", seed))

    spec0 = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(), fs_eq, eps=0.0)
    rep = solvers.bisection_global(spec0, opts=opts)
    results.append(_check(
        "two_bar_bisection",
        abs(rep.obj_final - 1.0) <= 1e-6
        and float(np.max(np.abs(rep.x_final - [2.0, 0.0]))) <= 1e-6,
        f"alpha* = {rep.obj_final:.8f}", seed))

    fs_le = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0, kind=problems.VOLUME_LE)
    rspec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(), fs_le, eps=1e-6)
    rep = solvers.projected_subgradient(rspec, None, opts)
    results.append(_check(
        "two_bar_robust",
        abs(rep.obj_final - 0.5) <= 1e-3
        and float(np.max(np.abs(rep.x_final - [2.0, 0.0]))) <= 1e-3,
        f"obj = {rep.obj_final:.6f}", seed))

    return results


def run_suites(which: str = "all", seed: int = 0) -> list[dict]:
    suites = {
        "geneig": lambda: suite_geneig(seed),
        "examples": lambda: suite_examples(),
        "solvers": lambda: suite_solvers(seed),
    }
    if which == "all":
        return [r for fn in suites.values() for r in fn()]
    if which not in suites:
        raise ValueError(f"unknown suite {which!r}")
    return suites[which]()
