"""Tests for the projection, subgradient, smoothed-gradient and bisection solvers."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from geneigopt import cli, geneig, problems, solvers, truss, verify
from geneigopt.errors import BracketError, InvalidMatrix
from geneigopt.geneig import AffinePencil
from geneigopt.problems import (
    EIGENFREQUENCY,
    ROBUST_COMPLIANCE,
    FeasibleSet,
    PencilModel,
    ProblemSpec,
    demo_model_with_mass,
    demo_model_without_mass,
    robust_two_bar_model,
)
from geneigopt.solvers import (
    SolverOptions,
    bisection_global,
    eps_continuation,
    project_feasible,
    projected_subgradient,
    smoothed_apg,
)
from oracles import (
    dense_pencil,
    einsum_sums_row_major,
    project_feasible_reference,
    quad_einsum,
)

TWO_BAR_EQ = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0,
                         kind=problems.VOLUME_EQ)
TWO_BAR_LE = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0,
                         kind=problems.VOLUME_LE)


def eps_minimizer_no_mass(eps):
    """Crossing point of x1/(x1+e) and 2(2-x1)/(2-x1+e) on the volume line."""
    x1 = 0.5 * ((2.0 - 3.0 * eps) + math.sqrt(9.0 * eps * eps + 4.0 * eps + 4.0))
    return np.array([x1, 2.0 - x1])


# ------------------------------------------------------------------ projection

def test_projection_examples():
    fs = TWO_BAR_EQ
    assert np.allclose(project_feasible([2.0, 2.0], fs), [1.0, 1.0])
    assert np.allclose(project_feasible([3.0, -1.0], fs), [2.0, 0.0], atol=1e-9)
    le = TWO_BAR_LE
    assert np.allclose(project_feasible([0.5, -0.3], le), [0.5, 0.0])


def test_projection_respects_lower_bound():
    fs = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0,
                     kind=problems.VOLUME_EQ, lower_bound=0.25)
    p = project_feasible([3.0, -1.0], fs)
    assert np.all(p >= 0.25 - 1e-12)
    assert abs(float(fs.l @ p) - 2.0) < 1e-9


def test_projection_is_nearest_point():
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        l = rng.uniform(0.5, 2.0, m)
        kind = problems.VOLUME_EQ if rng.random() < 0.5 else problems.VOLUME_LE
        fs = FeasibleSet(l=l, v0=float(rng.uniform(1.0, 3.0)), kind=kind)
        y = rng.standard_normal(m) * 2.0
        p = project_feasible(y, fs)
        assert fs.contains(p)
        # optimality via the variational inequality against random feasible z
        for _ in range(50):
            z = rng.uniform(0.0, 1.0, m)
            z = z * fs.v0 / float(l @ z)
            assert float((y - p) @ (z - p)) <= 1e-7 * (1 + np.linalg.norm(y))


def _bisection_projection(y, fs):
    """Reference projection by tau bisection; the solvers' paths rest on it."""
    y = np.asarray(y, dtype=float)
    l = fs.l
    lb = fs.lower_bound
    clamped = np.maximum(y, lb)
    vol = float(l @ clamped)
    if fs.kind == problems.VOLUME_LE and vol <= fs.v0:
        return clamped

    def h(tau):
        return float(l @ np.maximum(y - tau * l, lb))

    lo, hi = 0.0, 1.0
    if h(0.0) < fs.v0:
        while h(-hi) < fs.v0:
            hi *= 2.0
        lo, hi = -hi, 0.0
    else:
        while h(hi) > fs.v0:
            hi *= 2.0
    while hi - lo > 1e-12 * (1.0 + abs(hi) + abs(lo)):
        mid = 0.5 * (lo + hi)
        if h(mid) > fs.v0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    free = y - tau * l > lb
    denom = float(l[free] @ l[free])
    if denom > 0:
        fixed_vol = lb * float(np.sum(l[~free]))
        tau = (float(l[free] @ y[free]) - (fs.v0 - fixed_vol)) / denom
    return np.maximum(y - tau * l, lb)


def _random_projection_case(rng, fading=False):
    m = int(rng.integers(1, 301))
    l = rng.uniform(0.1, 3.0, m)
    kind = problems.VOLUME_EQ if rng.random() < 0.5 else problems.VOLUME_LE
    lb = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5))
    v0 = lb * float(l.sum()) + float(rng.uniform(0.01, 3.0)) * \
        (1.0 + float(rng.random() * l.sum()))
    fs = FeasibleSet(l=l, v0=v0, kind=kind, lower_bound=lb)
    scale = 10.0 ** rng.uniform(-3.0, 2.0)
    # the shift makes y small (negative roots for eq) or large (positive)
    y = (rng.standard_normal(m) + rng.uniform(-1.0, 1.0)) * scale
    if rng.random() < 0.3:
        y[rng.random(m) < 1.0 / 3.0] = lb
    if fading and rng.random() < 0.3:
        # a fading bar: one breakpoint within about 1e-13 of the root, where
        # the active set read at the bracket midpoint and at the root differ
        p = _bisection_projection(y, fs)
        free = p > lb
        if np.any(free) and not np.array_equal(p, np.maximum(y, lb)):
            tau = float(np.median((y[free] - p[free]) / l[free]))
            j = int(rng.integers(m))
            y[j] = lb + tau * l[j] * (1.0 + rng.uniform(-1e-13, 1e-13))
    return y, fs


def test_projection_bit_identical_to_bisection():
    rng = np.random.default_rng(2008)
    kinds = set()
    for _ in range(5000):
        y, fs = _random_projection_case(rng, fading=True)
        p = project_feasible(y, fs)
        assert np.array_equal(p, _bisection_projection(y, fs))
        kinds.add((fs.kind, fs.lower_bound > 0, float(fs.l @ np.maximum(
            y, fs.lower_bound)) < fs.v0))
    # le and eq, lb = 0 and lb > 0, and eq with a negative root all occur
    assert len(kinds) == 8


def test_projection_bit_identical_to_untrimmed_version():
    # the trimmed projection returns the bits of the version before it, also
    # with a breakpoint planted within 1e-12 (relative) of the root, where
    # the 1e-12 replay of the bracket decides the active set
    rng = np.random.default_rng(2024)
    kinds = set()
    planted = 0
    for _ in range(3000):
        y, fs = _random_projection_case(rng)
        lb = fs.lower_bound
        p = project_feasible_reference(y, fs)
        free = p > lb
        if np.any(free) and not np.array_equal(p, np.maximum(y, lb)):
            tau = float(np.median((y[free] - p[free]) / fs.l[free]))
            j = int(rng.integers(len(y)))
            y[j] = lb + tau * fs.l[j] * (1.0 + rng.uniform(-1e-12, 1e-12))
            planted += 1
        assert np.array_equal(project_feasible(y, fs),
                              project_feasible_reference(y, fs))
        kinds.add((fs.kind, lb > 0, float(fs.l @ np.maximum(y, lb)) < fs.v0))
    assert len(kinds) == 8 and planted > 1000


def test_projection_kkt():
    rng = np.random.default_rng(2016)
    for _ in range(500):
        y, fs = _random_projection_case(rng)
        lb = fs.lower_bound
        p = project_feasible(y, fs)
        assert fs.contains(p) and np.all(p >= lb)
        clamped = np.maximum(y, lb)
        if fs.kind == problems.VOLUME_LE and float(fs.l @ clamped) <= fs.v0:
            assert np.array_equal(p, clamped)
            continue
        assert abs(float(fs.l @ p) - fs.v0) <= 1e-12 * fs.v0
        # one multiplier tau explains every entry
        free = p > lb
        assert np.any(free)
        tau = float(np.median((y[free] - p[free]) / fs.l[free]))
        tol = 1e-12 * (1.0 + np.abs(y))
        assert np.all(np.abs(p - (y - tau * fs.l))[free] <= tol[free])
        assert np.all((y - tau * fs.l)[~free] <= lb + tol[~free])


def test_verify_certifies_the_projection(monkeypatch):
    # a feasible design 1e-4 from the projection, moved along the volume
    # face, is farther from y than the projection and nearer than almost
    # every sampled face point; verify's KKT certificate rejects it
    exact = solvers.project_feasible

    def moved(y, fs):
        p = exact(y, fs)
        i, j = np.argsort(p)[-2:]  # the largest entry j gives way to i
        if p[j] < 1e-3:  # p = 0: no move stays in F
            return p
        d = np.zeros_like(p)
        d[i], d[j] = fs.l[j], -fs.l[i]  # l'd = 0: the volume is kept
        p = p + 1e-4 * d / np.linalg.norm(d)
        assert fs.contains(p)
        return p

    assert all(r["passed"] for r in verify.suite_solvers(0))
    monkeypatch.setattr(solvers, "project_feasible", moved)
    checks = {r["name"]: r["passed"] for r in verify.suite_solvers(0)}
    assert checks["projection_optimality"] is False


# ----------------------------------------------------------- subgradient solve

def test_subgradient_two_bar_minimizer():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.01)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000,
                                                          tol_obj=1e-12))
    assert np.max(np.abs(rep.x_final - eps_minimizer_no_mass(0.01))) <= 1e-4
    x1 = rep.x_final[0]
    assert abs(rep.obj_final - x1 / (x1 + 0.01)) < 1e-9


def test_subgradient_two_bar_with_mass():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_with_mass(),
                       TWO_BAR_EQ, eps=0.01)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    assert np.max(np.abs(rep.x_final - [2.0, 0.0])) <= 1e-3
    assert abs(rep.obj_final - 3.0 / 2.01) < 1e-6


def test_subgradient_two_bar_robust():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=1e-6)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    assert np.max(np.abs(rep.x_final - [2.0, 0.0])) <= 1e-3
    assert abs(rep.obj_final - 0.5) <= 1e-3


def test_subgradient_from_given_start_reaches_closed_form():
    # the Polyak level step from an off-centre start
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.01)
    rep = projected_subgradient(spec, np.array([0.5, 1.5]),
                                SolverOptions(max_iters=2000))
    best = eps_minimizer_no_mass(0.01)
    assert np.max(np.abs(rep.x_final - best)) <= 1e-9
    assert abs(rep.obj_final - best[0] / (best[0] + 0.01)) <= 1e-12


def test_subgradient_history_is_monotone_best():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.05)
    rep = projected_subgradient(spec, [0.2, 1.8], SolverOptions(max_iters=500))
    objs = [f for _, f in rep.history]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_subgradient_reports_exact_objective():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=1e-6)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    # the exact extended value at the regularized minimizer
    assert rep.obj_exact >= rep.obj_final - 1e-9


def test_subgradient_trajectory_is_the_einsum_quads(monkeypatch):
    # robust_7x4_subgrad's pinned answer is the trajectory the three-operand
    # einsum gave quad(v): 400 steps with quad(v) as shipped and with that
    # einsum are the same to the bit (both runs use this host's BLAS)
    if not einsum_sums_row_major():
        pytest.skip("this numpy's einsum adds quad(v)'s terms in another "
                    "order than the one the benchmark answer was pinned with")
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "configs", "robust_7x4_subgrad.json")
    cfg = cli.load_config(path)
    _, model = cli.build_from_config(cfg)
    spec = cli.problem_from_config(cfg, model)
    opts = replace(cli.solver_options_from_config(cfg), max_iters=400)
    shipped = projected_subgradient(spec, None, opts)
    calls = []

    def einsum_quad(pencil, z):
        calls.append(z.ndim)
        return quad_einsum(pencil, z) if z.ndim == 1 else real_quad(pencil, z)

    real_quad = AffinePencil.quad
    monkeypatch.setattr(AffinePencil, "quad", einsum_quad)
    oracle = projected_subgradient(spec, None, opts)
    assert calls.count(1) == 2 * 400 and shipped.iterations == 400
    assert shipped.x_final.tobytes() == oracle.x_final.tobytes()
    assert np.array(shipped.history).tobytes() == \
        np.array(oracle.history).tobytes()


# -------------------------------------------------------------- smoothed solve

def test_apg_agrees_with_subgradient_on_two_bar():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.01)
    sub = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    apg = smoothed_apg(spec, None, SolverOptions(max_iters=3000))
    assert abs(apg.obj_final - sub.obj_final) <= 1e-4


def test_apg_single_bar_is_trivial():
    k = dense_pencil(np.zeros((1, 1)), [np.ones((1, 1))])
    m = dense_pencil(np.zeros((1, 1)), [2.0 * np.ones((1, 1))])
    model = PencilModel(k_pencil=k, m_pencil=m, volumes=np.array([1.0]))
    fs = FeasibleSet(l=np.array([2.0]), v0=3.0, kind=problems.VOLUME_EQ)
    rep = smoothed_apg(ProblemSpec(EIGENFREQUENCY, model, fs, eps=0.1),
                       None, SolverOptions(max_iters=5))
    assert np.allclose(rep.x_final, [1.5])


def test_apg_decaying_mu_stays_within_last_smoothing_gap():
    # mu_k = mu0 / (k + 1): the record is within the last mu's gap mu log n
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.01)
    mu0, iters = 1e-3, 2000
    rep = smoothed_apg(spec, np.array([0.5, 1.5]), SolverOptions(
        max_iters=iters, smoothing_mu0=mu0))
    best = eps_minimizer_no_mass(0.01)
    f_star = best[0] / (best[0] + 0.01)
    assert f_star - 1e-12 <= rep.obj_final <= f_star + mu0 / iters * math.log(2)
    assert np.max(np.abs(rep.x_final - best)) <= 1e-6


# ------------------------------------------------------------------- bisection

def test_bisection_two_bar_no_mass():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.0)
    rep = bisection_global(spec, opts=SolverOptions(max_iters=20000))
    assert abs(rep.obj_final - 1.0) <= 1e-6
    assert np.max(np.abs(rep.x_final - [2.0, 0.0])) <= 1e-6
    assert rep.termination == "bisected"


def test_bisection_two_bar_with_mass():
    # the exact optimal value on the volume line is 1.5, attained only at
    # (2, 0): the 2-eigenvalue branch needs x2 > 0 and drops away on the edge
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_with_mass(),
                       TWO_BAR_EQ, eps=0.0)
    rep = bisection_global(spec, opts=SolverOptions(max_iters=20000))
    assert abs(rep.obj_final - 1.5) <= 1e-6
    assert np.max(np.abs(rep.x_final - [2.0, 0.0])) <= 1e-6


def test_bisection_two_bar_robust():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=0.0)
    rep = bisection_global(spec, opts=SolverOptions(max_iters=20000))
    assert abs(rep.obj_final - 0.5) <= 1e-6
    assert np.max(np.abs(rep.x_final - [2.0, 0.0])) <= 1e-5


def test_bisection_ends_when_the_tolerance_is_below_one_ulp():
    # 0.5 * (lo + hi) rounds to lo or hi long before hi - lo < 1e-17;
    # run in a child so that a loop that never ends fails the test
    script = (
        "import numpy as np\n"
        "from geneigopt import problems, solvers\n"
        "fs = problems.FeasibleSet(l=np.ones(2), v0=2.0, kind='le')\n"
        "spec = problems.ProblemSpec('robust_compliance',\n"
        "    problems.robust_two_bar_model(), fs, eps=1e-6)\n"
        "rep = solvers.bisection_global(spec, solvers.SolverOptions(\n"
        "    max_iters=200, bisect_tol=1e-17))\n"
        "print(rep.obj_final, rep.iterations, rep.termination)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    level, iterations, termination = proc.stdout.split()
    assert abs(float(level) - 0.5) <= 1e-6
    assert int(iterations) <= 64 and termination == "bisected"


def test_bisection_zero_level_shortcut():
    # a zero numerator makes level 0 immediately feasible
    model = PencilModel(
        k_pencil=dense_pencil(np.zeros((2, 2)),
                              [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
        q_matrix=np.zeros((2, 1)))
    spec = ProblemSpec(ROBUST_COMPLIANCE, model, TWO_BAR_LE, eps=0.0)
    rep = bisection_global(spec)
    assert rep.obj_final == 0.0


def test_bisection_unbounded_objective_raises():
    # mass with no stiffness anywhere: every level is infeasible
    model = PencilModel(
        k_pencil=dense_pencil(np.zeros((2, 2)),
                              [np.zeros((2, 2)), np.zeros((2, 2))]),
        m_pencil=dense_pencil(np.eye(2), [np.zeros((2, 2)), np.zeros((2, 2))]),
        volumes=np.array([1.0, 1.0]))
    spec = ProblemSpec(EIGENFREQUENCY, model, TWO_BAR_EQ, eps=0.0)
    with pytest.raises(BracketError):
        bisection_global(spec, opts=SolverOptions(max_iters=200))


def _random_level_pencil(rng, m, n, alpha=0.3, eps=1e-3):
    """A random level pencil A - alpha*(B + eps*I) (coefficients not PSD)."""
    a = dense_pencil(np.diag(rng.uniform(0.0, 1.0, n)),
                     [f @ f.T for f in rng.standard_normal((m, n, 2))])
    b = dense_pencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    return a.level(b, alpha, eps)


@pytest.mark.parametrize("m, n", [(1, 4), (9, 6), (30, 12)])
def test_level_search_step_matches_the_full_eigh_and_quad(monkeypatch, m, n):
    # one search step: h from the top pair alone and the subgradient g
    # against the full eigh and pencil.quad, read off the Polyak step
    # x - (h / |g|^2) g that the search hands to the projection
    rng = np.random.default_rng(7 * m + n)
    level = _random_level_pencil(rng, m, n)
    fs = FeasibleSet(l=np.ones(m), v0=10.0 * m, kind=problems.VOLUME_LE)
    steps = []
    monkeypatch.setattr(solvers, "project_feasible",
                        lambda y, fs: steps.append(y) or project_feasible(y, fs))
    for _ in range(4):
        x0 = rng.uniform(0.5, 1.5, m)
        steps.clear()
        found, x, h = solvers._sublevel_feasible(level, fs, x0, -math.inf, 1)
        assert not found and np.array_equal(x, x0)
        w, vecs = np.linalg.eigh(level(x0))
        assert abs(h - w[-1]) <= 1e-12 * np.max(np.abs(w))
        g = level.quad(vecs[:, -1])
        want = (h / float(g @ g)) * g
        assert np.allclose(x0 - steps[-1], want, rtol=0.0,
                           atol=1e-12 * (1.0 + np.max(np.abs(want))))


def test_level_search_stops_typed_on_an_overflowing_subgradient():
    # C_j = diag(d_j) with entries near 1e160: C(x) and its top pair are
    # finite, but |g|^2 = sum_j (v'C_j v)^2 overflows, so a Polyak step
    # would not move; the search raises, with no numpy warning
    rng = np.random.default_rng(4)
    m, n = 6, 3
    pencil = AffinePencil.diagonal(np.zeros((n, n)),
                                   rng.uniform(0.5, 1.0, (m, n)) * 1e160)
    fs = FeasibleSet(l=np.ones(m), v0=float(m), kind=problems.VOLUME_LE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMatrix,
                           match="the subgradient's squared norm is inf"):
            solvers._sublevel_feasible(pencil, fs, np.ones(m), -math.inf, 5)


def test_sublevel_search_on_a_coefficient_free_level_pencil():
    # C(x) = (1 - alpha) qq' - alpha*eps*I for every x: one eigensolve
    # decides, and the zero subgradient ends the search
    rng = np.random.default_rng(3)
    m, n, eps = 5, 4, 1e-3
    q = rng.standard_normal((n, 1))
    const = AffinePencil(q @ q.T, m)
    fs = FeasibleSet(l=np.ones(m), v0=float(m), kind=problems.VOLUME_LE)
    x0 = rng.uniform(0.0, 2.0, m)
    for alpha, feasible in ((0.5, False), (2.0, True)):
        level = const.level(const, alpha, eps)
        assert level.blocks.shape == (m, 0, 0)
        found, x, h = solvers._sublevel_feasible(level, fs, x0, 1e-12, 50)
        assert found == feasible
        assert np.array_equal(x, project_feasible(x0, fs))
        top = np.linalg.eigvalsh(level(x))[-1]
        assert abs(h - top) <= 1e-12 * (1.0 + abs(h))


@pytest.fixture(scope="module")
def eigfreq_5x3():
    """The shipped 5x3 eigenfrequency spec and, as the bisection starts
    its searches, the design of a short subgradient run."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = cli.load_config(os.path.join(here, "examples-configs",
                                       "truss_5x3_eigenfrequency.json"))
    _, model = cli.build_from_config(cfg)
    spec = cli.problem_from_config(cfg, model)
    warm = projected_subgradient(spec, None, SolverOptions(max_iters=4000))
    return spec, warm.x_final


@pytest.mark.parametrize("alpha, feasible", [(2300.0, True), (1000.0, False)])
def test_sublevel_search_on_the_shipped_5x3_model(eigfreq_5x3, alpha,
                                                  feasible):
    # the optimal level lies near 2274.6: 2300 has a witness, 1000 none
    spec, x_start = eigfreq_5x3
    pa, pb = spec.objective_pencils()
    slack = 1e-9 * (1.0 + pa.scale() + alpha * pb.scale(spec.eps))
    level = pa.level(pb, alpha, spec.eps)
    found, x, h = solvers._sublevel_feasible(level, spec.feasible, x_start,
                                             slack, 1000)
    assert found == feasible
    assert spec.feasible.contains(x)
    assert abs(h - np.linalg.eigvalsh(level(x))[-1]) <= 1e-9 * (1 + abs(h))


# ---------------------------------------------------------------- continuation

def test_continuation_two_bar_tracks_closed_form():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.1)
    schedule = [10.0 ** (-p) for p in range(1, 7)]
    reps = eps_continuation(spec, schedule,
                            SolverOptions(max_iters=20000, tol_obj=1e-12))
    values = [r.obj_final for r in reps]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9  # regularized optimal values rise toward 1
    assert abs(values[-1] - 1.0) <= 1e-3
    for eps, rep in zip(schedule, reps):
        assert np.max(np.abs(rep.x_final - eps_minimizer_no_mass(eps))) <= 1e-4
    assert np.max(np.abs(reps[-1].x_final - [2.0, 0.0])) <= 1e-3


def test_continuation_robust_values_increase_to_limit():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=0.1)
    schedule = [10.0 ** (-p) for p in range(1, 7)]
    reps = eps_continuation(spec, schedule, SolverOptions(max_iters=20000))
    values = [r.obj_final for r in reps]
    for eps, v in zip(schedule, values):
        assert abs(v - 1.0 / (2.0 + eps)) <= 1e-6
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    assert values[-1] <= 0.5 + 1e-9


def test_continuation_moves_the_lower_bound():
    # eps = 0 with an area floor: the sweep lowers the floor x >= e, and the
    # minimizer puts the rest of the volume on the loaded bar, psi = 1/(2 - e)
    fs = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0, kind=problems.VOLUME_LE,
                     lower_bound=0.1)
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(), fs, eps=0.0)
    schedule = [1e-1, 1e-2, 1e-3]
    reps = eps_continuation(spec, schedule, SolverOptions(max_iters=20000))
    for e, rep in zip(schedule, reps):
        assert abs(rep.obj_final - 1.0 / (2.0 - e)) <= 1e-6
        assert rep.x_final[1] == e
        assert rep.eps_used == 0.0


def test_continuation_rejects_exact_spec():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(), TWO_BAR_LE,
                       eps=0.0)
    with pytest.raises(ValueError, match="nothing to sweep|no regularization"):
        eps_continuation(spec, [1e-2, 1e-4])


def test_continuation_rejects_bad_schedules():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.1)
    with pytest.raises(ValueError):
        eps_continuation(spec, [0.1, 0.2])
    with pytest.raises(ValueError):
        eps_continuation(spec, [0.1, 0.0])


def test_continuation_smoothed_method():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.1)
    reps = eps_continuation(spec, [0.1, 0.01],
                            SolverOptions(max_iters=1500),
                            method="smoothed_apg")
    assert abs(reps[-1].obj_final
               - eps_minimizer_no_mass(0.01)[0] / (eps_minimizer_no_mass(0.01)[0] + 0.01)) <= 1e-4


# ---------------------------------------------------------------------- entry

DIRECT = {"subgradient": projected_subgradient, "smoothed_apg": smoothed_apg,
          "bisection": bisection_global}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_solve_is_the_direct_call(name):
    # the shipped 5x3 model with a small budget: the entry adds no step
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = cli.load_config(os.path.join(here, "examples-configs",
                                       "truss_5x3_eigenfrequency.json"))
    _, model = cli.build_from_config(cfg)
    spec = cli.problem_from_config(cfg, model)
    opts = SolverOptions(max_iters=60)
    direct = DIRECT[name](spec, opts=opts)
    entry = solvers.solve(spec, name, opts)
    assert entry.x_final.tobytes() == direct.x_final.tobytes()
    assert (entry.obj_final, entry.iterations, entry.termination,
            entry.history) == (direct.obj_final, direct.iterations,
                               direct.termination, direct.history)


def test_bisection_hands_x0_to_its_warm_start(monkeypatch):
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=1e-2)
    starts = []
    original = solvers.projected_subgradient

    def warm(spec, x0=None, opts=SolverOptions()):
        starts.append(x0)
        return original(spec, x0, opts)

    monkeypatch.setattr(solvers, "projected_subgradient", warm)
    x = np.array([1.5, 0.5])
    bisection_global(spec, x0=x)
    bisection_global(spec)
    assert starts[0] is x and starts[1] is None


def test_continuation_warm_starts_bisection(monkeypatch):
    # each step starts from the previous step's design; the level found at
    # each eps is the robust two-bar value 1/(2 + eps)
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=0.1)
    starts = []
    original = solvers.bisection_global

    def bisection(spec, opts=SolverOptions(), x0=None):
        starts.append(x0)
        return original(spec, opts, x0)

    monkeypatch.setattr(solvers, "bisection_global", bisection)
    schedule = [1e-1, 1e-2, 1e-3]
    reps = eps_continuation(spec, schedule, method="bisection")
    assert starts[0] is None
    assert all(x is rep.x_final for x, rep in zip(starts[1:], reps))
    for eps, rep in zip(schedule, reps):
        assert rep.termination == "bisected"
        assert abs(rep.obj_final - 1.0 / (2.0 + eps)) <= 1e-6


def test_solve_rejects_an_unknown_name():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=0.1)
    with pytest.raises(ValueError) as info:
        solvers.solve(spec, "newton")
    assert "'newton'" in str(info.value)
    for name in DIRECT:
        assert name in str(info.value)


def test_solver_schema_names_what_solve_accepts(monkeypatch):
    # each name the config schema allows runs its solver, looked up when
    # solve is called, and the names solve lists are exactly those
    for name in ("projected_subgradient", "smoothed_apg", "bisection_global"):
        monkeypatch.setattr(solvers, name,
                            lambda spec, x0=None, opts=None, _n=name: _n)
    names = cli._SOLVER_SCHEMA["properties"]["name"]["enum"]
    assert [solvers.solve(None, name) for name in names] == \
        [DIRECT[name].__name__ for name in names]
    with pytest.raises(ValueError) as info:
        solvers.solve(None, "newton")
    assert set(str(info.value).split(" one of ")[1].split(", ")) == set(names)


# ------------------------------------------------------------------- reporting

def test_active_bar_count():
    spec = ProblemSpec(ROBUST_COMPLIANCE, robust_two_bar_model(),
                       TWO_BAR_LE, eps=1e-6)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    assert rep.active_bars == 1


def test_solver_options_validation():
    # max_iters is an integer >= 1: numpy integers pass, a bool does not
    for bad in (0, math.nan, 2.5, math.inf, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="max_iters"):
            SolverOptions(max_iters=bad)
    for good in (1, np.int64(3), np.int32(7)):
        assert SolverOptions(max_iters=good).max_iters == good
    with pytest.raises(ValueError):
        SolverOptions(smoothing_mu0=-1.0)
    # each tolerance must be positive and finite: a NaN fails the check
    for key in ("smoothing_mu0", "tol_obj", "bisect_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SolverOptions(**{key: bad})


def test_apg_solves_each_design_point_once(monkeypatch):
    # one generalized eigensolve per iteration (at the extrapolated point)
    # and one per backtracking trial: the accepted trial's eigenvalues give
    # the true objective too
    # the left column (nodes 0 and 3) is fixed in both directions
    gs = truss.generate_ground_structure(3, 2, 1.0, frozenset({0, 1, 6, 7}))
    model = truss.build_model(gs, truss.Material(density=1.0),
                              truss.grid_node_index(3, 2, 0),
                              nonstructural_mass=1.0)
    fs = FeasibleSet(l=model.volumes, v0=0.5, kind=problems.VOLUME_EQ)
    spec = ProblemSpec(EIGENFREQUENCY, model, fs, eps=1e-6)
    counts = {"eigh": 0, "lse": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    # the pencil solves go to LAPACK's dsygvd in geneig._pencil_eigh; the
    # report's exact objective (lambda_max_ext) through scipy.linalg.eigh
    monkeypatch.setattr(geneig.lapack, "dsygvd",
                        counted("eigh", geneig.lapack.dsygvd))
    monkeypatch.setattr(scipy.linalg, "eigh",
                        counted("eigh", scipy.linalg.eigh))
    lse = counted("lse", geneig._log_sum_exp)
    monkeypatch.setattr(geneig, "_log_sum_exp", lse)
    monkeypatch.setattr(solvers, "_log_sum_exp", lse)
    iters = 20
    rep = smoothed_apg(spec, None, SolverOptions(max_iters=iters))
    # every iteration smooths its extrapolated point once and each
    # backtracking trial its step once
    trials = counts["lse"] - iters
    assert trials >= iters and rep.iterations == iters
    # plus the start point's value and the report's exact objective
    assert counts["eigh"] == iters + trials + 2
