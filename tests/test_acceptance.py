"""End-to-end acceptance checks.

Each criterion prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output of a failing run).  Two sub-clauses whose published
reference values are internally inconsistent with the defining formulas are
encoded literally as strict xfails, each next to a companion test asserting
the independently re-derived value; see the repository notes for the full
derivations.
"""

import json
import math
import os
import shutil
import time

import numpy as np
import pytest

from geneigopt import cli, geneig, problems, solvers, truss, verify
from geneigopt.problems import (
    EIGENFREQUENCY,
    ROBUST_COMPLIANCE,
    FeasibleSet,
    PencilModel,
    ProblemSpec,
    demo_model_with_mass,
    demo_model_without_mass,
    phi_eps,
    phi_exact,
    psi_exact,
)
from geneigopt.geneig import AffinePencil
from geneigopt.solvers import (
    SolverOptions,
    bisection_global,
    eps_continuation,
    projected_subgradient,
    smoothed_apg,
)
from oracles import psi_via_linear_solve

TWO_BAR_EQ = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0,
                         kind=problems.VOLUME_EQ)


def report(line):
    print(f"\n{line}")


# --------------------------------------------------------------- criterion 1

def test_criterion_01_two_bar_closed_forms():
    """First two-bar instance: exact and regularized values on a 50x50 grid."""
    start = time.perf_counter()
    model = demo_model_without_mass()
    ts = np.linspace(0.0, 2.0, 50)
    worst = 0.0
    for x1 in ts:
        for x2 in ts:
            x = np.array([x1, x2])
            ref = 2.0 if x2 > 0 else (1.0 if x1 > 0 else 0.0)
            worst = max(worst, abs(phi_exact(model, x) - ref))
            for eps in (0.2, 0.01):
                ref = max(x1 / (x1 + eps), 2.0 * x2 / (x2 + eps))
                worst = max(worst, abs(phi_eps(model, x, eps) - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(f"criterion 1: {'PASS' if ok else 'FAIL'} — closed forms at 2500 "
           f"grid points, worst abs error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 2

PUBLISHED_EPS_MINIMIZER = None


def published_minimizer(eps):
    """The printed reference formula for the regularized minimizer."""
    root = math.sqrt(eps * eps - 6.0 * eps + 1.0)
    return np.array([1.0 - eps + root, 1.0 + eps - root])


def derived_minimizer(eps):
    """Re-derived minimizer: crossing of the two fraction branches."""
    x1 = 0.5 * ((2.0 - 3.0 * eps) + math.sqrt(9.0 * eps * eps + 4.0 * eps + 4.0))
    return np.array([x1, 2.0 - x1])


def continuation_to_001():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                       TWO_BAR_EQ, eps=0.1)
    reps = eps_continuation(spec, [0.1, 0.05, 0.01],
                            SolverOptions(max_iters=20000, tol_obj=1e-12))
    return reps[-1]


@pytest.mark.xfail(
    strict=True,
    reason="published minimizer formula is inconsistent with the instance's "
           "own objective; it does not solve the kink equation "
           "x1/(x1+e) = 2(2-x1)/(2-x1+e) and its objective value is higher "
           "than the attainable minimum")
def test_criterion_02_continuation_published_formula():
    rep = continuation_to_001()
    err = float(np.max(np.abs(rep.x_final - published_minimizer(0.01))))
    report(f"criterion 2 (published formula clause): FAIL expected — "
           f"max |x - ref| = {err:.2e} > 1e-4")
    assert err <= 1e-4


def test_criterion_02_continuation_corrected_and_bisection():
    start = time.perf_counter()
    rep = continuation_to_001()
    err = float(np.max(np.abs(rep.x_final - derived_minimizer(0.01))))
    # independent brute-force scan of the regularized objective on the line
    x1s = np.linspace(0.0, 2.0, 200001)
    f = np.maximum(x1s / (x1s + 0.01),
                   2.0 * (2.0 - x1s) / (2.0 - x1s + 0.01))
    brute = x1s[np.argmin(f)]
    assert abs(brute - derived_minimizer(0.01)[0]) <= 2e-5
    assert rep.obj_final <= float(np.min(f)) + 1e-7

    spec0 = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(),
                        TWO_BAR_EQ, eps=0.0)
    bis = bisection_global(spec0, opts=SolverOptions(max_iters=20000))
    bis_ok = (abs(bis.obj_final - 1.0) <= 1e-6
              and float(np.max(np.abs(bis.x_final - [2.0, 0.0]))) <= 1e-6)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-4 and bis_ok and elapsed < 30.0
    report(f"criterion 2: {'PASS' if ok else 'FAIL'} — continuation x within "
           f"{err:.1e} of the re-derived minimizer (published-formula clause "
           f"xfailed), bisection level {bis.obj_final:.8f}, {elapsed:.1f}s")
    assert err <= 1e-4
    assert bis_ok
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 3

def published_phi_with_mass(x):
    """The printed case split (wrong on the x2 = 0, x1 >= 1 edge)."""
    if x[0] == 0:
        return math.inf
    if x[0] < 1:
        return 1.0 + 1.0 / x[0]
    return 2.0


def derived_phi_with_mass(x):
    if x[0] == 0:
        return math.inf
    branch = (x[0] + 1.0) / x[0]
    return max(branch, 2.0) if x[1] > 0 else branch


@pytest.mark.xfail(
    strict=True,
    reason="the printed case split claims the value 2 on the x2 = 0, "
           "x1 >= 1 edge; both defining formulas give (x1+1)/x1 there")
def test_criterion_03_closed_form_published_on_full_grid():
    model = demo_model_with_mass()
    ts = np.linspace(0.0, 2.0, 50)
    worst = 0.0
    for x1 in ts:
        for x2 in ts:
            x = np.array([x1, x2])
            ref = published_phi_with_mass(x)
            got = phi_exact(model, x)
            if math.isinf(ref) != math.isinf(got):
                worst = math.inf
            elif math.isfinite(ref):
                worst = max(worst, abs(got - ref))
    report(f"criterion 3 (published closed form on full grid): FAIL expected "
           f"— worst abs error {worst:.2e}")
    assert worst <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="the claimed global level 2 is not attainable: the exact value "
           "at (2, 0) is 1.5 by both defining formulas, so bisection "
           "honestly returns 1.5")
def test_criterion_03_bisection_published_level():
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_with_mass(),
                       TWO_BAR_EQ, eps=0.0)
    rep = bisection_global(spec, opts=SolverOptions(max_iters=20000))
    report(f"criterion 3 (published bisection level clause): FAIL expected — "
           f"level {rep.obj_final:.6f} != 2")
    assert abs(rep.obj_final - 2.0) <= 1e-6


def test_criterion_03_corrected():
    model = demo_model_with_mass()
    ts = np.linspace(0.0, 2.0, 50)
    worst = 0.0
    inf_ok = True
    for x1 in ts:
        for x2 in ts:
            x = np.array([x1, x2])
            ref = derived_phi_with_mass(x)
            got = phi_exact(model, x)
            if math.isinf(ref):
                inf_ok &= math.isinf(got)
            else:
                worst = max(worst, abs(got - ref))
            for eps in (0.2, 0.01):
                ref = max((x1 + 1.0) / (x1 + eps), 2.0 * x2 / (x2 + eps))
                worst = max(worst, abs(phi_eps(model, x, eps) - ref))
    # published and derived case splits agree wherever x2 > 0 or x1 < 1
    for x1 in ts:
        for x2 in ts[1:]:
            x = np.array([x1, x2])
            a, b = published_phi_with_mass(x), derived_phi_with_mass(x)
            assert (a == b) or abs(a - b) < 1e-12

    spec = ProblemSpec(EIGENFREQUENCY, model, TWO_BAR_EQ, eps=0.01)
    rep = projected_subgradient(spec, None, SolverOptions(max_iters=20000))
    min_ok = float(np.max(np.abs(rep.x_final - [2.0, 0.0]))) <= 1e-3

    spec0 = ProblemSpec(EIGENFREQUENCY, model, TWO_BAR_EQ, eps=0.0)
    bis = bisection_global(spec0, opts=SolverOptions(max_iters=20000))
    witness_ok = bis.x_final[0] >= 1.0 - 1e-6
    level_ok = abs(bis.obj_final - 1.5) <= 1e-6

    ok = (worst <= 1e-10 and inf_ok and min_ok and witness_ok and level_ok)
    report(f"criterion 3: {'PASS' if ok else 'FAIL'} — closed forms worst "
           f"error {worst:.2e} (re-derived edge values; published-split and "
           f"level-2 clauses xfailed), regularized minimizer -> (2,0): "
           f"{min_ok}, bisection level {bis.obj_final:.7f} with witness "
           f"x1 = {bis.x_final[0]:.6f} >= 1 - 1e-6")
    assert worst <= 1e-10
    assert inf_ok
    assert min_ok
    assert witness_ok
    assert level_ok


# --------------------------------------------------------------- criterion 4

def test_criterion_04_discontinuity_contrast():
    """Lower-bound regularization keeps a unit gap; pencil regularization closes it."""
    model = demo_model_without_mass()
    lb_values = []
    for eps in (1e-2, 1e-4, 1e-6):
        fs = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0,
                         kind=problems.VOLUME_EQ, lower_bound=eps)
        spec = ProblemSpec(EIGENFREQUENCY, model, fs, eps=0.0)
        rep = projected_subgradient(spec, None, SolverOptions(max_iters=5000))
        lb_values.append(rep.obj_final)
    lb_ok = all(abs(v - 2.0) <= 1e-9 for v in lb_values)

    spec = ProblemSpec(EIGENFREQUENCY, model, TWO_BAR_EQ, eps=1e-6)
    rep = projected_subgradient(spec, None,
                                SolverOptions(max_iters=30000, tol_obj=1e-12))
    pencil_ok = abs(rep.obj_final - 1.0) <= 1e-3

    ok = lb_ok and pencil_ok
    report(f"criterion 4: {'PASS' if ok else 'FAIL'} — lower-bound values "
           f"{[f'{v:.6f}' for v in lb_values]} stay at 2 (gap 1), pencil "
           f"value {rep.obj_final:.6f} -> 1 at eps=1e-6")
    assert lb_ok
    assert pencil_ok


# --------------------------------------------------------------- criterion 5

def test_criterion_05_epi_convergence_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    pairs = 500
    singular = 0
    mono_worst = 0.0
    conv_worst = 0.0
    inf_floor = math.inf
    for _ in range(pairs):
        dim = int(rng.integers(2, 11))
        x, y = verify.random_psd_pair(rng, dim, singular_y_prob=0.5)
        if np.linalg.matrix_rank(y, tol=1e-8) < dim:
            singular += 1
        exact = geneig.lambda_max_ext(x, y).value
        vals = [geneig.lambda_max_eps(x, y, 10.0 ** (-p)).value
                for p in range(1, 10)]
        for a, b in zip(vals, vals[1:]):
            mono_worst = max(mono_worst, a - b)  # must be <= 0 up to slack
        if math.isfinite(exact):
            conv_worst = max(conv_worst,
                             abs(vals[-1] - exact) / (1.0 + abs(exact)))
        else:
            inf_floor = min(inf_floor, vals[-1] * 1e-9)
    elapsed = time.perf_counter() - start
    frac = singular / pairs
    ok = (mono_worst <= 1e-12 and conv_worst <= 1e-6
          and inf_floor > 1e-12 and frac >= 0.3 and elapsed < 60.0)
    report(f"criterion 5: {'PASS' if ok else 'FAIL'} — {pairs} pairs "
           f"({frac:.0%} singular), monotonicity slack {mono_worst:.1e}, "
           f"convergence rel err {conv_worst:.1e}, eps*value floor "
           f"{inf_floor:.2e} for infinite cases, {elapsed:.1f}s")
    assert frac >= 0.3
    assert mono_worst <= 1e-12
    assert conv_worst <= 1e-6
    assert inf_floor > 1e-12
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 6

def test_criterion_06_reciprocal_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    branch_ok = True
    classes = set()
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        x, y = verify.random_psd_pair(rng, dim)
        # lambda_min_ext(y, x) is 1 / lambda_max_ext(x, y): the other side
        # of the identity comes from the independent membership oracle
        lmax = verify.lambda_max_by_membership(x, y)
        lmin = geneig.lambda_min_ext(y, x)
        if math.isinf(lmax):
            branch_ok &= lmin <= 1e-9 * (1 + float(np.max(np.abs(y))))
            classes.add("inf*zero")
        elif lmax == 0.0:
            branch_ok &= math.isinf(lmin)
            classes.add("zero*inf")
        else:
            worst = max(worst, abs(lmax * lmin - 1.0))
            classes.add("finite")
    ok = worst <= 1e-7 and branch_ok and classes == {"inf*zero", "zero*inf",
                                                     "finite"}
    report(f"criterion 6: {'PASS' if ok else 'FAIL'} — worst |product - 1| = "
           f"{worst:.1e} over 300 pairs, degenerate branches matched "
           f"({sorted(classes)})")
    assert worst <= 1e-7
    assert branch_ok
    assert classes == {"inf*zero", "zero*inf", "finite"}


# --------------------------------------------------------------- criterion 7

def test_criterion_07_robust_compliance_equivalence():
    rng = np.random.default_rng(2)
    finite_cases = 0
    infinite_cases = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        coeffs = [np.outer(g, g) for g in rng.standard_normal((m, n))]
        q = rng.standard_normal((n, int(rng.integers(1, 3))))
        model = PencilModel(k_pencil=AffinePencil(np.zeros((n, n)), coeffs),
                            q_matrix=q)
        x = rng.uniform(0.0, 2.0, m)
        x[rng.random(m) < 0.35] = 0.0
        a = psi_exact(model, x)
        b = psi_via_linear_solve(model, x)
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b)
            infinite_cases += 1
        else:
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
            finite_cases += 1
    ok = worst <= 1e-6 and finite_cases > 0 and infinite_cases > 0
    report(f"criterion 7: {'PASS' if ok else 'FAIL'} — 100 models "
           f"({finite_cases} finite, {infinite_cases} infinite), worst rel "
           f"gap {worst:.1e} between eigenvalue and linear-solve routes")
    assert worst <= 1e-6
    assert finite_cases > 0 and infinite_cases > 0


# --------------------------------------------------------------- criterion 8

def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(3)
    h = 1e-6
    models = []
    for _ in range(5):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        left = frozenset(2 * truss.grid_node_index(nx, 0, iy) + d
                         for iy in range(ny) for d in (0, 1))
        gs = truss.generate_ground_structure(nx, ny, 1.0, left)
        load = truss.grid_node_index(nx, nx - 1, ny - 1)
        models.append(truss.build_model(gs, truss.Material(1.0, 1.0), load,
                                        nonstructural_mass=1.0))
    checked = 0
    worst = 0.0
    while checked < 1000:
        model = models[int(rng.integers(len(models)))]
        kind = ROBUST_COMPLIANCE if rng.random() < 0.5 else EIGENFREQUENCY
        fs = FeasibleSet(l=model.volumes, v0=1.0)
        spec = ProblemSpec(kind, model, fs, eps=float(rng.uniform(0.01, 0.2)))
        pa, pb = spec.objective_pencils()
        x = rng.uniform(0.2, 1.0, model.m)
        value, grad, _ = geneig.composite_value_grad(pa, pb, x, spec.eps)
        import scipy.linalg
        w = scipy.linalg.eigh(pa(x), pb(x) + spec.eps * np.eye(pa.dim),
                              eigvals_only=True)
        if len(w) > 1 and w[-1] - w[-2] < 1e-4 * (1 + abs(w[-1])):
            continue  # keep only smooth points
        j = int(rng.integers(model.m))
        e = np.zeros(model.m)
        e[j] = h
        fp = geneig.composite_value_grad(pa, pb, x + e, spec.eps)[0]
        fm = geneig.composite_value_grad(pa, pb, x - e, spec.eps)[0]
        fd = (fp - fm) / (2 * h)
        scale = max(abs(grad[j]), abs(value), 1.0)
        worst = max(worst, abs(fd - grad[j]) / scale)
        checked += 1
    ok = worst <= 1e-5
    report(f"criterion 8: {'PASS' if ok else 'FAIL'} — worst rel deviation "
           f"{worst:.1e} between gradients and central differences at 1000 "
           f"smooth points")
    assert worst <= 1e-5


# --------------------------------------------------------------- criterion 9

def test_criterion_09_solver_consistency_5x3():
    # the left column (nodes 0, 5 and 10) is fixed in both directions
    gs = truss.generate_ground_structure(
        5, 3, 1.0, frozenset({0, 1, 10, 11, 20, 21}))
    model = truss.build_model(gs, truss.Material(1.0, 1.0),
                              truss.grid_node_index(5, 4, 1),
                              nonstructural_mass=1.0)
    fs = FeasibleSet(l=model.volumes, v0=0.1, kind=problems.VOLUME_LE)
    lines = []
    all_ok = True
    for kind in (ROBUST_COMPLIANCE, EIGENFREQUENCY):
        spec = ProblemSpec(kind, model, fs, eps=1e-6)
        r1 = projected_subgradient(spec, None, SolverOptions(max_iters=30000))
        r2 = smoothed_apg(spec, None, SolverOptions(max_iters=1200,
                                                    smoothing_mu0=1.0))
        r3 = bisection_global(spec, opts=SolverOptions(max_iters=20000,
                                                       bisect_tol=1e-4))
        vals = [r1.obj_final, r2.obj_final, r3.obj_final]
        spread = (max(vals) - min(vals)) / min(vals)
        frac_off = min(
            float(np.mean(r.x_final < solvers.DISPLAY_THRESHOLD
                          * np.max(r.x_final)))
            for r in (r1, r2, r3))
        all_ok &= spread <= 0.005 and frac_off >= 0.3
        lines.append(f"{kind}: spread {spread:.3%}, >= {frac_off:.0%} bars "
                     f"removed")
        assert spread <= 0.005
        assert frac_off >= 0.3
    report(f"criterion 9: {'PASS' if all_ok else 'FAIL'} — " + "; ".join(lines))


# -------------------------------------------------------------- criterion 10

def test_criterion_10_sample_config_records(tmp_path):
    """Large-instance reference values are not reproducible bit-exactly (the
    source geometries are unavailable); the documented sample config records
    (m, n, objective) for manual comparison instead."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "examples-configs", "truss_5x3_robust.json")
    dst = tmp_path / "truss_5x3_robust.json"
    shutil.copy(src, dst)
    assert cli.main(["solve", str(dst)]) == cli.EXIT_OK
    result = json.loads((tmp_path / "truss_5x3_robust.result.json").read_text())
    m = result["model"]["m"]
    n = result["model"]["n"]
    obj = result["report"]["obj_final"]
    ok = (result["model"]["node_count"] == 15 and m > 0 and n > 0
          and math.isfinite(obj) and obj > 0)
    report(f"criterion 10: {'PASS' if ok else 'FAIL'} — 15-node sample "
           f"config solved; records m={m}, n={n}, objective={obj:.6g} "
           f"for manual comparison")
    assert ok
