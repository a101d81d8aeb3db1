"""Tests for the robust-compliance and eigenfrequency objectives."""

import math

import numpy as np
import pytest

from geneigopt import problems, truss
from geneigopt.errors import EmptyFeasibleSet, InvalidMatrix
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
    psi_eps,
    psi_exact,
    robust_two_bar_model,
)
from oracles import dense_pencil, psi_via_linear_solve


def diag_robust_model():
    """K(x) = diag(x1, x2), single unit load on the first DOF."""
    return robust_two_bar_model()


# ---------------------------------------------------------- robust compliance

def test_psi_exact_examples():
    model = diag_robust_model()
    assert abs(psi_exact(model, [2.0, 1.0]) - 0.5) < 1e-12
    assert math.isinf(psi_exact(model, [0.0, 1.0]))


def test_psi_linear_solve_route_agrees():
    model = diag_robust_model()
    assert abs(psi_via_linear_solve(model, [2.0, 1.0]) - 0.5) < 1e-12
    assert math.isinf(psi_via_linear_solve(model, [0.0, 1.0]))


def test_psi_eps_examples():
    model = diag_robust_model()
    assert abs(psi_eps(model, [0.0, 0.0], 0.1) - 10.0) < 1e-10
    assert abs(psi_eps(model, [2.0, 1.0], 1e-6) - 0.5) < 1e-6
    assert abs(psi_eps(model, [2.0, 1.0], 1e-6) - 1.0 / (2.0 + 1e-6)) < 1e-12


def test_psi_routes_agree_on_random_models():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 6))
        coeffs = [np.outer(g, g) for g in rng.standard_normal((m, n))]
        q = rng.standard_normal((n, int(rng.integers(1, 3))))
        model = PencilModel(k_pencil=dense_pencil(np.zeros((n, n)), coeffs),
                            q_matrix=q)
        x = rng.uniform(0.0, 2.0, m)
        x[rng.random(m) < 0.4] = 0.0  # designs that may leave the load unsupported
        a = psi_exact(model, x)
        b = psi_via_linear_solve(model, x)
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b)
        else:
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a))


def test_psi_eps_below_exact_and_monotone():
    model = diag_robust_model()
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, 2)
        exact = psi_exact(model, x)
        prev = -math.inf
        for eps in (1.0, 0.1, 0.01, 1e-4):
            v = psi_eps(model, x, eps)
            assert v >= prev - 1e-12
            assert v <= exact + 1e-9
            prev = v


def test_psi_load_scaling_is_quadratic():
    # doubling the load quadruples the worst-case compliance
    m1 = robust_two_bar_model(load_scale=1.0)
    m2 = robust_two_bar_model(load_scale=2.0)
    x = [1.5, 0.7]
    assert abs(psi_exact(m2, x) - 4.0 * psi_exact(m1, x)) < 1e-10


@pytest.mark.parametrize("objective", [
    lambda model: psi_exact(model, [1.0, 1.0]),
    lambda model: psi_eps(model, [1.0, 1.0], 1e-6),
    lambda model: ProblemSpec(ROBUST_COMPLIANCE, model, FeasibleSet(
        l=np.ones(2), v0=2.0)).objective_pencils(),
], ids=["psi_exact", "psi_eps", "objective_pencils"])
def test_overflowing_load_is_invalid_matrix(objective):
    # QQ' overflows to +inf: a typed error, not numpy's RuntimeWarning
    # (pyproject.toml's filterwarnings makes that warning an error)
    with pytest.raises(InvalidMatrix):
        objective(robust_two_bar_model(load_scale=1e200))


# ------------------------------------------------------------- eigenfrequency

def test_phi_exact_examples():
    wo = demo_model_without_mass()
    w = demo_model_with_mass()
    assert abs(phi_exact(wo, [1.0, 1.0]) - 2.0) < 1e-12
    assert abs(phi_exact(wo, [2.0, 0.0]) - 1.0) < 1e-12
    assert abs(phi_exact(w, [0.5, 1.5]) - 3.0) < 1e-12
    assert math.isinf(phi_exact(w, [0.0, 2.0]))
    # K(0) = 0: kernel escape with the non-structural mass, 0/0 without it
    assert math.isinf(phi_exact(w, [0.0, 0.0]))
    assert phi_exact(wo, [0.0, 0.0]) == 0.0


def test_phi_at_origin():
    # no mass at all: value 0; nonstructural mass present: infinite
    assert phi_exact(demo_model_without_mass(), [0.0, 0.0]) == 0.0
    assert math.isinf(phi_exact(demo_model_with_mass(), [0.0, 0.0]))


def test_phi_eps_examples():
    wo = demo_model_without_mass()
    w = demo_model_with_mass()
    assert abs(phi_eps(wo, [2.0, 0.0], 0.2) - 10.0 / 11.0) < 1e-12
    assert abs(phi_eps(w, [2.0, 0.0], 0.2) - 3.0 / 2.2) < 1e-12


def closed_form_no_mass(x):
    if x[1] > 0:
        return 2.0
    if x[0] > 0:
        return 1.0
    return 0.0


def closed_form_with_mass(x):
    if x[0] == 0:
        return math.inf
    branch = (x[0] + 1.0) / x[0]
    return max(branch, 2.0) if x[1] > 0 else branch


def test_phi_closed_forms_on_grid():
    wo = demo_model_without_mass()
    w = demo_model_with_mass()
    ts = np.linspace(0.0, 2.0, 21)
    for x1 in ts:
        for x2 in ts:
            x = np.array([x1, x2])
            ref = closed_form_no_mass(x)
            assert abs(phi_exact(wo, x) - ref) < 1e-10
            ref = closed_form_with_mass(x)
            got = phi_exact(w, x)
            if math.isinf(ref):
                assert math.isinf(got)
            else:
                assert abs(got - ref) < 1e-10
            for eps in (0.2, 0.01):
                r1 = max(x1 / (x1 + eps), 2.0 * x2 / (x2 + eps))
                r2 = max((x1 + 1.0) / (x1 + eps), 2.0 * x2 / (x2 + eps))
                assert abs(phi_eps(wo, x, eps) - r1) < 1e-10
                assert abs(phi_eps(w, x, eps) - r2) < 1e-10


def test_phi_lower_semicontinuity_probe():
    # along sequences collapsing onto the boundary the liminf dominates
    wo = demo_model_without_mass()
    w = demo_model_with_mass()
    for model in (wo, w):
        for target in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
            target = np.array(target)
            limit = phi_exact(model, target)
            seq = [phi_exact(model, target + 2.0 ** (-k) * np.ones(2))
                   for k in range(5, 15)]
            if math.isinf(limit):
                # the sequence keeps growing geometrically toward +inf
                assert math.isinf(seq[-1]) or (seq[-1] > 1e3
                                               and seq[-1] > 3.0 * seq[-5])
            else:
                assert min(seq[-3:]) >= limit - 1e-8


def test_phi_eps_continuous_near_boundary():
    # the regularized objective has no jump at x2 -> 0
    w = demo_model_with_mass()
    eps = 0.05
    base = phi_eps(w, [1.5, 0.0], eps)
    for t in (1e-3, 1e-6, 1e-9):
        assert abs(phi_eps(w, [1.5, t], eps) - base) < 1e-2


def test_truss_phi_consistency():
    # assembled truss model: regularized value approaches the exact one
    # the left column (nodes 0 and 3) is fixed in both directions
    gs = truss.generate_ground_structure(3, 2, 1.0, frozenset({0, 1, 6, 7}))
    model = truss.build_model(gs, truss.Material(1.0, 1.0),
                              truss.grid_node_index(3, 2, 1),
                              nonstructural_mass=1.0)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(0.2, 1.0, model.m)
        exact = phi_exact(model, x)
        approx = phi_eps(model, x, 1e-9)
        assert abs(approx - exact) <= 1e-5 * (1.0 + abs(exact))


def test_problem_spec_needs_the_field_its_kind_reads():
    # each used to fail deep inside the first solve: TypeError ('NoneType'
    # object is not callable) or AttributeError
    fs = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0)
    with pytest.raises(ValueError, match="m_pencil"):
        ProblemSpec(EIGENFREQUENCY, robust_two_bar_model(), fs)
    with pytest.raises(ValueError, match="q_matrix"):
        ProblemSpec(ROBUST_COMPLIANCE, demo_model_without_mass(), fs)
    gs = truss.generate_ground_structure(3, 2, 1.0, frozenset({0, 1, 6, 7}))
    robust = truss.build_model(gs, truss.Material(1.0, 1.0),
                               truss.grid_node_index(3, 2, 1),
                               problem=ROBUST_COMPLIANCE)
    fs = FeasibleSet(l=robust.volumes, v0=1.0)
    ProblemSpec(ROBUST_COMPLIANCE, robust, fs)
    with pytest.raises(ValueError, match="m_pencil"):
        ProblemSpec(EIGENFREQUENCY, robust, fs)


# ----------------------------------------------------------------- feasible set

def test_feasible_set_contains():
    fs = FeasibleSet(l=np.array([1.0, 2.0]), v0=4.0, kind=problems.VOLUME_LE)
    assert fs.contains([1.0, 1.0])
    assert not fs.contains([1.0, 2.0])
    assert not fs.contains([-0.1, 0.0])
    eq = FeasibleSet(l=np.array([1.0, 2.0]), v0=4.0, kind=problems.VOLUME_EQ)
    assert eq.contains([2.0, 1.0])
    assert not eq.contains([1.0, 1.0])


def test_feasible_set_validation():
    with pytest.raises(EmptyFeasibleSet):
        FeasibleSet(l=np.array([1.0]), v0=-1.0)
    with pytest.raises(EmptyFeasibleSet):
        FeasibleSet(l=np.array([1.0, 1.0]), v0=1.0, lower_bound=0.6)
    with pytest.raises(ValueError):
        FeasibleSet(l=np.array([1.0]), v0=1.0, kind="between")


def test_problem_spec_pencils():
    model = diag_robust_model()
    fs = FeasibleSet(l=np.array([1.0, 1.0]), v0=2.0)
    spec = ProblemSpec(ROBUST_COMPLIANCE, model, fs, eps=0.1)
    a, b = spec.objective_pencils()
    assert np.allclose(a([1.0, 1.0]), model.q_matrix @ model.q_matrix.T)
    assert b is model.k_pencil
    freq = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(), fs)
    a, b = freq.objective_pencils()
    assert a is demo_model_without_mass().m_pencil or a.dim == 2
    with pytest.raises(ValueError):
        ProblemSpec("modal", model, fs)
    with pytest.raises(ValueError):
        ProblemSpec(ROBUST_COMPLIANCE, model, fs, eps=-0.5)
