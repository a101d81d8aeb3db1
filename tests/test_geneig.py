"""Tests for extended generalized eigenvalues of PSD pairs."""

import math

import numpy as np
import pytest
import scipy.linalg

from geneigopt import geneig, symmat, verify
from geneigopt.errors import (
    DegeneratePair,
    EmptyFeasibleSet,
    InvalidEpsilon,
    InvalidMatrix,
    InvalidSmoothing,
    NotPositiveSemidefinite,
    OutOfDomain,
    SingularDenominator,
)
from geneigopt.geneig import (
    AffinePencil,
    Certificate,
    composite_value_grad,
    lambda_max_eps,
    lambda_max_ext,
    lambda_min_ext,
    rayleigh_sup_oracle,
    smoothed_value_grad,
)
from geneigopt.problems import EIGENFREQUENCY, FeasibleSet, ProblemSpec


# ---------------------------------------------------------------- lambda_max

def test_lambda_max_zero_zero():
    r = lambda_max_ext(np.zeros((2, 2)), np.zeros((2, 2)))
    assert r.value == 0.0
    assert r.certificate is Certificate.ZERO_ZERO


def test_lambda_max_nonzero_over_zero_is_inf():
    r = lambda_max_ext(np.eye(2), np.zeros((2, 2)))
    assert math.isinf(r.value)
    assert r.certificate is Certificate.KERNEL_ESCAPE


def test_lambda_max_kernel_escape():
    r = lambda_max_ext(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert math.isinf(r.value)


def test_lambda_max_common_kernel_reduces():
    r = lambda_max_ext(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
    assert abs(r.value - 0.5) < 1e-12
    assert r.certificate is Certificate.REDUCED_PENCIL


def test_lambda_max_diagonal_pencil():
    r = lambda_max_ext(np.diag([1.0, 2.0]), np.eye(2))
    assert abs(r.value - 2.0) < 1e-12
    v = r.eigenvector
    # top eigenvector satisfies X v = value * Y v
    assert np.allclose(np.diag([1.0, 2.0]) @ v, r.value * v, atol=1e-10)


def test_lambda_max_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        lambda_max_ext([[1.0, 2.0], [2.0, 1.0]], np.eye(2))
    with pytest.raises(NotPositiveSemidefinite):
        lambda_max_ext(np.eye(2), [[1.0, 2.0], [2.0, 1.0]])


def record_solver_calls(monkeypatch):
    """Patch the eigensolvers and Cholesky; returns the list of calls made,
    each as (function name, first argument, ``subset_by_index``)."""
    calls = []

    def recording(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.asarray(a),
                          kwargs.get("subset_by_index")))
            return fn(a, *args, **kwargs)
        return wrapped

    for owner, name in [(np.linalg, "cholesky"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh"), (scipy.linalg, "cholesky"),
                        (scipy.linalg, "eigh")]:
        monkeypatch.setattr(owner, name, recording(
            f"{owner.__name__}.{name}", getattr(owner, name)))
    return calls


def rank_four_pair():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    y = (q[:, :4] * [1.0, 2.0, 3.0, 4.0]) @ q[:, :4].T
    y = 0.5 * (y + y.T)
    x = (q[:, :4] * [0.5, 1.0, 0.0, 2.0]) @ q[:, :4].T
    return 0.5 * (x + x.T), y


@pytest.mark.parametrize("fn", [
    pytest.param(lambda x, y: lambda_max_ext(x, y), id="lambda_max_ext"),
    # lambda_min_ext(Y, X) is 1 / lambda_max_ext(X, Y): the same calls
    pytest.param(lambda x, y: lambda_min_ext(y, x), id="lambda_min_ext"),
])
def test_extended_values_decompose_y_once(monkeypatch, fn):
    x, y = rank_four_pair()
    calls = record_solver_calls(monkeypatch)
    fn(x, y)
    # one Cholesky of X + t*I (the PSD check), one eigh of Y, then only the
    # top eigenvalue of the pencil reduced to Y's 4-dim range
    assert [(name, subset) for name, _, subset in calls] == [
        ("numpy.linalg.cholesky", None), ("numpy.linalg.eigh", None),
        ("scipy.linalg.eigh", [3, 3])]
    shift = 1e-10 * (1.0 + np.max(np.abs(x)))
    assert np.allclose(calls[0][1], x + shift * np.eye(6), rtol=0.0,
                       atol=1e-15)
    assert np.array_equal(calls[1][1], y)
    assert calls[2][1].shape == (4, 4)


def test_lambda_max_eps_solves_top_pair_only(monkeypatch):
    x, y = rank_four_pair()
    calls = record_solver_calls(monkeypatch)
    lambda_max_eps(x, y, 1e-3)
    # a Cholesky PSD check of each matrix, then the top generalized pair
    assert [(name, subset) for name, _, subset in calls] == [
        ("numpy.linalg.cholesky", None), ("numpy.linalg.cholesky", None),
        ("scipy.linalg.eigh", [5, 5])]


def test_empty_numerical_range_gives_the_zero_y_answers():
    # Y = 1e-9*I is not zero to 1e-10, but every eigenvalue lies below the
    # kernel threshold KERNEL_TOL*(1 + max|Y|): the range of Y is empty
    tiny = 1e-9 * np.eye(2)
    r = lambda_max_ext(np.zeros((2, 2)), tiny)
    assert (r.value, r.eigenvector, r.certificate) == \
        (0.0, None, Certificate.ZERO_ZERO)
    r = lambda_max_ext(np.eye(2), tiny)
    assert r.value == math.inf and r.certificate is Certificate.KERNEL_ESCAPE
    # lambda_min_ext swaps the pair: (tiny, I) has a well-posed top pair,
    # so lambda_min_ext(I, tiny) is the exact 1e9, while (tiny, 0) is 0/0
    assert lambda_min_ext(np.eye(2), tiny) == pytest.approx(1e9, rel=1e-15)
    assert lambda_min_ext(np.zeros((2, 2)), tiny) == math.inf
    # and (I, tiny) escapes: lambda_min_ext(tiny, I) = 1/inf = 0
    assert lambda_min_ext(tiny, np.eye(2)) == 0.0


def generalized_route(x, y):
    """(lambda_max_ext, lambda_min_ext, top eigenvalue of the reduced pencil)
    by full generalized eigensolves of the pencil reduced to the range of Y:
    an independent test oracle."""
    w, v = np.linalg.eigh(y)
    in_kernel = w <= symmat.KERNEL_TOL * (1.0 + np.max(np.abs(y)))
    u, r = v[:, in_kernel], v[:, ~in_kernel]
    top = max(scipy.linalg.eigh(r.T @ x @ r, r.T @ y @ r,
                                eigvals_only=True)[-1], 0.0)
    escapes = np.any(np.linalg.norm(x @ u, axis=0)
                     > symmat.KERNEL_TOL * (1.0 + np.max(np.abs(x))))
    a_rr = r.T @ x @ r
    if u.shape[1]:
        a_ru = r.T @ x @ u
        a_rr = a_rr - a_ru @ np.linalg.pinv(u.T @ x @ u, hermitian=True,
                                            rcond=symmat.KERNEL_TOL) @ a_ru.T
    lmin = max(scipy.linalg.eigh(a_rr, r.T @ y @ r, eigvals_only=True)[0], 0.0)
    return (math.inf if escapes else top), lmin, top


def assert_values_match_generalized_route(x, y, rtol):
    lmax, lmin, top = generalized_route(x, y)
    got = lambda_max_ext(x, y).value
    if math.isinf(lmax):
        assert got == math.inf
    else:
        assert abs(got - lmax) <= rtol * lmax
    # the bottom eigenvalue is accurate relative to the pencil's top one
    assert abs(lambda_min_ext(x, y) - lmin) <= rtol * max(top, 1.0)
    n = x.shape[0]
    eps = 1e-3
    top = scipy.linalg.eigh(x, y + eps * np.eye(n), eigvals_only=True)[-1]
    assert abs(lambda_max_eps(x, y, eps).value - top) <= rtol * abs(top)


def test_values_match_the_generalized_route_on_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(2, 30))
        x, y = verify.random_psd_pair(rng, n, zero_prob=0.0)
        assert_values_match_generalized_route(x, y, 1e-12)


def test_values_match_the_generalized_route_near_the_kernel_threshold():
    # Y's smallest range eigenvalues sit at 10 to 1000 times the kernel
    # threshold: the reduced pencil's condition number reaches about 1e7
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        k = int(rng.integers(0, n - 1))
        small = int(rng.integers(1, n - k))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.zeros(n)
        vals[k:] = rng.uniform(0.5, 5.0, n - k)
        scale = 1.0 + np.max(np.abs((q * vals) @ q.T))
        vals[k:k + small] = 1e-8 * scale * 10.0 ** rng.uniform(1.0, 3.0, small)
        y = (q * vals) @ q.T
        f = q[:, k:] @ rng.standard_normal((n - k, n - k))
        x = f @ f.T
        assert_values_match_generalized_route(x, y, 1e-9)


def test_eigenvectors_meet_their_normalization():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 30))
        x, y = verify.random_psd_pair(rng, n, zero_prob=0.0)
        eps = 10.0 ** rng.uniform(-6, -1)
        r = lambda_max_eps(x, y, eps)
        assert abs(r.eigenvector @ (y + eps * np.eye(n)) @ r.eigenvector
                   - 1.0) <= 1e-10
        r = lambda_max_ext(x, y)
        if r.certificate is not Certificate.REDUCED_PENCIL:
            continue
        v = r.eigenvector
        assert abs(v @ y @ v - 1.0) <= 1e-12
        residual = np.linalg.norm(x @ v - r.value * (y @ v))
        assert residual <= 1e-12 * (np.linalg.norm(x) + r.value
                                    * np.linalg.norm(y)) * np.linalg.norm(v)
        checked += 1


def test_lambda_max_matches_membership_oracle():
    # independent route: bisection on the semidefinite membership test
    rng = np.random.default_rng(11)
    for _ in range(60):
        x, y = verify.random_psd_pair(rng, int(rng.integers(2, 7)))
        exact = lambda_max_ext(x, y).value
        oracle = verify.lambda_max_by_membership(x, y)
        if math.isinf(exact):
            assert math.isinf(oracle)
        else:
            assert abs(exact - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_lambda_max_quasiconvex_along_segments():
    # the value along x -> lmax(A, B0 + x*B1) style segments never exceeds
    # the max of the endpoints (quotient maximand is quasiconvex in the pair)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0, _ = verify.random_psd_pair(rng, 4, zero_prob=0.0)
        x1, _ = verify.random_psd_pair(rng, 4, zero_prob=0.0)
        y = np.eye(4)
        f0 = lambda_max_ext(x0, y).value
        f1 = lambda_max_ext(x1, y).value
        for t in (0.25, 0.5, 0.75):
            ft = lambda_max_ext((1 - t) * x0 + t * x1, y).value
            assert ft <= max(f0, f1) + 1e-9


# ---------------------------------------------------------------- lambda_min

def test_lambda_min_zero_denominator_is_inf():
    assert math.isinf(lambda_min_ext(np.eye(2), np.zeros((2, 2))))
    # the zero/zero pair keeps the same convention for the min variant
    assert math.isinf(lambda_min_ext(np.zeros((2, 2)), np.zeros((2, 2))))


def test_lambda_min_diagonal():
    assert abs(lambda_min_ext(np.diag([1.0, 2.0]), np.eye(2)) - 1.0) < 1e-12


def test_lambda_min_vanishing_direction():
    assert lambda_min_ext(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


def test_lambda_min_is_the_reciprocal_of_the_swapped_lambda_max():
    rng = np.random.default_rng(17)
    pairs = [verify.random_psd_pair(rng, int(rng.integers(2, 8)))
             for _ in range(200)]
    tiny = 1e-9 * np.eye(2)
    pairs += [(np.eye(2), tiny), (tiny, np.eye(2)), (np.zeros((2, 2)), tiny),
              (tiny, np.zeros((2, 2)))]
    for x, y in pairs:
        t = lambda_max_ext(y, x).value
        assert lambda_min_ext(x, y) == (math.inf if t == 0.0 else 1.0 / t)


@pytest.mark.parametrize("bad, message", [
    (0, "first matrix is not PSD"), (1, "second matrix is not PSD")])
def test_lambda_min_names_its_own_non_psd_argument(bad, message):
    pair = [np.eye(2), np.eye(2)]
    pair[bad] = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveSemidefinite, match=f"^{message}$"):
        lambda_min_ext(*pair)


def test_lambda_min_membership_characterization():
    # sup{a >= 0 | X - aY psd}: just below passes, just above fails
    rng = np.random.default_rng(5)
    for _ in range(30):
        x, y = verify.random_psd_pair(rng, 4, zero_prob=0.0)
        a = lambda_min_ext(x, y)
        if math.isinf(a):
            continue
        lo = np.linalg.eigvalsh(x - 0.999 * a * y)[0] if a > 0 else 0.0
        hi = np.linalg.eigvalsh(x - (a + 0.01 * (1 + a)) * y)[0]
        assert lo >= -1e-9 * (1 + np.max(np.abs(x)))
        assert hi < 1e-9 * (1 + np.max(np.abs(x)))


def test_reciprocal_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, y = verify.random_psd_pair(rng, int(rng.integers(2, 6)))
        lmax = lambda_max_ext(x, y).value
        lmin = lambda_min_ext(y, x)
        if math.isinf(lmax):
            assert lmin <= 1e-9 * (1 + np.max(np.abs(y)))
        elif lmax == 0.0:
            assert math.isinf(lmin)
        else:
            assert abs(lmax * lmin - 1.0) <= 1e-7


# ------------------------------------------------------------ regularization

def test_lambda_max_eps_examples():
    assert abs(lambda_max_eps(np.eye(2), np.zeros((2, 2)), 0.1).value - 10.0) < 1e-10
    assert lambda_max_eps(np.zeros((2, 2)), np.eye(2), 0.3).value == 0.0
    v = lambda_max_eps(np.diag([2.0, 0.0]), np.diag([2.0, 0.0]), 0.2).value
    assert abs(v - 2.0 / 2.2) < 1e-12


def test_lambda_max_eps_requires_positive_eps():
    with pytest.raises(InvalidEpsilon):
        lambda_max_eps(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(InvalidEpsilon):
        lambda_max_eps(np.eye(2), np.eye(2), -1.0)


def test_eps_monotone_and_convergent():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x, y = verify.random_psd_pair(rng, int(rng.integers(2, 6)))
        exact = lambda_max_ext(x, y).value
        vals = [lambda_max_eps(x, y, 10.0 ** (-p)).value for p in range(1, 10)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12  # nonincreasing in eps, so increasing here
        if math.isfinite(exact):
            assert vals[-1] <= exact + 1e-9
            assert abs(vals[-1] - exact) <= 1e-6 * (1 + abs(exact))
        else:
            # blows up like c / eps
            assert vals[-1] * 1e-9 > 1e-12


# ------------------------------------------------------------------- oracle

def test_rayleigh_oracle_examples():
    v = rayleigh_sup_oracle(np.diag([1.0, 2.0]), np.eye(2), 10_000, 0)
    assert 2.0 - 1e-2 <= v <= 2.0
    v = rayleigh_sup_oracle(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), 1000, 1)
    assert abs(v - 0.5) < 1e-12
    v = rayleigh_sup_oracle(np.eye(3), np.eye(3), 10, 2)
    assert abs(v - 1.0) < 1e-14


def test_rayleigh_oracle_never_exceeds_exact():
    rng = np.random.default_rng(9)
    for i in range(25):
        x, y = verify.random_psd_pair(rng, 4, zero_prob=0.0)
        exact = lambda_max_ext(x, y).value
        v = rayleigh_sup_oracle(x, y, 2000, i)
        if math.isfinite(exact):
            assert v <= exact + 1e-9


def test_rayleigh_oracle_rejects_zero_denominator():
    with pytest.raises(DegeneratePair):
        rayleigh_sup_oracle(np.eye(2), np.zeros((2, 2)), 100, 0)


# -------------------------------------------------------------------- pencil

def two_bar_pencils():
    a = AffinePencil(np.zeros((2, 2)), [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    b = AffinePencil(np.zeros((2, 2)), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    return a, b


def test_affine_pencil_evaluation():
    a, _ = two_bar_pencils()
    assert a.dim == 2 and a.nvars == 2
    assert np.allclose(a([3.0, 4.0]), np.diag([3.0, 8.0]))


def test_affine_pencil_rejects_non_psd_coefficients():
    with pytest.raises(NotPositiveSemidefinite):
        AffinePencil(np.zeros((2, 2)), [np.diag([-1.0, 0.0])])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_affine_pencil_rejects_non_finite_constant(bad):
    with pytest.raises(InvalidMatrix):
        AffinePencil(np.diag([bad, 1.0]), [np.eye(2)])
    # an overflowing load: Q Q' of entries 1e200 is +inf
    q = np.array([[1e200], [0.0]])
    with np.errstate(over="ignore"), pytest.raises(InvalidMatrix):
        AffinePencil.constant_pencil(q @ q.T, 2)


def test_affine_pencil_checks_the_whole_stack():
    rng = np.random.default_rng(5)
    n = 4
    stack = [f @ f.T for f in rng.standard_normal((6, n, 2))]
    pencil = AffinePencil(np.zeros((n, n)), stack)
    assert pencil.coeffs.flags.c_contiguous and pencil.coeffs.dtype == float
    assert np.array_equal(pencil.coeffs, [0.5 * (c + c.T) for c in stack])
    # scaled by 1 + max|C_j| per coefficient: an eigenvalue of -1e-5
    # passes on a coefficient of size 1e6, -1e-3 fails next to it
    stack[3] = 1e6 * stack[3] - 1e-5 * np.eye(n)
    AffinePencil(np.zeros((n, n)), stack)
    for j in (0, 2, 5):
        bad = list(stack)
        bad[j] = stack[j] - 1e-3 * np.eye(n)
        with pytest.raises(NotPositiveSemidefinite, match=f"coefficient {j} "):
            AffinePencil(np.zeros((n, n)), bad)
    bad = list(stack)
    bad[2] = stack[2].copy()
    bad[2][1, 3] = np.nan
    with pytest.raises(InvalidMatrix, match="coefficient 2 "):
        AffinePencil(np.zeros((n, n)), bad)


def test_constant_pencil_has_zero_gradient_terms():
    p = AffinePencil.constant_pencil(np.eye(3), 5)
    assert p.nvars == 5
    assert np.allclose(p([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(3))


def test_constant_pencil_matches_dense_zero_coefficients():
    rng = np.random.default_rng(41)
    m, n = 7, 5
    q = rng.standard_normal((n, 1))
    b = AffinePencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    const = AffinePencil.constant_pencil(q @ q.T, m)
    dense = AffinePencil(q @ q.T, np.zeros((m, n, n)))
    for _ in range(5):
        x = rng.uniform(0.1, 2.0, m)
        got = composite_value_grad(const, b, x, 1e-3)
        want = composite_value_grad(dense, b, x, 1e-3)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert const.nvars == m and const.coeffs is None
    held = [getattr(const, s) for s in AffinePencil.__slots__]
    assert all(np.size(h) < m * n * n for h in held
               if isinstance(h, np.ndarray))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (7, 3), (40, 12)])
def test_pencil_evaluation_is_the_tensordot_bit_for_bit(m, n):
    # the subgradient trajectories and the bisection's warm start depend
    # on these bits: the GEMV must sum exactly as tensordot
    rng = np.random.default_rng(10 * m + n)
    a = AffinePencil(np.diag(rng.uniform(0.0, 1.0, n)),
                     [f @ f.T for f in rng.standard_normal((m, n, 2))])
    b = AffinePencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    q = rng.standard_normal((n, 1))
    const = AffinePencil.constant_pencil(q @ q.T, m)
    for pencil in (a, b, a.level(b, 2.5, 1e-3), const):
        coeffs = np.zeros((m, n, n)) if pencil.coeffs is None \
            else pencil.coeffs
        for _ in range(3):
            x = rng.uniform(0.0, 2.0, m)
            assert np.array_equal(
                pencil(x), pencil.constant + np.tensordot(x, coeffs, axes=1))


def test_level_pencil_and_scale():
    rng = np.random.default_rng(43)
    m, n, eps, alpha = 6, 4, 1e-3, 2.5
    a = AffinePencil(np.diag(rng.uniform(0.0, 1.0, n)),
                     [f @ f.T for f in rng.standard_normal((m, n, 2))])
    b = AffinePencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    q = rng.standard_normal((n, 1))
    const = AffinePencil.constant_pencil(q @ q.T, m)
    for num in (a, const):
        level = num.level(b, alpha, eps)
        assert level.nvars == m
        for _ in range(3):
            x = rng.uniform(0.0, 2.0, m)
            v = rng.standard_normal(n)
            want = num(x) - alpha * (b(x) + eps * np.eye(n))
            assert np.allclose(level(x), want, rtol=0.0, atol=1e-12)
            assert np.allclose(level.quad(v), num.quad(v) - alpha * b.quad(v),
                               rtol=0.0, atol=1e-12)
    # no coefficients on either side: the level pencil stores none either
    assert const.level(const, alpha, eps).coeffs is None
    assert a.scale() == float(np.max(np.abs(a.constant))) + \
        float(np.max(np.abs(a.coeffs)))
    assert b.scale(eps) == eps + float(np.max(np.abs(b.coeffs)))
    assert const.scale() == float(np.max(np.abs(const.constant)))


def test_singular_denominator_is_typed():
    # B(x) is singular on the edge x2 = 0; at eps = 0 no Cholesky exists
    a, b = two_bar_pencils()
    for evaluate in (geneig._pencil_value_grad,
                     lambda *args: geneig._smoothed_value_grad(*args, 0.1)):
        with pytest.raises(SingularDenominator, match="not positive definite"):
            evaluate(a, b, [1.0, 0.0], 0.0)
    value = geneig._pencil_value_grad(a, b, [1.0, 0.0], 1e-9)[0]
    assert abs(value - 1.0) < 1e-8


def test_composite_value_grad_closed_form():
    a, b = two_bar_pencils()
    value, grad, vec = composite_value_grad(a, b, [1.0, 1.0], 0.2)
    assert abs(value - 5.0 / 3.0) < 1e-12
    assert abs(grad[0]) < 1e-12
    assert abs(grad[1] - 5.0 / 18.0) < 1e-10
    # eigenvector is normalized against the regularized denominator
    bm = b([1.0, 1.0]) + 0.2 * np.eye(2)
    assert abs(vec @ bm @ vec - 1.0) < 1e-10


def test_composite_value_grad_zero_numerator():
    a = AffinePencil.constant_pencil(np.zeros((2, 2)), 2)
    _, b = two_bar_pencils()
    value, grad, _ = composite_value_grad(a, b, [1.0, 1.0], 0.1)
    assert value == 0.0
    assert np.allclose(grad, 0.0)


def test_composite_value_grad_domain_checks():
    a, b = two_bar_pencils()
    with pytest.raises(OutOfDomain):
        composite_value_grad(a, b, [-1.0, 1.0], 0.1)
    with pytest.raises(InvalidEpsilon):
        composite_value_grad(a, b, [1.0, 1.0], 0.0)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda p: lambda_max_eps(np.eye(2), np.eye(2), math.nan),
                 InvalidEpsilon, id="lambda_max_eps-eps-nan"),
    pytest.param(lambda p: lambda_max_eps(np.eye(2), np.eye(2), math.inf),
                 InvalidEpsilon, id="lambda_max_eps-eps-inf"),
    pytest.param(lambda p: composite_value_grad(*p, [1.0, 1.0], math.nan),
                 InvalidEpsilon, id="composite-eps-nan"),
    pytest.param(lambda p: smoothed_value_grad(*p, [1.0, 1.0], math.nan, 0.1),
                 InvalidEpsilon, id="smoothed-eps-nan"),
    pytest.param(lambda p: smoothed_value_grad(*p, [1.0, 1.0], 0.1, math.nan),
                 InvalidSmoothing, id="smoothed-mu-nan"),
    pytest.param(lambda p: smoothed_value_grad(*p, [1.0, 1.0], 0.1, math.inf),
                 InvalidSmoothing, id="smoothed-mu-inf"),
    pytest.param(lambda p: composite_value_grad(*p, [math.nan, 1.0], 0.1),
                 OutOfDomain, id="composite-x-nan"),
    pytest.param(lambda p: smoothed_value_grad(*p, [1.0, math.nan], 0.1, 0.1),
                 OutOfDomain, id="smoothed-x-nan"),
    pytest.param(lambda p: FeasibleSet(l=[1.0, 1.0], v0=math.nan),
                 EmptyFeasibleSet, id="feasible-v0-nan"),
    pytest.param(lambda p: FeasibleSet(l=[1.0, 1.0], v0=2.0,
                                       lower_bound=math.nan),
                 EmptyFeasibleSet, id="feasible-lower-bound-nan"),
    pytest.param(lambda p: ProblemSpec(
        EIGENFREQUENCY, None, FeasibleSet(l=[1.0, 1.0], v0=2.0), eps=math.nan),
                 ValueError, id="problem-spec-eps-nan"),
])
def test_non_finite_scalars_fail_the_positivity_checks(call, error):
    # each check is written so that NaN fails it, like a nonpositive value
    with pytest.raises(error):
        call(two_bar_pencils())


def test_composite_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    checked = 0
    while checked < 60:
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        coeffs_a = [np.outer(g, g) for g in rng.standard_normal((m, n))]
        coeffs_b = [np.outer(g, g) + 0.1 * np.eye(n)
                    for g in rng.standard_normal((m, n))]
        a = AffinePencil(np.zeros((n, n)), coeffs_a)
        b = AffinePencil(np.zeros((n, n)), coeffs_b)
        x = rng.uniform(0.5, 2.0, m)
        eps = float(rng.uniform(0.05, 0.5))
        value, grad, _ = composite_value_grad(a, b, x, eps)
        # skip near-multiple top eigenvalues; the gradient needs smoothness
        import scipy.linalg
        w = scipy.linalg.eigh(a(x), b(x) + eps * np.eye(n), eigvals_only=True)
        if len(w) > 1 and w[-1] - w[-2] < 1e-4 * (1 + abs(w[-1])):
            continue
        fd = np.zeros(m)
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fp, _, _ = composite_value_grad(a, b, x + e, eps)
            fm, _, _ = composite_value_grad(a, b, x - e, eps)
            fd[j] = (fp - fm) / (2 * h)
        assert np.max(np.abs(fd - grad)) <= 1e-5 * (1 + np.max(np.abs(grad)))
        checked += 1


# ------------------------------------------------------------------ smoothing

def test_smoothed_single_eigenvalue_is_exact():
    a = AffinePencil(np.zeros((1, 1)), [np.ones((1, 1))])
    b = AffinePencil(np.zeros((1, 1)), [np.ones((1, 1))])
    value, _ = smoothed_value_grad(a, b, [2.0], 0.5, 0.3)
    exact, _, _ = composite_value_grad(a, b, [2.0], 0.5)
    assert abs(value - exact) < 1e-12


def test_smoothed_log_sum_exp_value():
    # eigenvalues (0, 1) at mu = 1 give log(1 + e)
    a = AffinePencil(np.zeros((2, 2)), [np.diag([0.0, 1.0])])
    b = AffinePencil(np.zeros((2, 2)), [np.eye(2)])
    value, _ = smoothed_value_grad(a, b, [1.0], 1e-12, 1.0)
    assert abs(value - math.log(1.0 + math.e)) < 1e-6


def test_smoothed_sandwich_bound():
    a, b = two_bar_pencils()
    rng = np.random.default_rng(29)
    for _ in range(30):
        x = rng.uniform(0.0, 2.0, 2)
        eps = float(rng.uniform(0.01, 0.5))
        mu = float(rng.uniform(0.001, 0.5))
        exact, _, _ = composite_value_grad(a, b, x, eps)
        smooth, _ = smoothed_value_grad(a, b, x, eps, mu)
        assert exact - 1e-12 <= smooth <= exact + mu * math.log(2) + 1e-12


def test_smoothed_grad_matches_finite_differences():
    a, b = two_bar_pencils()
    h = 1e-6
    x = np.array([1.3, 0.7])
    value, grad = smoothed_value_grad(a, b, x, 0.2, 0.05)
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[j] = (smoothed_value_grad(a, b, x + e, 0.2, 0.05)[0]
                 - smoothed_value_grad(a, b, x - e, 0.2, 0.05)[0]) / (2 * h)
    assert np.max(np.abs(fd - grad)) < 1e-6


def test_smoothed_grad_matches_three_operand_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        m, n = int(rng.integers(1, 8)), int(rng.integers(2, 9))
        mass = rng.standard_normal((n, n))
        a = AffinePencil(mass @ mass.T,
                         [np.diag(d) for d in rng.uniform(0, 1, (m, n))])
        b = AffinePencil(np.zeros((n, n)),
                         [np.outer(g, g) for g in rng.standard_normal((m, n))])
        x = rng.uniform(0.1, 2.0, m)
        eps, mu = 1e-2, float(rng.uniform(0.01, 1.0))
        _, grad = smoothed_value_grad(a, b, x, eps, mu)

        w, vecs = scipy.linalg.eigh(a(x), b(x) + eps * np.eye(n))
        sigma = np.exp((w - w.max()) / mu)
        sigma /= sigma.sum()
        quad_a = np.einsum("jn,mjk,kn->mn", vecs, a.coeffs, vecs)
        quad_b = np.einsum("jn,mjk,kn->mn", vecs, b.coeffs, vecs)
        oracle = (quad_a - quad_b * w) @ sigma
        assert np.linalg.norm(grad - oracle) <= \
            1e-12 * np.linalg.norm(oracle)


def test_smoothed_requires_positive_mu():
    a, b = two_bar_pencils()
    with pytest.raises(InvalidSmoothing):
        smoothed_value_grad(a, b, [1.0, 1.0], 0.1, 0.0)
