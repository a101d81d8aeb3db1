"""Tests for extended generalized eigenvalues of PSD pairs."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from geneigopt import cli, geneig, solvers, symmat, verify
from geneigopt.errors import (
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
    smoothed_value_grad,
)
from geneigopt.problems import (
    EIGENFREQUENCY,
    VOLUME_EQ,
    FeasibleSet,
    ProblemSpec,
    demo_model_without_mass,
)
from geneigopt.truss import (
    Material,
    build_model,
    generate_ground_structure,
    grid_node_index,
)
from oracles import (
    block_einsum_sums_row_major,
    dense_pencil,
    dense_stack,
    eigenfrequency_model,
    einsum_sums_row_major,
    quad_einsum,
    quad_row_major,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_MODELS = {"robust_7x4": "robust_7x4_subgrad",
                "eigfreq_5x3": "eigfreq_5x3_bisect"}
GRIDS = {"grid_9x5": (9, 5), "grid_11x6": (11, 6)}
EINSUM_ROW_MAJOR = einsum_sums_row_major()
BLOCK_EINSUM_ROW_MAJOR = block_einsum_sums_row_major()


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
    # in the second pair Y's kernel direction (-sin t, cos t) leaves X's
    # kernel by only 3.3 sin t, about 2e-3: alpha*Y - X is never PSD, yet
    # eigh's rounding on alpha*Y calls it PSD near alpha = 2.5e10, past the
    # level where the membership oracle must answer +inf
    t = 6e-4
    b = np.array([math.cos(t), math.sin(t)])
    for x, y in ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                 (np.diag([3.3, 0.0]), 4.0 * np.outer(b, b))):
        r = lambda_max_ext(x, y)
        assert r.value == math.inf and r.certificate is Certificate.KERNEL_ESCAPE
        assert verify.lambda_max_by_membership(x, y) == math.inf


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
    each as (function name, first argument, ``subset_by_index``, or for
    LAPACK's dsyevr, as ``symmat`` calls it, its ``range``)."""
    calls = []

    def recording(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.asarray(a), kwargs.get(
                "subset_by_index", kwargs.get("range"))))
            return fn(a, *args, **kwargs)
        return wrapped

    for owner, name in [(np.linalg, "cholesky"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh"), (scipy.linalg, "cholesky"),
                        (scipy.linalg, "eigh"), (symmat.lapack, "dsyevr")]:
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
    # one Cholesky of X + t*I (the PSD check), one value-range dsyevr of Y
    # for its kernel alone (no full eigh), then only the top eigenvalue of
    # the pencil reduced to Y's 4-dim range
    assert [(name, subset) for name, _, subset in calls] == [
        ("numpy.linalg.cholesky", None), ("scipy.linalg.lapack.dsyevr", "V"),
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


@pytest.mark.parametrize("fn, count", [
    pytest.param(lambda x, y: lambda_max_eps(x, y, 1e-3), 2, id="eps"),
    # symmat.kernel_basis symmetrizes Y once more on its own
    pytest.param(lambda_max_ext, 3, id="ext"),
    pytest.param(lambda_min_ext, 3, id="min-ext"),
])
def test_extended_values_symmetrize_each_matrix_once(monkeypatch, fn, count):
    calls = []

    def counting(x, _real=symmat.as_symmetric):
        calls.append(x)
        return _real(x)
    monkeypatch.setattr(symmat, "as_symmetric", counting)
    monkeypatch.setattr(geneig, "as_symmetric", counting)
    fn(*rank_four_pair())
    assert len(calls) == count


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


def planted_pair(rng, n, k, escape):
    """Y with a planted kernel of dimension k; X vanishes on it (its 0/0
    directions), or with ``escape`` also has a unit z z' in it."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    y = (q[:, k:] * rng.uniform(0.5, 5.0, n - k)) @ q[:, k:].T
    f = q[:, k:] @ rng.standard_normal((n - k, int(rng.integers(1, n - k + 1))))
    x = f @ f.T
    if escape:
        z = q[:, :k] @ rng.standard_normal(k)
        x += np.outer(z, z) / (z @ z)
    return symmat.as_symmetric(x), symmat.as_symmetric(y)


@pytest.mark.parametrize("n", [48, 80])
def test_values_match_the_generalized_route_at_benchmark_sizes(n):
    # the benchmark's pair sizes, kernels of dimension 0 to 6
    rng = np.random.default_rng(n)
    for k in range(7):
        for escape in ((False, True) if k else (False,)):
            x, y = planted_pair(rng, n, k, escape)
            assert symmat.kernel_basis(y).shape == (n, k)
            r = lambda_max_ext(x, y)
            assert (r.certificate is Certificate.KERNEL_ESCAPE) == escape
            assert_values_match_generalized_route(x, y, 1e-12)
    # and the all-zero pair: 0/0 = 0, so lambda_min is 1/0 = inf
    zero = np.zeros((n, n))
    r = lambda_max_ext(zero, zero)
    assert (r.value, r.certificate) == (0.0, Certificate.ZERO_ZERO)
    assert lambda_min_ext(zero, zero) == math.inf


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


def eigh_kernel(y):
    """Kernel basis of Y by a full eigh, independent of ``kernel_basis``."""
    w, v = np.linalg.eigh(y)
    return v[:, w <= symmat.KERNEL_TOL * (1.0 + np.max(np.abs(y)))]


def degenerate_pairs():
    """X = 0, or an X on Y's kernel too small to escape it: either way X
    vanishes on Y's range, where every vector is a top eigenvector."""
    yield pytest.param(np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]), id="diag")
    rng = np.random.default_rng(53)
    for n in (2, 7, 24, 48):
        k = int(rng.integers(1, n))
        _, y = planted_pair(rng, n, k, escape=False)
        g = eigh_kernel(y) @ rng.standard_normal((k, k))
        on_kernel = symmat.as_symmetric(g @ g.T)
        yield pytest.param(np.zeros((n, n)), y, id=f"zero-{n}")
        yield pytest.param(1e-10 * on_kernel / np.max(np.abs(on_kernel)), y,
                           id=f"on-kernel-{n}")


@pytest.mark.parametrize("x, y", degenerate_pairs())
def test_zero_pencil_on_the_range_gives_a_range_eigenvector(x, y):
    r = lambda_max_ext(x, y)
    assert r.certificate is Certificate.REDUCED_PENCIL
    assert r.value == pytest.approx(0.0, abs=1e-12)
    v = r.eigenvector
    # v is no kernel vector of Y (v'Yv = 0 there): it lies in Y's range
    assert abs(v @ y @ v - 1.0) <= 1e-12
    assert np.linalg.norm(eigh_kernel(y).T @ v) <= 1e-12 * np.linalg.norm(v)


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


@pytest.mark.parametrize("seed", [16, 24, 42, 68, 72])
def test_suite_geneig_passes_on_slight_kernel_escapes(seed):
    results = verify.suite_geneig(seed)
    assert [r["name"] for r in results] == [
        "definition_equivalence", "eps_monotonicity", "reciprocal_identity",
        "pointwise_convergence"]
    assert all(r["passed"] for r in results), results


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
        # lambda_min_ext(y, x) is 1 / lambda_max_ext(x, y): the other side
        # of the identity comes from the independent membership oracle
        lmax = verify.lambda_max_by_membership(x, y)
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


def test_lambda_max_eps_nearly_psd_denominator_is_typed():
    # Y passes the PSD check (-1e-11 is within PSD_TOL) but Y + eps*I is
    # indefinite, so no Cholesky of the denominator exists
    with pytest.raises(SingularDenominator, match="not positive definite"):
        lambda_max_eps(np.eye(2), np.diag([-1e-11, 1.0]), 1e-12)


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


# -------------------------------------------------------------------- pencil

def two_bar_pencils():
    a = dense_pencil(np.zeros((2, 2)), [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
    b = dense_pencil(np.zeros((2, 2)), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    return a, b


def test_affine_pencil_evaluation():
    a, _ = two_bar_pencils()
    assert a.dim == 2 and a.nvars == 2
    assert np.allclose(a([3.0, 4.0]), np.diag([3.0, 8.0]))


def test_affine_pencil_rejects_non_psd_coefficients():
    with pytest.raises(NotPositiveSemidefinite):
        dense_pencil(np.zeros((2, 2)), [np.diag([-1.0, 0.0])])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_affine_pencil_rejects_non_finite_constant(bad):
    with pytest.raises(InvalidMatrix):
        dense_pencil(np.diag([bad, 1.0]), [np.eye(2)])
    # an overflowing load: Q Q' of entries 1e200 is +inf
    q = np.array([[1e200], [0.0]])
    with np.errstate(over="ignore"), pytest.raises(InvalidMatrix):
        AffinePencil(q @ q.T, 2)


def test_affine_pencil_checks_the_whole_stack():
    rng = np.random.default_rng(5)
    n = 4
    stack = [f @ f.T for f in rng.standard_normal((6, n, 2))]
    pencil = dense_pencil(np.zeros((n, n)), stack)
    assert pencil.blocks.dtype == float
    assert np.array_equal(dense_stack(pencil), [0.5 * (c + c.T) for c in stack])
    # scaled by 1 + max|C_j| per coefficient: an eigenvalue of -1e-5
    # passes on a coefficient of size 1e6, -1e-3 fails next to it
    stack[3] = 1e6 * stack[3] - 1e-5 * np.eye(n)
    dense_pencil(np.zeros((n, n)), stack)
    for j in (0, 2, 5):
        bad = list(stack)
        bad[j] = stack[j] - 1e-3 * np.eye(n)
        with pytest.raises(NotPositiveSemidefinite, match=f"coefficient {j} "):
            dense_pencil(np.zeros((n, n)), bad)
    bad = list(stack)
    bad[2] = stack[2].copy()
    bad[2][1, 3] = np.nan
    with pytest.raises(InvalidMatrix, match="coefficient 2 "):
        dense_pencil(np.zeros((n, n)), bad)


def test_dense_constructor_keeps_a_symmetric_stack_above_half_max():
    # (C + C')/2 overflows where an entry exceeds half the largest float;
    # an exactly symmetric stack comes back as it went in, with no warning
    g = np.array([[-1.0, 0.0, 1.0, 0.0], [0.6, -0.8, 0.0, 0.0]])
    stack = g[:, :, None] * g[:, None, :]
    stack *= np.array([1e308, 1.7e308])[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pencil = dense_pencil(np.zeros((4, 4)), stack)
    s = pencil.support
    gathered = stack[np.arange(2)[:, None, None], s[:, :, None], s[:, None, :]]
    assert pencil.blocks.tobytes() == gathered.tobytes()
    assert np.array_equal(dense_stack(pencil), stack)
    # halving is exact outside the subnormal range, so halving first gives
    # the bits of (C + C') * 0.5
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((5, 3, 3))
    raw = raw @ raw.swapaxes(1, 2) + np.eye(3) \
        + 1e-3 * rng.standard_normal((5, 3, 3))
    want = raw + raw.swapaxes(1, 2)
    want *= 0.5
    assert dense_stack(dense_pencil(np.zeros((3, 3)), raw)).tobytes() == \
        want.tobytes()


def random_factors(rng, m, n):
    """Rows with exact zeros and weights/diagonals with zeros, as in a truss."""
    v = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    w = rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.8)
    d = rng.uniform(0.0, 2.0, (m, n)) * (rng.random((m, n)) < 0.5)
    return v, w, d


def factor_support(factors):
    """The documented support: row j's nonzero columns ascending, then its
    zero columns ascending, cut to the widest row's count (at least 1)."""
    width = max(1, max(np.count_nonzero(f) for f in factors))
    return np.array([np.r_[np.flatnonzero(f != 0), np.flatnonzero(f == 0)]
                     [:width] for f in factors])


# rank-one rows v_j and weights w_j; each case's diagonals d_j are |v_j|
# with the signs of its zeros kept
FACTOR_EDGES = {
    # an all-zero v_0: its support is padded with rows 0..w-1
    "zero-vector": ([[0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.5]], [1.5, 2.0]),
    "zero-weight": ([[1.0, 2.0, 0.0], [0.5, 0.0, -1.0]], [0.0, 3.0]),
    # a horizontal bar's g = (-unit, unit) holds -0.0 and +0.0
    "negative-zero": ([[-1.0, -0.0, 1.0, 0.0], [-0.0, -0.6, 0.0, 0.6],
                       [-0.0, -0.0, -0.0, -0.0]], [2.0, 0.5, 1.0]),
    "n-1": ([[2.0], [0.0], [-0.0], [-3.0]], [1.0, 3.0, 0.5, 0.0]),
    "width-1": ([[0.0, 3.0, 0.0], [-0.0, 0.0, -1.0], [0.0, 0.0, 0.0]],
                [1.0, 2.0, 4.0]),
}


@pytest.mark.parametrize("seed", [*range(4), *FACTOR_EDGES])
def test_structured_constructors_match_the_dense_constructor(seed):
    if seed in FACTOR_EDGES:
        v, w = (np.array(a, dtype=float) for a in FACTOR_EDGES[seed])
        d = np.where(v < 0, -v, v)
        (m, n), a0 = v.shape, np.eye(v.shape[1])
    else:
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        v, w, d = random_factors(rng, m, n)
        a0 = np.diag(rng.uniform(0.0, 1.0, n))
    rank_one = AffinePencil.rank_one(a0, v, w)
    diagonal = AffinePencil.diagonal(a0, d)
    dense_k = dense_pencil(a0, [wj * np.outer(vj, vj) for vj, wj in zip(v, w)])
    dense_m = dense_pencil(a0, [np.diag(dj) for dj in d])
    for got, want, factors, block in (
            (rank_one, dense_k, v,
             lambda j, s: np.multiply.outer(v[j, s], v[j, s]) * w[j]),
            (diagonal, dense_m, d, lambda j, s: np.diag(d[j, s]))):
        assert got.nvars == want.nvars == m
        assert got.blocks.dtype == want.blocks.dtype == float
        assert np.array_equal(dense_stack(got), dense_stack(want))
        assert np.array_equal(got.constant, want.constant)
        support = factor_support(factors)
        assert np.array_equal(got.support, support)
        # the blocks keep the bits of (v_a v_b) w_j and diag(d_j[support_j])
        blocks = np.array([block(j, s) for j, s in enumerate(support)])
        assert got.blocks.tobytes() == blocks.tobytes()
        # the dense pencil's blocks hold the same nonzeros, so its assembly
        # index and its reads are the same bits
        reads = np.random.default_rng(m)
        x, v = reads.uniform(0.0, 2.0, m), reads.standard_normal(n)
        z = reads.standard_normal((n, 2))
        for read in (lambda p: p(x), lambda p: p.quad(v), lambda p: p.quad(z)):
            assert read(got).tobytes() == read(want).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_structured_coefficients_pass_a_psd_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    m, n = 40, int(rng.integers(2, 12))
    v, w, d = random_factors(rng, m, n)
    v *= 10.0 ** rng.uniform(-3, 3, (m, 1))
    for pencil in (AffinePencil.rank_one(np.zeros((n, n)), v, w),
                   AffinePencil.diagonal(np.zeros((n, n)), d)):
        for c in dense_stack(pencil):
            assert np.array_equal(c, c.T)
            scale = 1.0 + np.max(np.abs(c))
            assert np.linalg.eigvalsh(c)[0] >= -1e-12 * scale


@pytest.mark.parametrize("bad, error", [
    (-1e-300, NotPositiveSemidefinite), (-2.0, NotPositiveSemidefinite),
    (np.nan, InvalidMatrix), (np.inf, InvalidMatrix), (-np.inf, InvalidMatrix),
])
@pytest.mark.parametrize("j", [0, 3, 6])
def test_structured_constructors_name_the_bad_factor(bad, error, j):
    rng = np.random.default_rng(3)
    v, w, d = random_factors(rng, 7, 4)
    w[j], d[j, 2] = bad, bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"coefficient {j} "):
            AffinePencil.rank_one(np.zeros((4, 4)), v, w)
        with pytest.raises(error, match=f"coefficient {j} "):
            AffinePencil.diagonal(np.zeros((4, 4)), d)


def test_rank_one_checks_its_vectors_and_their_product():
    v = np.ones((3, 2))
    w = np.ones(3)
    for value, j in ((np.nan, 1), (np.inf, 2)):
        bad = v.copy()
        bad[j, 0] = value
        with pytest.raises(InvalidMatrix, match=f"coefficient {j} "):
            AffinePencil.rank_one(np.zeros((2, 2)), bad, w)
    # finite factors whose product w v v' overflows (and a zero weight on
    # an overflowing v v'), with no RuntimeWarning on the way
    for vj, wj in ((1e200, 1e-10), (1e160, 0.0), (1e154, 1e10)):
        bad, bw = v.copy(), w.copy()
        bad[1], bw[1] = vj, wj
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrix, match="coefficient 1 "):
                AffinePencil.rank_one(np.zeros((2, 2)), bad, bw)
    # the largest product that stays finite passes
    top = AffinePencil.rank_one(np.zeros((2, 2)), [[1e154, 0.0]], [1.7])
    assert np.isfinite(top.blocks).all()
    for shape_v, shape_w in (((3, 3), 3), ((3, 2), 2), ((2,), 1)):
        with pytest.raises(ValueError):
            AffinePencil.rank_one(np.zeros((2, 2)), np.ones(shape_v),
                                  np.ones(shape_w))
    with pytest.raises(ValueError):
        AffinePencil.diagonal(np.zeros((2, 2)), np.ones((3, 3)))
    with pytest.raises(InvalidMatrix, match="constant"):
        AffinePencil.diagonal(np.diag([np.nan, 1.0]), np.ones((3, 2)))


def test_constant_pencil_has_zero_gradient_terms():
    p = AffinePencil(np.eye(3), 5)
    assert p.nvars == 5
    assert np.allclose(p([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(3))
    # a numpy integer counts; a stack (the dense pencil's argument), a
    # negative or fractional count and a bool do not
    p = AffinePencil(np.eye(3), np.int64(3))
    assert p.nvars == 3 and type(p.nvars) is int
    assert p.support.shape == (3, 0) and p.blocks.shape == (3, 0, 0)
    assert np.array_equal(p(np.ones(3)), np.eye(3))
    for bad in (np.zeros((2, 3, 3)), [np.eye(3)], -1, 2.5, True):
        with pytest.raises(ValueError, match="nvars"):
            AffinePencil(np.eye(3), bad)


def test_constant_pencil_matches_dense_zero_coefficients():
    rng = np.random.default_rng(41)
    m, n = 7, 5
    q = rng.standard_normal((n, 1))
    b = dense_pencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    const = AffinePencil(q @ q.T, m)
    dense = dense_pencil(q @ q.T, np.zeros((m, n, n)))
    for _ in range(5):
        x = rng.uniform(0.1, 2.0, m)
        got = composite_value_grad(const, b, x, 1e-3)
        want = composite_value_grad(dense, b, x, 1e-3)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert const.nvars == m and const.blocks.shape == (m, 0, 0)
    held = [getattr(const, s) for s in AffinePencil.__slots__]
    assert all(np.size(h) < m * n * n for h in held
               if isinstance(h, np.ndarray))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (7, 3), (40, 12)])
def test_pencil_evaluation_is_the_tensordot_bit_for_bit(m, n):
    # the subgradient trajectories and the bisection's warm start depend
    # on these bits: the assembly sums as the stack's tensordot does where
    # n*n % 4 == 0 (OpenBLAS runs the GEMV's tail rows on a scalar path
    # otherwise, and those may differ in the last bit)
    rng = np.random.default_rng(10 * m + n)
    a = dense_pencil(np.diag(rng.uniform(0.0, 1.0, n)),
                     [f @ f.T for f in rng.standard_normal((m, n, 2))])
    b = dense_pencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    q = rng.standard_normal((n, 1))
    const = AffinePencil(q @ q.T, m)
    for pencil in (a, b, a.level(b, 2.5, 1e-3), const):
        stack = dense_stack(pencil)
        for _ in range(3):
            x = rng.uniform(0.0, 2.0, m)
            got = pencil(x)
            want = pencil.constant + np.tensordot(x, stack, axes=1)
            if n * n % 4 == 0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * pencil.scale()


def test_level_pencil_and_scale():
    rng = np.random.default_rng(43)
    m, n, eps, alpha = 6, 4, 1e-3, 2.5
    a = dense_pencil(np.diag(rng.uniform(0.0, 1.0, n)),
                     [f @ f.T for f in rng.standard_normal((m, n, 2))])
    b = dense_pencil(np.zeros((n, n)),
                     [np.outer(g, g) for g in rng.standard_normal((m, n))])
    q = rng.standard_normal((n, 1))
    const = AffinePencil(q @ q.T, m)
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
    # no coefficients on either side: the level pencil's blocks have width 0
    assert const.level(const, alpha, eps).blocks.shape == (m, 0, 0)
    assert a.scale() == float(np.max(np.abs(a.constant))) + \
        float(np.max(np.abs(dense_stack(a))))
    assert b.scale(eps) == eps + float(np.max(np.abs(dense_stack(b))))
    assert const.scale() == float(np.max(np.abs(const.constant)))


def _quad_pencils(rng, m, n):
    """Dense, diagonal, level and constant pencils with m coefficients."""
    dense = dense_pencil(np.diag(rng.uniform(0.0, 1.0, n)),
                         [f @ f.T for f in rng.standard_normal((m, n, 2))])
    diag = dense_pencil(np.zeros((n, n)),
                        [np.diag(d) for d in rng.uniform(0.0, 1.0, (m, n))])
    q = rng.standard_normal((n, 1))
    return (dense, diag, dense.level(diag, 2.5, 1e-3),
            AffinePencil(q @ q.T, m))


def _truss_pencils(case):
    """The K and M pencils of a benchmark config's geometry (M from its
    eigenfrequency model) or of a grid ground structure (n*n is 7396 at 9x5
    and 16384 at 11x6)."""
    if case in BENCH_MODELS:
        model = eigenfrequency_model(cli.load_config(os.path.join(
            REPO, "bench", "configs", BENCH_MODELS[case] + ".json")))
    else:
        nx, ny = GRIDS[case]
        fixed = {2 * grid_node_index(nx, 0, iy) + d
                 for iy in (0, ny - 1) for d in (0, 1)}
        model = build_model(
            generate_ground_structure(nx, ny, 0.7, fixed), Material(2.5, 1.5),
            grid_node_index(nx, nx - 1, 0), nonstructural_mass=0.25)
    return model.k_pencil, model.m_pencil


@pytest.mark.parametrize("case", [
    pytest.param((1, 1), id="1-1"), pytest.param((1, 5), id="1-5"),
    pytest.param((7, 3), id="7-3"), pytest.param((40, 12), id="40-12"),
    *BENCH_MODELS, "grid_11x6",
])
def test_quad_of_a_matrix_is_the_inner_product(case):
    # quad(V) of a 3-column V is each column's v'C_j v, the bytes of
    # quad(V[:, i]), and <C_j, V diag(s) V'> = quad(V) @ s, on random,
    # benchmark and 11x6 pencils (a 178 MB oracle stack there)
    if isinstance(case, str):
        rng, pencils = np.random.default_rng(5), _truss_pencils(case)
    else:
        rng = np.random.default_rng(100 * case[0] + case[1])
        pencils = _quad_pencils(rng, *case)
    for pencil in pencils:
        stack = dense_stack(pencil)
        v = rng.standard_normal((pencil.dim, 3))
        s = rng.uniform(0.0, 1.0, 3)
        got = pencil.quad(v)
        assert got.shape == (pencil.nvars, 3)
        want = np.einsum("jn,mjk,kn->mn", v, stack, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for i in range(3):
            assert got[:, i].tobytes() == pencil.quad(v[:, i]).tobytes()
        inner = np.einsum("mjk,jk->m", stack, (v * s) @ v.T)
        assert np.linalg.norm(got @ s - inner) <= \
            1e-12 * np.linalg.norm(inner)
        del stack


@pytest.mark.parametrize("case", [*BENCH_MODELS, "grid_9x5"])
def test_scale_reads_the_blocks(case):
    # every nonzero of C_j lies in its block, so max|blocks| is the dense
    # stack's max|C_j|, read with no temporary the size of that stack (32 MB
    # at 9x5)
    k, m = _truss_pencils(case)
    for pencil in (k, m, m.level(k, 2.5, 1e-3)):
        for eps in (0.0, 1e-3):
            tracemalloc.start()
            try:
                got = pencil.scale(eps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            top = float(np.max(np.abs(pencil.constant + eps * np.eye(k.dim))))
            assert got == top + float(np.max(np.abs(dense_stack(pencil))))
            assert peak < 1_000_000


def _degenerate_pencils(rng, m=6, n=5):
    """A zero-weight bar, an all-zero diagonal row, an all-zero stack."""
    v, w, d = random_factors(rng, m, n)
    w[2], d[3] = 0.0, 0.0
    return (AffinePencil.rank_one(np.zeros((n, n)), v, w),
            AffinePencil.diagonal(np.zeros((n, n)), d),
            dense_pencil(np.zeros((n, n)), np.zeros((m, n, n))))


def assert_quad_row_major(pencil, v):
    """quad(v) is ``quad_row_major``'s bytes where this numpy's block
    einsum adds in row-major order, and on any numpy within 1e-13 of
    |C_j|_F |v|^2, which bounds the sum of the terms' magnitudes; returns
    quad(v)."""
    got, want = pencil.quad(v), quad_row_major(pencil, v)
    if BLOCK_EINSUM_ROW_MAJOR:
        assert got.tobytes() == want.tobytes()
    frobenius = np.sqrt(np.einsum("jab,jab->j", pencil.blocks, pencil.blocks))
    assert np.all(np.abs(got - want) <= 1e-13 * frobenius * (v @ v))
    return got


def _quad_vectors(rng, n, count):
    """Gaussian vectors, alone and with exact zeros of either sign, at unit
    size and at magnitudes 1e-8 to 1e8."""
    for _ in range(count):
        v = rng.standard_normal(n)
        with_zeros = v * (rng.random(n) < 0.5)
        for u in (v, with_zeros):
            yield u
            yield u * 10.0 ** rng.uniform(-8.0, 8.0, n)


@pytest.mark.parametrize("case, count", [
    pytest.param((1, 1), 3, id="1-1"), pytest.param((7, 3), 3, id="7-3"),
    pytest.param((40, 12), 3, id="40-12"), ("degenerate", 5),
    ("robust_7x4", 5), ("eigfreq_5x3", 5), ("grid_9x5", 1),
])
def test_quad_of_a_vector_keeps_its_summation_order(case, count):
    # robust_7x4_subgrad's pinned answer depends on these bits: quad(v) adds
    # the einsum's terms in the einsum's order.  Bytes, because -0.0 == 0.0;
    # the plain-Python oracle states the order, the einsums only where this
    # numpy sums that way
    rng = np.random.default_rng(7)
    if case == "degenerate":
        pencils = _degenerate_pencils(rng)
    elif isinstance(case, str):
        pencils = _truss_pencils(case)
    else:
        pencils = _quad_pencils(rng, *case)
    for pencil in pencils:
        for v in _quad_vectors(rng, pencil.dim, count):
            got = assert_quad_row_major(pencil, v)
            if EINSUM_ROW_MAJOR and BLOCK_EINSUM_ROW_MAJOR:
                assert got.tobytes() == quad_einsum(pencil, v).tobytes()


def test_quad_of_a_vector_above_the_einsum_buffer():
    # at 11x6, n*n = 16384 exceeds the einsum's 8192-element buffer and the
    # einsum sums in another order, so it agrees only to rounding: 1e-13 of
    # |C_j|_F |v|^2, which bounds the sum of the terms' magnitudes.  No
    # benchmark answer is pinned there
    rng = np.random.default_rng(11)
    for pencil in _truss_pencils("grid_11x6"):
        c = dense_stack(pencil)
        frobenius = np.sqrt(np.einsum("mjk,mjk->m", c, c))
        for v in _quad_vectors(rng, pencil.dim, 1):
            got = assert_quad_row_major(pencil, v)
            assert np.all(np.abs(got - quad_einsum(pencil, v))
                          <= 1e-13 * frobenius * (v @ v))


def test_every_pencil_kind_sets_every_slot():
    # bench/workloads.py's array_nbytes reads every slot; the support holds
    # the dense oracle stack's nonzero rows, and the blocks are that stack
    # on them
    rng = np.random.default_rng(12)
    m, n = 6, 4
    psd = np.array([f @ f.T for f in rng.standard_normal((m, n, 2))])
    psd = 0.5 * psd + 0.5 * psd.swapaxes(1, 2)
    diags = np.array([np.diag(d) for d in rng.uniform(0.0, 1.0, (m, n))])
    v, w, d = random_factors(rng, m, n)
    w[2], d[3] = 0.0, 0.0
    q = rng.standard_normal((n, 1))
    dense, diag = (dense_pencil(np.zeros((n, n)), s) for s in (psd, diags))
    const = AffinePencil(q @ q.T, m)
    kinds = [
        (dense, psd), (diag, diags),
        (dense.level(diag, 2.5, 1e-3), psd - 2.5 * diags),
        (diag.level(const, 2.5, 1e-3), diags), (const, np.zeros_like(psd)),
        (const.level(const, 2.0, 1e-3), np.zeros_like(psd)),
        (AffinePencil.rank_one(np.zeros((n, n)), v, w),
         np.array([wj * np.outer(vj, vj) for vj, wj in zip(v, w)])),
        (AffinePencil.diagonal(np.zeros((n, n)), d),
         np.array([np.diag(dj) for dj in d])),
        (dense_pencil(np.zeros((n, n)), np.zeros_like(psd)),
         np.zeros_like(psd)),
    ]
    for pencil, stack in kinds:
        held = {s: getattr(pencil, s) for s in AffinePencil.__slots__}
        support, blocks = held["support"], held["blocks"]
        assert support.shape[0] == pencil.nvars
        assert blocks.shape == support.shape + support.shape[1:]
        js = np.arange(m)[:, None, None]
        gathered = stack[js, support[:, :, None], support[:, None, :]]
        assert np.array_equal(blocks, gathered)
        for c, rows in zip(stack, support):
            assert set(np.flatnonzero(c.any(axis=1))) <= set(rows)
        assert np.array_equal(dense_stack(pencil), stack)


def test_quad_of_a_vector_keeps_its_order_with_one_coefficient():
    # numpy adds a (w*w, 1) column pairwise once it holds 8 terms, not in
    # turn; quad(v) must keep the einsum's order for nvars = 1 as well
    rng = np.random.default_rng(12)
    for m, n in ((1, 3), (1, 5), (1, 8), (2, 5), (2, 8)):
        for pencil in _quad_pencils(rng, m, n):
            for v in _quad_vectors(rng, n, 3):
                assert_quad_row_major(pencil, v)


def test_pencil_rejects_a_design_of_another_length():
    rng = np.random.default_rng(13)
    dense, diag, level, _ = _quad_pencils(rng, 4, 3)
    for pencil in (dense, diag, level):
        for x in (np.ones(3), np.ones(5), np.ones((1, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match="x needs shape"):
                pencil(x)


def test_quad_rejects_other_shapes():
    # an n-vector gives (nvars,), n x k columns (nvars, k); any other
    # leading length, a scalar or a 3-d array is a ValueError
    rng = np.random.default_rng(9)
    for pencil in _quad_pencils(rng, 4, 3):
        for shape in [(4, 3), (2, 2), (4,), (2,), (), (1, 3, 3), (3, 3, 1)]:
            with pytest.raises(ValueError, match="quad needs shape"):
                pencil.quad(np.ones(shape))
        for shape, out in [((3,), (4,)), ((3, 1), (4, 1)), ((3, 4), (4, 4)),
                           ((3, 0), (4, 0))]:
            assert pencil.quad(np.ones(shape)).shape == out


def test_quad_reads_array_likes_as_the_call_does():
    # quad(v) converts v as pencil(x) converts x: a list or an int array
    # gives the float array's bytes, and other shapes stay a ValueError
    rng = np.random.default_rng(9)
    for pencil in _quad_pencils(rng, 4, 3):
        for v in ([1.0, 2.0, -3.0], [[1, 0], [2, 1], [-3, 0]]):
            want = pencil.quad(np.array(v, dtype=float)).tobytes()
            for like in (v, np.array(v)):
                assert pencil.quad(like).tobytes() == want
        for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0):
            with pytest.raises(ValueError, match="quad needs shape"):
                pencil.quad(bad)


def test_singular_denominator_is_typed():
    # B(x) is singular on the edge x2 = 0; at eps = 0 no Cholesky exists
    a, b = two_bar_pencils()
    for evaluate in (composite_value_grad,
                     lambda *args: smoothed_value_grad(*args, 0.1)):
        with pytest.raises(SingularDenominator, match="not positive definite"):
            evaluate(a, b, [1.0, 0.0], 0.0)
    value = composite_value_grad(a, b, [1.0, 0.0], 1e-9)[0]
    assert abs(value - 1.0) < 1e-8


# ------------------------------------------------------- direct LAPACK calls

def _symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return symmat.as_symmetric(g)


@pytest.mark.parametrize("n", [1, 2, 24, 32, 33, 48, 80])
def test_lapack_top_pair_is_scipy_eigh_bit_for_bit(n):
    # an indefinite C, as in the level test; above n = 32 dsyevr's blocking,
    # and so the eigenvector's last bits, depend on the workspace, which
    # eigh queries and _top_pair leaves at the wrapper's default
    c = _symmetric(np.random.default_rng(n), n)
    w, v = geneig._top_pair(c)
    want_w, want_v = scipy.linalg.eigh(c, subset_by_index=[n - 1, n - 1])
    if n <= 32:
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    else:
        assert w.shape == want_w.shape and v.shape == want_v.shape
        assert abs(w[0] - want_w[0]) <= 1e-13 * abs(want_w[0])
        sign = np.sign(v[:, 0] @ want_v[:, 0])
        assert np.max(np.abs(sign * v - want_v)) <= 1e-12


@pytest.mark.parametrize("n", [2, 24, 48])
def test_lapack_pencil_solve_is_scipy_eigh_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    a = _symmetric(rng, n)
    g = rng.standard_normal((n, n))
    b = symmat.as_symmetric(g @ g.T) + 1e-6 * np.eye(n)
    w, v = geneig._pencil_eigh(AffinePencil(a, 0), AffinePencil(b, 0),
                               np.zeros(0), 0.0)
    want_w, want_v = scipy.linalg.eigh(a, b)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


def _failing(monkeypatch, routine, info, only_range=None):
    """Make LAPACK's ``routine`` report ``info`` after computing, on every
    call or only on those with ``range=only_range``; returns the list of
    calls made to fail."""
    real, failed = getattr(geneig.lapack, routine), []

    def call(*args, **kwargs):
        out = real(*args, **kwargs)
        if only_range is not None and kwargs.get("range") != only_range:
            return out
        failed.append(kwargs.get("range"))
        return (*out[:-1], info)
    monkeypatch.setattr(geneig.lapack, routine, call)
    return failed


def test_lapack_convergence_failure_is_invalid_matrix(monkeypatch):
    # 0 < info <= n is a failed eigenvalue iteration, not a B(x) + eps*I
    # that is not positive definite
    a, b = two_bar_pencils()
    _failing(monkeypatch, "dsygvd", 1)
    for evaluate in (composite_value_grad,
                     lambda *args: smoothed_value_grad(*args, 0.1)):
        with pytest.raises(InvalidMatrix) as err:
            evaluate(a, b, [1.0, 1.0], 0.1)
        want = (np.max(np.abs(a([1.0, 1.0]))),
                np.max(np.abs(b([1.0, 1.0]) + 0.1 * np.eye(a.dim))))
        assert str(err.value) == (
            f"LAPACK dsygvd did not converge (info = 1): max|A(x)| = "
            f"{want[0]:.3g}, max|B(x) + eps*I| = {want[1]:.3g}")


def test_level_test_lapack_failure_is_typed(monkeypatch):
    # a failed top-pair solve in the level test reaches the caller typed
    fs = FeasibleSet(l=[1.0, 1.0], v0=2.0, kind=VOLUME_EQ)
    spec = ProblemSpec(EIGENFREQUENCY, demo_model_without_mass(), fs, eps=0.0)
    # only the level test's top-pair call (range "I") fails: the warm
    # start's kernel solves (range "V") go through unharmed
    failed = _failing(monkeypatch, "dsyevr", 2, only_range="I")
    with pytest.raises(InvalidMatrix, match="LAPACK dsyevr failed with info = 2"):
        solvers.bisection_global(spec)
    assert failed == ["I"]
    monkeypatch.undo()
    failed = _failing(monkeypatch, "dsyevr", -3, only_range="I")
    with pytest.raises(InvalidMatrix, match="info = -3"):
        solvers.bisection_global(spec)
    assert failed == ["I"]


@pytest.mark.parametrize("info", [2, -3])
def test_kernel_solve_lapack_failure_is_typed(monkeypatch, info):
    # a failed value-range solve of Y's kernel reaches every caller typed
    x, y = rank_four_pair()
    failed = _failing(monkeypatch, "dsyevr", info, only_range="V")
    message = f"LAPACK dsyevr failed with info = {info}"
    for call in (symmat.kernel_basis, symmat.range_basis,
                 lambda y: lambda_max_ext(x, y),
                 lambda y: lambda_min_ext(y, x)):
        with pytest.raises(InvalidMatrix, match=message):
            call(y)
    assert failed == ["V"] * 4


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
    a = AffinePencil(np.zeros((2, 2)), 2)
    _, b = two_bar_pencils()
    value, grad, _ = composite_value_grad(a, b, [1.0, 1.0], 0.1)
    assert value == 0.0
    assert np.allclose(grad, 0.0)


def test_composite_value_grad_domain_checks():
    a, b = two_bar_pencils()
    with pytest.raises(OutOfDomain):
        composite_value_grad(a, b, [-1.0, 1.0], 0.1)
    # eps = 0 is the unregularized pencil: lmax(diag(1, 2), I) = 2, and the
    # value is homogeneous of degree 0 in x, so the gradient vanishes
    value, grad, _ = composite_value_grad(a, b, [1.0, 1.0], 0.0)
    assert value == 2.0 and np.allclose(grad, 0.0)
    with pytest.raises(SingularDenominator):
        composite_value_grad(a, b, [1.0, 0.0], 0.0)
    with pytest.raises(InvalidEpsilon):
        composite_value_grad(a, b, [1.0, 1.0], -1e-3)


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
        a = dense_pencil(np.zeros((n, n)), coeffs_a)
        b = dense_pencil(np.zeros((n, n)), coeffs_b)
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
    a = dense_pencil(np.zeros((1, 1)), [np.ones((1, 1))])
    b = dense_pencil(np.zeros((1, 1)), [np.ones((1, 1))])
    value, _ = smoothed_value_grad(a, b, [2.0], 0.5, 0.3)
    exact, _, _ = composite_value_grad(a, b, [2.0], 0.5)
    assert abs(value - exact) < 1e-12


def test_smoothed_log_sum_exp_value():
    # eigenvalues (0, 1) at mu = 1 give log(1 + e)
    a = dense_pencil(np.zeros((2, 2)), [np.diag([0.0, 1.0])])
    b = dense_pencil(np.zeros((2, 2)), [np.eye(2)])
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
        a = dense_pencil(mass @ mass.T,
                         [np.diag(d) for d in rng.uniform(0, 1, (m, n))])
        b = dense_pencil(np.zeros((n, n)),
                         [np.outer(g, g) for g in rng.standard_normal((m, n))])
        x = rng.uniform(0.1, 2.0, m)
        eps, mu = 1e-2, float(rng.uniform(0.01, 1.0))
        _, grad = smoothed_value_grad(a, b, x, eps, mu)

        w, vecs = scipy.linalg.eigh(a(x), b(x) + eps * np.eye(n))
        sigma = np.exp((w - w.max()) / mu)
        sigma /= sigma.sum()
        stack_a, stack_b = dense_stack(a), dense_stack(b)
        quad_a = np.einsum("jn,mjk,kn->mn", vecs, stack_a, vecs)
        quad_b = np.einsum("jn,mjk,kn->mn", vecs, stack_b, vecs)
        oracle = (quad_a - quad_b * w) @ sigma
        assert np.linalg.norm(grad - oracle) <= \
            1e-12 * np.linalg.norm(oracle)


def test_smoothed_grad_allocates_no_coefficient_sized_block():
    # the M and K pencils of the 7x4 benchmark geometry: m = 251, n = 48;
    # the coefficient stack is 4.6 MB, a (n, n) projector 18 kB
    model = eigenfrequency_model(cli.load_config(os.path.join(
        REPO, "bench", "configs", "robust_7x4_subgrad.json")))
    pa, pb = model.m_pencil, model.k_pencil
    x = np.full(model.m, 0.1 / float(model.volumes.sum()))
    smoothed_value_grad(pa, pb, x, 1e-6, 1e-2)
    tracemalloc.start()
    try:
        _, grad = smoothed_value_grad(pa, pb, x, 1e-6, 1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grad.shape == (model.m,) and np.all(np.isfinite(grad))
    assert peak < 1_000_000


def test_smoothed_requires_positive_mu():
    a, b = two_bar_pencils()
    with pytest.raises(InvalidSmoothing):
        smoothed_value_grad(a, b, [1.0, 1.0], 0.1, 0.0)
