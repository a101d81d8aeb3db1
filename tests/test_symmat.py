"""Tests for the dense symmetric-matrix helpers."""

import numpy as np
import pytest

from geneigopt import symmat
from geneigopt.errors import InvalidMatrix, NotPositiveSemidefinite
from geneigopt.symmat import (
    DEFAULT_TOL,
    SymMatrix,
    TolerancePolicy,
    as_symmetric,
    eig_sym,
    is_psd,
    kernel_basis,
    psd_split,
    range_basis,
)


def test_symmatrix_symmetrizes_and_freezes():
    s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert np.allclose(s.a, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        s.a[0, 0] = 5.0
    assert s.dim == 2
    assert s.max_abs == 3.0


def test_symmatrix_rejects_non_square():
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.zeros(4))


def test_as_symmetric_accepts_both_forms():
    a = as_symmetric(SymMatrix(np.eye(2)))
    assert np.allclose(a, np.eye(2))
    b = as_symmetric([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(b, [[0.0, 1.0], [1.0, 0.0]])


def test_eig_sym_diagonal():
    s = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(s.eigenvalues, [1.0, 3.0])


def test_eig_sym_exchange():
    s = eig_sym([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])


def test_eig_sym_identity():
    s = eig_sym(np.eye(3))
    assert np.allclose(s.eigenvalues, [1.0, 1.0, 1.0])
    # eigenvectors orthonormal
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(3))


def test_eig_sym_rejects_nan():
    with pytest.raises(InvalidMatrix):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_is_psd_basic():
    assert is_psd(np.eye(2))
    assert not is_psd([[1.0, 2.0], [2.0, 1.0]])
    assert is_psd(np.zeros((3, 3)))


def test_is_psd_tolerance_scales_with_magnitude():
    # a tiny negative eigenvalue riding on a large matrix passes
    big = 1e8 * np.eye(2)
    big[1, 1] = -1e-4
    assert is_psd(big)
    strict = TolerancePolicy(psd_tol=0.0)
    assert not is_psd(big, strict)


@pytest.mark.parametrize("n", [2, 24, 80])
def test_is_psd_agrees_with_the_eigenvalue_rule(n):
    # lambda_min planted at -delta*(1 -+ 1e-2), delta the threshold
    # psd_tol*(1 + max|X|), on matrices of entry size 1e-3 to 1e8
    rng = np.random.default_rng(n)
    psd_tol = DEFAULT_TOL.psd_tol
    for size in 10.0 ** np.array([-3.0, -1.0, 1.0, 3.0, 5.0, 8.0]):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.concatenate(([0.0], rng.uniform(0.1, 1.0, n - 1)))
        base = (q * vals) @ q.T
        base *= size / np.max(np.abs(base))
        delta = psd_tol * (1.0 + size)
        for factor, want in ((1.0 - 1e-2, True), (1.0 + 1e-2, False)):
            x = base - factor * delta * np.outer(q[:, 0], q[:, 0])
            lam_min = np.linalg.eigvalsh(x)[0]
            rule = lam_min >= -psd_tol * (1.0 + np.max(np.abs(x)))
            assert rule == want, (n, size, factor)
            assert is_psd(x) == want, (n, size, factor)


def test_kernel_basis_examples():
    k = kernel_basis(np.diag([1.0, 0.0]))
    assert k.shape == (2, 1)
    assert abs(abs(k[1, 0]) - 1.0) < 1e-12
    assert kernel_basis(np.eye(2)).shape == (2, 0)
    z = kernel_basis(np.zeros((2, 2)))
    assert z.shape == (2, 2)
    assert np.allclose(z.T @ z, np.eye(2))


def test_kernel_basis_requires_psd():
    with pytest.raises(NotPositiveSemidefinite):
        kernel_basis([[1.0, 2.0], [2.0, 1.0]])
    split = psd_split([[1.0, 2.0], [2.0, 1.0]])
    assert not split.is_psd
    with pytest.raises(NotPositiveSemidefinite):
        range_basis(split)


def test_range_plus_kernel_span_everything():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        rank = int(rng.integers(1, dim + 1))
        vals[:rank] = rng.uniform(0.5, 4.0, rank)
        a = (q * vals) @ q.T
        ker = kernel_basis(a, DEFAULT_TOL)
        ran = range_basis(a, DEFAULT_TOL)
        assert ker.shape[1] + ran.shape[1] == dim
        # one split answers the same queries, and the bases take it as input
        split = psd_split(a, DEFAULT_TOL)
        assert split.is_psd
        assert np.array_equal(split.kernel, ker)
        assert np.array_equal(split.range, ran)
        assert kernel_basis(split) is split.kernel
        assert range_basis(split) is split.range
        # A annihilates its kernel and is definite on its range
        if ker.shape[1]:
            assert np.max(np.abs(a @ ker)) < 1e-7
        if ran.shape[1]:
            red = ran.T @ a @ ran
            assert np.linalg.eigvalsh(red)[0] > 1e-9


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(psd_tol=-1e-3)
