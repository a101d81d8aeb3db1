"""Tests for the dense symmetric-matrix helpers."""

import numpy as np
import pytest

from geneigopt import symmat
from geneigopt.errors import InvalidMatrix, NotPositiveSemidefinite
from geneigopt.symmat import (
    as_symmetric,
    is_psd,
    kernel_basis,
    kernel_complement,
    range_basis,
)


def test_as_symmetric_accepts_both_forms():
    # nested lists and arrays, symmetrized exactly
    a = as_symmetric(np.eye(2))
    assert np.array_equal(a, np.eye(2))
    b = as_symmetric([[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(b, [[0.0, 1.0], [1.0, 0.0]])


def test_as_symmetric_halves_first():
    # entries above half the largest float: A + A' would overflow to inf;
    # on normal floats the bits are those of 0.5 * (A + A')
    big = 1e308
    with np.errstate(over="raise"):
        a = as_symmetric([[big, big], [0.0, big]])
    assert np.array_equal(a, [[big, 0.5 * big], [0.5 * big, big]])
    x = np.random.default_rng(4).standard_normal((7, 7))
    assert np.array_equal(as_symmetric(x), 0.5 * (x + x.T))


def test_as_symmetric_rejects_non_square():
    with pytest.raises(InvalidMatrix):
        as_symmetric(np.zeros((2, 3)))
    with pytest.raises(InvalidMatrix):
        as_symmetric(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symmat_rejects_non_finite(bad):
    x = np.array([[bad, 0.0], [0.0, 1.0]])
    for call in (is_psd, kernel_basis, range_basis):
        with pytest.raises(InvalidMatrix):
            call(x)


def test_is_psd_basic():
    assert is_psd(np.eye(2))
    assert not is_psd([[1.0, 2.0], [2.0, 1.0]])
    assert is_psd(np.zeros((3, 3)))


def test_is_psd_tolerance_scales_with_magnitude():
    # a tiny negative eigenvalue riding on a large matrix passes
    big = 1e8 * np.eye(2)
    big[1, 1] = -1e-4
    assert is_psd(big)
    # the same eigenvalue on a matrix of entry size 1 fails
    assert not is_psd(np.diag([1.0, -1e-4]))


@pytest.mark.parametrize("n", [2, 24, 80])
def test_is_psd_agrees_with_the_eigenvalue_rule(n):
    # lambda_min planted at -delta*(1 -+ 1e-2), delta the threshold
    # PSD_TOL*(1 + max|X|), on matrices of entry size 1e-3 to 1e8; both
    # is_psd's Cholesky and kernel_basis's dsyevr verdict follow the rule
    rng = np.random.default_rng(n)
    psd_tol = symmat.PSD_TOL
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
            if want:
                kernel_basis(x)
            else:
                with pytest.raises(NotPositiveSemidefinite):
                    kernel_basis(x)


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
    with pytest.raises(NotPositiveSemidefinite):
        range_basis([[1.0, 2.0], [2.0, 1.0]])


def test_range_plus_kernel_span_everything():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        rank = int(rng.integers(1, dim + 1))
        vals[:rank] = rng.uniform(0.5, 4.0, rank)
        a = (q * vals) @ q.T
        ker = kernel_basis(a)
        ran = range_basis(a)
        assert ker.shape[1] + ran.shape[1] == dim
        # the range comes from the one kernel decision
        assert np.array_equal(ran, kernel_complement(kernel_basis(a)))
        # A annihilates its kernel and is definite on its range
        if ker.shape[1]:
            assert np.max(np.abs(a @ ker)) < 1e-7
        if ran.shape[1]:
            red = ran.T @ a @ ran
            assert np.linalg.eigvalsh(red)[0] > 1e-9

