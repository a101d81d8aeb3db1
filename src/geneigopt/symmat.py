"""Dense symmetric-matrix numerics.

Positive-semidefiniteness tests and kernel bases at two fixed relative
thresholds, ``PSD_TOL`` and ``KERNEL_TOL``, each scaled by ``1 + max|entry|``
of the matrix under test so that decisions are invariant under rescaling of
the problem data.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidMatrix, NotPositiveSemidefinite

#: A matrix is PSD when lambda_min >= -PSD_TOL * (1 + max|entry|).
PSD_TOL = 1e-10
#: Eigenvalues at or below KERNEL_TOL * (1 + max|entry|) span the kernel.
KERNEL_TOL = 1e-8


def as_symmetric(x) -> np.ndarray:
    """Coerce an array-like to the symmetric float ndarray ½A + ½A'."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * a + 0.5 * a.T  # halved first: A + A' may overflow


def _finite_symmetric(x) -> np.ndarray:
    a = as_symmetric(x)
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def is_psd(x) -> bool:
    """Test ``x >= 0`` (in the semidefinite order): ``lambda_min >= -t``,
    t = ``PSD_TOL * (1 + max|entry|)``, decided by a Cholesky factorization
    of ``x + t*I``.  Within about ``n * roundoff * ||x||`` of ``-t``
    rounding decides."""
    return _is_psd_symmetric(_finite_symmetric(x))


def _is_psd_symmetric(a: np.ndarray) -> bool:
    """``is_psd`` of a matrix already symmetric and finite."""
    shift = PSD_TOL * (1.0 + float(np.max(np.abs(a))))
    try:
        np.linalg.cholesky(a + shift * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def kernel_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal complement of ``u``'s columns by a complete QR, O(n²k)."""
    return np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis (n x k) of the numerical kernel of a PSD matrix:
    only the eigenpairs at or below ``KERNEL_TOL * (1 + max|entry|)`` are
    computed, by one dsyevr, and k = 0 for a positive definite matrix.  The
    PSD verdict is read off the smallest of them."""
    a = _finite_symmetric(x)
    scale = 1.0 + float(np.max(np.abs(a)))
    w, v, m, _, info = lapack.dsyevr(a, range="V", vl=-np.inf,
                                     vu=KERNEL_TOL * scale, lower=1)
    if info:
        raise InvalidMatrix(f"LAPACK dsyevr failed with info = {info}")
    if m and w[0] < -PSD_TOL * scale:
        raise NotPositiveSemidefinite("matrix is not PSD")
    return v[:, :m]


def range_basis(x) -> np.ndarray:
    """Orthonormal basis of the numerical range of a PSD matrix, the
    ``kernel_complement`` of its ``kernel_basis``."""
    return kernel_complement(kernel_basis(x))
