"""Dense symmetric-matrix numerics.

Positive-semidefiniteness tests and kernel bases at two fixed relative
thresholds, ``PSD_TOL`` and ``KERNEL_TOL``, each scaled by ``1 + max|entry|``
of the matrix under test so that decisions are invariant under rescaling of
the problem data.  Everything here is a pure function of its inputs.
``is_psd`` is one Cholesky factorization, ``kernel_basis`` one eigensolve for
the kernel's eigenpairs alone, ``range_basis`` its ``kernel_complement``;
``psd_split`` adds an eigenbasis, and both bases accept it as input.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    a = _finite_symmetric(x)
    shift = PSD_TOL * (1.0 + float(np.max(np.abs(a))))
    try:
        np.linalg.cholesky(a + shift * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class PsdSplit:
    """PSD verdict, ``kernel`` U, ``range`` R = ``kernel_complement(U)`` and
    the ascending orthonormal eigenbasis ``basis`` = [U, RZ] of one matrix."""

    is_psd: bool
    kernel: np.ndarray
    range: np.ndarray
    basis: np.ndarray


def _kernel_split(a: np.ndarray) -> tuple[bool, np.ndarray]:
    """PSD verdict and kernel basis of a finite symmetric ``a`` from dsyevr's
    eigenpairs at or below the kernel threshold (none: positive definite)."""
    scale = 1.0 + float(np.max(np.abs(a)))
    w, v, m, _, info = lapack.dsyevr(a, range="V", vl=-np.inf,
                                     vu=KERNEL_TOL * scale, lower=1)
    if info:
        raise InvalidMatrix(f"LAPACK dsyevr failed with info = {info}")
    return bool(m == 0 or w[0] >= -PSD_TOL * scale), v[:, :m]


def kernel_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal complement of ``u``'s columns by a complete QR, O(n²k)."""
    return np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]


def psd_split(x) -> PsdSplit:
    """``kernel_basis``'s verdict and kernel U, its range R, and Z the
    ascending eigenvectors of R'xR for the eigenbasis [U, RZ]."""
    a = _finite_symmetric(x)
    psd, kernel = _kernel_split(a)
    r = kernel_complement(kernel)
    basis = np.hstack((kernel, r @ np.linalg.eigh(r.T @ a @ r)[1]))
    return PsdSplit(psd, kernel, range=r, basis=basis)


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis (n x k) of the numerical kernel of a PSD matrix,
    or its ``psd_split``: only the eigenpairs at or below ``KERNEL_TOL * (1 +
    max|entry|)`` are computed, and k = 0 for a positive definite matrix."""
    psd, kernel = (x.is_psd, x.kernel) if isinstance(x, PsdSplit) \
        else _kernel_split(_finite_symmetric(x))
    if not psd:
        raise NotPositiveSemidefinite("matrix is not PSD")
    return kernel


def range_basis(x) -> np.ndarray:
    """``kernel_complement`` of ``kernel_basis(x)``; ``x`` is the matrix or
    its ``psd_split``."""
    u = kernel_basis(x)
    return x.range if isinstance(x, PsdSplit) else kernel_complement(u)
