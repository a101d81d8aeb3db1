"""Dense symmetric-matrix numerics.

Positive-semidefiniteness tests and kernel bases at two fixed relative
thresholds, ``PSD_TOL`` and ``KERNEL_TOL``, each scaled by ``1 + max|entry|``
of the matrix under test so that decisions are invariant under rescaling of
the problem data.  Everything here is a pure function of its inputs; matrices
are small and dense, so a single full eigendecomposition serves all queries:
``psd_split`` gives the PSD verdict, the kernel basis and the range basis from
one ``eigh``, and ``kernel_basis``/``range_basis`` accept its result in place
of the matrix.  ``is_psd`` alone needs only a Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _check_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")


def is_psd(x) -> bool:
    """Test ``x >= 0`` (in the semidefinite order): ``lambda_min >= -t``,
    t = ``PSD_TOL * (1 + max|entry|)``, decided by a Cholesky factorization
    of ``x + t*I``.  Within about ``n * roundoff * ||x||`` of ``-t``
    rounding decides."""
    a = as_symmetric(x)
    _check_finite(a)
    shift = PSD_TOL * (1.0 + float(np.max(np.abs(a))))
    try:
        np.linalg.cholesky(a + shift * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class PsdSplit:
    """PSD verdict and orthonormal eigenvectors ``basis`` (ascending) of one
    matrix: the ``kernel`` columns, then the ``range`` columns."""

    is_psd: bool
    kernel: np.ndarray
    range: np.ndarray
    basis: np.ndarray


def psd_split(x) -> PsdSplit:
    """PSD verdict, kernel basis and range basis from one eigendecomposition.

    The thresholds are those of ``is_psd`` (here read off the eigenvalues)
    and ``kernel_basis``, both scaled by ``1 + max|entry|``.  A ``PsdSplit``
    passed in is returned as is.
    """
    if isinstance(x, PsdSplit):
        return x
    a = as_symmetric(x)
    _check_finite(a)
    w, v = np.linalg.eigh(a)
    scale = 1.0 + float(np.max(np.abs(a)))
    nullity = int(np.searchsorted(w, KERNEL_TOL * scale, side="right"))
    return PsdSplit(is_psd=bool(w[0] >= -PSD_TOL * scale),
                    kernel=v[:, :nullity], range=v[:, nullity:], basis=v)


def _require_psd_split(x, caller: str) -> PsdSplit:
    split = psd_split(x)
    if not split.is_psd:
        raise NotPositiveSemidefinite(f"{caller} requires a PSD matrix")
    return split


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis of the (numerical) kernel of a PSD matrix.

    Returns an ``n x k`` array whose columns span the eigenspace with
    eigenvalues at or below ``KERNEL_TOL * (1 + max|entry|)``; ``k = 0`` for a
    positive definite matrix.  ``x`` is the matrix or its ``psd_split``.
    """
    return _require_psd_split(x, "kernel_basis").kernel


def range_basis(x) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the kernel.

    ``x`` is the matrix or its ``psd_split``.
    """
    return _require_psd_split(x, "range_basis").range
