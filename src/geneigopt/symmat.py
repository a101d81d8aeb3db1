"""Dense symmetric-matrix numerics.

Spectral decompositions, tolerance-based positive-semidefiniteness tests and
kernel bases.  Everything here is a pure function of its inputs; matrices are
small and dense, so a single full eigendecomposition serves all queries:
``psd_split`` gives the PSD verdict, the kernel basis and the range basis from
one ``eigh``, and ``kernel_basis``/``range_basis`` accept its result in place
of the matrix.  ``is_psd`` alone needs only a Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveSemidefinite


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative tolerances governing PSD and kernel decisions.

    Both thresholds are scaled by ``1 + max|entry|`` of the matrix under
    test, so decisions are invariant under rescaling of the problem data.
    """

    psd_tol: float = 1e-10
    kernel_tol: float = 1e-8

    def __post_init__(self):
        if self.psd_tol < 0 or self.kernel_tol < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = TolerancePolicy()


class SymMatrix:
    """Dense symmetric matrix, symmetrized exactly on construction."""

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.a = a

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.a)))

    def __repr__(self):
        return f"SymMatrix({self.a!r})"


def as_symmetric(x) -> np.ndarray:
    """Coerce a SymMatrix or array-like to a symmetric float ndarray."""
    if isinstance(x, SymMatrix):
        return x.a
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def _check_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_sym(x) -> Spectrum:
    """Full symmetric eigendecomposition with ascending eigenvalues."""
    a = as_symmetric(x)
    _check_finite(a)
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def is_psd(x, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Test ``x >= 0`` (in the semidefinite order) under the tolerance policy:
    ``lambda_min >= -t``, t = ``psd_tol * (1 + max|entry|)``, decided by a
    Cholesky factorization of ``x + t*I``.  Within about ``n * roundoff *
    ||x||`` of ``-t`` rounding decides (at ``psd_tol = 0``, a singular ``x``
    may fail)."""
    a = as_symmetric(x)
    _check_finite(a)
    shift = tol.psd_tol * (1.0 + float(np.max(np.abs(a))))
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


def psd_split(x, tol: TolerancePolicy = DEFAULT_TOL) -> PsdSplit:
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
    nullity = int(np.searchsorted(w, tol.kernel_tol * scale, side="right"))
    return PsdSplit(is_psd=bool(w[0] >= -tol.psd_tol * scale),
                    kernel=v[:, :nullity], range=v[:, nullity:], basis=v)


def _require_psd_split(x, tol: TolerancePolicy, caller: str) -> PsdSplit:
    split = psd_split(x, tol)
    if not split.is_psd:
        raise NotPositiveSemidefinite(f"{caller} requires a PSD matrix")
    return split


def kernel_basis(x, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the (numerical) kernel of a PSD matrix.

    Returns an ``n x k`` array whose columns span the eigenspace with
    eigenvalues below ``kernel_tol * (1 + max|entry|)``; ``k = 0`` for a
    positive definite matrix.  ``x`` is the matrix or its ``psd_split``.
    """
    return _require_psd_split(x, tol, "kernel_basis").kernel


def range_basis(x, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the kernel.

    ``x`` is the matrix or its ``psd_split``.
    """
    return _require_psd_split(x, tol, "range_basis").range
