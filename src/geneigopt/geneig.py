"""Extended-real generalized eigenvalues of PSD matrix pairs.

The maximum generalized eigenvalue of a pair (X, Y) of symmetric positive
semidefinite matrices is the supremum of the generalized Rayleigh quotient
v'Xv / v'Yv over v outside the kernel of Y, with the degenerate conventions
const/0 = +inf and 0/0 = 0.  The value is +inf exactly when some kernel
direction of Y escapes the kernel of X (including Y = 0, X != 0).

This module also provides the epsilon-regularized value lambda_max(X, Y+eI),
which is finite and continuous and converges monotonically to the extended
value as e -> 0, plus evaluation and (sub)gradients of the composition with
affine matrix pencils, and a log-sum-exp smoothed surrogate for gradient
methods.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import symmat
from .errors import (
    DegeneratePair,
    InvalidEpsilon,
    InvalidMatrix,
    InvalidSmoothing,
    NotPositiveSemidefinite,
    OutOfDomain,
    SingularDenominator,
)
from .symmat import KERNEL_TOL, PSD_TOL, as_symmetric


class Certificate(enum.Enum):
    """Which branch of the extended definition produced the value."""

    ZERO_ZERO = "zero_zero"
    KERNEL_ESCAPE = "kernel_escape"
    REDUCED_PENCIL = "reduced_pencil"


@dataclass(frozen=True)
class GenEigResult:
    value: float
    eigenvector: np.ndarray | None
    certificate: Certificate


class AffinePencil:
    """Affine symmetric-matrix-valued map x -> A0 + sum_j x_j * A_j.

    Coefficient matrices must be PSD (element stiffness and mass matrices
    are); the constant term need only be finite, so that shifted pencils
    used in bisection can reuse the evaluation path.  ``coeffs`` is the
    ``(nvars, n, n)`` stack or None (all zero); ``pencil(x)`` (one GEMV)
    and the level test read its n*n-wide rows.
    """

    __slots__ = ("constant", "coeffs", "nvars")

    def __init__(self, constant, coefficients):
        a0 = as_symmetric(constant)
        if not np.all(np.isfinite(a0)):
            raise InvalidMatrix("pencil constant has non-finite entries")
        coeffs = None
        if len(coefficients):
            raw = np.asarray(coefficients, dtype=float)
            if raw.shape[1:] != a0.shape:
                raise ValueError("pencil matrices must share one dimension")
            coeffs = raw + raw.swapaxes(1, 2)
            coeffs *= 0.5
            _require_psd_stack(coeffs)
        self.constant = a0
        self.coeffs = coeffs
        self.nvars = 0 if coeffs is None else coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def scale(self, eps: float = 0.0) -> float:
        """max|A0 + eps*I| + max_j max|A_j|, the entry size of the pencil."""
        top = float(np.max(np.abs(self.constant + eps * np.eye(self.dim))))
        if self.coeffs is None:
            return top
        return top + float(np.max(np.abs(self.coeffs)))

    def level(self, other: "AffinePencil", alpha: float,
              eps: float) -> "AffinePencil":
        """The pencil x -> A(x) - alpha * (B(x) + eps*I) for A = self and
        B = other: bisection's level test (its coefficients are not PSD)."""
        pencil = AffinePencil.constant_pencil(
            self.constant - alpha * (other.constant + eps * np.eye(self.dim)),
            self.nvars)
        if self.coeffs is not None or other.coeffs is not None:
            a, b = (0.0 if p.coeffs is None else p.coeffs for p in (self, other))
            pencil.coeffs = a - alpha * b
        return pencil

    def __call__(self, x) -> np.ndarray:
        if self.coeffs is None:
            return self.constant.copy()
        x = np.asarray(x, dtype=float) @ self.coeffs.reshape(self.nvars, -1)
        return self.constant + x.reshape(self.constant.shape)

    def quad(self, v: np.ndarray) -> np.ndarray:
        """Quadratic forms of the coefficients: entry (j, i) is v_i' A_j v_i.

        ``v`` is one vector (result of shape ``(nvars,)``) or a block of
        column vectors (result of shape ``(nvars, k)``).
        """
        if self.coeffs is None:
            return np.zeros((self.nvars,) + v.shape[1:])
        if v.ndim == 1:
            return np.einsum("j,mjk,k->m", v, self.coeffs, v)
        # one BLAS product for the whole block, then the column dots
        return np.einsum("jn,mjn->mn", v, self.coeffs @ v)

    @staticmethod
    def constant_pencil(matrix, nvars: int) -> "AffinePencil":
        """Pencil with zero coefficients, e.g. the QQ' term of robust compliance."""
        pencil = AffinePencil(matrix, [])
        pencil.nvars = nvars
        return pencil


def _require_psd_stack(coeffs: np.ndarray):
    """``symmat.is_psd`` on each matrix of a stack, in one batched eigvalsh;
    raises ``InvalidMatrix``, else ``NotPositiveSemidefinite``, naming the
    first bad coefficient (each scaled by its own ``1 + max|C_j|``)."""
    scale = 1.0 + np.maximum(coeffs.max(axis=(1, 2)), -coeffs.min(axis=(1, 2)))
    bad = np.flatnonzero(~np.isfinite(scale))
    if bad.size:
        raise InvalidMatrix(f"pencil coefficient {bad[0]} has non-finite entries")
    lam_min = np.linalg.eigvalsh(coeffs)[:, 0]
    bad = np.flatnonzero(lam_min < -PSD_TOL * scale)
    if bad.size:
        raise NotPositiveSemidefinite(f"pencil coefficient {bad[0]} is not PSD")


def _require_psd_pair(x, y, *, split: bool = False):
    """Symmetric X and Y of one shape, both checked PSD; returns (X, Y, split).

    With ``split``, Y is checked by its ``symmat.psd_split``, returned for
    the caller's kernel and range queries; otherwise, like X, by
    ``symmat.is_psd``, which is cheaper, and the split is None.
    """
    a = as_symmetric(x)
    b = as_symmetric(y)
    if a.shape != b.shape:
        raise ValueError("matrix pair must share one dimension")
    if not symmat.is_psd(a):
        raise NotPositiveSemidefinite("first matrix is not PSD")
    b_split = symmat.psd_split(b) if split else None
    if not (b_split.is_psd if split else symmat.is_psd(b)):
        raise NotPositiveSemidefinite("second matrix is not PSD")
    return a, b, b_split


def lambda_max_ext(x, y) -> GenEigResult:
    """Extended maximum generalized eigenvalue of a PSD pair.

    Returns +inf when a kernel direction of Y escapes the kernel of X, else
    0 when Y is numerically zero (0/0), else the top eigenvalue of the
    pencil reduced to the range of Y.  X is rotated once into the
    eigenvectors V = [U, V_r] of Y, C = V'XV: the escape norms are the
    column norms of C[:, U], and LAPACK computes only the top pair (value,
    z) of (C_rr, V_r'YV_r).  v = V_r z has v'Yv = 1 and Xv = value * Yv.
    """
    a, b, split = _require_psd_pair(x, y, split=True)
    k = symmat.kernel_basis(split).shape[1]
    c = split.basis.T @ a @ split.basis
    escape = np.linalg.norm(c[:, :k], axis=0)
    if np.any(escape > KERNEL_TOL * (1.0 + float(np.max(np.abs(a))))):
        return GenEigResult(math.inf, None, Certificate.KERNEL_ESCAPE)
    r = split.range
    top = r.shape[1] - 1
    if top < 0:
        return GenEigResult(0.0, None, Certificate.ZERO_ZERO)
    w, z = scipy.linalg.eigh(c[k:, k:], r.T @ b @ r, subset_by_index=[top, top])
    return GenEigResult(max(float(w[0]), 0.0), r @ z[:, 0],
                        Certificate.REDUCED_PENCIL)


def lambda_min_ext(x, y) -> float:
    """Extended minimum generalized eigenvalue: sup{a >= 0 | X - aY >= 0}.

    For a > 0, X - aY >= 0 exactly when (1/a)X - Y >= 0, so the value is
    1 / lambda_max_ext(Y, X) with 1/0 = +inf (Y numerically zero, or 0/0)
    and 1/inf = 0 (a kernel direction of X escapes the kernel of Y).
    """
    try:
        t = lambda_max_ext(y, x).value
    except NotPositiveSemidefinite:
        # the swapped call checks Y first: name this function's own argument
        bad = "first" if symmat.is_psd(y) else "second"
        raise NotPositiveSemidefinite(f"{bad} matrix is not PSD") from None
    return math.inf if t == 0.0 else 1.0 / t


def _require_positive(value: float, name: str, error: type):
    """Raise ``error`` unless 0 < value < inf (a NaN fails too)."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def lambda_max_eps(x, y, eps: float) -> GenEigResult:
    """Top eigenpair, alone, of the regularized definite pencil
    (X, Y + eps*I); the eigenvector v has v'(Y + eps*I)v = 1."""
    _require_positive(eps, "eps", InvalidEpsilon)
    a, b, _ = _require_psd_pair(x, y)
    n = a.shape[0]
    w, vecs = scipy.linalg.eigh(a, b + eps * np.eye(n),
                                subset_by_index=[n - 1, n - 1])
    return GenEigResult(max(float(w[0]), 0.0), vecs[:, 0],
                        Certificate.REDUCED_PENCIL)


def rayleigh_sup_oracle(x, y, samples: int, seed: int) -> float:
    """Sampled lower bound on the supremum of the generalized Rayleigh quotient.

    Draws ``samples`` random unit vectors, rejects those (numerically) in the
    kernel of Y, and returns the best quotient seen.  Deterministic given the
    seed, and always at most the exact extended value.
    """
    a, b, _ = _require_psd_pair(x, y)
    if float(np.max(np.abs(b))) <= PSD_TOL:
        raise DegeneratePair("denominator matrix is zero")
    vs = np.random.default_rng(seed).standard_normal((samples, a.shape[0]))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    num = np.einsum("ij,jk,ik->i", vs, a, vs)
    den = np.einsum("ij,jk,ik->i", vs, b, vs)
    keep = den > KERNEL_TOL
    return float(np.max(num[keep] / den[keep], initial=0.0))


def _pencil_eigh(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """All eigenpairs (ascending) of (A(x), B(x) + eps*I): the solvers' one
    generalized eigensolve.  Allows eps = 0 (the lower-bound formulations);
    a B(x) + eps*I that is not positive definite is ``SingularDenominator``.
    """
    x = np.asarray(x, dtype=float)
    a = pa(x)
    b = pb(x) + eps * np.eye(pa.dim)
    try:
        return scipy.linalg.eigh(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDenominator(
            f"B(x) + eps*I is not positive definite at eps = {eps}: {exc}"
        ) from None


def _log_sum_exp(w: np.ndarray, mu: float):
    """mu * log sum_i exp(w_i / mu) and its softmax weights."""
    z = w / mu
    zmax = float(np.max(z))
    expz = np.exp(z - zmax)
    total = float(np.sum(expz))
    return mu * (zmax + math.log(total)), expz / total


def _pencil_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """Value, gradient and top eigenvector of x -> lmax(A(x), B(x) + eps*I)."""
    w, vecs = _pencil_eigh(pa, pb, x, eps)
    value = max(float(w[-1]), 0.0)
    v = vecs[:, -1]
    grad = pa.quad(v) - value * pb.quad(v)
    return value, grad, v


def _checked_design(x, eps: float) -> np.ndarray:
    """x as a float array, after the domain checks of the public entries."""
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x < math.inf)):
        raise OutOfDomain("design vector must be finite and nonnegative")
    _require_positive(eps, "eps", InvalidEpsilon)
    return x


def composite_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """Evaluate lmax(A(x), B(x) + eps*I) with a subgradient.

    The gradient entry j is v'A_j v - value * v'B_j v for the returned top
    eigenvector v (normalized v'(B(x)+eps*I)v = 1); at a multiple top
    eigenvalue this is one element of the subdifferential.
    """
    return _pencil_value_grad(pa, pb, _checked_design(x, eps), eps)


def smoothed_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float,
                        mu: float):
    """Log-sum-exp smoothing of the regularized maximum generalized eigenvalue.

    f_mu(x) = mu * log sum_i exp(lambda_i / mu) over all n generalized
    eigenvalues of (A(x), B(x) + eps*I), with the matching softmax-weighted
    gradient.  Satisfies lmax <= f_mu <= lmax + mu * log(n).
    """
    x = _checked_design(x, eps)
    _require_positive(mu, "mu", InvalidSmoothing)
    return _smoothed_value_grad(pa, pb, x, eps, mu)


def _smoothed_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float,
                         mu: float):
    """Internal: allows eps = 0 when B(x) is positive definite."""
    w, vecs = _pencil_eigh(pa, pb, x, eps)
    value, sigma = _log_sum_exp(w, mu)
    grad = (pa.quad(vecs) - pb.quad(vecs) * w[np.newaxis, :]) @ sigma
    return value, grad
