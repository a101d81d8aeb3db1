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
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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

    ``AffinePencil(constant, nvars)`` is the constant pencil (all nvars
    coefficients zero, e.g. the QQ' term of robust compliance); the constant
    need only be finite, so that shifted pencils used in bisection can reuse
    the evaluation path.  Coefficients come from ``rank_one`` and
    ``diagonal``, which check their factors PSD and scatter blocks built
    from them (O(nvars * w^2)) into one zeroed stack, or from ``level``.
    ``coeffs`` is the ``(nvars, n, n)`` stack or None (all zero);
    ``pencil(x)`` and ``quad(Z)`` are each one GEMV on its n*n-wide rows;
    ``quad(v)`` reads ``blocks``, C_j on its nonzero rows ``support[j]``
    (ascending, padded with other rows to the widest w).
    """

    __slots__ = ("constant", "coeffs", "nvars", "support", "blocks")

    def __init__(self, constant, nvars: int):
        a0 = as_symmetric(constant)
        if not np.all(np.isfinite(a0)):
            raise InvalidMatrix("pencil constant has non-finite entries")
        # numpy integers too, but not bool, 2.5 or a coefficient stack
        if isinstance(nvars, bool) or not isinstance(nvars, numbers.Integral) \
                or nvars < 0:
            raise ValueError(f"nvars must be an integer >= 0, got {nvars!r}")
        self.constant, self.nvars = a0, int(nvars)
        self.coeffs = self.support = self.blocks = None

    def _scatter(self, factors, block):
        """Set the support off the factors' nonzeros, the blocks ``block(f)``
        of the factors f on it, and the zeroed stack they scatter into."""
        self.support, index = _support(factors != 0)
        self.blocks = block(np.take_along_axis(factors, self.support, axis=1))
        self.coeffs = np.zeros((len(factors), self.dim, self.dim))
        self.coeffs[index] = self.blocks

    @staticmethod
    def rank_one(constant, vectors, weights) -> "AffinePencil":
        """C_j = w_j v_j v_j' for the rows v_j of ``vectors`` and the
        weights w_j >= 0, e.g. truss stiffnesses (E / L_j) g_j g_j'."""
        v = np.asarray(vectors, dtype=float)
        w = np.asarray(weights, dtype=float)
        pencil = AffinePencil(constant, len(w))
        if v.shape != (len(w), pencil.dim):
            raise ValueError("need one n-vector per weight")
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            peak = np.max(np.abs(v), axis=1)
            top = peak * peak * w  # max|C_j|, rounded as C_j's entry is
        _require_each(np.isfinite(top), InvalidMatrix, "has non-finite entries")
        _require_each(w >= 0, NotPositiveSemidefinite, "is not PSD")
        if len(w):
            pencil._scatter(v, lambda f: (f[:, :, None] * f[:, None, :])
                            * w[:, None, None])
        return pencil

    @staticmethod
    def diagonal(constant, diagonals) -> "AffinePencil":
        """C_j = diag(d_j) for the rows d_j >= 0 of ``diagonals``, e.g.
        lumped masses."""
        d = np.asarray(diagonals, dtype=float)
        pencil = AffinePencil(constant, len(d))
        if d.shape != (len(d), pencil.dim):
            raise ValueError("need one n-vector per coefficient")
        _require_each(np.isfinite(d).all(axis=1), InvalidMatrix,
                      "has non-finite entries")
        _require_each((d >= 0).all(axis=1), NotPositiveSemidefinite,
                      "is not PSD")
        if len(d):  # diag(f), +0.0 off the diagonal
            pencil._scatter(d, lambda f: np.where(
                np.eye(f.shape[1], dtype=bool), f[:, :, None], 0.0))
        return pencil

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def scale(self, eps: float = 0.0) -> float:
        """max|A0 + eps*I| + max_j max|A_j|, the entry size of the pencil."""
        top = float(np.max(np.abs(self.constant + eps * np.eye(self.dim))))
        if self.coeffs is None:
            return top
        return top + float(np.max(np.abs(self.blocks)))  # every nonzero

    def level(self, other: "AffinePencil", alpha: float,
              eps: float) -> "AffinePencil":
        """The pencil x -> A(x) - alpha * (B(x) + eps*I) for A = self and
        B = other: bisection's level test (its coefficients are not PSD)."""
        pencil = AffinePencil(
            self.constant - alpha * (other.constant + eps * np.eye(self.dim)),
            self.nvars)
        if self.coeffs is not None or other.coeffs is not None:
            a, b = (0.0 if p.coeffs is None else p.coeffs for p in (self, other))
            coeffs = a - alpha * b  # support off its nonzero rows
            pencil.support, index = _support(coeffs.any(axis=2))
            pencil.coeffs, pencil.blocks = coeffs, coeffs[index]
        return pencil

    def __call__(self, x) -> np.ndarray:
        if self.coeffs is None:
            return self.constant.copy()
        x = np.asarray(x, dtype=float) @ self.coeffs.reshape(self.nvars, -1)
        return self.constant + x.reshape(self.constant.shape)

    def quad(self, z: np.ndarray) -> np.ndarray:
        """<C_j, Z> per coefficient C_j: one GEMV for an n x n matrix Z (for
        an eigenprojector Z, a spectral gradient); v'C_j v for a vector v:
        C_j's block's terms (v_a C_j[a, b]) v_b, added one by one from +0.0
        as ``einsum("j,mjk,k->m")`` adds all n*n (the rest are zeros)."""
        if z.shape not in ((self.dim,), (self.dim, self.dim)):
            raise ValueError(f"quad needs shape (n,) or (n, n), got {z.shape}")
        if self.coeffs is None:
            return np.zeros(self.nvars)
        if z.ndim == 1:  # cumsum starts at the first term: + 0.0 for -0.0
            zs = z[self.support]
            terms = (zs[:, :, None] * self.blocks) * zs[:, None, :]
            return np.cumsum(terms.reshape(self.nvars, -1), axis=1)[:, -1] + 0.0
        return self.coeffs.reshape(self.nvars, -1) @ z.ravel()


def _support(nonzero: np.ndarray):
    """Support s, each row's True columns ascending, padded with its others
    to the widest (at least 1); and the stack index [j, s[j, a], s[j, b]]."""
    width = max(1, int(nonzero.sum(axis=1).max()))
    s = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    return s, (np.arange(len(s))[:, None, None], s[:, :, None], s[:, None, :])


def _require_each(ok: np.ndarray, error: type, what: str):
    """Raise ``error`` naming the first pencil coefficient j without ok[j]."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise error(f"pencil coefficient {bad[0]} {what}")


def _require_psd_pair(x, y, *, check_y: bool = True):
    """Symmetric, finite X, Y of one shape, each symmetrized once and
    checked PSD (Y only if ``check_y``)."""
    a, b = symmat._finite_symmetric(x), symmat._finite_symmetric(y)
    if a.shape != b.shape:
        raise ValueError("matrix pair must share one dimension")
    if not symmat._is_psd_symmetric(a):
        raise NotPositiveSemidefinite("first matrix is not PSD")
    if check_y and not symmat._is_psd_symmetric(b):
        raise NotPositiveSemidefinite("second matrix is not PSD")
    return a, b


def lambda_max_ext(x, y) -> GenEigResult:
    """Extended maximum generalized eigenvalue of a PSD pair.

    Returns +inf when a kernel direction of Y escapes the kernel of X, else
    0 when Y is numerically zero (0/0), else the top eigenvalue of the
    pencil reduced to the range of Y.  Only Y's kernel basis U is computed;
    the escape norms are the column norms of XU.  LAPACK computes only the
    top pair (value, z) of (R'XR, R'YR), R = ``symmat.kernel_complement(U)``
    (I if k = 0), and v = Rz has v'Yv = 1 and Xv = value * Yv.
    """
    a, b = _require_psd_pair(x, y, check_y=False)
    try:
        u = symmat.kernel_basis(b)
    except NotPositiveSemidefinite:
        raise NotPositiveSemidefinite("second matrix is not PSD") from None
    n, k = u.shape
    escape = np.linalg.norm(a @ u, axis=0)
    if np.any(escape > KERNEL_TOL * (1.0 + float(np.max(np.abs(a))))):
        return GenEigResult(math.inf, None, Certificate.KERNEL_ESCAPE)
    if k == n:
        return GenEigResult(0.0, None, Certificate.ZERO_ZERO)
    if k:
        r = symmat.kernel_complement(u)
        a, b = r.T @ a @ r, r.T @ b @ r
    w, z = scipy.linalg.eigh(a, b, subset_by_index=[n - k - 1] * 2)
    return GenEigResult(max(float(w[0]), 0.0), r @ z[:, 0] if k else z[:, 0],
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
    a, b = _require_psd_pair(x, y)
    n = a.shape[0]
    try:  # Y within PSD_TOL of PSD may leave Y + eps*I indefinite
        w, vecs = scipy.linalg.eigh(a, b + eps * np.eye(n),
                                    subset_by_index=[n - 1, n - 1])
    except np.linalg.LinAlgError as exc:
        raise SingularDenominator(f"denominator + eps*I is not positive "
                                  f"definite at eps = {eps}: {exc}") from None
    return GenEigResult(max(float(w[0]), 0.0), vecs[:, 0],
                        Certificate.REDUCED_PENCIL)


def rayleigh_sup_oracle(x, y, samples: int, seed: int) -> float:
    """Sampled lower bound on the supremum of the generalized Rayleigh quotient.

    Draws ``samples`` random unit vectors, rejects those (numerically) in the
    kernel of Y, and returns the best quotient seen.  Deterministic given the
    seed, and always at most the exact extended value.
    """
    a, b = _require_psd_pair(x, y)
    if float(np.max(np.abs(b))) <= PSD_TOL:
        raise DegeneratePair("denominator matrix is zero")
    vs = np.random.default_rng(seed).standard_normal((samples, a.shape[0]))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    num = np.einsum("ij,jk,ik->i", vs, a, vs)
    den = np.einsum("ij,jk,ik->i", vs, b, vs)
    keep = den > KERNEL_TOL
    return float(np.max(num[keep] / den[keep], initial=0.0))


def _top_pair(c: np.ndarray):
    """C's top eigenpair alone by LAPACK's dsyevr, as ``scipy.linalg.eigh``
    calls it for ``subset_by_index=[n-1, n-1]``: bisection's level test."""
    n = c.shape[0]
    w, v, _, _, info = lapack.dsyevr(c, range="I", il=n, iu=n, lower=1)
    if info:
        raise InvalidMatrix(f"LAPACK dsyevr failed with info = {info}")
    return w[:1], v


def _pencil_eigh(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """All eigenpairs (ascending) of (A(x), B(x) + eps*I) by LAPACK's dsygvd:
    every pencil evaluation's one eigensolve, and the one check of its
    domain, x finite and nonnegative (``OutOfDomain``), eps finite and
    nonnegative (``InvalidEpsilon``), A(x) and B(x) + eps*I finite
    (``InvalidMatrix``).  eps = 0 needs B(x) positive definite."""
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x < math.inf)):
        raise OutOfDomain("design vector must be finite and nonnegative")
    if not 0 <= eps < math.inf:
        raise InvalidEpsilon(f"eps must be nonnegative and finite, got {eps}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        a, b = pa(x), pb(x) + eps * np.eye(pa.dim)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidMatrix("A(x) or B(x) overflows at this design vector")
    w, v, info = lapack.dsygvd(a, b, itype=1, jobz="V", uplo="L")
    if info > pa.dim:  # the Cholesky factorization of B(x) + eps*I failed
        raise SingularDenominator("B(x) + eps*I is not positive definite")
    if info:
        raise InvalidMatrix(f"LAPACK dsygvd failed with info = {info}")
    return w, v


def _log_sum_exp(w: np.ndarray, mu: float):
    """mu * log sum_i exp(w_i / mu) and its softmax weights."""
    z = w / mu
    zmax = float(np.max(z))
    expz = np.exp(z - zmax)
    total = float(np.sum(expz))
    return mu * (zmax + math.log(total)), expz / total


def composite_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """Evaluate lmax(A(x), B(x) + eps*I) with a subgradient, for eps >= 0
    (eps = 0 when B(x) is positive definite, else ``SingularDenominator``).

    The gradient entry j is v'A_j v - value * v'B_j v for the returned top
    eigenvector v (normalized v'(B(x)+eps*I)v = 1); at a multiple top
    eigenvalue this is one element of the subdifferential.
    """
    w, vecs = _pencil_eigh(pa, pb, x, eps)
    value = max(float(w[-1]), 0.0)
    v = vecs[:, -1]
    grad = pa.quad(v) - value * pb.quad(v)
    return value, grad, v


def smoothed_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float,
                        mu: float):
    """Log-sum-exp smoothing of the regularized maximum generalized eigenvalue.

    f_mu(x) = mu * log sum_i exp(lambda_i / mu) over all n generalized
    eigenvalues of (A(x), B(x) + eps*I), with the matching softmax-weighted
    gradient.  Satisfies lmax <= f_mu <= lmax + mu * log(n).  eps >= 0 as
    for ``composite_value_grad``; mu > 0.
    """
    _require_positive(mu, "mu", InvalidSmoothing)
    w, vecs = _pencil_eigh(pa, pb, x, eps)
    value, sigma = _log_sum_exp(w, mu)
    grad = pa.quad((vecs * sigma) @ vecs.T) \
        - pb.quad((vecs * (sigma * w)) @ vecs.T)
    return value, grad
