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
    InvalidEpsilon,
    InvalidMatrix,
    InvalidSmoothing,
    NotPositiveSemidefinite,
    OutOfDomain,
    SingularDenominator,
)
from .symmat import KERNEL_TOL, as_symmetric


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

    ``AffinePencil(constant, nvars)`` is the constant pencil (e.g. the QQ'
    term of robust compliance), its constant finite.  ``rank_one``,
    ``diagonal`` and ``level`` set the blocks C_j[s, s] = ``blocks[j]`` on
    s = ``support[j]``, C_j's nonzero rows ascending, padded to the widest w
    (0 if all C_j = 0).  ``pencil(x)`` forms no (nvars, n, n) stack: an entry
    one C_j alone touches is x_j * C_j[a, b] + 0.0, the others (a truss node's
    2 x 2 block) come from one zero-padded GEMV over their columns, with the
    bits of the stack GEMV A0 + x @ C where n*n % 4 == 0 (see README).
    """

    __slots__ = ("constant", "nvars", "support", "blocks", "_index")

    def __init__(self, constant, nvars: int):
        a0 = as_symmetric(constant)
        if not np.all(np.isfinite(a0)):
            raise InvalidMatrix("pencil constant has non-finite entries")
        # numpy integers too, but not bool, 2.5 or a coefficient stack
        if isinstance(nvars, bool) or not isinstance(nvars, numbers.Integral) \
                or nvars < 0:
            raise ValueError(f"nvars must be an integer >= 0, got {nvars!r}")
        self.constant, self.nvars, m = a0, int(nvars), int(nvars)
        self.support, self.blocks = np.zeros((m, 0), int), np.zeros((m, 0, 0))
        self._index = (np.zeros(0, int), np.zeros(0), np.zeros((m, 0)),
                       np.zeros((2, 0), int))

    def _hold(self, factors, block):
        """Hold ``block(s, f)``, f the ``factors`` on the support s read off
        their nonzeros, coefficient-fastest, and ``__call__``'s index."""
        n, width = self.dim, int(np.count_nonzero(factors, 1).max(initial=0))
        s = np.argsort(factors == 0, axis=1, kind="stable")[:, :width]
        f = np.take_along_axis(factors, s, axis=1)
        self.support = np.ascontiguousarray(s.T).T
        self.blocks = blocks = np.ascontiguousarray(
            block(s, f).transpose(1, 2, 0)).transpose(2, 0, 1)
        j, a, b = np.nonzero((s[:, :, None] >= s[:, None, :]) & (blocks != 0))
        entry, value = s[j, a] * n + s[j, b], blocks[j, a, b]
        count = np.bincount(entry, minlength=n * n)
        alone, shared = count[entry] == 1, np.flatnonzero(count > 1)
        gemv = np.zeros((self.nvars, -(-len(shared) // 8) * 8))
        gemv[j[~alone], np.searchsorted(shared, entry[~alone])] = value[~alone]
        lower = np.concatenate((entry[alone], shared))
        self._index = (j[alone], value[alone], gemv,
                       np.stack((lower, lower % n * n + lower // n)))

    def _blocks_on(self, support):
        """C_j[s, s] on s = ``support[j]`` by one-hot sums."""
        at = support[:, :, None] == self.support[:, None, :]
        return np.einsum("jac,jcd,jbd->jab", at, self.blocks, at)

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
        pencil._hold(v, lambda s, f: (f[:, :, None] * f[:, None, :])
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
        pencil._hold(d, lambda s, f: np.where(  # diag(f), +0.0 off it
            np.eye(f.shape[1], dtype=bool), f[:, :, None], 0.0))
        return pencil

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def scale(self, eps: float = 0.0) -> float:
        """max|A0 + eps*I| + max_j max|A_j|, the entry size of the pencil."""
        top = float(np.max(np.abs(self.constant + eps * np.eye(self.dim))))
        return top + float(np.max(np.abs(self.blocks), initial=0.0))

    def level(self, other: "AffinePencil", alpha: float,
              eps: float) -> "AffinePencil":
        """The pencil x -> A(x) - alpha * (B(x) + eps*I) for A = self and
        B = other: bisection's level test (its coefficients are not PSD),
        with blocks A_j - alpha * B_j on the union of the two supports."""
        pencil = AffinePencil(
            self.constant - alpha * (other.constant + eps * np.eye(self.dim)),
            self.nvars)
        rows = np.zeros((self.nvars, self.dim), dtype=bool)
        for p in (self, other):
            rows[np.arange(self.nvars)[:, None], p.support] |= \
                p.blocks.any(axis=2)
        pencil._hold(rows, lambda s, _: self._blocks_on(s)
                     - alpha * other._blocks_on(s))
        return pencil

    def __call__(self, x) -> np.ndarray:
        if self.blocks.size == 0:  # no coefficient: robust's QQ' numerator
            return self.constant.copy()
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nvars,):
            raise ValueError(f"x needs shape ({self.nvars},), got {x.shape}")
        j, c, gemv, targets = self._index
        values = np.concatenate((x[j] * c + 0.0, x @ gemv))[:targets.shape[1]]
        flat = np.zeros(self.dim * self.dim)
        flat[targets] = values  # both triangles
        return self.constant + flat.reshape(self.constant.shape)

    def quad(self, v: np.ndarray) -> np.ndarray:
        """v'C_j v per coefficient, (nvars,), for an n-vector v; per column,
        (nvars, k), for an n x k v; <C_j, U diag(s) U'> = quad(U) @ s.  One
        einsum adds each (v_a C_j[a, b]) v_b from +0.0 in row-major order
        (README), 3.6x faster on blocks coefficient-fastest than C-ordered."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ValueError(f"quad needs shape (n,) or (n, k), got {v.shape}")
        if self.blocks.size == 0:
            return np.zeros((self.nvars,) + v.shape[1:])
        vs = (v if v.ndim == 2 else v[:, None])[self.support]
        q = np.einsum("jak,jab,jbk->jk", vs, self.blocks, vs)
        return q if v.ndim == 2 else q[:, 0]


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
    w, z = scipy.linalg.eigh(a, b, subset_by_index=[n - k - 1] * 2,  # own copies
                             overwrite_a=True, overwrite_b=True, check_finite=False)
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
    """Top eigenpair, alone, of the definite pencil (X, Y + eps*I) by
    LAPACK's dsygvx; the eigenvector v has v'(Y + eps*I)v = 1."""
    _require_positive(eps, "eps", InvalidEpsilon)
    a, b = _require_psd_pair(x, y)
    n = a.shape[0]
    b.flat[::n + 1] += eps  # Y within PSD_TOL of PSD may stay indefinite
    w, v, _, _, info = lapack.dsygvx(a.T, b.T, range="I", il=n, iu=n,
                                     overwrite_a=1, overwrite_b=1)
    if info > n:  # as in _pencil_eigh: the Cholesky factorization failed
        raise SingularDenominator(f"denominator + eps*I is not positive "
                                  f"definite at eps = {eps}")
    if info:
        raise InvalidMatrix(f"LAPACK dsygvx failed with info = {info}")
    return GenEigResult(max(float(w[0]), 0.0), v[:, 0],
                        Certificate.REDUCED_PENCIL)


def _top_pair(c: np.ndarray):
    """C's top eigenpair alone by LAPACK's dsyevr, as ``scipy.linalg.eigh``
    calls it for ``subset_by_index=[n-1, n-1]``: bisection's level test."""
    n = c.shape[0]
    w, v, _, _, info = lapack.dsyevr(c, range="I", il=n, iu=n, lower=1)
    if info:
        raise InvalidMatrix(f"LAPACK dsyevr failed with info = {info}")
    return w[:1], v


def _pencil_pair(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """(A(x), B(x) + eps*I) after every pencil evaluation's one domain
    check: x >= 0 and eps >= 0, each finite, and neither matrix overflows."""
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x < math.inf)):
        raise OutOfDomain("design vector must be finite and nonnegative")
    if not 0 <= eps < math.inf:
        raise InvalidEpsilon(f"eps must be nonnegative and finite, got {eps}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        a, b = pa(x), pb(x) + eps * np.eye(pa.dim)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidMatrix("A(x) or B(x) overflows at this design vector")
    return a, b


def _pencil_eigh(pa: AffinePencil, pb: AffinePencil, x, eps: float):
    """All eigenpairs (ascending) of ``_pencil_pair`` by LAPACK's dsygvd;
    eps = 0 needs B(x) positive definite."""
    a, b = _pencil_pair(pa, pb, x, eps)
    # a.T, b.T: the same symmetric numbers, Fortran-ordered for the wrapper
    w, v, info = lapack.dsygvd(a.T, b.T, itype=1, jobz="V", uplo="L")
    if info > pa.dim:  # the Cholesky factorization of B(x) + eps*I failed
        raise SingularDenominator("B(x) + eps*I is not positive definite")
    if info:  # 0 < info <= n: the eigensolver's iteration did not converge
        raise InvalidMatrix(f"LAPACK dsygvd did not converge (info = {info}): "
                            f"max|A(x)| = {np.max(np.abs(a)):.3g}, "
                            f"max|B(x) + eps*I| = {np.max(np.abs(b)):.3g}")
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
    return value, pa.quad(v) - value * pb.quad(v), v


def smoothed_value_grad(pa: AffinePencil, pb: AffinePencil, x, eps: float,
                        mu: float):
    """Log-sum-exp smoothing of the regularized maximum generalized eigenvalue.

    f_mu(x) = mu * log sum_i exp(lambda_i / mu) over all n generalized
    eigenvalues of (A(x), B(x) + eps*I), with the softmax-weighted gradient
    summed per eigenpair (see README).  Satisfies lmax <= f_mu <= lmax +
    mu * log(n).  eps >= 0 as for ``composite_value_grad``; mu > 0.
    """
    _require_positive(mu, "mu", InvalidSmoothing)
    w, vecs = _pencil_eigh(pa, pb, x, eps)
    value, sigma = _log_sum_exp(w, mu)
    on = sigma > 0  # an eigenpair of weight 0.0 adds nothing
    vecs, w, sigma = vecs[:, on], w[on], sigma[on]
    return value, (pa.quad(vecs) - pb.quad(vecs) * w) @ sigma
