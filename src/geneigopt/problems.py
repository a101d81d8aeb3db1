"""Problem front-ends: robust compliance and eigenfrequency objectives.

Robust compliance of a design x is the worst-case work done by an uncertain
load p = Q p_hat over the unit sphere, which equals the extended maximum
generalized eigenvalue of (QQ', K(x)).  The eigenfrequency objective is the
extended maximum generalized eigenvalue of (M(x), K(x)) (the reciprocal of
the squared fundamental frequency).  Both get epsilon-regularized variants
that are finite and continuous on the whole nonnegative orthant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geneig
from .errors import EmptyFeasibleSet
from .geneig import AffinePencil

ROBUST_COMPLIANCE = "robust_compliance"
EIGENFREQUENCY = "eigenfrequency"

VOLUME_LE = "le"
VOLUME_EQ = "eq"


@dataclass(frozen=True)
class FeasibleSet:
    """Volume-constrained box: {x >= lower_bound, l'x <= V0 or l'x = V0}."""

    l: np.ndarray
    v0: float
    kind: str = VOLUME_LE
    lower_bound: float = 0.0

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        object.__setattr__(self, "l", l)
        if self.kind not in (VOLUME_LE, VOLUME_EQ):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        # written so that a NaN fails each test
        if not (0 < self.v0 < math.inf and 0 <= self.lower_bound < math.inf
                and np.all((0 < l) & (l < math.inf))):
            raise EmptyFeasibleSet("invalid feasible-set parameters")
        if self.lower_bound * float(np.sum(l)) >= self.v0:
            raise EmptyFeasibleSet("lower bound leaves no interior")

    def contains(self, x) -> bool:
        """Membership up to 1e-9 * (1 + V0) in each constraint."""
        x = np.asarray(x, dtype=float)
        scale = 1e-9 * (1.0 + self.v0)
        if np.any(x < self.lower_bound - scale):
            return False
        vol = float(self.l @ x)
        if self.kind == VOLUME_EQ:
            return abs(vol - self.v0) <= scale
        return vol <= self.v0 + scale


@dataclass(frozen=True)
class ProblemSpec:
    """Objective kind plus the data needed to evaluate and solve it.

    ``eps == 0`` means the exact extended objective (used by the bisection
    solver and by lower-bound formulations whose feasible set keeps the
    pencil definite).
    """

    kind: str
    model: object
    feasible: FeasibleSet
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in (ROBUST_COMPLIANCE, EIGENFREQUENCY):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")
        need = "m_pencil" if self.kind == EIGENFREQUENCY else "q_matrix"
        if getattr(self.model, need, None) is None:
            raise ValueError(f"a {self.kind} model needs its {need}")

    def objective_pencils(self) -> tuple[AffinePencil, AffinePencil]:
        """Pencils (A, B) such that the objective is lmax(A(x), B(x) [+ eps I])."""
        model = self.model
        if self.kind == ROBUST_COMPLIANCE:
            q = model.q_matrix
            with np.errstate(over="ignore"):  # +inf is InvalidMatrix below
                qq = q @ q.T
            a = AffinePencil.constant_pencil(qq, model.k_pencil.nvars)
            return a, model.k_pencil
        return model.m_pencil, model.k_pencil


@dataclass(frozen=True)
class PencilModel:
    """Pencils K(x) and M(x), load weights Q and member volumes per area.

    ``truss.build_model`` fills every field but, for robust compliance,
    ``m_pencil`` (``load_node`` carries the load and the non-structural
    mass); the closed-form instances leave some out.
    """

    k_pencil: AffinePencil
    m_pencil: AffinePencil | None = None
    q_matrix: np.ndarray | None = None
    volumes: np.ndarray | None = None
    load_node: int | None = None

    @property
    def n(self) -> int:
        return self.k_pencil.dim

    @property
    def m(self) -> int:
        return self.k_pencil.nvars


def psi_exact(model, x) -> float:
    """Extended robust compliance lmax(QQ', K(x)); +inf off the solvable set."""
    q = model.q_matrix
    return geneig.lambda_max_ext(q @ q.T, model.k_pencil(x)).value


def psi_eps(model, x, eps: float) -> float:
    """Regularized robust compliance lmax(QQ', K(x) + eps*I)."""
    q = model.q_matrix
    return geneig.lambda_max_eps(q @ q.T, model.k_pencil(x), eps).value


def phi_exact(model, x) -> float:
    """Extended eigenfrequency objective lmax(M(x), K(x)).

    At x = 0 the value is +inf with a non-structural mass and 0 without one
    (K(0) = 0, so ``lambda_max_ext`` sees a zero or kernel-escape pair).
    """
    return geneig.lambda_max_ext(model.m_pencil(x), model.k_pencil(x)).value


def phi_eps(model, x, eps: float) -> float:
    """Regularized eigenfrequency objective lmax(M(x), K(x) + eps*I)."""
    return geneig.lambda_max_eps(model.m_pencil(x), model.k_pencil(x), eps).value


def _diag_pencil(coeff_diags, constant_diag=None) -> AffinePencil:
    constant = np.diag(constant_diag or [0.0] * len(coeff_diags[0]))
    return AffinePencil.diagonal(constant, coeff_diags)


def _two_bar_model(**fields) -> PencilModel:
    """K(x) = diag(x1, x2) and unit volumes, plus the given fields."""
    return PencilModel(k_pencil=_diag_pencil([(1.0, 0.0), (0.0, 1.0)]),
                       volumes=np.array([1.0, 1.0]), **fields)


def demo_model_without_mass() -> PencilModel:
    """Two-bar instance with K(x) = diag(x1, x2), M(x) = diag(x1, 2*x2).

    Closed form: phi = 2 when x2 > 0, 1 when x1 > 0 = x2, 0 at the origin;
    phi_eps = max(x1/(x1+eps), 2*x2/(x2+eps)).
    """
    return _two_bar_model(m_pencil=_diag_pencil([(1.0, 0.0), (0.0, 2.0)]))


def demo_model_with_mass() -> PencilModel:
    """Two-bar instance with K(x) = diag(x1, x2), M(x) = diag(x1 + 1, 2*x2).

    Closed form: phi = +inf at x1 = 0; otherwise the max of (x1+1)/x1 and,
    only while x2 > 0, the constant branch 2 (so the value on the x2 = 0
    edge is (x1+1)/x1 for every x1 > 0).  phi_eps = max((x1+1)/(x1+eps),
    2*x2/(x2+eps)).
    """
    return _two_bar_model(m_pencil=_diag_pencil([(1.0, 0.0), (0.0, 2.0)],
                                                constant_diag=(1.0, 0.0)))


def robust_two_bar_model(load_scale: float = 1.0) -> PencilModel:
    """Two-bar robust instance: K(x) = diag(x1, x2), single load on DOF 1."""
    return _two_bar_model(q_matrix=np.array([[load_scale], [0.0]]))
