"""2D truss ground structures and their stiffness/mass pencils.

Nodes live on a rectangular grid; every node pair is a candidate bar except
pairs whose open segment passes through a third grid node.  On a grid that
rule is exact: the pair is a bar iff gcd(|dix|, |diy|) = 1, with no
tolerance.  Element stiffness matrices are the classic rank-one
(E / L) g g' truss elements; element mass matrices are lumped (diagonal),
half the bar mass at each endpoint.  Supports may restrain individual
directions of a node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBar, InvalidLoadNode, InvalidMatrix, NoFreeDofs
from .geneig import AffinePencil
from .problems import EIGENFREQUENCY, ROBUST_COMPLIANCE, PencilModel


@dataclass(frozen=True)
class GroundStructure:
    """Node grid, overlap-free bar set and support information.

    ``fixed_dofs`` indexes global DOFs (2 * node + direction, direction 0
    for x and 1 for y).
    """

    nodes: np.ndarray          # (N, 2) coordinates in meters
    bars: np.ndarray           # (M, 2) node index pairs, a < b
    fixed_dofs: frozenset[int]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_bars(self) -> int:
        return self.bars.shape[0]

    @property
    def free_dofs(self) -> list[int]:
        return [d for d in range(2 * self.n_nodes) if d not in self.fixed_dofs]


@dataclass(frozen=True)
class Material:
    """Isotropic bar material: Young's modulus (Pa) and density (kg/m^3)."""

    young_modulus: float = 1.0
    density: float = 0.0

    def __post_init__(self):
        if not 0 < self.young_modulus < np.inf:
            raise ValueError("Young's modulus must be positive and finite")
        if not 0 <= self.density < np.inf:
            raise ValueError("density must be nonnegative and finite")


def grid_node_index(nx: int, ix: int, iy: int) -> int:
    """Node numbering: x-fastest, row by row from the bottom."""
    return iy * nx + ix


def generate_ground_structure(nx: int, ny: int, spacing: float,
                              fixed_dofs=frozenset()) -> GroundStructure:
    """Full nx-by-ny grid ground structure without overlapping bars.

    Candidate pairs (a, b), a < b, come in row-major order; a pair is kept
    iff gcd(|dix|, |diy|) = 1, i.e. no grid node lies strictly between.
    ``fixed_dofs`` holds the restrained global DOFs (2 * node + direction).
    """
    if nx < 1 or ny < 1 or nx * ny < 2:
        raise ValueError("grid must contain at least two nodes")
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    nodes = np.column_stack((ix, iy)).astype(float) * spacing
    a, b = np.triu_indices(nx * ny, k=1)
    keep = np.gcd(np.abs(ix[b] - ix[a]), np.abs(iy[b] - iy[a])) == 1
    bars = np.column_stack((a[keep], b[keep]))
    return GroundStructure(nodes=nodes, bars=bars,
                           fixed_dofs=frozenset(fixed_dofs))


def build_model(gs: GroundStructure, mat: Material, load_node: int,
                load_scale: float = 1.0, nonstructural_mass: float = 0.0,
                load_dims: int = 2, *,
                problem: str = EIGENFREQUENCY) -> PencilModel:
    """Assemble element pencils, volume vector and the load weight matrix.

    Row j of G holds bar j's direction vector g_j on the free DOFs, so
    K_j = (E / L_j) g_j g_j'; M_j is diagonal with half the bar mass on
    each free DOF of both endpoints.  ``AffinePencil.rank_one`` and
    ``diagonal`` keep each pencil's w x w blocks (w <= 4), PSD by
    construction, and the assembly index read off them, O(m * n) memory in
    all: no (m, n, n) stack.  Q gets ``load_dims`` unit columns (times
    ``load_scale``) on the load node's DOFs, where the non-structural mass
    sits too.  A robust compliance model reads only K and Q and has
    ``m_pencil=None``; an eigenfrequency model (the default) has all.

    Checked first, ``InvalidBar``: no bar, a bar to a missing node, a length
    not finite and positive; ``InvalidMatrix``: E/L, or ½ρL for M, is inf.
    """
    m, n_nodes = gs.n_bars, gs.n_nodes
    if not m:
        raise InvalidBar("needs at least one bar")
    bad = np.flatnonzero(((gs.bars < 0) | (gs.bars >= n_nodes)).any(axis=1))
    if bad.size:
        raise InvalidBar(f"bar {bad[0]} has a node outside 0..{n_nodes - 1}")
    with np.errstate(all="ignore"):  # checked next
        d = gs.nodes[gs.bars[:, 1]] - gs.nodes[gs.bars[:, 0]]
        lengths = np.linalg.norm(d, axis=1)
        stiffness = mat.young_modulus / lengths
        mass = 0.5 * mat.density * lengths
    bad = np.flatnonzero(~((lengths > 0) & (lengths < np.inf)))
    if bad.size:
        raise InvalidBar(f"bar {bad[0]} has length {lengths[bad[0]]}, not "
                         "finite and positive")
    bad = np.flatnonzero(~np.isfinite(stiffness) | ~np.isfinite(
        mass if problem == EIGENFREQUENCY else 0.0))  # robust: no M
    if bad.size:
        raise InvalidMatrix(f"bar {bad[0]} (length {lengths[bad[0]]}) "
                            "overflows its stiffness or mass")
    if problem not in (ROBUST_COMPLIANCE, EIGENFREQUENCY):
        raise ValueError(f"unknown problem kind {problem!r}")
    if load_dims not in (1, 2):
        raise ValueError("load_dims must be 1 or 2")
    free = gs.free_dofs
    if not free:
        raise NoFreeDofs("every DOF is restrained")
    n = len(free)
    # global DOF -> free DOF index, -1 on restrained DOFs
    dof_index = np.full(2 * n_nodes, -1)
    dof_index[free] = np.arange(n)

    load = dof_index[2 * load_node:2 * load_node + 2]
    if not 0 <= load_node < n_nodes or np.any(load[:load_dims] < 0):
        raise InvalidLoadNode(
            f"node {load_node} must be free in the first {load_dims} direction(s)")
    load = load[load >= 0]

    unit = d / lengths[:, None]
    # per bar: free DOFs among (2a, 2a+1, 2b, 2b+1) and their entries of g_j
    dofs = dof_index[(2 * gs.bars[:, :, None] + np.arange(2)).reshape(m, 4)]
    bar, slot = np.nonzero(dofs >= 0)
    col = dofs[bar, slot]
    g = np.zeros((m, n))
    g[bar, col] = np.hstack((-unit, unit))[bar, slot]
    q = np.zeros((n, load_dims))
    q[load[:load_dims], np.arange(load_dims)] = load_scale
    k = AffinePencil.rank_one(np.zeros((n, n)), g, stiffness)

    m_pencil = None
    if problem == EIGENFREQUENCY:
        masses = np.zeros((m, n))
        masses[bar, col] = mass[bar]
        m0 = np.zeros((n, n))
        m0[load, load] = nonstructural_mass
        m_pencil = AffinePencil.diagonal(m0, masses)
    return PencilModel(k_pencil=k, m_pencil=m_pencil, volumes=lengths,
                       q_matrix=q, load_node=load_node)
