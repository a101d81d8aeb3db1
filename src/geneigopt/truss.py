"""2D truss ground structures and their stiffness/mass pencils.

Nodes live on a rectangular grid; every node pair is a candidate bar except
pairs whose open segment passes through a third grid node (overlapping bars
are eliminated).  Element stiffness matrices are the classic rank-one
(E / L) g g' truss elements; element mass matrices are lumped (diagonal),
half the bar mass at each endpoint.  Supports may restrain individual
directions of a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLoadNode, NoFreeDofs
from .geneig import AffinePencil

#: Relative collinearity tolerance for overlap elimination.
OVERLAP_TOL = 1e-9


@dataclass(frozen=True)
class GroundStructure:
    """Node grid, overlap-free bar set and support information.

    ``fixed_dofs`` indexes global DOFs (2 * node + direction, direction 0
    for x and 1 for y).
    """

    nodes: np.ndarray          # (N, 2) coordinates in meters
    bars: np.ndarray           # (M, 2) node index pairs, a < b
    fixed_dofs: frozenset[int]
    spacing: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_bars(self) -> int:
        return self.bars.shape[0]

    @property
    def free_dofs(self) -> list[int]:
        return [d for d in range(2 * self.n_nodes) if d not in self.fixed_dofs]

    def bar_length(self, j: int) -> float:
        a, b = self.bars[j]
        return float(np.linalg.norm(self.nodes[b] - self.nodes[a]))


@dataclass(frozen=True)
class Material:
    """Isotropic bar material: Young's modulus (Pa) and density (kg/m^3)."""

    young_modulus: float = 1.0
    density: float = 0.0

    def __post_init__(self):
        if self.young_modulus <= 0:
            raise ValueError("Young's modulus must be positive")
        if self.density < 0:
            raise ValueError("density must be nonnegative")


@dataclass(frozen=True)
class TrussModel:
    """Assembled pencils and data of a truss design problem.

    ``k_pencil`` has zero constant term; ``m_pencil``'s constant term is the
    non-structural mass matrix M0.  ``volumes`` maps cross-sectional areas
    to member volumes (bar lengths, m^3 per unit area).
    """

    structure: GroundStructure
    material: Material
    k_pencil: AffinePencil
    m_pencil: AffinePencil
    volumes: np.ndarray
    q_matrix: np.ndarray
    nonstructural_mass: float
    load_node: int
    free_dof_map: dict[int, int] = field(repr=False)

    @property
    def n(self) -> int:
        return self.k_pencil.dim

    @property
    def m(self) -> int:
        return self.k_pencil.nvars


def _segment_contains_interior_point(p0, p1, q, tol):
    """True when q lies strictly inside segment p0-p1 (within tol of it)."""
    d = p1 - p0
    length = np.linalg.norm(d)
    t = float(np.dot(q - p0, d)) / (length * length)
    if t <= 0.0 or t >= 1.0:
        return False
    dist = np.linalg.norm(q - (p0 + t * d))
    return dist < tol


def eliminate_overlaps(nodes: np.ndarray, bars: np.ndarray,
                       spacing: float) -> np.ndarray:
    """Drop bars whose open segment passes through another node."""
    tol = OVERLAP_TOL * spacing
    keep = []
    for a, b in bars:
        p0, p1 = nodes[a], nodes[b]
        blocked = False
        for c in range(nodes.shape[0]):
            if c == a or c == b:
                continue
            if _segment_contains_interior_point(p0, p1, nodes[c], tol):
                blocked = True
                break
        if not blocked:
            keep.append((a, b))
    return np.array(keep, dtype=int).reshape(-1, 2)


def grid_node_index(nx: int, ix: int, iy: int) -> int:
    """Node numbering: x-fastest, row by row from the bottom."""
    return iy * nx + ix


def generate_ground_structure(nx: int, ny: int, spacing: float,
                              fixed_nodes=None) -> GroundStructure:
    """Full nx-by-ny grid ground structure with overlapping bars eliminated.

    ``fixed_nodes`` is a predicate ``(ix, iy) -> str`` returning which
    directions of the node are restrained: "" (free), "x", "y", or "xy".
    """
    if nx < 1 or ny < 1 or nx * ny < 2:
        raise ValueError("grid must contain at least two nodes")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    nodes = np.array([[ix * spacing, iy * spacing]
                      for iy in range(ny) for ix in range(nx)], dtype=float)
    n_nodes = nodes.shape[0]
    pairs = np.array([(a, b) for a in range(n_nodes)
                      for b in range(a + 1, n_nodes)], dtype=int)
    bars = eliminate_overlaps(nodes, pairs, spacing)

    fixed = set()
    if fixed_nodes is not None:
        for iy in range(ny):
            for ix in range(nx):
                dirs = fixed_nodes(ix, iy) or ""
                node = grid_node_index(nx, ix, iy)
                if "x" in dirs:
                    fixed.add(2 * node)
                if "y" in dirs:
                    fixed.add(2 * node + 1)
    if len(fixed) >= 2 * n_nodes:
        raise NoFreeDofs("every DOF is restrained")
    return GroundStructure(nodes=nodes, bars=bars,
                           fixed_dofs=frozenset(fixed), spacing=spacing)


def build_model(gs: GroundStructure, mat: Material, load_node: int,
                load_scale: float = 1.0, nonstructural_mass: float = 0.0,
                load_dims: int = 2) -> TrussModel:
    """Assemble element pencils, volume vector and the load weight matrix.

    The load weight matrix Q gets ``load_dims`` unit columns (scaled by
    ``load_scale``) on the load node's DOFs; the non-structural mass sits on
    the same node's free DOFs.
    """
    if load_dims not in (1, 2):
        raise ValueError("load_dims must be 1 or 2")
    free = gs.free_dofs
    if not free:
        raise NoFreeDofs("every DOF is restrained")
    dof_map = {g: i for i, g in enumerate(free)}
    n = len(free)

    load_dofs = [2 * load_node + d for d in range(load_dims)]
    if any(d not in dof_map for d in load_dofs):
        raise InvalidLoadNode(
            f"node {load_node} must be free in the first {load_dims} direction(s)")

    m = gs.n_bars
    k_coeffs = np.zeros((m, n, n))
    m_coeffs = np.zeros((m, n, n))
    lengths = np.zeros(m)
    for j, (a, b) in enumerate(gs.bars):
        d = gs.nodes[b] - gs.nodes[a]
        length = float(np.linalg.norm(d))
        lengths[j] = length
        c, s = d / length
        g = np.zeros(n)
        for node, sign in ((a, -1.0), (b, 1.0)):
            for direction, cos in ((0, c), (1, s)):
                gdof = 2 * node + direction
                if gdof in dof_map:
                    g[dof_map[gdof]] = sign * cos
        k_coeffs[j] = (mat.young_modulus / length) * np.outer(g, g)
        half_mass = 0.5 * mat.density * length
        for node in (a, b):
            for direction in (0, 1):
                gdof = 2 * node + direction
                if gdof in dof_map:
                    m_coeffs[j, dof_map[gdof], dof_map[gdof]] += half_mass

    m0 = np.zeros((n, n))
    for d in (2 * load_node, 2 * load_node + 1):
        if d in dof_map:
            m0[dof_map[d], dof_map[d]] = nonstructural_mass

    q = np.zeros((n, load_dims))
    for col, d in enumerate(load_dofs):
        q[dof_map[d], col] = load_scale

    return TrussModel(
        structure=gs,
        material=mat,
        k_pencil=AffinePencil(np.zeros((n, n)), k_coeffs),
        m_pencil=AffinePencil(m0, m_coeffs),
        volumes=lengths,
        q_matrix=q,
        nonstructural_mass=nonstructural_mass,
        load_node=load_node,
        free_dof_map=dof_map,
    )


def uniform_feasible_design(model, v0: float) -> np.ndarray:
    """Uniform cross-sectional areas using the whole volume budget."""
    if v0 <= 0:
        raise ValueError("volume budget must be positive")
    total = float(np.sum(model.volumes))
    return np.full(len(model.volumes), v0 / total)
