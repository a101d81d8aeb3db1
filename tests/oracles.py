"""Independent routes that the tests compare the library against.

None of these is on a production path: each recomputes a library quantity
another way, or as an earlier version of the library computed it.
``dense_pencil`` builds a pencil from a whole coefficient stack, the
oracle that the factor constructors ``AffinePencil.rank_one`` and
``diagonal`` are tested against.
``eigenfrequency_model`` gives the tests the mass pencil that a robust
config's own model does not carry.
"""

import math

import numpy as np

from geneigopt import cli, geneig, symmat, truss
from geneigopt.errors import InvalidMatrix, NotPositiveSemidefinite
from geneigopt.geneig import AffinePencil
from geneigopt.problems import EIGENFREQUENCY, VOLUME_LE


def eigenfrequency_model(cfg):
    """``truss.build_model(..., problem=EIGENFREQUENCY)`` on a config's
    geometry, material and load: every field, M too, whatever the config's
    problem."""
    gs, model = cli.build_from_config(cfg)
    return truss.build_model(
        gs, truss.Material(**cfg.get("material", {})), model.load_node,
        cfg.get("load_scale", 1.0), cfg.get("nonstructural_mass", 0.0),
        cfg.get("load_dims", 2), problem=EIGENFREQUENCY)


def dense_pencil(constant, coefficients) -> AffinePencil:
    """The pencil A0 + sum_j x_j C_j of a dense ``(m, n, n)`` stack, as the
    library's dense constructor built it: each C_j halved, then
    symmetrized (raw + raw' may overflow), checked finite and PSD (one
    batched eigvalsh against -PSD_TOL * (1 + max|C_j|)), each error naming
    coefficient j, and the support read off the stack's nonzero rows."""
    pencil = AffinePencil(constant, len(coefficients))
    if len(coefficients):
        raw = np.asarray(coefficients, dtype=float)
        if raw.shape[1:] != pencil.constant.shape:
            raise ValueError("pencil matrices must share one dimension")
        half = 0.5 * raw
        coeffs = half + half.swapaxes(1, 2)
        top = np.maximum(coeffs.max(axis=(1, 2)), -coeffs.min(axis=(1, 2)))
        geneig._require_each(np.isfinite(top), InvalidMatrix,
                             "has non-finite entries")
        lam_min = np.linalg.eigvalsh(coeffs)[:, 0]
        geneig._require_each(lam_min >= -symmat.PSD_TOL * (1.0 + top),
                             NotPositiveSemidefinite, "is not PSD")
        pencil.support, index = geneig._support(coeffs.any(axis=2))
        pencil.coeffs, pencil.blocks = coeffs, coeffs[index]
    return pencil


def psi_via_linear_solve(model, x) -> float:
    """Independent route: lmax(Q'U) with K(x)U = Q, +inf when unsolvable.

    Membership in the solvable set is decided by Im Q being orthogonal to
    ker K(x).
    """
    q = model.q_matrix
    k = model.k_pencil(np.asarray(x, dtype=float))
    kernel = symmat.kernel_basis(k)
    if kernel.shape[1]:
        scale = symmat.KERNEL_TOL * (1.0 + float(np.max(np.abs(q))))
        if float(np.max(np.abs(kernel.T @ q))) > scale:
            return math.inf
    u, *_ = np.linalg.lstsq(k, q, rcond=None)
    s = q.T @ u
    return max(float(np.linalg.eigvalsh(0.5 * (s + s.T))[-1]), 0.0)


def project_feasible_reference(y, fs) -> np.ndarray:
    """``solvers.project_feasible`` as it was before its per-call overhead
    was trimmed, kept verbatim: the trimmed one must return its bits."""
    y = np.asarray(y, dtype=float)
    l = fs.l
    lb = fs.lower_bound
    clamped = np.maximum(y, lb)
    vol = float(l @ clamped)
    if fs.kind == VOLUME_LE and vol <= fs.v0:
        return clamped

    # With the k largest breakpoints free the volume meets V0 at taus[k-1];
    # the root is the first such tau at or above the next breakpoint.
    excess = y - lb
    breaks = excess / l
    order = breaks.argsort()[::-1]
    ls = l[order]
    taus = ((ls * excess[order]).cumsum() - (fs.v0 - lb * l.sum())) \
        / (ls * ls).cumsum()
    valid = taus[:-1] >= breaks[order[1:]]
    root = float(taus[valid.argmax() if valid.any() else -1])

    # Bracket tau to 1e-12 as a bisection would, with the root deciding each
    # step, and read the active set at the midpoint: the Polyak stops react
    # to the last bits of a bar whose breakpoint lies that close to the root.
    lo, hi = 0.0, 1.0
    while hi < abs(root):
        hi *= 2.0
    if vol < fs.v0:
        lo, hi = -hi, 0.0
    while hi - lo > 1e-12 * (1.0 + abs(hi) + abs(lo)):
        mid = 0.5 * (lo + hi)
        if mid < root:
            lo = mid
        else:
            hi = mid
    # Exact multiplier from the active set at the bracketed tau.
    tau = 0.5 * (lo + hi)
    free = y - tau * l > lb
    l_free = l[free]
    denom = float(l_free @ l_free)
    if denom > 0:
        fixed_vol = lb * float(l[~free].sum())
        tau = (float(l_free @ y[free]) - (fs.v0 - fixed_vol)) / denom
    return np.maximum(y - tau * l, lb)


def quad_row_major(pencil, v) -> np.ndarray:
    """v'C_j v per coefficient C_j in plain Python floats: the terms
    (v_a C_j[a, b]) v_b in row-major order, added one at a time from +0.0.
    Terms of zero entries are left out; each is a zero and adds nothing."""
    if pencil.coeffs is None:
        return np.zeros(pencil.nvars)
    v = [float(t) for t in v]
    out = []
    for c in pencil.coeffs:
        total = 0.0
        for a, b in zip(*np.nonzero(c)):
            total += (v[a] * float(c[a, b])) * v[b]
        out.append(total)
    return np.array(out)


def quad_einsum(pencil, v) -> np.ndarray:
    """v'C_j v per coefficient as the three-operand einsum that
    ``AffinePencil.quad`` ran before it summed each coefficient's block."""
    if pencil.coeffs is None:
        return np.zeros(pencil.nvars)
    return np.einsum("j,mjk,k->m", v, pencil.coeffs, v)


def einsum_sums_row_major() -> bool:
    """Whether this numpy's ``quad_einsum`` adds its terms as
    ``quad_row_major`` does for n*n up to 8192 (numpy 2.4 does).  An einsum
    that sums each row first, or in buffer-sized chunks, may not."""
    rng = np.random.default_rng(0)
    for n in (3, 24, 90):
        g = rng.standard_normal((4, n, n))
        stack = g @ g.swapaxes(1, 2)
        pencil = dense_pencil(np.zeros((n, n)), stack)
        v = rng.standard_normal(n)
        if quad_einsum(pencil, v).tobytes() != \
                quad_row_major(pencil, v).tobytes():
            return False
    return True
