"""Tests for ground-structure generation and pencil assembly."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from geneigopt import cli, truss
from geneigopt.errors import (
    InvalidBar,
    InvalidLoadNode,
    InvalidMatrix,
    NoFreeDofs,
)
from geneigopt.geneig import AffinePencil
from geneigopt.problems import EIGENFREQUENCY, ROBUST_COMPLIANCE
from geneigopt.truss import (
    GroundStructure,
    Material,
    build_model,
    generate_ground_structure,
    grid_node_index,
)
from oracles import dense_pencil, dense_stack, eigenfrequency_model


REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "examples-configs").glob("*.json")) + \
    sorted((REPO / "bench" / "configs").glob("*.json"))


def count_bars_by_enumeration(nodes, tol=1e-9):
    """Brute-force oracle: all pairs (a < b) whose open segment avoids the
    other nodes, within ``tol`` of the segment."""
    n = nodes.shape[0]
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            p0, d = nodes[a], nodes[b] - nodes[a]
            others = np.delete(nodes, [a, b], axis=0)
            t = (others - p0) @ d / float(d @ d)
            dist = np.linalg.norm(others - (p0 + t[:, None] * d), axis=1)
            if not np.any((0 < t) & (t < 1) & (dist < tol)):
                pairs.append((a, b))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def node_dofs(nx, cells, dirs=(0, 1)):
    """Global DOFs 2 * node + d of the grid nodes at the (ix, iy) cells."""
    return frozenset(2 * grid_node_index(nx, ix, iy) + d
                     for ix, iy in cells for d in dirs)


def loop_build_model(gs, mat, load_node, load_scale=1.0,
                     nonstructural_mass=0.0, load_dims=2):
    """Oracle: per-bar, per-DOF loop assembly through a DOF dict; returns
    the symmetrized K and M stacks, volumes, M0 and Q."""
    free = gs.free_dofs
    dof_map = {g: i for i, g in enumerate(free)}
    n = len(free)
    load_dofs = [2 * load_node + d for d in range(load_dims)]
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
    sym = [np.stack([0.5 * (c + c.T) for c in stack])
           for stack in (k_coeffs, m_coeffs)]
    return {"K": sym[0], "M": sym[1], "volumes": lengths, "M0": m0, "Q": q}


def with_mass(cfg, model):
    """A config's model; a robust one carries no M, so it gets the M of
    the eigenfrequency model of its geometry, material and load."""
    assert (model.m_pencil is None) == (cfg["problem"] == ROBUST_COMPLIANCE)
    if model.m_pencil is not None:
        return model
    return replace(model, m_pencil=eigenfrequency_model(cfg).m_pencil)


def model_arrays(model):
    return {"K": dense_stack(model.k_pencil), "M": dense_stack(model.m_pencil),
            "volumes": model.volumes, "M0": model.m_pencil.constant,
            "Q": model.q_matrix}


def test_grid_sizes():
    assert generate_ground_structure(2, 2, 1.0).n_bars == 6
    assert generate_ground_structure(3, 1, 1.0).n_bars == 2
    gs = generate_ground_structure(3, 3, 1.0)
    assert gs.n_bars == 28
    assert np.array_equal(gs.bars, count_bars_by_enumeration(gs.nodes))
    with pytest.raises(ValueError, match="at least two nodes"):
        generate_ground_structure(1, 1, 1.0)


def test_grid_node_numbering():
    gs = generate_ground_structure(3, 2, 2.0)
    assert np.allclose(gs.nodes[grid_node_index(3, 2, 1)], [4.0, 2.0])
    assert np.allclose(gs.nodes[0], [0.0, 0.0])


@pytest.mark.parametrize("spacing", [1.0, 0.7, 2.5])
def test_gcd_rule_matches_enumeration(spacing):
    for nx in range(1, 10):
        for ny in range(1, 6):
            if nx * ny < 2:
                continue
            gs = generate_ground_structure(nx, ny, spacing)
            expected = np.array([[ix * spacing, iy * spacing]
                                 for iy in range(ny) for ix in range(nx)])
            assert np.array_equal(gs.nodes, expected)
            assert np.array_equal(
                gs.bars, count_bars_by_enumeration(gs.nodes, 1e-9 * spacing)), \
                (nx, ny)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_assembly_bit_identical_to_loop_oracle(path):
    cfg = cli.load_config(str(path))
    gs, model = cli.build_from_config(cfg)
    if "grid" in cfg:
        assert np.array_equal(gs.bars, count_bars_by_enumeration(gs.nodes))
    else:
        assert np.array_equal(gs.nodes, cfg["nodes"])
        assert np.array_equal(gs.bars, cfg["bars"])
    expected = loop_build_model(
        gs, Material(**cfg.get("material", {})), model.load_node,
        cfg.get("load_scale", 1.0), cfg.get("nonstructural_mass", 0.0),
        cfg.get("load_dims", 2))
    got = model_arrays(with_mass(cfg, model))
    for key, want in expected.items():
        assert got[key].dtype == want.dtype and np.array_equal(got[key], want), key


def build_with_factors(monkeypatch, build):
    """Run ``build`` with ``AffinePencil.rank_one`` and ``diagonal`` spied
    on; returns the model and the arguments each constructor was given."""
    args = {}
    for name in ("rank_one", "diagonal"):
        def spy(*a, _name=name, _real=getattr(AffinePencil, name)):
            args[_name] = a
            return _real(*a)
        monkeypatch.setattr(AffinePencil, name, staticmethod(spy))
    return build(), args


def assert_reads_equal(pencil, dense, designs):
    """``pencil(x)``, ``quad(v)`` and ``quad(V)``, what the solvers read of
    a pencil, are ``dense``'s bytes at ``designs`` random designs x (some
    areas exactly zero), vectors v and 2-column blocks V."""
    rng, m = np.random.default_rng(0), pencil.nvars
    for _ in range(designs):
        x = rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8)
        v = rng.standard_normal(pencil.dim)
        z = rng.standard_normal((pencil.dim, 2))
        for read in (lambda p: p(x), lambda p: p.quad(v), lambda p: p.quad(z)):
            assert read(pencil).tobytes() == read(dense).tobytes()


def assert_equals_dense(pencil, constant, coefficient, m, chunk=128,
                        designs=0):
    """``pencil`` equals the oracle ``dense_pencil(constant, [coefficient(j)
    for j < m])``, built a chunk at a time to bound an 11x6 grid's memory.
    With ``designs``, the whole dense pencil is built, read against
    ``pencil`` by ``assert_reads_equal`` and returned."""
    assert pencil.nvars == m
    assert pencil.blocks.dtype == float
    # support and blocks, read off the factors, are C_j's nonzero rows in
    # ascending order, padded with rows outside them, and the stack's bits
    stack, support = dense_stack(pencil), pencil.support
    for j, c in enumerate(stack):
        rows = np.flatnonzero(c.any(axis=1))
        assert np.array_equal(support[j, :len(rows)], rows)
        assert not np.isin(support[j, len(rows):], rows).any()
    for lo in range(0, m, chunk):
        js = range(lo, min(lo + chunk, m))
        dense = dense_pencil(constant, [coefficient(j) for j in js])
        assert np.array_equal(pencil.constant, dense.constant)
        assert np.array_equal(stack[js.start:js.stop], dense_stack(dense))
        # the oracle reads the same support off the stack, and gathers the
        # blocks' bits from it
        assert np.array_equal(support[js.start:js.stop], dense.support)
        assert pencil.blocks[js.start:js.stop].tobytes() == \
            dense.blocks.tobytes()
    if designs:
        dense = dense_pencil(constant, [coefficient(j) for j in range(m)])
        assert_reads_equal(pencil, dense, designs)
        return dense


def assert_structured_equals_dense(model, args, designs=0):
    """Each truss pencil equals the oracle ``dense_pencil`` of the
    factors ``build_with_factors`` saw, w_j * outer(g_j, g_j) and
    diag(d_j); with ``designs``, returns the dense (K, M) read against
    them."""
    k0, g, w = args["rank_one"]
    m0, d = args["diagonal"]
    return (assert_equals_dense(model.k_pencil, k0,
                                lambda j: np.outer(g[j], g[j]) * w[j],
                                model.m, designs=designs),
            assert_equals_dense(model.m_pencil, m0, lambda j: np.diag(d[j]),
                                model.m, designs=designs))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_pencils_equal_the_dense_constructor(monkeypatch, path):
    cfg = cli.load_config(str(path))
    # a robust model's M is its eigenfrequency twin's, whose build the
    # spies see too (its K factors are the same bits)
    model, args = build_with_factors(
        monkeypatch, lambda: with_mass(cfg, cli.build_from_config(cfg)[1]))
    dense_k, dense_m = assert_structured_equals_dense(model, args, designs=20)
    if cfg["problem"] == EIGENFREQUENCY:
        # bisection's level pencil M(x) - alpha (K(x) + eps I) near the
        # optimum: its blocks are a - alpha * b of the two on the union of
        # their supports, the dense oracle's stack difference
        alpha, eps = 2277.0, cfg.get("eps", 1e-6)
        level = model.m_pencil.level(model.k_pencil, alpha, eps)
        want = dense_m.level(dense_k, alpha, eps)
        assert np.array_equal(dense_stack(level), dense_stack(dense_m)
                              - alpha * dense_stack(dense_k))
        assert np.array_equal(level.support, want.support)
        assert_reads_equal(level, want, 20)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (7, 4), (9, 5), (11, 6)])
def test_grid_pencils_equal_the_dense_constructor(monkeypatch, nx, ny):
    gs = generate_ground_structure(nx, ny, 0.7,
                                   node_dofs(nx, [(0, 0), (0, ny - 1)]))
    assert_structured_equals_dense(*build_with_factors(
        monkeypatch, lambda: build_model(
            gs, Material(2.5, 1.5), grid_node_index(nx, nx - 1, 0),
            nonstructural_mass=0.25)))


def test_robust_model_builds_no_mass_stack():
    # robust compliance reads K and Q only: the mass pencil is never built
    # for it, and K keeps its blocks, so set-up peaks far below one
    # (m, n, n) stack (4.6 MB at 7x4)
    cfg = cli.load_config(str(REPO / "bench" / "configs"
                              / "robust_7x4_subgrad.json"))
    tracemalloc.start()
    try:
        _, model = cli.build_from_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.m_pencil is None and model.q_matrix is not None
    assert peak <= model.m * model.n ** 2 * 8 / 4
    # with_mass checks every config: M exactly when the problem reads it
    gs = generate_ground_structure(2, 1, 1.0, node_dofs(2, [(0, 0)]))
    with pytest.raises(ValueError, match="unknown problem kind"):
        build_model(gs, Material(), load_node=1, problem="modal")


@pytest.mark.parametrize("stem", ["robust_7x4_subgrad", "eigfreq_5x3_bisect"])
def test_benchmark_pencils_evaluate_as_the_stack_gemv(monkeypatch, stem):
    # the pinned benchmark answers rest on these bits: n*n is a multiple of
    # 4 on both (48 and 24 free DOFs), so pencil(x) has the bytes of the
    # dense oracle stack's tensordot, at designs with exact zeros too
    cfg = cli.load_config(str(REPO / "bench" / "configs" / f"{stem}.json"))
    model, args = build_with_factors(
        monkeypatch, lambda: cli.build_from_config(cfg)[1])
    k0, g, w = args["rank_one"]
    pairs = [(model.k_pencil, dense_pencil(
        k0, [np.outer(gj, gj) * wj for gj, wj in zip(g, w)]))]
    if model.m_pencil is not None:
        m0, d = args["diagonal"]
        pairs.append((model.m_pencil,
                      dense_pencil(m0, [np.diag(dj) for dj in d])))
    assert len(pairs) == 1 + (cfg["problem"] == EIGENFREQUENCY)
    rng = np.random.default_rng(3)
    for pencil, dense in pairs:
        assert pencil.dim ** 2 % 4 == 0
        stack = dense_stack(dense)
        for _ in range(200):
            x = rng.uniform(0.0, 2.0, model.m) * (rng.random(model.m) < 0.8)
            want = dense.constant + np.tensordot(x, stack, axes=1)
            assert pencil(x).tobytes() == want.tobytes()


def test_truss_pencils_build_no_coefficient_stack(monkeypatch):
    # at 9x5 (m = 632, n = 80) one (m, n, n) stack is 32 MB: building the
    # model and reading every pencil path stays below an eighth of it
    gs = generate_ground_structure(9, 5, 0.7,
                                   node_dofs(9, [(0, iy) for iy in range(5)]))
    tracemalloc.start()
    try:
        model = build_model(gs, Material(2.5, 1.5), grid_node_index(9, 8, 0),
                            nonstructural_mass=0.25)
        k, m = model.k_pencil, model.m_pencil
        x, v = np.full(model.m, 0.5), np.linspace(-1.0, 1.0, model.n)
        for pencil in (k, m, m.level(k, 2.5, 1e-3)):
            pencil(x), pencil.quad(v), pencil.quad(np.stack((v, v[::-1]), 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = model.m * model.n ** 2 * 8
    assert (model.m, model.n) == (632, 80) and peak < stack / 8
    # an 11x6 eigenfrequency model (two 157 MB stacks before) holds at most
    # 8 MB of arrays, as the benchmark's truss.model_mb counts them
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import workloads

    gs = generate_ground_structure(11, 6, 0.7,
                                   node_dofs(11, [(0, iy) for iy in range(6)]))
    model = build_model(gs, Material(2.5, 1.5), grid_node_index(11, 10, 0),
                        nonstructural_mass=0.25)
    assert (model.m, model.n) == (1361, 120)
    assert workloads.array_nbytes(model) <= 8e6


def test_build_model_runs_no_eigensolver(monkeypatch):
    # rank-one and diagonal coefficients are PSD by construction: set-up
    # checks their factors, with no batched eigvalsh on the stacks
    calls = []
    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                        (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
        def counting(*a, _name=f"{owner.__name__}.{name}",
                     _real=getattr(owner, name), **kw):
            calls.append(_name)
            return _real(*a, **kw)
        monkeypatch.setattr(owner, name, counting)
    for path in CONFIGS:
        cli.build_from_config(cli.load_config(str(path)))
    gs = generate_ground_structure(7, 4, 1.0, node_dofs(7, [(0, 0), (0, 3)]))
    build_model(gs, Material(1.0, 1.0), grid_node_index(7, 6, 0))
    assert calls == []


def test_assembly_matches_loop_oracle_on_irregular_geometry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_nodes = int(rng.integers(3, 12))
        nodes = rng.uniform(-3.0, 3.0, (n_nodes, 2))
        pairs = np.array([(a, b) for a in range(n_nodes)
                          for b in range(a + 1, n_nodes)])
        bars = pairs[rng.random(len(pairs)) < 0.6]
        load_node = int(rng.integers(n_nodes))
        fixed = {d for d in range(2 * n_nodes)
                 if d // 2 != load_node and rng.random() < 0.3}
        gs = GroundStructure(nodes=nodes, bars=bars,
                             fixed_dofs=frozenset(fixed))
        mat = Material(rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0))
        args = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0),
                int(rng.integers(1, 3)))
        got = model_arrays(build_model(gs, mat, load_node, *args))
        expected = loop_build_model(gs, mat, load_node, *args)
        for key, want in expected.items():
            err = np.max(np.abs(got[key] - want), initial=0.0)
            assert err <= 1e-15 * np.max(np.abs(want), initial=0.0), key


def test_fixed_nodes_and_no_free_dofs():
    gs = generate_ground_structure(
        2, 2, 1.0, node_dofs(2, [(0, 0), (0, 1)])
        | node_dofs(2, [(1, 0), (1, 1)], dirs=(1,)))
    # left column fully fixed, right column vertically fixed
    assert len(gs.fixed_dofs) == 6
    assert gs.free_dofs == [2 * grid_node_index(2, 1, 0),
                            2 * grid_node_index(2, 1, 1)]
    gs = generate_ground_structure(2, 1, 1.0, node_dofs(2, [(0, 0), (1, 0)]))
    with pytest.raises(NoFreeDofs):
        build_model(gs, Material(), load_node=1)


def test_material_validation():
    with pytest.raises(ValueError):
        Material(young_modulus=0.0)
    with pytest.raises(ValueError):
        Material(density=-1.0)
    # positive (density: nonnegative) and finite, and a NaN fails the check
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Material(young_modulus=bad)
        with pytest.raises(ValueError):
            Material(density=bad)


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
def test_spacing_must_be_positive_and_finite(spacing):
    with pytest.raises(ValueError, match="spacing"):
        generate_ground_structure(2, 2, spacing)


def single_bar_structure():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    bars = np.array([[0, 1]])
    return GroundStructure(nodes=nodes, bars=bars, fixed_dofs=frozenset())


def structure(nodes, bars=((0, 1),), fixed_dofs=frozenset()):
    return GroundStructure(nodes=np.asarray(nodes, dtype=float),
                           bars=np.asarray(bars, dtype=int),
                           fixed_dofs=frozenset(fixed_dofs))


@pytest.mark.parametrize("gs, problem, message", [
    (structure([[0.0, 0.0], [1.0, 0.0]], [[0, 5]]), EIGENFREQUENCY,
     "bar 0 has a node outside 0..1"),
    (structure([[0.0, 0.0], [1.0, 0.0]], [[0, 1], [-1, 0]]), EIGENFREQUENCY,
     "bar 1 has a node outside 0..1"),
    (structure([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0, 1], [2, 0]]),
     EIGENFREQUENCY, "bar 1 has length 0.0, not finite and positive"),
    (structure([[-1e300, 0.0], [1e300, 0.0]]), ROBUST_COMPLIANCE,
     "bar 0 has length inf, not finite and positive"),
    (structure([[0.0, 0.0], [1.0, 0.0]], np.zeros((0, 2))), EIGENFREQUENCY,
     "needs at least one bar"),
    # a config's "bars": [] reads as shape (0,); the bar checks come first
    (structure([[0.0, 0.0], [1.0, 0.0]], [], range(4)), ROBUST_COMPLIANCE,
     "needs at least one bar"),
], ids=["missing-node", "negative-node", "coincident-nodes",
        "overflowing-length", "no-bars", "no-bars-no-free-dofs"])
def test_build_model_rejects_a_bad_bar(gs, problem, message):
    # no IndexError, no numpy warning, no model that a solve divides by
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidBar) as info:
            build_model(gs, Material(), load_node=1, problem=problem)
    assert str(info.value) == message


def test_build_model_rejects_an_overflowing_bar_constant():
    # E/L of a 1e-150 bar overflows; so does the eigenfrequency model's
    # 0.5 * rho * L at rho = 1e308, but a robust model builds no M, so
    # its K and volumes are the ones of a massless material
    tiny, bar = structure([[0.0, 0.0], [1e-150, 0.0]]), structure(
        [[0.0, 0.0], [4.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for problem in (ROBUST_COMPLIANCE, EIGENFREQUENCY):
            with pytest.raises(InvalidMatrix) as info:
                build_model(tiny, Material(young_modulus=1e200), 1,
                            problem=problem)
            assert str(info.value) == \
                "bar 0 (length 1e-150) overflows its stiffness or mass"
        with pytest.raises(InvalidMatrix, match=r"^bar 0 \(length 4\.0\) "):
            build_model(bar, Material(density=1e308), 1)
        heavy, light = (build_model(bar, Material(density=rho), 1,
                                    problem=ROBUST_COMPLIANCE)
                        for rho in (1e308, 0.0))
    assert heavy.m_pencil is None
    assert heavy.k_pencil.blocks.tobytes() == light.k_pencil.blocks.tobytes()
    assert heavy.volumes.tolist() == [4.0]


def test_single_bar_stiffness_rank_one():
    gs = single_bar_structure()
    model = build_model(gs, Material(1.0, 0.0), load_node=1)
    g = np.array([-1.0, 0.0, 1.0, 0.0])
    assert np.allclose(dense_stack(model.k_pencil)[0], np.outer(g, g))
    assert model.m == 1 and model.n == 4
    assert np.allclose(model.volumes, [1.0])


def test_stiffness_scales_with_modulus_and_length():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0]])
    gs = GroundStructure(nodes=nodes, bars=np.array([[0, 1]]),
                         fixed_dofs=frozenset({0, 1}))
    model = build_model(gs, Material(young_modulus=3.0), load_node=1)
    # E/L = 1.5 on the free DOFs of node 1
    assert np.allclose(dense_stack(model.k_pencil)[0],
                       [[1.5, 0.0], [0.0, 0.0]])
    assert np.allclose(model.volumes, [2.0])


def test_lumped_mass_assembly():
    gs = single_bar_structure()
    model = build_model(gs, Material(1.0, density=2.0), load_node=1,
                        nonstructural_mass=5.0)
    # half the bar mass (rho * L / 2 = 1) on every DOF of both endpoints
    assert np.allclose(dense_stack(model.m_pencil)[0], np.eye(4))
    # nonstructural mass only on the load node's DOFs
    m0 = np.zeros((4, 4))
    m0[2, 2] = m0[3, 3] = 5.0
    assert np.allclose(model.m_pencil.constant, m0)


def test_volume_sum_2x2():
    gs = generate_ground_structure(2, 2, 1.0)
    a = 0.3
    model = build_model(gs, Material(), load_node=0)
    # volumes per unit area are the bar lengths: four sides, two diagonals
    assert np.allclose(np.sort(model.volumes), [1.0] * 4 + [np.sqrt(2.0)] * 2,
                       rtol=0.0, atol=1e-15)
    assert abs(float(model.volumes @ np.full(gs.n_bars, a))
               - a * (4.0 + 2.0 * np.sqrt(2.0))) < 1e-12


def test_load_matrix_columns():
    gs = generate_ground_structure(2, 2, 1.0, node_dofs(2, [(0, 0), (1, 0)]))
    load = grid_node_index(2, 1, 1)
    model = build_model(gs, Material(), load, load_scale=2.5, load_dims=2)
    q = model.q_matrix
    assert q.shape == (model.n, 2)
    cols = np.nonzero(q)[0]
    assert len(cols) == 2
    assert np.allclose(q[q != 0], 2.5)
    with pytest.raises(ValueError, match="load_dims must be 1 or 2"):
        build_model(gs, Material(), load, load_dims=3)


def test_load_on_fixed_node_rejected():
    gs = generate_ground_structure(2, 2, 1.0, node_dofs(2, [(0, 0), (1, 0)]))
    with pytest.raises(InvalidLoadNode):
        build_model(gs, Material(), load_node=0)


def test_assembled_pencils_are_psd():
    gs = generate_ground_structure(3, 2, 1.0, node_dofs(3, [(0, 0), (0, 1)]))
    model = build_model(gs, Material(1.0, 1.0), grid_node_index(3, 2, 1),
                        nonstructural_mass=1.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, model.m)
        assert np.linalg.eigvalsh(model.k_pencil(x))[0] >= -1e-10
        assert np.linalg.eigvalsh(model.m_pencil(x))[0] >= -1e-10


def test_full_design_kernel_inclusion():
    # with all bars present, any zero-stiffness direction carries no mass
    gs = generate_ground_structure(3, 2, 1.0, node_dofs(3, [(0, 0), (0, 1)]))
    model = build_model(gs, Material(1.0, 1.0), grid_node_index(3, 2, 1))
    x = np.full(model.m, 0.5)
    k = model.k_pencil(x)
    m = model.m_pencil(x)
    w, v = np.linalg.eigh(k)
    null = v[:, w < 1e-10]
    if null.shape[1]:
        assert np.max(np.abs(m @ null)) < 1e-10


def test_mirror_symmetry_of_assembly():
    # a left-right symmetric structure yields a permutation-equivalent model
    gs = generate_ground_structure(3, 1, 1.0)
    model = build_model(gs, Material(1.0, 1.0), load_node=1)
    # bars are (0,1) and (1,2); swapping them mirrors the structure
    k0, k1 = dense_stack(model.k_pencil)
    # the node relabeling 0 <-> 2 mirrors the structure; the rank-one
    # stiffness is insensitive to the sign flip of the direction vector
    perm = [4, 5, 2, 3, 0, 1]
    p = np.zeros((6, 6))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
    assert np.allclose(p @ k0 @ p.T, k1)
