import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from crackfind import fem, geometry, ndmap
from crackfind.fem import (
    Conductivity,
    Factorization,
    assemble_stiffness,
    build_dofmap,
    factorize,
    gamma_mass,
    gradient_on,
    solve_neumann,
    solve_source,
    trace_on_gamma,
)
from crackfind.geometry import (
    CONDUCTING,
    INSULATING,
    Mesh,
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
)
import oracles
from oracles import embed_field, energy, mean_free_basis, split_fans_scan


def square(n=8):
    return build_rect_mesh(1.0, 1.0, 1.0 / n)


def one(mesh):
    return Conductivity(mesh, 1.0)


def factor(dm):
    # the factorization of a dof map's unit-conductivity stiffness
    return Factorization(assemble_stiffness(dm.mesh, one(dm.mesh), dm), dm)


def cos_theta_current(mesh):
    order = mesh.gamma_vertices()
    p = mesh.vertices[order]
    f = np.cos(np.arctan2(p[:, 1], p[:, 0]))
    M = gamma_mass(mesh)
    w = M.sum(axis=1)
    return f - (w @ f) / w.sum()


# ------------------------------------------------------------------ #
# dof maps
# ------------------------------------------------------------------ #


def test_dofmap_plain():
    mesh = square(8)
    dm = build_dofmap(mesh)
    assert dm.n_dofs == len(mesh.vertices)


def test_dofmap_insulating_chain():
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm = oracles.build_dofmap(m2, cracks)
    k = len(cracks.components[0].chain) - 2
    assert k >= 1
    assert dm.n_dofs == len(m2.vertices) + k


def test_dofmap_conducting_chain():
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], CONDUCTING)
    dm = oracles.build_dofmap(m2, cracks)
    m = len(cracks.components[0].chain)
    assert dm.n_dofs == len(m2.vertices) - m + 1


def test_dofmap_excluded_and_frozen_counts():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    block = PixelSet.from_rect(grid, 3, 3, 4, 4)
    dm_ex = build_dofmap(mesh, excluded=block)
    # 4x4 cell block: 3x3 interior vertices disappear
    assert dm_ex.n_dofs == len(mesh.vertices) - 9
    dm_fr = oracles.build_dofmap(mesh, frozen=block)
    # 5x5 vertices collapse to one dof
    assert dm_fr.n_dofs == len(mesh.vertices) - 24


FROZEN_MESHES = {"rect": square(16), "disk": build_disk_mesh(1.0, 0.1)}


@pytest.mark.parametrize("shape", sorted(FROZEN_MESHES))
@settings(max_examples=30, deadline=None)
@given(rects=st.lists(st.tuples(*[st.integers(0, 7)] * 4), min_size=1, max_size=3))
def test_frozen_dofmap_ties_each_component_to_its_smallest_vertex(shape, rects):
    # the per-component rule: the vertices of each 4-connected component's
    # triangles (labelled by ndimage) share the dof of their smallest vertex
    mesh = FROZEN_MESHES[shape]
    grid = PixelGrid(mesh, 8, 8)
    members = set()
    for x0, x1, y0, y1 in rects:
        x0, x1, y0, y1 = min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)
        members |= PixelSet.from_rect(grid, x0, y0, x1, y1).members
    frozen = PixelSet(grid, members & geometry.interior_pixel_set(grid).members)
    assume(len(frozen) and geometry.pixelset_is_admissible(frozen))
    labels, n = ndimage.label(frozen.mask())
    root = np.arange(len(mesh.vertices))
    for k in range(1, n + 1):
        block = PixelSet(grid, np.flatnonzero(labels.ravel() == k))
        verts = np.unique(mesh.triangles[block.triangles()])
        root[verts] = verts[0]
    used = np.unique(root[mesh.triangles])
    dm = oracles.build_dofmap(mesh, frozen=frozen)
    assert dm.n_dofs == len(used)
    assert np.array_equal(dm.corner_dof, np.searchsorted(used, root[mesh.triangles]))


def test_dofmap_region_options_exclusive():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    block = PixelSet.from_rect(grid, 3, 3, 4, 4)
    with pytest.raises(ValueError):
        oracles.build_dofmap(mesh, excluded=block, frozen=block)


def test_no_frozen_dof_map_in_the_program():
    # a frozen region's matrices are updates of the background: the program
    # has no frozen dof map, only the test reference does
    mesh = square(16)
    block = PixelSet.from_rect(PixelGrid(mesh, 8, 8), 3, 3, 4, 4)
    with pytest.raises(TypeError, match="frozen"):
        build_dofmap(mesh, frozen=block)
    with pytest.raises(TypeError, match="frozen"):
        factorize(mesh, one(mesh), frozen=block)
    assert not hasattr(build_dofmap(mesh, excluded=block), "frozen")


def test_dofmap_crack_region_overlap_rejected():
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.375, 0.5), (0.625, 0.5)], INSULATING)
    grid = PixelGrid(m2, 8, 8)
    block = PixelSet.from_rect(grid, 2, 2, 5, 5)
    with pytest.raises(ValueError):
        oracles.build_dofmap(m2, cracks, excluded=block)
    with pytest.raises(ValueError):
        oracles.build_dofmap(m2, cracks, frozen=block)


def test_dofmap_inadmissible_region_rejected():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    with pytest.raises(ValueError):
        build_dofmap(mesh, excluded=PixelSet(grid, {grid.index(0, 0)}))


# ------------------------------------------------------------------ #
# slit fans
# ------------------------------------------------------------------ #

FAN_MESHES = {
    "rect": square(8),
    "disk": build_disk_mesh(1.0, 0.2),
    "embedded": embed_crack(square(16), [(0.25, 0.5), (0.6, 0.75)], INSULATING)[0],
}


def random_walk(mesh, rng, n_edges, blocked):
    """A simple chain of at most n_edges interior edges off ``blocked``; None if stuck."""
    bvs = set(np.flatnonzero(mesh.boundary_mask()).tolist())
    edges = mesh.edges()
    free = [v for v in range(len(mesh.vertices)) if v not in bvs and v not in blocked]
    if not free:
        return None
    chain = [int(rng.choice(free))]
    while len(chain) <= n_edges:
        a = chain[-1]
        nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
        nbrs = [w for w in nbrs.tolist() if w not in bvs and w not in blocked and w not in chain]
        if not nbrs:
            break
        chain.append(int(rng.choice(nbrs)))
    return tuple(chain) if len(chain) >= 2 else None


def random_insulating_set(mesh, rng):
    """One to three vertex-disjoint insulating chains of one to six edges."""
    comps, used = [], set()
    for _ in range(int(rng.integers(1, 4))):
        chain = random_walk(mesh, rng, int(rng.integers(1, 7)), used)
        if chain is not None:
            comps.append(geometry.CrackComponent(chain, INSULATING))
            used.update(chain)
    cracks = geometry.CrackSet(comps)
    cracks.validate(mesh)
    return cracks


def test_fan_walk_matches_the_corner_scan():
    # differential oracle: the walk through the vertex-corner table against
    # the scan of every triangle corner, on 300 random crack sets
    rng = np.random.default_rng(20)
    multi = 0
    for mesh in FAN_MESHES.values():
        for _ in range(100):
            cracks = random_insulating_set(mesh, rng)
            multi += len(cracks) > 1
            got, ref = fem.split_fans(mesh, cracks), split_fans_scan(mesh, cracks)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    assert multi >= 100


def test_fan_walk_splits_overlapping_chains_each_on_its_own():
    # a batch of test chains may share vertices and edges; each chain's far
    # sides come out as if it were split alone, its positions shifted by the
    # slit vertices of the chains before it
    rng = np.random.default_rng(21)
    for mesh in FAN_MESHES.values():
        chains = [random_walk(mesh, rng, int(rng.integers(1, 7)), ()) for _ in range(40)]
        comps = [geometry.CrackComponent(c, INSULATING) for c in chains if c is not None]
        corners, owner = fem.split_fans(mesh, geometry.CrackSet(comps))
        assert np.all(np.diff(corners) >= 0)
        first = 0
        for comp in comps:
            n = len(comp.chain) - 2
            mine = (owner >= first) & (owner < first + n)
            alone = split_fans_scan(mesh, geometry.CrackSet([comp]))
            assert np.array_equal(corners[mine], alone[0])
            assert np.array_equal(owner[mine] - first, alone[1])
            first += n
        assert len(corners) == sum(
            len(split_fans_scan(mesh, geometry.CrackSet([c]))[0]) for c in comps
        )


def test_vertex_corners_list_every_corner_once_by_vertex():
    mesh = FAN_MESHES["disk"]
    corners, start = mesh.vertex_corners()
    flat = mesh.triangles.reshape(-1)
    assert np.array_equal(np.sort(corners), np.arange(len(flat)))
    for v in range(len(mesh.vertices)):
        mine = corners[start[v]:start[v + 1]]
        assert np.array_equal(mine, np.flatnonzero(flat == v))
    assert not corners.flags.writeable and not start.flags.writeable
    assert mesh.vertex_corners()[0] is corners


# ------------------------------------------------------------------ #
# stiffness
# ------------------------------------------------------------------ #


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    be = np.array([[0, 1], [1, 2], [2, 0]])
    return Mesh(verts, tris, be, be)


def test_stiffness_reference_element():
    mesh = reference_triangle()
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected)
    assert np.allclose(K.sum(axis=1), 0.0)


def test_stiffness_linear_in_conductivity():
    mesh = square(8)
    dm = build_dofmap(mesh)
    K1 = assemble_stiffness(mesh, one(mesh), dm)
    K2 = assemble_stiffness(mesh, Conductivity(mesh, 2.0), dm)
    assert abs(K2 - 2.0 * K1).max() < 1e-14


def test_stiffness_constants_in_kernel():
    mesh = square(8)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.625, 0.5)], INSULATING)
    dm = oracles.build_dofmap(m2, cracks)
    K = assemble_stiffness(m2, one(m2), dm)
    assert np.max(np.abs(K @ np.ones(dm.n_dofs))) < 1e-13


def test_grounded_stiffness_positive_definite():
    # dense oracle on a mesh around 1k dofs
    mesh = square(24)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm = oracles.build_dofmap(m2, cracks)
    K = assemble_stiffness(m2, one(m2), dm).toarray()
    keep = np.ones(dm.n_dofs, dtype=bool)
    keep[dm.gamma_dofs[0]] = False
    w = scipy.linalg.eigvalsh(K[keep][:, keep])
    assert w[0] > 0


# ------------------------------------------------------------------ #
# Neumann solves
# ------------------------------------------------------------------ #


def test_solve_requires_mean_free():
    mesh = square(8)
    fact = factorize(mesh, one(mesh))
    with pytest.raises(ValueError):
        solve_neumann(fact, np.ones((len(fact.dm.gamma_order), 1)))


def test_currents_must_be_a_block():
    # one current is a (G, 1) block; a (G,) vector or a block on other
    # nodes is refused
    mesh = square(8)
    fact = factorize(mesh, one(mesh))
    f = cos_theta_current(mesh)
    assert solve_neumann(fact, f[:, None]).values.shape == (fact.dm.n_dofs, 1)
    for bad in (f, f[1:, None], f[None, :, None]):
        with pytest.raises(ValueError, match="block on the arc nodes"):
            solve_neumann(fact, bad)


def test_mean_free_rule_is_relative_to_each_column():
    # one rule for bases and solves: a projected basis passes at any scale,
    # a tiny constant column fails with the mean-free message, not later as
    # a solve that "did not converge"
    mesh = build_disk_mesh(1.0, 0.04)
    p = mesh.vertices[mesh.gamma_vertices()]
    theta = np.arctan2(p[:, 1], p[:, 0])
    raw = np.column_stack([np.cos(theta), np.sin(2 * theta) + 0.3])
    fact = factorize(mesh, one(mesh))
    for scale in (1.0, 1e8):
        basis = mean_free_basis(mesh, scale * raw)
        solve_neumann(fact, basis.vectors)
    tiny = np.full((len(p), 1), 1e-12)
    with pytest.raises(ValueError, match="mean-free"):
        ndmap.CurrentBasis(mesh, tiny)
    with pytest.raises(ValueError, match="mean-free"):
        solve_neumann(fact, tiny)
    # a zero column has nothing to balance
    solve_neumann(fact, np.zeros((len(p), 1)))


@pytest.fixture(scope="module")
def dofmaps():
    """One dof map of each kind: plain, slit, tied, excluded, frozen."""
    mesh = square(16)
    m_ins, c_ins = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    m_con, c_con = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], CONDUCTING)
    block = PixelSet.from_rect(PixelGrid(mesh, 8, 8), 3, 3, 4, 4)
    return {
        "plain": build_dofmap(mesh),
        "slit": oracles.build_dofmap(m_ins, c_ins),
        "tied": oracles.build_dofmap(m_con, c_con),
        "excluded": build_dofmap(mesh, excluded=block),
        "frozen": oracles.build_dofmap(mesh, frozen=block),
    }


def mean_free_block(mesh, k, seed):
    f = np.random.default_rng(seed).standard_normal((len(mesh.gamma_vertices()), k))
    w = gamma_mass(mesh).sum(axis=1)
    return f - (w @ f) / w.sum()


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "excluded", "frozen"])
def test_block_solve_matches_single_columns(dofmaps, kind):
    dm = dofmaps[kind]
    fact = factor(dm)
    F = mean_free_block(dm.mesh, 5, 1)
    U = solve_neumann(fact, F)
    assert U.values.shape == (dm.n_dofs, 5)
    for j in range(5):
        u = solve_neumann(fact, F[:, j : j + 1]).values[:, 0]
        assert np.linalg.norm(U.values[:, j] - u) <= 1e-12 * np.linalg.norm(u)


def test_block_with_one_charged_column_rejected(dofmaps):
    dm = dofmaps["plain"]
    F = mean_free_block(dm.mesh, 4, 2)
    F[:, 2] += 1.0
    with pytest.raises(ValueError):
        solve_neumann(factor(dm), F)


def test_residual_is_checked_per_column(dofmaps):
    # the bad column's residual is 1e-5 of its own norm but far below
    # RESIDUAL_RTOL of the whole block's norm
    dm = dofmaps["plain"]
    K = assemble_stiffness(dm.mesh, one(dm.mesh), dm)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((dm.n_dofs, 4))
    x[:, 3] *= 1e-6
    b = K @ x
    assert fem._check_residual(K, x, b) < 1e-14
    e = rng.standard_normal(dm.n_dofs)
    b[:, 3] += 1e-5 * np.linalg.norm(b[:, 3]) * e / np.linalg.norm(e)
    whole = np.linalg.norm(K @ x - b) / np.linalg.norm(b)
    assert whole < fem.RESIDUAL_RTOL
    with pytest.raises(RuntimeError):
        fem._check_residual(K, x, b)


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "excluded", "frozen"])
def test_load_rows_solve_like_the_dense_load(dofmaps, kind):
    # a right-hand side given by its nonzero rows (the pinned one among
    # them) solves bit for bit like the same load as a dense block
    dm = dofmaps[kind]
    fact = factor(dm)
    K = fact.K
    rng = np.random.default_rng(7)
    rows = rng.permutation(np.append(rng.choice(dm.n_dofs, 9, replace=False), fact.pin))
    rows = np.unique(rows)
    vals = rng.standard_normal((len(rows), 3))
    vals -= vals.mean(axis=0)
    dense = np.zeros((dm.n_dofs, 3))
    dense[rows] = vals
    x = fact.solve(vals, rows)
    assert np.array_equal(x, fact.solve(dense, np.arange(dm.n_dofs)))
    assert fem._check_residual(K, x, vals, rows) == pytest.approx(
        fem._check_residual(K, x, dense), rel=1e-6, abs=1e-15
    )


# ------------------------------------------------------------------ #
# split block solves
# ------------------------------------------------------------------ #

SPLIT_MESHES = {
    "rect": square(16),
    "refined": geometry.refine_mesh(square(8), geometry.CrackSet())[0],
    "disk": build_disk_mesh(1.0, 0.1),
}


def split_factorization(shape, config, rng):
    # random insulating chains, one random conducting chain or one interior
    # pixel excluded, on one of SPLIT_MESHES
    mesh = SPLIT_MESHES[shape]
    if config == "excluded":
        grid = PixelGrid(mesh, 8, 8)
        members = geometry.interior_pixel_set(grid).members
        region = PixelSet(grid, [sorted(members)[rng.integers(len(members))]])
        return factorize(mesh, one(mesh), excluded=region)
    if config == "insulating":
        cracks = random_insulating_set(mesh, rng)
    else:
        chain = random_walk(mesh, rng, int(rng.integers(1, 7)), set())
        cracks = geometry.CrackSet([geometry.CrackComponent(chain, CONDUCTING)])
    return oracles.factorize(mesh, one(mesh), cracks=cracks)


def balanced_load(fact, k, rng):
    # k random loads on a few random dofs, the pinned one among them, each
    # summing to zero
    rows = np.unique(np.append(rng.choice(fact.dm.n_dofs, 12, replace=False), fact.pin))
    b = rng.standard_normal((len(rows), k))
    return rows, b - b.mean(axis=0)


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from(sorted(SPLIT_MESHES)),
    config=st.sampled_from(["insulating", "conducting", "excluded"]),
    offset=st.integers(-3, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_split_solve_matches_column_by_column_solves(shape, config, offset, seed):
    # differential oracle of the split: a block as wide as the threshold
    # asks for, give or take three columns, against each column solved on
    # its own by a dense LU of the grounded stiffness
    rng = np.random.default_rng(seed)
    fact = split_factorization(shape, config, rng)
    n = fact.dm.n_dofs
    k = -(-fem.SPLIT_SIZE // n) + offset
    rows, b = balanced_load(fact, k, rng)
    x = fact.solve(b, rows)
    assert x.shape == (n, k) and not x[fact.pin].any()
    lu = scipy.linalg.lu_factor(fact.K[fact.keep][:, fact.keep].toarray())
    for j in range(k):
        load = np.zeros(n)
        load[rows] = b[:, j]
        ref = np.zeros(n)
        ref[fact.keep] = scipy.linalg.lu_solve(lu, load[fact.keep])
        assert np.linalg.norm(x[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_split_solve_runs_its_second_half_on_one_worker(monkeypatch):
    # at the threshold the block splits; one column less and it does not.
    # Every split solve runs its second half on the one worker thread
    fact = split_factorization("rect", "insulating", np.random.default_rng(2))
    n = fact.dm.n_dofs
    k = -(-fem.SPLIT_SIZE // n)
    halves = []
    real = fem._solve_columns

    def solve_columns(lu, K, keep, rows, x, b):
        halves.append((threading.current_thread().name, x.shape[1]))
        real(lu, K, keep, rows, x, b)

    monkeypatch.setattr(fem, "_solve_columns", solve_columns)
    rows, b = balanced_load(fact, k, np.random.default_rng(5))
    fact.solve(b[:, 1:], rows)
    assert halves == [(threading.current_thread().name, k - 1)]
    halves.clear()
    for _ in range(3):
        fact.solve(b, rows)
    caller = [name for name, _ in halves if name == threading.current_thread().name]
    worker = {name for name, _ in halves} - set(caller)
    assert len(caller) == 3 and len(worker) == 1
    assert worker.pop().startswith("crackfind-solve")
    assert sorted(width for _, width in halves[:2]) == [k // 2, k - k // 2]
    solvers = [t for t in threading.enumerate() if t.name.startswith("crackfind-solve")]
    assert len(solvers) == 1


def test_split_solve_raises_the_worker_halfs_error_in_the_caller(monkeypatch):
    # an unbalanced load in the last column leaves a residual on the pinned
    # row; that column is in the worker's half, whose check raises there,
    # and the caller gets the error after both halves have ended
    fact = split_factorization("disk", "excluded", np.random.default_rng(3))
    k = -(-fem.SPLIT_SIZE // fact.dm.n_dofs)
    rows, b = balanced_load(fact, k, np.random.default_rng(4))
    b[0, -1] += 1.0
    raised = []
    real = fem._check_residual

    def check(K, x, b, rows=None):
        try:
            return real(K, x, b, rows)
        except RuntimeError:
            raised.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(fem, "_check_residual", check)
    with pytest.raises(RuntimeError, match="did not converge"):
        fact.solve(b, rows)
    assert len(raised) == 1 and raised[0].startswith("crackfind-solve")
    # the worker is free again, and a balanced block solves
    b[0, -1] -= 1.0
    assert fact.solve(b, rows).shape == (fact.dm.n_dofs, k)


@pytest.mark.parametrize("config", ["insulating", "conducting", "excluded"])
def test_split_solve_is_bit_identical_whoever_solves_the_second_half(config):
    # repeated split solves of one block agree bit for bit, with each other
    # and with each half solved as its own block on the caller's thread. (A
    # column's bits may depend on the width of its block, never on the
    # thread that solves it.)
    fact = split_factorization("refined", config, np.random.default_rng(6))
    n = fact.dm.n_dofs
    # the widest block whose halves are each too narrow to split
    k = 2 * (-(-fem.SPLIT_SIZE // n) - 1)
    assert k // 2 * n < fem.SPLIT_SIZE <= k * n
    rows, b = balanced_load(fact, k, np.random.default_rng(7))
    x = fact.solve(b, rows)
    for _ in range(3):
        assert np.array_equal(fact.solve(b, rows), x)
    assert np.array_equal(fact.solve(b[:, :k // 2], rows), x[:, :k // 2])
    assert np.array_equal(fact.solve(b[:, k // 2:], rows), x[:, k // 2:])


def test_gamma_mass_matches_edge_loop():
    # the vectorized arc mass against an edge-by-edge loop, bit for bit
    disk = build_disk_mesh(1.0, 0.1)
    for mesh in (disk, geometry.mark_gamma(disk, {"angle": [0.3, 2.0]}), square(8)):
        order = mesh.gamma_vertices()
        pos = {int(v): i for i, v in enumerate(order)}
        ref = np.zeros((len(order), len(order)))
        for a, b in mesh.gamma_edges:
            ell = float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
            ia, ib = pos[int(a)], pos[int(b)]
            ref[ia, ia] += ell / 3.0
            ref[ib, ib] += ell / 3.0
            ref[ia, ib] += ell / 6.0
            ref[ib, ia] += ell / 6.0
        assert np.array_equal(gamma_mass(mesh), ref)
        assert np.array_equal(fem.arc_weights(mesh), ref.sum(axis=1))


def test_disk_cos_theta_energy():
    values = []
    for target_h in (0.08, 0.04, 0.02):
        mesh = build_disk_mesh(1.0, target_h)
        fact = factorize(mesh, one(mesh))
        f = cos_theta_current(mesh)
        u = solve_neumann(fact, f[:, None])
        M = gamma_mass(mesh)
        val = float(f @ (M @ trace_on_gamma(u)[:, 0]))
        # boundary pairing equals the interior energy
        assert val == pytest.approx(energy(fact.K, u, u), rel=1e-10)
        values.append(val)
    assert values[0] < values[1] < values[2] < np.pi
    assert abs(values[2] - np.pi) < 0.02 * np.pi


def test_trace_mean_zero():
    mesh = square(16)
    order = mesh.gamma_vertices()
    f = np.where(mesh.vertices[order][:, 0] > 0.5, 1.0, -1.0)
    M = gamma_mass(mesh)
    w = M.sum(axis=1)
    f -= (w @ f) / w.sum()
    u = solve_neumann(factorize(mesh, one(mesh)), f[:, None])
    tr = trace_on_gamma(u)[:, 0]
    assert abs(w @ tr) / w.sum() < 1e-12


def linear_flux_rhs(mesh, dm):
    # exact right-hand side for Neumann data of u(x, y) = x on the unit
    # square: +1 on the right edge, -1 on the left, 0 elsewhere
    b = np.zeros(dm.n_dofs)
    for a, c in mesh.boundary_edges:
        pa, pc = mesh.vertices[a], mesh.vertices[c]
        ell = np.linalg.norm(pc - pa)
        for v, p in ((a, pa), (c, pc)):
            if abs(pa[0] - 1) < 1e-12 and abs(pc[0] - 1) < 1e-12:
                b[dm.vertex_dof[v]] += ell / 2.0
            elif abs(pa[0]) < 1e-12 and abs(pc[0]) < 1e-12:
                b[dm.vertex_dof[v]] -= ell / 2.0
    return b


def grounded_solve(K, dm, b):
    x = Factorization(K, dm).solve(b[:, None], np.arange(dm.n_dofs))[:, 0]
    M = gamma_mass(dm.mesh)
    w = M.sum(axis=1)
    return x - (w @ x[dm.gamma_dofs]) / w.sum()


def test_insulating_crack_invisible_for_parallel_flux():
    # u = x has zero normal flux across a horizontal slit: the slit solve
    # must reproduce it exactly
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm0 = build_dofmap(m2)
    dmc = oracles.build_dofmap(m2, cracks)
    K0 = assemble_stiffness(m2, one(m2), dm0)
    Kc = assemble_stiffness(m2, one(m2), dmc)
    x0 = grounded_solve(K0, dm0, linear_flux_rhs(m2, dm0))
    xc = grounded_solve(Kc, dmc, linear_flux_rhs(m2, dmc))
    exact = m2.vertices[:, 0] - 0.5
    assert np.max(np.abs(x0 - exact[: len(x0)])) < 1e-10
    # compare per vertex through the dof maps
    for v in range(len(m2.vertices)):
        assert xc[dmc.vertex_dof[v]] == pytest.approx(x0[dm0.vertex_dof[v]], abs=1e-10)


def test_conducting_crack_invisible_on_level_set():
    # u = x is constant on a vertical segment, and the flux jump balances,
    # so tying those vertices changes nothing
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.5, 0.25), (0.5, 0.75)], CONDUCTING)
    dm0 = build_dofmap(m2)
    dmc = oracles.build_dofmap(m2, cracks)
    K0 = assemble_stiffness(m2, one(m2), dm0)
    Kc = assemble_stiffness(m2, one(m2), dmc)
    x0 = grounded_solve(K0, dm0, linear_flux_rhs(m2, dm0))
    xc = grounded_solve(Kc, dmc, linear_flux_rhs(m2, dmc))
    for v in range(len(m2.vertices)):
        assert xc[dmc.vertex_dof[v]] == pytest.approx(x0[dm0.vertex_dof[v]], abs=1e-10)


def test_disk_crack_on_symmetry_axis_invisible():
    # the ring mesh is mirror-symmetric about the x axis, so a slit on the
    # axis sees no flux at all for the cos-theta drive: exact invisibility
    for h in (0.1, 0.05):
        mesh = build_disk_mesh(1.0, h)
        m2, cracks = embed_crack(mesh, [(0.2, 0.0), (0.6, 0.0)], INSULATING)
        f = cos_theta_current(m2)
        M = gamma_mass(m2)
        out = []
        for config in (None, cracks):
            u = solve_neumann(oracles.factorize(m2, one(m2), config), f[:, None])
            out.append(float(f @ (M @ trace_on_gamma(u)[:, 0])))
        assert abs(out[1] - out[0]) / abs(out[0]) < 1e-10


def test_conducting_flux_balance():
    # residual of the unconstrained stiffness at the tied solution sums to
    # zero over the tied group
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.4), (0.75, 0.6)], CONDUCTING)
    dm0 = build_dofmap(m2)
    dmc = oracles.build_dofmap(m2, cracks)
    K0 = assemble_stiffness(m2, one(m2), dm0)
    Kc = assemble_stiffness(m2, one(m2), dmc)
    f = cos_theta_current(m2)  # any mean-free current works here
    u = solve_neumann(Factorization(Kc, dmc), f[:, None])
    # expand tied solution to the unconstrained dof vector
    x = u.values[dmc.vertex_dof, 0]
    b = np.zeros(dm0.n_dofs)
    M = gamma_mass(m2)
    np.add.at(b, dm0.gamma_dofs, M @ f)
    r = K0 @ x - b
    chain = cracks.components[0].chain
    assert abs(sum(r[dm0.vertex_dof[v]] for v in chain)) < 1e-10
    # off-chain rows are satisfied exactly
    off = [dm0.vertex_dof[v] for v in range(len(m2.vertices)) if v not in set(chain)]
    assert np.max(np.abs(r[off])) < 1e-10


def test_minimization_characterization():
    mesh = square(12)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    fact = oracles.factorize(m2, one(m2), cracks)
    dm, K = fact.dm, fact.K
    f = cos_theta_current(m2)
    u = fem.Field(solve_neumann(fact, f[:, None]).values[:, 0], dm)
    M = gamma_mass(m2)

    def J(field):
        tr = trace_on_gamma(field)
        return energy(K, field, field) - 2.0 * float(f @ (M @ tr))

    Ju = J(u)
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = fem.Field(rng.standard_normal(dm.n_dofs), dm)
        assert Ju <= J(v) + 1e-12 * max(1.0, abs(J(v)))


def test_space_nesting_energy():
    # conducting-only space embeds into the mixed crack space with the same
    # energy
    mesh = square(16)
    m2, c1 = embed_crack(mesh, [(0.25, 0.25), (0.75, 0.25)], INSULATING)
    m3, c2 = embed_crack(m2, [(0.25, 0.75), (0.75, 0.75)], CONDUCTING, cracks=c1)
    dm_con = oracles.build_dofmap(m3, c2.of_kind(CONDUCTING))
    dm_mix = oracles.build_dofmap(m3, c2)
    K_con = assemble_stiffness(m3, one(m3), dm_con)
    K_mix = assemble_stiffness(m3, one(m3), dm_mix)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = fem.Field(rng.standard_normal(dm_con.n_dofs), dm_con)
        w = embed_field(v, dm_mix)
        assert energy(K_con, v, v) == pytest.approx(energy(K_mix, w, w), rel=1e-12)


# ------------------------------------------------------------------ #
# source solves
# ------------------------------------------------------------------ #


def test_source_zero():
    mesh = square(8)
    w = solve_source(factorize(mesh, one(mesh)), ([0, 1, 2], np.zeros((3, 2))))
    assert np.max(np.abs(w.values)) < 1e-14


def test_source_linearity():
    mesh = square(8)
    fact = factorize(mesh, one(mesh))
    rng = np.random.default_rng(11)
    tris = [10, 11, 12, 20]
    v1 = rng.standard_normal((4, 2))
    v2 = rng.standard_normal((4, 2))
    w1 = solve_source(fact, (tris, v1))
    w2 = solve_source(fact, (tris, v2))
    ws = solve_source(fact, (tris, v1 + v2))
    assert np.allclose(ws.values, w1.values + w2.values, atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["plain", "slit", "tied", "excluded", "frozen"]),
    k=st.integers(1, 12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_sources_match_single_fields(dofmaps, kind, k, seed):
    # differential oracle: one block solve of k single-triangle sources
    # against one single-column solve per source
    dm = dofmaps[kind]
    fact = factor(dm)
    rng = np.random.default_rng(seed)
    tris = rng.choice(np.flatnonzero(dm.active_tri), size=k)
    vectors = rng.standard_normal((k, 2))
    U = solve_source(fact, (tris, vectors)).values
    assert U.shape == (dm.n_dofs, k)
    for j in range(k):
        u = solve_source(fact, (tris[j : j + 1], vectors[j : j + 1])).values[:, 0]
        assert np.linalg.norm(U[:, j] - u) <= 1e-12 * np.linalg.norm(u)


def test_sources_inside_frozen_block_give_zero_potential(dofmaps):
    # a triangle whose three corners share one dof carries no load: every
    # single-triangle source in the frozen block solves to zero, alone or in a block
    dm = dofmaps["frozen"]
    fact = factor(dm)
    cd = dm.corner_dof
    tris = np.flatnonzero((cd[:, 0] == cd[:, 1]) & (cd[:, 1] == cd[:, 2]))
    assert len(tris) == 32
    vectors = np.random.default_rng(0).standard_normal((len(tris), 2))
    assert not np.any(solve_source(fact, (tris, vectors)).values)
    for t, v in zip(tris, vectors):
        assert not np.any(solve_source(fact, ([t], v[None, :])).values)


def test_sources_on_tied_pairs_balance_exactly():
    # a triangle with two corners on one off-axis conducting chain: its
    # loads sum to exactly zero, and a source along the free corner's
    # level line (exact load zero) solves to zero instead of failing the
    # residual check on a rounding residue
    mesh, cracks = embed_crack(build_disk_mesh(1.0, 0.2), [(-0.4, -0.1), (0.3, 0.35)], CONDUCTING)
    fact = oracles.factorize(mesh, one(mesh), cracks)
    cd = fact.dm.corner_dof
    same = cd == np.roll(cd, -1, axis=1)
    tris = np.flatnonzero(same.sum(axis=1) == 1)
    assert len(tris) >= 8
    rng = np.random.default_rng(2)
    loads = fem.source_loads(fact.dm, tris, rng.standard_normal((len(tris), 2)))
    assert np.all(loads.sum(axis=1) == 0.0)
    free = (np.argmax(same[tris], axis=1) + 2) % 3
    g = fem._hat_gradients(mesh)[tris, free]
    along = np.column_stack([-g[:, 1], g[:, 0]])
    assert not np.any(solve_source(fact, (tris, along)).values)
    for t, v in zip(tris, along):
        assert not np.any(solve_source(fact, ([t], v[None, :])).values)


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "excluded", "frozen"])
def test_stiffness_is_exactly_symmetric(dofmaps, kind):
    dm = dofmaps[kind]
    values = np.random.default_rng(1).uniform(0.1, 10.0, len(dm.mesh.triangles))
    K = assemble_stiffness(dm.mesh, Conductivity(dm.mesh, values), dm)
    assert (K != K.T).nnz == 0
    assert np.all(K.data != 0)


def test_block_sources_guard_excluded_region_and_shapes(dofmaps):
    dm = dofmaps["excluded"]
    fact = factor(dm)
    inside = np.flatnonzero(~dm.active_tri)[0]
    outside = np.flatnonzero(dm.active_tri)[:2]
    with pytest.raises(ValueError, match="excluded region"):
        solve_source(fact, (np.append(outside, inside), np.ones((3, 2))))
    with pytest.raises(ValueError):
        solve_source(fact, (outside, np.ones((2, 3))))
    with pytest.raises(ValueError):
        solve_source(fact, ([len(dm.mesh.triangles)], np.ones((1, 2))))


def test_source_variational_identity():
    # the computed w satisfies <w, v> = integral of F . grad v for every v
    mesh = square(12)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    fact = oracles.factorize(m2, one(m2), cracks)
    dm, K = fact.dm, fact.K
    grid = PixelGrid(m2, 6, 6)
    V = PixelSet.from_rect(grid, 1, 1, 2, 2)
    tris = V.triangles()
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((len(tris), 2))
    # one column per triangle; their sum is the potential of the whole field
    w = fem.Field(solve_source(fact, (tris, vectors)).values.sum(axis=1), dm)
    areas = m2.tri_areas()
    for _ in range(20):
        v = fem.Field(rng.standard_normal((dm.n_dofs, 1)), dm)
        lhs = energy(K, w, v)
        gv = gradient_on(v, tris)[0]
        rhs = float(np.sum(areas[tris, None] * vectors * gv))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------ #
# gradients, traces, exports
# ------------------------------------------------------------------ #


def test_gradient_of_linear_field():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(mesh.vertices[:, :1], dm)
    g = gradient_on(u, range(len(mesh.triangles)))[0]
    assert np.allclose(g[:, 0], 1.0)
    assert np.allclose(g[:, 1], 0.0)


def test_gradient_region_restriction():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(mesh.vertices[:, 1:], dm)
    g = gradient_on(u, [4, 5])[0]
    assert g.shape == (2, 2)
    assert np.allclose(g[:, 0], 0.0)
    assert np.allclose(g[:, 1], 1.0)


def test_gradient_of_constant_zero():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(np.full((dm.n_dofs, 1), 3.7), dm)
    g = gradient_on(u, range(len(mesh.triangles)))[0]
    assert np.max(np.abs(g)) < 1e-12


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "frozen"])
def test_gradient_matches_per_triangle_loop(dofmaps, kind):
    # differential oracle: the one-einsum gradients of a three-column field
    # against the corner values of each triangle times its hat gradients,
    # one column and one triangle at a time
    dm = dofmaps[kind]
    u = fem.Field(np.random.default_rng(8).standard_normal((dm.n_dofs, 3)), dm)
    tris = np.random.default_rng(9).permutation(len(dm.mesh.triangles))[:200]
    hats = fem._hat_gradients(dm.mesh)
    ref = np.array([[u.values[dm.corner_dof[t], j] @ hats[t] for t in tris] for j in range(3)])
    g = gradient_on(u, tris)
    assert g.shape == (3, len(tris), 2)
    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gradient_refuses_excluded_triangle(dofmaps):
    dm = dofmaps["excluded"]
    u = fem.Field(np.ones((dm.n_dofs, 1)), dm)
    inside = np.flatnonzero(~dm.active_tri)[0]
    outside = np.flatnonzero(dm.active_tri)[:2]
    assert gradient_on(u, outside).shape == (1, 2, 2)
    with pytest.raises(ValueError, match="excluded region"):
        gradient_on(u, np.append(outside, inside))


def test_trace_of_linear_on_left_arc():
    mesh = geometry.mark_gamma(square(8), {"side": "left"})
    dm = build_dofmap(mesh)
    u = fem.Field(mesh.vertices[:, 0], dm)
    tr = trace_on_gamma(u)
    assert np.max(np.abs(tr)) < 1e-14  # x = 0 on the left edge


def test_energy_dofmap_mismatch_rejected():
    mesh = square(8)
    dm1 = build_dofmap(mesh)
    dm2 = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm1)
    a = fem.Field(np.zeros(dm1.n_dofs), dm1)
    b = fem.Field(np.zeros(dm2.n_dofs), dm2)
    with pytest.raises(ValueError):
        energy(K, a, b)


def test_conductivity_validation():
    mesh = square(4)
    with pytest.raises(ValueError):
        Conductivity(mesh, 0.0)
    with pytest.raises(ValueError):
        Conductivity(mesh, np.zeros(len(mesh.triangles)))
    c = Conductivity.from_spec(
        mesh, {"default": 1.0, "boxes": [{"box": [0, 0, 0.5, 0.5], "value": 2.0}]}
    )
    assert set(np.unique(c.values)) == {1.0, 2.0}
