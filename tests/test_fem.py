import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from crackfind import fem, geometry, ndmap
from crackfind.fem import (
    Conductivity,
    ElementVectorField,
    Factorization,
    assemble_stiffness,
    build_dofmap,
    embed_field,
    energy,
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


def square(n=8):
    return build_rect_mesh(1.0, 1.0, 1.0 / n)


def one(mesh):
    return Conductivity(mesh, 1.0)


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
    dm = build_dofmap(m2, cracks)
    k = len(cracks.components[0].chain) - 2
    assert k >= 1
    assert dm.n_dofs == len(m2.vertices) + k


def test_dofmap_conducting_chain():
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], CONDUCTING)
    dm = build_dofmap(m2, cracks)
    m = len(cracks.components[0].chain)
    assert dm.n_dofs == len(m2.vertices) - m + 1


def test_dofmap_excluded_and_frozen_counts():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    block = PixelSet.from_rect(grid, 3, 3, 4, 4)
    dm_ex = build_dofmap(mesh, excluded=block)
    # 4x4 cell block: 3x3 interior vertices disappear
    assert dm_ex.n_dofs == len(mesh.vertices) - 9
    dm_fr = build_dofmap(mesh, frozen=block)
    # 5x5 vertices collapse to one dof
    assert dm_fr.n_dofs == len(mesh.vertices) - 24


def test_dofmap_region_options_exclusive():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    block = PixelSet.from_rect(grid, 3, 3, 4, 4)
    with pytest.raises(ValueError):
        build_dofmap(mesh, excluded=block, frozen=block)


def test_dofmap_crack_region_overlap_rejected():
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.375, 0.5), (0.625, 0.5)], INSULATING)
    grid = PixelGrid(m2, 8, 8)
    block = PixelSet.from_rect(grid, 2, 2, 5, 5)
    with pytest.raises(ValueError):
        build_dofmap(m2, cracks, excluded=block)
    with pytest.raises(ValueError):
        build_dofmap(m2, cracks, frozen=block)


def test_dofmap_inadmissible_region_rejected():
    mesh = square(16)
    grid = PixelGrid(mesh, 8, 8)
    with pytest.raises(ValueError):
        build_dofmap(mesh, excluded=PixelSet(grid, {grid.index(0, 0)}))


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
    dm = build_dofmap(m2, cracks)
    K = assemble_stiffness(m2, one(m2), dm)
    assert np.max(np.abs(K @ np.ones(dm.n_dofs))) < 1e-13


def test_grounded_stiffness_positive_definite():
    # dense oracle on a mesh around 1k dofs
    mesh = square(24)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm = build_dofmap(m2, cracks)
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
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm)
    with pytest.raises(ValueError):
        solve_neumann(K, dm, np.ones(len(dm.gamma_order)))


def test_mean_free_rule_is_relative_to_each_column():
    # one rule for bases and solves: a projected basis passes at any scale,
    # a tiny constant column fails with the mean-free message, not later as
    # a solve that "did not converge"
    mesh = build_disk_mesh(1.0, 0.04)
    p = mesh.vertices[mesh.gamma_vertices()]
    theta = np.arctan2(p[:, 1], p[:, 0])
    raw = np.column_stack([np.cos(theta), np.sin(2 * theta) + 0.3])
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm)
    for scale in (1.0, 1e8):
        basis = ndmap.CurrentBasis.from_vectors(mesh, scale * raw, orthonormalize=False)
        solve_neumann(K, dm, basis.vectors)
    tiny = np.full((len(p), 1), 1e-12)
    with pytest.raises(ValueError, match="mean-free"):
        ndmap.CurrentBasis(mesh, tiny)
    with pytest.raises(ValueError, match="mean-free"):
        solve_neumann(K, dm, tiny[:, 0])
    # a zero column has nothing to balance
    solve_neumann(K, dm, np.zeros(len(p)))


@pytest.fixture(scope="module")
def dofmaps():
    """One dof map of each kind: plain, slit, tied, excluded, frozen."""
    mesh = square(16)
    m_ins, c_ins = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    m_con, c_con = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], CONDUCTING)
    block = PixelSet.from_rect(PixelGrid(mesh, 8, 8), 3, 3, 4, 4)
    return {
        "plain": build_dofmap(mesh),
        "slit": build_dofmap(m_ins, c_ins),
        "tied": build_dofmap(m_con, c_con),
        "excluded": build_dofmap(mesh, excluded=block),
        "frozen": build_dofmap(mesh, frozen=block),
    }


def mean_free_block(mesh, k, seed):
    f = np.random.default_rng(seed).standard_normal((len(mesh.gamma_vertices()), k))
    w = gamma_mass(mesh).sum(axis=1)
    return f - (w @ f) / w.sum()


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "excluded", "frozen"])
def test_block_solve_matches_single_columns(dofmaps, kind):
    dm = dofmaps[kind]
    K = assemble_stiffness(dm.mesh, one(dm.mesh), dm)
    fact = Factorization(K, dm)
    F = mean_free_block(dm.mesh, 5, 1)
    U = solve_neumann(K, dm, F, fact)
    assert U.values.shape == (dm.n_dofs, 5)
    for j in range(5):
        u = solve_neumann(K, dm, F[:, j], fact).values
        assert np.linalg.norm(U.values[:, j] - u) <= 1e-12 * np.linalg.norm(u)


def test_block_with_one_charged_column_rejected(dofmaps):
    dm = dofmaps["plain"]
    K = assemble_stiffness(dm.mesh, one(dm.mesh), dm)
    F = mean_free_block(dm.mesh, 4, 2)
    F[:, 2] += 1.0
    with pytest.raises(ValueError):
        solve_neumann(K, dm, F)


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
    K = assemble_stiffness(dm.mesh, one(dm.mesh), dm)
    fact = Factorization(K, dm)
    rng = np.random.default_rng(7)
    rows = rng.permutation(np.append(rng.choice(dm.n_dofs, 9, replace=False), fact.pin))
    rows = np.unique(rows)
    vals = rng.standard_normal((len(rows), 3))
    vals -= vals.mean(axis=0)
    dense = np.zeros((dm.n_dofs, 3))
    dense[rows] = vals
    x = fact.solve(vals, rows)
    assert np.array_equal(x, fact.solve(dense))
    assert fem._check_residual(K, x, vals, rows) == pytest.approx(
        fem._check_residual(K, x, dense), rel=1e-6, abs=1e-15
    )


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
        dm = build_dofmap(mesh)
        K = assemble_stiffness(mesh, one(mesh), dm)
        f = cos_theta_current(mesh)
        u = solve_neumann(K, dm, f)
        M = gamma_mass(mesh)
        val = float(f @ (M @ trace_on_gamma(u)))
        # boundary pairing equals the interior energy
        assert val == pytest.approx(energy(K, u, u), rel=1e-10)
        values.append(val)
    assert values[0] < values[1] < values[2] < np.pi
    assert abs(values[2] - np.pi) < 0.02 * np.pi


def test_trace_mean_zero():
    mesh = square(16)
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm)
    order = mesh.gamma_vertices()
    f = np.where(mesh.vertices[order][:, 0] > 0.5, 1.0, -1.0)
    M = gamma_mass(mesh)
    w = M.sum(axis=1)
    f -= (w @ f) / w.sum()
    u = solve_neumann(K, dm, f)
    tr = trace_on_gamma(u)
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
    fact = Factorization(K, dm)
    x = fact.solve(b)
    M = gamma_mass(dm.mesh)
    w = M.sum(axis=1)
    return x - (w @ x[dm.gamma_dofs]) / w.sum()


def test_insulating_crack_invisible_for_parallel_flux():
    # u = x has zero normal flux across a horizontal slit: the slit solve
    # must reproduce it exactly
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm0 = build_dofmap(m2)
    dmc = build_dofmap(m2, cracks)
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
    dmc = build_dofmap(m2, cracks)
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
        for dm in (build_dofmap(m2), build_dofmap(m2, cracks)):
            Kmat = assemble_stiffness(m2, one(m2), dm)
            u = solve_neumann(Kmat, dm, f)
            out.append(float(f @ (M @ trace_on_gamma(u))))
        assert abs(out[1] - out[0]) / abs(out[0]) < 1e-10


def test_conducting_flux_balance():
    # residual of the unconstrained stiffness at the tied solution sums to
    # zero over the tied group
    mesh = square(16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.4), (0.75, 0.6)], CONDUCTING)
    dm0 = build_dofmap(m2)
    dmc = build_dofmap(m2, cracks)
    K0 = assemble_stiffness(m2, one(m2), dm0)
    Kc = assemble_stiffness(m2, one(m2), dmc)
    f = cos_theta_current(m2)  # any mean-free current works here
    u = solve_neumann(Kc, dmc, f)
    # expand tied solution to the unconstrained dof vector
    x = u.values[dmc.vertex_dof]
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
    dm = build_dofmap(m2, cracks)
    K = assemble_stiffness(m2, one(m2), dm)
    f = cos_theta_current(m2)
    u = solve_neumann(K, dm, f)
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
    dm_con = build_dofmap(m3, c2.of_kind(CONDUCTING))
    dm_mix = build_dofmap(m3, c2)
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
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm)
    F = ElementVectorField(mesh, np.zeros((3, 2)), [0, 1, 2])
    w = solve_source(K, dm, F)
    assert np.max(np.abs(w.values)) < 1e-14


def test_source_linearity():
    mesh = square(8)
    dm = build_dofmap(mesh)
    K = assemble_stiffness(mesh, one(mesh), dm)
    fact = Factorization(K, dm)
    rng = np.random.default_rng(11)
    tris = [10, 11, 12, 20]
    F1 = ElementVectorField(mesh, rng.standard_normal((4, 2)), tris)
    F2 = ElementVectorField(mesh, rng.standard_normal((4, 2)), tris)
    Fsum = ElementVectorField(mesh, F1.values + F2.values, tris)
    w1 = solve_source(K, dm, F1, fact)
    w2 = solve_source(K, dm, F2, fact)
    ws = solve_source(K, dm, Fsum, fact)
    assert np.allclose(ws.values, w1.values + w2.values, atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["plain", "slit", "tied", "excluded", "frozen"]),
    k=st.integers(1, 12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_sources_match_single_fields(dofmaps, kind, k, seed):
    # differential oracle: one block solve of k single-triangle sources
    # against one ElementVectorField solve per source
    dm = dofmaps[kind]
    mesh = dm.mesh
    K = assemble_stiffness(mesh, one(mesh), dm)
    fact = Factorization(K, dm)
    rng = np.random.default_rng(seed)
    tris = rng.choice(np.flatnonzero(dm.active_tri), size=k)
    vectors = rng.standard_normal((k, 2))
    U = solve_source(K, dm, (tris, vectors), fact).values
    assert U.shape == (dm.n_dofs, k)
    for j in range(k):
        F = ElementVectorField(mesh, vectors[j : j + 1], [tris[j]])
        u = solve_source(K, dm, F, fact).values
        assert np.linalg.norm(U[:, j] - u) <= 1e-12 * np.linalg.norm(u)


def test_sources_inside_frozen_block_give_zero_potential(dofmaps):
    # a triangle whose three corners share one dof carries no load: every
    # single-triangle source in the frozen block solves to zero in both forms
    dm = dofmaps["frozen"]
    mesh = dm.mesh
    K = assemble_stiffness(mesh, one(mesh), dm)
    fact = Factorization(K, dm)
    cd = dm.corner_dof
    tris = np.flatnonzero((cd[:, 0] == cd[:, 1]) & (cd[:, 1] == cd[:, 2]))
    assert len(tris) == 32
    vectors = np.random.default_rng(0).standard_normal((len(tris), 2))
    assert not np.any(solve_source(K, dm, (tris, vectors), fact).values)
    for t, v in zip(tris, vectors):
        F = ElementVectorField(mesh, v[None, :], [t])
        assert not np.any(solve_source(K, dm, F, fact).values)


@pytest.mark.parametrize("kind", ["plain", "slit", "tied", "excluded", "frozen"])
def test_stiffness_is_exactly_symmetric(dofmaps, kind):
    dm = dofmaps[kind]
    values = np.random.default_rng(1).uniform(0.1, 10.0, len(dm.mesh.triangles))
    K = assemble_stiffness(dm.mesh, Conductivity(dm.mesh, values), dm)
    assert (K != K.T).nnz == 0
    assert np.all(K.data != 0)


def test_block_sources_guard_excluded_region_and_shapes(dofmaps):
    dm = dofmaps["excluded"]
    K = assemble_stiffness(dm.mesh, one(dm.mesh), dm)
    inside = np.flatnonzero(~dm.active_tri)[0]
    outside = np.flatnonzero(dm.active_tri)[:2]
    with pytest.raises(ValueError, match="excluded region"):
        solve_source(K, dm, (np.append(outside, inside), np.ones((3, 2))))
    with pytest.raises(ValueError):
        solve_source(K, dm, (outside, np.ones((2, 3))))
    with pytest.raises(ValueError):
        solve_source(K, dm, ([len(dm.mesh.triangles)], np.ones((1, 2))))


def test_source_variational_identity():
    # the computed w satisfies <w, v> = integral of F . grad v for every v
    mesh = square(12)
    m2, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    dm = build_dofmap(m2, cracks)
    K = assemble_stiffness(m2, one(m2), dm)
    grid = PixelGrid(m2, 6, 6)
    V = PixelSet.from_rect(grid, 1, 1, 2, 2)
    tris = V.triangles()
    rng = np.random.default_rng(5)
    F = ElementVectorField(m2, rng.standard_normal((len(tris), 2)), tris)
    w = solve_source(K, dm, F)
    areas = m2.tri_areas()
    for _ in range(20):
        v = fem.Field(rng.standard_normal(dm.n_dofs), dm)
        lhs = energy(K, w, v)
        gv = gradient_on(v, tris)
        rhs = float(np.sum(areas[tris, None] * F.values[tris] * gv.values[tris]))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------ #
# gradients, traces, exports
# ------------------------------------------------------------------ #


def test_gradient_of_linear_field():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(mesh.vertices[:, 0], dm)
    g = gradient_on(u, range(len(mesh.triangles)))
    assert np.allclose(g.values[:, 0], 1.0)
    assert np.allclose(g.values[:, 1], 0.0)


def test_gradient_region_restriction():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(mesh.vertices[:, 1], dm)
    g = gradient_on(u, [4, 5])
    outside = np.ones(len(mesh.triangles), dtype=bool)
    outside[[4, 5]] = False
    assert np.all(g.values[outside] == 0.0)
    assert np.allclose(g.values[[4, 5], 1], 1.0)


def test_gradient_of_constant_zero():
    mesh = square(8)
    dm = build_dofmap(mesh)
    u = fem.Field(np.full(dm.n_dofs, 3.7), dm)
    g = gradient_on(u, range(len(mesh.triangles)))
    assert np.max(np.abs(g.values)) < 1e-12


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
