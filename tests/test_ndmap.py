from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from crackfind import fem, geometry, ndmap, reconstruct
from crackfind.geometry import (
    CrackSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    mark_gamma,
)
from oracles import projection_identity_check


def test_build_basis_orthonormal_mean_free():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    basis = ndmap.build_basis(mesh, 8)
    assert basis.vectors.shape == (32, 8)
    assert np.max(np.abs(basis.gram - np.eye(8))) < 1e-10
    Mg = fem.gamma_mass(mesh)
    w = Mg.sum(axis=1)
    assert np.max(np.abs(w @ basis.vectors)) < 1e-12


def test_build_basis_size_limits():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    ndmap.build_basis(mesh, 31)
    with pytest.raises(ValueError):
        ndmap.build_basis(mesh, 32)
    with pytest.raises(ValueError):
        ndmap.build_basis(mesh, 0)


def test_build_basis_on_partial_arc():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    mesh = mark_gamma(mesh, {"side": "left"})
    basis = ndmap.build_basis(mesh, 6)
    assert basis.vectors.shape[0] == 9
    assert np.max(np.abs(basis.gram - np.eye(6))) < 1e-10


def test_disk_low_modes_match_separation_of_variables():
    # On the unit disk with unit conductivity the current cos(k theta) is
    # mapped to the voltage cos(k theta)/k, so unit-norm trigonometric
    # currents give diagonal entries 1/k.
    mesh = build_disk_mesh(1.0, 0.05)
    order = mesh.gamma_vertices()
    ang = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
    raw = np.stack([np.cos(ang), np.sin(ang), np.cos(2 * ang)], axis=1)
    basis = ndmap.CurrentBasis.from_vectors(mesh, raw)
    N = ndmap.nd_matrix(mesh, fem.Conductivity(mesh, 1.0), None, basis)
    expect = np.array([1.0, 1.0, 0.5])
    rel = np.abs(np.diag(N.entries) - expect) / expect
    assert np.max(rel) < 0.02
    off = N.entries - np.diag(np.diag(N.entries))
    assert np.max(np.abs(off)) < 0.02


def test_nd_matrix_diagonal_equals_dirichlet_energy(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    solver = ndmap.NdSolver(mesh, gamma0, cracks)
    N = solver.nd_matrix(basis)
    for i in (0, 5, 11):
        u = solver.solve_current(basis.vectors[:, i])
        e = fem.energy(solver.K, u, u)
        assert N.entries[i, i] == pytest.approx(e, rel=1e-10)


@pytest.mark.parametrize("which", ["none", "cracks", "excluded", "frozen"])
def test_nd_matrix_matches_column_loop(chain_setup, which):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    config = {"none": None, "cracks": cracks, "excluded": {"excluded": V},
              "frozen": {"frozen": W}}[which]
    solver = ndmap.NdSolver(mesh, gamma0, config)
    N = solver.nd_matrix(basis).entries
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    ref = np.empty((basis.M, basis.M))
    for j in range(basis.M):
        trace = fem.trace_on_gamma(solver.solve_current(basis.vectors[:, j]))
        ref[j] = trace @ weighted
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(N - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=15, deadline=None)
@given(
    which=st.sampled_from(["none", "cracks", "insulating", "conducting", "excluded", "frozen"]),
    box=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(0, 3)),
)
def test_nd_matrix_matches_default_ordering_lu(chain_setup, which, box):
    # the symmetric-mode factorization against SuperLU's default ordering
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    x0, y0, dx, dy = box
    region = geometry.PixelSet.from_rect(grid, x0, y0, min(x0 + dx, 6), min(y0 + dy, 6))
    config = {
        "none": None,
        "cracks": cracks,
        "insulating": cracks.of_kind(geometry.INSULATING),
        "conducting": cracks.of_kind(geometry.CONDUCTING),
        "excluded": {"excluded": region},
        "frozen": {"frozen": region},
    }[which]
    solver = ndmap.NdSolver(mesh, gamma0, config)
    N = solver.nd_matrix(basis).entries
    dm, keep = solver.dm, solver.fact.keep
    lu = scipy.sparse.linalg.splu(solver.K[keep][:, keep].tocsc())
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    b = np.zeros((dm.n_dofs, basis.M))
    np.add.at(b, dm.gamma_dofs, weighted)
    x = np.zeros_like(b)
    x[keep] = lu.solve(b[keep])
    ref = x[dm.gamma_dofs].T @ weighted
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(N - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_nd_matrix_basis_covariance():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 10)
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    rotated = ndmap.CurrentBasis(mesh, basis.vectors @ Q)
    N1 = ndmap.nd_matrix(mesh, gamma0, None, basis)
    N2 = ndmap.nd_matrix(mesh, gamma0, None, rotated)
    assert np.max(np.abs(N2.entries - Q.T @ N1.entries @ Q)) < 1e-12


def test_psd_test_examples():
    ok, eig = ndmap.psd_test(np.eye(3), 0.0)
    assert ok and eig == pytest.approx(1.0)
    ok, eig = ndmap.psd_test(np.diag([1.0, -1e-3]), 1e-6)
    assert not ok
    assert eig == pytest.approx(-1e-3)
    with pytest.raises(ValueError):
        ndmap.psd_test(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(1e-3, 1e3), st.integers(2, 8))
def test_psd_test_detects_planted_eigenvalue(seed, t, m):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = np.sort(rng.uniform(0.0, 10.0, size=m))
    A = Q @ np.diag(vals) @ Q.T
    ok, eig = ndmap.psd_test(A, 1e-9 * max(1.0, vals[-1]))
    assert ok
    vals[0] = -t
    B = Q @ np.diag(vals) @ Q.T
    ok, eig = ndmap.psd_test(B, 0.5 * t)
    assert not ok
    assert eig == pytest.approx(-t, rel=1e-8)


def test_default_tau_uses_spectral_norm():
    A = np.diag([3.0, -5.0, 1.0])
    assert ndmap.default_tau(A) == pytest.approx(5e-8)


def test_monotonicity_chain(chain_setup):
    # excluded V >= insulating crack >= empty >= conducting crack >= frozen W
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    mats = [
        ndmap.nd_matrix(mesh, gamma0, {"excluded": V}, basis),
        ndmap.nd_matrix(mesh, gamma0, ins, basis),
        ndmap.nd_matrix(mesh, gamma0, None, basis),
        ndmap.nd_matrix(mesh, gamma0, con, basis),
        ndmap.nd_matrix(mesh, gamma0, {"frozen": W}, basis),
    ]
    for hi, lo in zip(mats, mats[1:]):
        diff = hi.entries - lo.entries
        ok, eig = ndmap.psd_test(diff, ndmap.default_tau(hi))
        assert ok, (hi.config_label, lo.config_label, eig)


def test_bracketing_of_mixed_cracks(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    C = V.union(W)
    data = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    upper = ndmap.nd_matrix(mesh, gamma0, {"excluded": C}, basis)
    lower = ndmap.nd_matrix(mesh, gamma0, {"frozen": C}, basis)
    ok, _ = ndmap.psd_test(upper.entries - data.entries, ndmap.default_tau(upper))
    assert ok
    ok, _ = ndmap.psd_test(data.entries - lower.entries, ndmap.default_tau(data))
    assert ok


def test_bracketing_fails_when_region_misses_crack(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    data = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    upper = ndmap.nd_matrix(mesh, gamma0, {"excluded": W}, basis)
    tau = ndmap.default_tau(upper)
    ok, eig = ndmap.psd_test(upper.entries - data.entries, tau)
    assert not ok
    assert eig < -10 * tau


def test_projection_identity_full_vs_conducting(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for idx in (0, 3, 7):
        lhs, rhs = projection_identity_check(mesh, gamma0, cracks, basis, idx, "P")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_insulating_vs_full(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for idx in (0, 3, 7):
        lhs, rhs = projection_identity_check(mesh, gamma0, cracks, basis, idx, "Q")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_no_cracks_is_zero():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    lhs, rhs = projection_identity_check(
        mesh, gamma0, CrackSet([]), basis, 2, "P"
    )
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12


def test_disk_axis_crack_matrix_invisible():
    mesh = build_disk_mesh(1.0, 0.1)
    mesh, cracks = embed_crack(mesh, [(-0.3, 0.0), (0.3, 0.0)], geometry.INSULATING)
    gamma0 = fem.Conductivity(mesh, 1.0)
    order = mesh.gamma_vertices()
    ang = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
    basis = ndmap.CurrentBasis.from_vectors(mesh, np.cos(ang)[:, None])
    N0 = ndmap.nd_matrix(mesh, gamma0, None, basis)
    N1 = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    assert abs(N1.entries[0, 0] - N0.entries[0, 0]) < 1e-10 * N0.entries[0, 0]


def test_symmetric_noise_scales_and_reproduces():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((12, 12))
    N = ndmap.NdMatrix(base @ base.T, None, "ins:1", {geometry.INSULATING})
    noisy = ndmap.symmetric_noise(N, 0.01, np.random.default_rng(5))
    assert noisy.kinds == {geometry.INSULATING}
    E = noisy.entries - N.entries
    assert np.max(np.abs(E - E.T)) < 1e-12
    ratio = np.linalg.norm(E, 2) / np.linalg.norm(N.entries, 2)
    assert ratio == pytest.approx(0.01, rel=1e-12)
    again = ndmap.symmetric_noise(N, 0.01, np.random.default_rng(5))
    assert np.array_equal(again.entries, noisy.entries)
    assert ndmap.symmetric_noise(N, 0.0, rng) is N


def test_config_dict_validation(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    with pytest.raises(ValueError):
        ndmap.nd_matrix(mesh, gamma0, {"bogus": V}, basis)


def test_configurations_match_nd_matrix_and_solve_once(chain_setup):
    # the named table against a direct nd_matrix call per configuration
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    configs = {
        "none": None,
        "all": cracks,
        "insulating": cracks.of_kind(geometry.INSULATING),
        "conducting": cracks.of_kind(geometry.CONDUCTING),
        "excluded V": {"excluded": V},
        "frozen V": {"frozen": V},
        "excluded W": {"excluded": W},
        "frozen W": {"frozen": W},
    }
    table = ndmap.Configurations(mesh, gamma0, basis, cracks, V, W)
    assert sorted(table.configs) == sorted(configs)
    fresh = ndmap.Configurations(mesh, gamma0, basis, cracks, V, W)
    for name, config in configs.items():
        ref = ndmap.nd_matrix(mesh, gamma0, config, basis)
        fresh.solver(name)  # records the matrix of the solver it hands out
        for got in (table.nd(name), fresh.nd(name)):
            assert np.array_equal(got.entries, ref.entries)
            assert (got.config_label, got.kinds) == (ref.config_label, ref.kinds)

    # asked twice, or after a solver: one factorization, one current solve
    with mock.patch.object(fem, "Factorization", wraps=fem.Factorization) as fact, \
            mock.patch.object(fem, "solve_neumann", wraps=fem.solve_neumann) as solve:
        table = ndmap.Configurations(mesh, gamma0, basis, cracks, V, W)
        first = table.nd("frozen W")
        assert table.nd("frozen W") is first
        assert (fact.call_count, solve.call_count) == (1, 1)
        table.solver("frozen W")
        assert (fact.call_count, solve.call_count) == (2, 1)
        table.solver("all")
        assert table.nd("all") is table.nd("all")
        assert (fact.call_count, solve.call_count) == (3, 2)


# ------------------------------------------------------------------ #
# single chains as low-rank updates of the crack-free background
# ------------------------------------------------------------------ #

CHAIN_MESHES = {
    ("rect", False): build_rect_mesh(1.0, 1.0, 1.0 / 8),
    ("rect", True): mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 8), {"box": [-0.1, 0.9, 0.5, 1.1]}),
    ("disk", False): build_disk_mesh(1.0, 0.2),
    ("disk", True): mark_gamma(build_disk_mesh(1.0, 0.2), {"angle": [0.5, 2.5]}),
}


def random_chain(mesh, rng, n_edges):
    """A simple chain of n_edges interior edges from a random walk."""
    bvs = mesh.boundary_vertex_set()
    inner = [v for v in range(len(mesh.vertices)) if v not in bvs]
    edges = mesh.edges()
    for _ in range(100):
        chain = [int(rng.choice(inner))]
        while len(chain) <= n_edges:
            a = chain[-1]
            nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
            nbrs = [w for w in nbrs.tolist() if w not in bvs and w not in chain]
            if not nbrs:
                break
            chain.append(int(rng.choice(nbrs)))
        if len(chain) == n_edges + 1:
            return tuple(chain)
    raise AssertionError("no chain of %d interior edges found" % n_edges)


def assert_matches_nd_solver(mesh, gamma0, basis, comps, got):
    assert len(got) == len(comps)
    for comp, N in zip(comps, got):
        ref = ndmap.NdSolver(mesh, gamma0, CrackSet([comp])).nd_matrix(basis)
        assert N.kinds == ref.kinds
        assert N.config_label == ref.config_label
        assert np.max(np.abs(N.entries - ref.entries)) <= 1e-10 * np.max(np.abs(ref.entries))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_chain_maps_match_nd_solver(shape, arc, box, seed):
    # differential oracle: the low-rank update of every chain against its own
    # factorization, both kinds, under a gamma0 box and on partial arcs
    mesh = CHAIN_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, min(8, len(mesh.gamma_vertices()) - 1))
    comps = [
        geometry.CrackComponent(random_chain(mesh, rng, int(rng.integers(1, 6))), kind)
        for kind in rng.choice(geometry.KINDS, size=5)
    ]
    got = list(ndmap.chain_matrices(mesh, gamma0, basis, comps))
    assert_matches_nd_solver(mesh, gamma0, basis, comps, got)


def test_chain_maps_star_holding_the_pinned_dof():
    # the arc starts at (0.5, 1), so that vertex is pinned, and it is a
    # corner of the far fan of the slit below it
    mesh = CHAIN_MESHES["rect", True]
    pin = int(fem.build_dofmap(mesh).gamma_dofs[0])
    assert np.allclose(mesh.vertices[pin], [0.5, 1.0])
    chain = tuple(
        int(np.argmin(np.linalg.norm(mesh.vertices - [x, 0.875], axis=1)))
        for x in (0.375, 0.5, 0.625)
    )
    comp = geometry.CrackComponent(chain, geometry.INSULATING)
    far, _ = fem.split_fans(mesh, CrackSet([comp]))
    assert pin in mesh.triangles[far // 3]
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0.7, 1, 1], "value": 3.0}]})
    basis = ndmap.build_basis(mesh, 4)
    got = list(ndmap.chain_matrices(mesh, gamma0, basis, [comp]))
    assert_matches_nd_solver(mesh, gamma0, basis, [comp], got)


def test_chain_maps_refuse_invalid_chains():
    mesh = CHAIN_MESHES["rect", False]
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    bvs = sorted(mesh.boundary_vertex_set())
    edges = mesh.edges()
    # an edge from a boundary vertex into the interior
    a, b = next(e for e in edges.tolist() if (e[0] in bvs) != (e[1] in bvs))
    for kind in geometry.KINDS:
        with pytest.raises(ValueError, match="boundary"):
            list(ndmap.chain_matrices(mesh, gamma0, basis, [geometry.CrackComponent((a, b), kind)]))


def record_green_solves(monkeypatch):
    """The dofs of every Green's solve of ``fem.Factorization``, one array per call.

    A Green's solve is recognised by its load: e_c - e_pin for each column c.
    """
    calls = []
    real = fem.Factorization.solve

    def solve(self, b, rows=None):
        k = b.shape[-1] if b.ndim == 2 else 0
        if rows is not None and np.array_equal(b, np.vstack([np.eye(k), -np.ones((1, k))])):
            assert rows[-1] == self.pin
            calls.append(np.asarray(rows[:-1]))
        return real(self, b, rows)

    monkeypatch.setattr(fem.Factorization, "solve", solve)
    return calls


def test_chain_green_columns_solved_once(monkeypatch):
    # the inner-chains benchmark scenario at seed 0: 520 insulating
    # candidates whose stars hold 193 distinct vertices; each star vertex is
    # one Green's column, solved once, and no solve is wider than the basis
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, _ = embed_crack(mesh, [(0.25, 0.75), (0.5, 0.75)], geometry.INSULATING)
    grid = geometry.PixelGrid(mesh, 8, 8)
    basis = ndmap.build_basis(mesh, 16)
    region = geometry.interior_pixel_set(grid)
    comps = [
        geometry.CrackComponent(c, geometry.INSULATING)
        for c in reconstruct.axis_chain_candidates(mesh, region, (2, 4))
    ]
    assert len(comps) == 520
    stars = set()
    for comp in comps:
        far, _ = fem.split_fans(mesh, CrackSet([comp]))
        stars.update(mesh.triangles[far // 3].ravel().tolist())
    stars.discard(int(mesh.gamma_vertices()[0]))
    calls = record_green_solves(monkeypatch)
    got = list(ndmap.chain_matrices(mesh, fem.Conductivity(mesh, 1.0), basis, comps))
    assert len(got) == 520
    columns = np.concatenate(calls).tolist()
    assert len(columns) == len(set(columns)) == len(stars) == 193
    assert set(columns) == stars
    assert max(len(c) for c in calls) <= basis.M


# ------------------------------------------------------------------ #
# excluded and frozen regions as low-rank updates (upper peeling)
# ------------------------------------------------------------------ #

REGION_MESHES = {
    ("rect", False): build_rect_mesh(1.0, 1.0, 1.0 / 16),
    ("rect", True): mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 16), {"box": [-0.1, 0.9, 0.5, 1.1]}),
    ("disk", False): build_disk_mesh(1.0, 0.1),
    ("disk", True): mark_gamma(build_disk_mesh(1.0, 0.1), {"angle": [0.5, 2.5]}),
}


def assert_region_matches_nd_solver(mesh, gamma0, basis, region, got, mode):
    # got is RegionMaps.matrices() of ``region``: each built side against
    # its own factorization, the other side None
    for N, key, built in (
        (got[0], "excluded", mode != "conducting"),
        (got[1], "frozen", mode != "insulating"),
    ):
        if not built:
            assert N is None
            continue
        ref = ndmap.NdSolver(mesh, gamma0, {key: region}).nd_matrix(basis)
        assert N.config_label == ref.config_label
        assert N.kinds == ref.kinds == frozenset()
        assert np.max(np.abs(N.entries - ref.entries)) <= 1e-10 * np.max(np.abs(ref.entries))


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    mode=st.sampled_from(ndmap.MODES),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_region_maps_match_nd_solver(shape, arc, box, mode, seed):
    # differential oracle along a random peel sequence: every tested region
    # (the start region, candidates, regions after folds) against its own
    # factorization, under a gamma0 box and on partial arcs; the Green's
    # blocks are solved in several chunks of M = 6 columns
    mesh = REGION_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    maps = ndmap.RegionMaps(mesh, gamma0, basis, geometry.interior_pixel_set(grid), mode)
    assert_region_matches_nd_solver(mesh, gamma0, basis, maps.region, maps.matrices(), mode)
    for _ in range(3):
        cands = geometry.peel_candidates(maps.region)
        pixel = cands[rng.integers(len(cands))]
        cand = maps.region.minus(pixel)
        assert_region_matches_nd_solver(mesh, gamma0, basis, cand, maps.matrices(pixel), mode)
        # fold a few removals between the checked ones
        for _ in range(int(rng.integers(1, 6))):
            cands = geometry.peel_candidates(maps.region)
            maps.peel(cands[rng.integers(len(cands))])
    assert_region_matches_nd_solver(mesh, gamma0, basis, maps.region, maps.matrices(), mode)


def test_region_maps_green_columns(monkeypatch):
    # a start solves one Green's column per skeleton vertex (frozen side) and
    # per boundary vertex of R0 (excluded side), in blocks of at most M
    mesh = REGION_MESHES["rect", False]
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    R0 = geometry.interior_pixel_set(grid)
    pixels = [set() for _ in mesh.vertices]
    inside = np.zeros(len(mesh.vertices), dtype=bool)
    outside = np.zeros(len(mesh.vertices), dtype=bool)
    for t, tri in enumerate(mesh.triangles.tolist()):
        for v in tri:
            pixels[v].add(int(grid.tri_pixel[t]))
        (inside if grid.tri_pixel[t] in R0.members else outside)[tri] = True
    skeleton = [v for v in range(len(mesh.vertices)) if inside[v] and len(pixels[v]) > 1]
    boundary = np.flatnonzero(inside & outside)
    calls = record_green_solves(monkeypatch)
    ndmap.RegionMaps(mesh, fem.Conductivity(mesh, 1.0), basis, R0)
    assert sum(len(c) for c in calls) == len(skeleton) + len(boundary)
    assert max(len(c) for c in calls) <= basis.M


def test_region_maps_split_and_empty_regions():
    # a strip that splits into two frozen components, then peels down to the
    # empty region, whose excluded and frozen matrices are the background's
    mesh = REGION_MESHES["rect", True]
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0, 0.5, 1], "value": 4.0}]})
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    strip = geometry.PixelSet.from_rect(grid, 2, 4, 4, 4)
    maps = ndmap.RegionMaps(mesh, gamma0, basis, strip)
    for pixel in (grid.index(3, 4), grid.index(2, 4), grid.index(4, 4)):
        got = maps.matrices(pixel)
        maps.peel(pixel)
        assert_region_matches_nd_solver(mesh, gamma0, basis, maps.region, got, "both")
        if len(maps.region) == 2:
            assert len(set(maps.region.components().values())) == 2
    assert len(maps.region) == 0
    background = ndmap.nd_matrix(mesh, gamma0, None, basis)
    for N in maps.matrices():
        assert N.config_label == "none"
        assert np.max(np.abs(N.entries - background.entries)) <= 1e-10 * np.max(
            np.abs(background.entries)
        )
    # the frozen side takes any region inside the start region, and no other
    two = geometry.PixelSet(grid, {grid.index(2, 4), grid.index(4, 4)})
    assert_region_matches_nd_solver(mesh, gamma0, basis, two, (None, maps.frozen(two)), "conducting")
    with pytest.raises(ValueError, match="start region"):
        maps.frozen(geometry.PixelSet(grid, {grid.index(3, 3)}))
    for mode in ndmap.MODES:
        emptied = ndmap.RegionMaps(mesh, gamma0, basis, geometry.PixelSet(grid, [grid.index(3, 4)]), mode)
        emptied.peel(grid.index(3, 4))
        with pytest.raises(ValueError, match="not in the region"):
            emptied.matrices(grid.index(3, 4))
        with pytest.raises(ValueError, match="not in the region"):
            emptied.peel(grid.index(3, 4))
    with pytest.raises(ValueError, match="mode"):
        ndmap.RegionMaps(mesh, gamma0, basis, strip, "all")
