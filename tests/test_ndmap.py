from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from crackfind import fem, geometry, ndmap
from crackfind.geometry import (
    CrackSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    mark_gamma,
)


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
        lhs, rhs = ndmap.projection_identity_check(mesh, gamma0, cracks, basis, idx, "P")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_insulating_vs_full(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for idx in (0, 3, 7):
        lhs, rhs = ndmap.projection_identity_check(mesh, gamma0, cracks, basis, idx, "Q")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_no_cracks_is_zero():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    lhs, rhs = ndmap.projection_identity_check(
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
    green=st.sampled_from([3, ndmap.GREEN_COLUMNS]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_chain_maps_match_nd_solver(shape, arc, box, green, seed):
    # differential oracle: the low-rank update of every chain against its own
    # factorization, both kinds, under a gamma0 box and on partial arcs; a
    # small Green's batch makes batches end between chains
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
    with mock.patch.object(ndmap, "GREEN_COLUMNS", green):
        got = list(ndmap.ChainMaps(mesh, gamma0, basis).nd_matrices(comps))
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
    got = list(ndmap.ChainMaps(mesh, gamma0, basis).nd_matrices([comp]))
    assert_matches_nd_solver(mesh, gamma0, basis, [comp], got)


def test_chain_maps_refuse_invalid_chains():
    mesh = CHAIN_MESHES["rect", False]
    gamma0 = fem.Conductivity(mesh, 1.0)
    maps = ndmap.ChainMaps(mesh, gamma0, ndmap.build_basis(mesh, 6))
    bvs = sorted(mesh.boundary_vertex_set())
    edges = mesh.edges()
    # an edge from a boundary vertex into the interior
    a, b = next(e for e in edges.tolist() if (e[0] in bvs) != (e[1] in bvs))
    for kind in geometry.KINDS:
        with pytest.raises(ValueError, match="boundary"):
            list(maps.nd_matrices([geometry.CrackComponent((a, b), kind)]))
