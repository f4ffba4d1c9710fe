import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from crackfind import fem, geometry, locpot, ndmap
from crackfind.geometry import (
    CrackSet,
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    interior_pixel_set,
)


@pytest.fixture(scope="module")
def ops(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty = locpot.build_source_operator(mesh, gamma0, None, V, basis)
    op_mixed = locpot.build_source_operator(mesh, gamma0, cracks, V, basis)
    return op_empty, op_mixed


def test_adjoint_identity_on_random_pairs(chain_setup, ops):
    # two independent routes to the same pairing: the assembled matrix
    # against a direct current solve plus element-wise gradient integrals
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, op_mixed = ops
    areas = mesh.tri_areas()
    rng = np.random.default_rng(3)
    for op, config in ((op_empty, None), (op_mixed, cracks)):
        solver = ndmap.NdSolver(mesh, gamma0, config)
        for _ in range(20):
            Fv = rng.standard_normal((len(op.tris), 2))
            d = rng.standard_normal(basis.M)
            lhs = float(op.apply(Fv) @ d)
            u = solver.solve_current(basis.vectors @ d)
            gu = fem.gradient_on(u, op.tris)
            rhs = float(
                np.sum(areas[op.tris, None] * Fv * gu.values[op.tris])
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_adjoint_matches_direct_gradient(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, _ = ops
    rng = np.random.default_rng(4)
    d = rng.standard_normal(basis.M)
    grad = op_empty.adjoint(d)
    solver = ndmap.NdSolver(mesh, gamma0)
    u = solver.solve_current(basis.vectors @ d)
    direct = fem.gradient_on(u, op_empty.tris)
    assert np.max(np.abs(grad.values - direct.values)) < 1e-10 * max(
        1.0, np.max(np.abs(direct.values))
    )


def test_source_operator_matches_per_column_reference(chain_setup, ops, monkeypatch):
    # reference: one ElementVectorField solve per canonical source
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    areas = mesh.tri_areas()
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    for op, config in zip(ops, (None, cracks)):
        solver = ndmap.NdSolver(mesh, gamma0, config)
        ref = np.zeros_like(op.matrix)
        for k, t in enumerate(op.tris):
            for d in (0, 1):
                F = fem.ElementVectorField(mesh, np.eye(2)[d : d + 1] / np.sqrt(areas[t]), [t])
                ref[:, 2 * k + d] = weighted.T @ fem.trace_on_gamma(solver.solve_source(F))
        assert np.max(np.abs(op.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))

    # the sources go through in blocks of basis.M columns
    calls = []
    solve = fem.solve_source
    monkeypatch.setattr(fem, "solve_source", lambda *a: calls.append(a) or solve(*a))
    op = locpot.build_source_operator(mesh, gamma0, None, V, basis)
    assert len(calls) == -(-op.matrix.shape[1] // basis.M) > 1


def test_source_operator_memory_stays_near_nd_matrix():
    # chunked sources keep the peak near that of one M-column current block;
    # one block of all 2 * #triangles sources would be several times larger
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 32)
    grid = PixelGrid(mesh, 8, 8)
    V = PixelSet.from_rect(grid, 2, 2, 4, 4)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 32)

    def peak(fn):
        fn()  # fill the mesh caches outside the measurement
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sources = peak(lambda: locpot.build_source_operator(mesh, gamma0, None, V, basis))
    currents = peak(lambda: ndmap.NdSolver(mesh, gamma0).nd_matrix(basis))
    assert sources <= 1.5 * currents


def test_pack_unpack_round_trip(ops):
    op_empty, _ = ops
    rng = np.random.default_rng(5)
    v = rng.standard_normal((len(op_empty.tris), 2))
    assert np.allclose(op_empty.unpack(op_empty.pack(v)), v, atol=1e-14)
    # packing is an isometry onto L2 coefficients
    areas = op_empty.mesh.tri_areas()[op_empty.tris]
    l2 = np.sum(areas[:, None] * v * v)
    assert np.linalg.norm(op_empty.pack(v)) ** 2 == pytest.approx(l2, rel=1e-12)


def test_empty_region_gives_zero_columns(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op = locpot.build_source_operator(
        mesh, gamma0, None, PixelSet(grid, ()), basis
    )
    assert op.matrix.shape == (basis.M, 0)
    assert np.array_equal(op.apply(np.zeros((0, 2))), np.zeros(basis.M))


def test_boundary_region_rejected(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    edge = PixelSet.from_rect(grid, 0, 0, 2, 0)
    with pytest.raises(ValueError):
        locpot.build_source_operator(mesh, gamma0, None, edge, basis)


def test_range_equality_with_crack_inside_region(chain_setup, ops):
    # slitting inside the source region leaves the numerical column space
    # unchanged: principal angles at the matched numerical rank stay tiny
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, _ = ops
    ins = cracks.of_kind(geometry.INSULATING)
    op_slit = locpot.build_source_operator(mesh, gamma0, ins, V, basis)
    U0 = locpot.numerical_range(op_empty)
    US = locpot.numerical_range(op_slit)
    r = min(U0.shape[1], US.shape[1])
    assert r >= 10
    angles = scipy.linalg.subspace_angles(U0[:, :r], US[:, :r])
    assert np.max(angles) < 1e-8


def test_range_containment_for_nested_regions(chain_setup, ops):
    # sources on a subregion are reachable from the larger region, so the
    # adjoint norms stay comparable; the far region fails the subspace test
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_V, _ = ops
    Ybig = PixelSet(grid, V.dilate(1).members & interior_pixel_set(grid).members)
    op_Y = locpot.build_source_operator(mesh, gamma0, None, Ybig, basis)
    P = locpot.numerical_range(op_Y)
    resid = np.linalg.norm(
        op_V.matrix - P @ (P.T @ op_V.matrix), 2
    ) / np.linalg.norm(op_V.matrix, 2)
    assert resid < 1e-10
    rng = np.random.default_rng(6)
    ratios = []
    for _ in range(50):
        x = rng.standard_normal(basis.M)
        ratios.append(
            np.linalg.norm(op_V.matrix.T @ x) / np.linalg.norm(op_Y.matrix.T @ x)
        )
    assert max(ratios) < 10.0
    op_far = locpot.build_source_operator(mesh, gamma0, None, W, basis)
    Pf = locpot.numerical_range(op_far)
    resid_far = np.linalg.norm(
        op_V.matrix - Pf @ (Pf.T @ op_V.matrix), 2
    ) / np.linalg.norm(op_V.matrix, 2)
    assert resid_far > 1e-3


def test_pick_y0_visible_for_crack_in_region(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    pick = locpot.pick_y0(mesh, gamma0, cracks, V, basis, "insulating")
    assert pick.visible
    assert pick.sigma > 1e-3
    assert np.linalg.norm(pick.y0) == pytest.approx(1.0, rel=1e-12)


def test_pick_y0_invisible_without_matching_kind(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    con_only = cracks.of_kind(geometry.CONDUCTING)
    pick = locpot.pick_y0(mesh, gamma0, con_only, V, basis, "insulating")
    assert not pick.visible
    assert pick.y0 is None
    assert pick.sigma < locpot.INVISIBLE_ATOL


def test_pick_y0_symmetry_needs_enough_modes():
    # a crack on the mirror axis of the disk is invisible to a single even
    # current mode; adding the odd mode resolves it
    mesh = build_disk_mesh(1.0, 0.1)
    mesh, cracks = embed_crack(mesh, [(-0.3, 0.0), (0.3, 0.0)], geometry.INSULATING)
    gamma0 = fem.Conductivity(mesh, 1.0)
    grid = PixelGrid(mesh, 8, 8)
    V = PixelSet.from_rect(grid, 2, 3, 5, 4)
    order = mesh.gamma_vertices()
    ang = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
    even = ndmap.CurrentBasis.from_vectors(mesh, np.cos(ang)[:, None])
    pick = locpot.pick_y0(mesh, gamma0, cracks, V, even, "insulating")
    assert not pick.visible
    both = ndmap.CurrentBasis.from_vectors(
        mesh, np.stack([np.cos(ang), np.sin(ang)], axis=1)
    )
    pick = locpot.pick_y0(mesh, gamma0, cracks, V, both, "insulating")
    assert pick.visible


def test_localized_sequence_input_validation(ops):
    op_empty, op_mixed = ops
    diff = locpot.DifferenceOperator(op_mixed, op_empty)
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty, np.zeros(op_empty.basis.M))
    y = np.ones(op_empty.basis.M)
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty, y, n_values=[1.0, 1.0])
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty, y, n_values=[-1.0, 10.0])


def test_localized_sequence_degenerate_far_operator(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    _, op_mixed = ops
    empty_far = locpot.build_source_operator(
        mesh, gamma0, None, PixelSet(grid, ()), basis
    )
    y = np.zeros(basis.M)
    y[0] = 1.0
    seq = locpot.localized_sequence(op_mixed, empty_far, y)
    assert seq.degenerate
    assert len(seq) == 0


def test_localized_sequence_y0_in_far_range_stays_bounded(chain_setup, ops):
    # when the target voltage is reachable from the far region, no
    # starvation happens: recorded norms stay in a modest band
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, op_mixed = ops
    diff = locpot.DifferenceOperator(op_mixed, op_empty)
    op_far = locpot.build_source_operator(mesh, gamma0, None, W, basis)
    rng = np.random.default_rng(7)
    y = op_far.matrix @ rng.standard_normal(op_far.matrix.shape[1])
    y /= np.linalg.norm(y)
    seq = locpot.localized_sequence(diff, op_far, y)
    assert max(seq.a1_norms) < 10.0
    assert min(seq.a2_norms) > 0.05


def test_localized_demo_trends(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for variant in ("insulating", "conducting"):
        seq, report = locpot.run_localized_demo(
            mesh, gamma0, cracks, grid, V, W, basis, variant
        )
        assert not seq.degenerate
        # the monotone flags report the observed trends faithfully
        flags = report["monotone"]
        assert flags == locpot.monotone_flags(seq)
        assert flags["a2_nonincreasing_after_first_decade"]
        trend = report["trend"]
        assert trend["upper_far"]["ratio"] < 1e-2
        assert trend["lower_far"]["ratio"] < 1e-2
        assert trend["crack_near"]["ratio"] > 1.5
        # the difference-field energy metric is exactly the crack form
        for k in range(len(seq)):
            assert seq.metrics[k]["diff_energy"] == pytest.approx(
                report["forms"]["crack_near"][k], rel=1e-12
            )


def test_no_crack_control_form_is_zero(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, op_mixed = ops
    diff = locpot.DifferenceOperator(op_mixed, op_empty)
    op_far = locpot.build_source_operator(mesh, gamma0, None, W, basis)
    y = np.zeros(basis.M)
    y[1] = 1.0
    seq = locpot.localized_sequence(diff, op_far, y)
    N = ndmap.nd_matrix(mesh, gamma0, None, basis)
    report = locpot.blowup_metrics(seq, {"control": (N, N)})
    assert all(v == 0.0 for v in report["forms"]["control"])


def test_sequence_csv_round_trip(tmp_path, chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    seq, report = locpot.run_localized_demo(
        mesh, gamma0, cracks, grid, V, W, basis, "insulating"
    )
    path = tmp_path / "seq.csv"
    locpot.sequence_to_csv(seq, report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,a1_norm,a2_norm,crack_near,lower_far,upper_far"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (len(seq), 6)
    assert np.allclose(data[:, 0], seq.n_values)
    assert np.allclose(data[:, 1], seq.a1_norms)
