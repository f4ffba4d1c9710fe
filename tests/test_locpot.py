import tracemalloc
import weakref

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


def source_op(chain_setup, config, region):
    # a fresh solver per operator, as every caller outside the demo does
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    return locpot.build_source_operator(ndmap.NdSolver(mesh, gamma0, config), region, basis)


@pytest.fixture(scope="module")
def ops(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    return source_op(chain_setup, None, V), source_op(chain_setup, cracks, V)


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
    op = source_op(chain_setup, None, V)
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

    sources = peak(
        lambda: locpot.build_source_operator(ndmap.NdSolver(mesh, gamma0), V, basis)
    )
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
    op = source_op(chain_setup, None, PixelSet(grid, ()))
    assert op.matrix.shape == (basis.M, 0)
    assert np.array_equal(op.apply(np.zeros((0, 2))), np.zeros(basis.M))


def test_boundary_region_rejected(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    edge = PixelSet.from_rect(grid, 0, 0, 2, 0)
    with pytest.raises(ValueError):
        source_op(chain_setup, None, edge)


def test_range_equality_with_crack_inside_region(chain_setup, ops):
    # slitting inside the source region leaves the numerical column space
    # unchanged: principal angles at the matched numerical rank stay tiny
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, _ = ops
    ins = cracks.of_kind(geometry.INSULATING)
    op_slit = source_op(chain_setup, ins, V)
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
    op_Y = source_op(chain_setup, None, Ybig)
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
    op_far = source_op(chain_setup, None, W)
    Pf = locpot.numerical_range(op_far)
    resid_far = np.linalg.norm(
        op_V.matrix - Pf @ (Pf.T @ op_V.matrix), 2
    ) / np.linalg.norm(op_V.matrix, 2)
    assert resid_far > 1e-3


def test_pick_y0_visible_for_crack_in_region(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    con_only = cracks.of_kind(geometry.CONDUCTING)
    pick = locpot.pick_y0(source_op(chain_setup, cracks, V), source_op(chain_setup, con_only, V))
    assert pick.visible
    assert pick.sigma > 1e-3
    assert np.linalg.norm(pick.y0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="share a region"):
        locpot.pick_y0(source_op(chain_setup, cracks, V), source_op(chain_setup, cracks, W))


def test_pick_y0_invisible_without_matching_kind(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    con_only = cracks.of_kind(geometry.CONDUCTING)
    op_con = source_op(chain_setup, con_only, V)
    pick = locpot.pick_y0(op_con, source_op(chain_setup, con_only, V))
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
    cracked, plain = ndmap.NdSolver(mesh, gamma0, cracks), ndmap.NdSolver(mesh, gamma0)

    def pick(basis):
        return locpot.pick_y0(
            locpot.build_source_operator(cracked, V, basis),
            locpot.build_source_operator(plain, V, basis),
        )

    even = ndmap.CurrentBasis.from_vectors(mesh, np.cos(ang)[:, None])
    assert not pick(even).visible
    both = ndmap.CurrentBasis.from_vectors(
        mesh, np.stack([np.cos(ang), np.sin(ang)], axis=1)
    )
    assert pick(both).visible


def test_localized_sequence_input_validation(ops):
    op_empty, op_mixed = ops
    diff = op_mixed.matrix - op_empty.matrix
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
    empty_far = source_op(chain_setup, None, PixelSet(grid, ()))
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
    diff = op_mixed.matrix - op_empty.matrix
    op_far = source_op(chain_setup, None, W)
    rng = np.random.default_rng(7)
    y = op_far.matrix @ rng.standard_normal(op_far.matrix.shape[1])
    y /= np.linalg.norm(y)
    seq = locpot.localized_sequence(diff, op_far, y)
    assert max(seq.a1_norms) < 10.0
    assert min(seq.a2_norms) > 0.05


def test_localized_demo_trends(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    runs = locpot.run_localized_demo(ndmap.Configurations(mesh, gamma0, basis, cracks, V, W))
    assert sorted(runs) == ["conducting", "insulating"]
    for variant, (seq, report) in runs.items():
        assert report["variant"] == variant
        assert not seq.degenerate
        # the monotone flags report the observed trends faithfully
        flags = report["monotone"]
        assert flags == locpot.monotone_flags(seq)
        assert flags["a2_nonincreasing_after_first_decade"]
        trend = report["trend"]
        assert trend["upper_far"]["ratio"] < 1e-2
        assert trend["lower_far"]["ratio"] < 1e-2
        assert trend["crack_near"]["ratio"] > 1.5


def reference_variant(mesh, gamma0, cracks, grid, V, W, basis, variant):
    # the straightforward path: a fresh solver for every source operator and
    # every ND matrix, the variant written out by hand
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    if variant == "insulating":
        near, far, hi, lo, bg = V, W, cracks, con, con
    else:
        near, far, hi, lo, bg = W, V, ins, cracks, ins

    def op(config, region):
        return locpot.build_source_operator(ndmap.NdSolver(mesh, gamma0, config), region, basis)

    def nd(config):
        return ndmap.nd_matrix(mesh, gamma0, config, basis)

    diff = op(hi, near).matrix - op(lo, near).matrix
    U, s, _ = np.linalg.svd(diff, full_matrices=False)
    Y = PixelSet(grid, far.dilate(1).members & interior_pixel_set(grid).members)
    seq = locpot.localized_sequence(diff, op(bg, Y), U[:, 0])
    forms = {
        "upper_far": (nd({"excluded": far}), nd(None)),
        "lower_far": (nd(None), nd({"frozen": far})),
        "crack_near": (nd(hi), nd(lo)),
    }
    return seq, locpot.blowup_metrics(seq, forms), float(s[0])


def contrast_setup():
    # the scenario of acceptance criterion 5
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(mesh, [(0.25, 0.125), (0.5, 0.125)], geometry.INSULATING)
    mesh, cracks = embed_crack(
        mesh, [(0.5, 0.875), (0.75, 0.875)], geometry.CONDUCTING, cracks=cracks
    )
    grid = PixelGrid(mesh, 16, 16)
    V = PixelSet.from_rect(grid, 3, 1, 8, 2)
    W = PixelSet.from_rect(grid, 7, 13, 12, 14)
    return mesh, cracks, grid, V, W, fem.Conductivity(mesh, 0.01), ndmap.build_basis(mesh, 40)


@pytest.mark.parametrize("scenario", ["chain_setup", "criterion_5"])
def test_localized_demo_matches_fresh_solver_reference(chain_setup, scenario):
    # differential oracle: the one table of configurations against a fresh
    # solver per call gives the same numbers, bit for bit
    setup = chain_setup if scenario == "chain_setup" else contrast_setup()
    mesh, cracks, grid, V, W, gamma0, basis = setup
    runs = locpot.run_localized_demo(ndmap.Configurations(mesh, gamma0, basis, cracks, V, W))
    for variant, (seq, report) in runs.items():
        ref_seq, ref_report, sigma = reference_variant(
            mesh, gamma0, cracks, grid, V, W, basis, variant
        )
        assert seq.n_values == ref_seq.n_values and seq.degenerate == ref_seq.degenerate
        assert all(np.array_equal(f, g) for f, g in zip(seq.f_n, ref_seq.f_n))
        assert seq.a1_norms == ref_seq.a1_norms
        assert seq.a2_norms == ref_seq.a2_norms
        assert report["forms"] == ref_report["forms"]
        assert report["sigma"] == sigma
        assert report["monotone"] == locpot.monotone_flags(ref_seq)


def test_localized_demo_factorizes_each_configuration_once(chain_setup, monkeypatch):
    # eight configurations, one factorization each, never two alive at once
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    made, alive, most = [], [0], [0]
    real = fem.Factorization

    def counting(*args):
        fact = real(*args)
        made.append(1)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(fact, lambda: alive.__setitem__(0, alive[0] - 1))
        return fact

    monkeypatch.setattr(fem, "Factorization", counting)
    locpot.run_localized_demo(ndmap.Configurations(mesh, gamma0, basis, cracks, V, W))
    assert len(made) == 8
    assert most[0] == 1


def test_no_crack_control_form_is_zero(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, op_mixed = ops
    diff = op_mixed.matrix - op_empty.matrix
    op_far = source_op(chain_setup, None, W)
    y = np.zeros(basis.M)
    y[1] = 1.0
    seq = locpot.localized_sequence(diff, op_far, y)
    N = ndmap.nd_matrix(mesh, gamma0, None, basis)
    report = locpot.blowup_metrics(seq, {"control": (N, N)})
    assert all(v == 0.0 for v in report["forms"]["control"])


def test_sequence_csv_round_trip(tmp_path, chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    table = ndmap.Configurations(mesh, gamma0, basis, cracks, V, W)
    seq, report = locpot.run_localized_demo(table)["insulating"]
    path = tmp_path / "seq.csv"
    locpot.sequence_to_csv(seq, report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,a1_norm,a2_norm,crack_near,lower_far,upper_far"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (len(seq), 6)
    assert np.allclose(data[:, 0], seq.n_values)
    assert np.allclose(data[:, 1], seq.a1_norms)
