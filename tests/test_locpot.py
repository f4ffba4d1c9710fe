import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from crackfind import fem, geometry, harness, locpot, ndmap
from crackfind.geometry import (
    CrackSet,
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    interior_pixel_set,
    mark_gamma,
)
import oracles
from oracles import numerical_range, source_operator_columns, source_rank


def source_op(chain_setup, config, region):
    # a fresh factorization of the crack set ``config`` per operator, as
    # every caller outside the demo does
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    return locpot.build_source_operator(oracles.factorize(mesh, gamma0, config), region, basis)


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
        fact = oracles.factorize(mesh, gamma0, config)
        for _ in range(20):
            Fv = rng.standard_normal((len(op.tris), 2))
            d = rng.standard_normal(basis.M)
            # the columns take the field's values scaled by sqrt(area)
            lhs = float(op.matrix @ (Fv * np.sqrt(areas[op.tris])[:, None]).ravel() @ d)
            u = fem.solve_neumann(fact, (basis.vectors @ d)[:, None])
            gu = fem.gradient_on(u, op.tris)[0]
            rhs = float(np.sum(areas[op.tris, None] * Fv * gu))
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_adjoint_matches_direct_gradient(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, _ = ops
    rng = np.random.default_rng(4)
    d = rng.standard_normal(basis.M)
    # the transpose gives the gradients scaled by sqrt(area)
    root_areas = np.sqrt(mesh.tri_areas()[op_empty.tris])
    grad = (op_empty.matrix.T @ d).reshape(-1, 2) / root_areas[:, None]
    u = fem.solve_neumann(fem.factorize(mesh, gamma0), (basis.vectors @ d)[:, None])
    direct = fem.gradient_on(u, op_empty.tris)[0]
    assert np.max(np.abs(grad - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_source_operator_matches_per_column_reference(chain_setup, ops, monkeypatch):
    # reference: one solved column per canonical source
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for op, config in zip(ops, (None, cracks)):
        ref = source_operator_columns(oracles.factorize(mesh, gamma0, config), V, basis).matrix
        assert np.max(np.abs(op.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))

    # one edge source per dimension of the loads' span, in blocks of
    # basis.M columns: fewer blocks than one column per canonical source
    calls = []
    solve = fem.solve_source
    monkeypatch.setattr(fem, "solve_source", lambda *a: calls.append(a) or solve(*a))
    fact = fem.factorize(mesh, gamma0)
    op = locpot.build_source_operator(fact, V, basis)
    blocks = -(-source_rank(fact.dm, op.tris) // basis.M)
    assert len(calls) == blocks < -(-op.matrix.shape[1] // basis.M)


SOURCE_MESHES = {
    ("rect", False): build_rect_mesh(1.0, 1.0, 1.0 / 16),
    ("rect", True): mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 16), {"side": "top"}),
    ("disk", False): build_disk_mesh(1.0, 0.125),
    ("disk", True): mark_gamma(build_disk_mesh(1.0, 0.125), {"angle": [0.5, 2.5]}),
}


def random_source_region(grid, rng):
    """One to three pixel rectangles in the interior, the first a 3x3 ring half the time.

    The ring is a region with a hole (unless another rectangle fills it).
    Returns the region and the first rectangle, filled.
    """
    inside = interior_pixel_set(grid).mask()
    ring = rng.random() < 0.5
    rects = []
    for k in range(int(rng.integers(1, 4))):
        h, w = (3, 3) if ring and k == 0 else (int(v) for v in rng.integers(1, 3, size=2))
        # the corners where the whole rectangle lies in the interior
        fits = [
            (y, x) for y, x in np.argwhere(inside) if inside[y : y + h, x : x + w].sum() == h * w
        ]
        iy, ix = fits[rng.integers(len(fits))]
        mask = np.zeros_like(inside)
        mask[iy : iy + h, ix : ix + w] = True
        rects.append(mask)
    first = PixelSet(grid, np.flatnonzero(rects[0]))
    if ring:
        rects[0] &= ~ndimage.binary_erosion(rects[0])
    return PixelSet(grid, np.flatnonzero(np.logical_or.reduce(rects))), first


def chain_in(mesh, rng, verts, kind, n_edges):
    """A chain of 2..n_edges mesh edges through ``verts``, or None."""
    edges = mesh.edges()
    chain = [int(rng.choice(sorted(verts)))]
    while len(chain) <= n_edges:
        a = chain[-1]
        nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
        nbrs = [w for w in nbrs.tolist() if w in verts and w not in chain]
        if not nbrs:
            break
        chain.append(int(rng.choice(nbrs)))
    return geometry.CrackComponent(tuple(chain), kind) if len(chain) >= 3 else None


def random_source_config(mesh, rng, V, rect, kind):
    """The configuration ``kind`` of the source oracle, as ``oracles.factorize`` keywords."""
    if kind == "none":
        return {}
    if kind == "frozen":
        return {"frozen": rect} if len(rect) and geometry.pixelset_is_admissible(rect) else None
    kinds = {
        "slit": [geometry.INSULATING],
        "tie": [geometry.CONDUCTING],
        "both": [geometry.INSULATING, geometry.CONDUCTING],
    }[kind]
    region = np.unique(mesh.triangles[V.triangles()])
    free = set(region[~mesh.boundary_mask()[region]].tolist())
    outside = np.ones(len(mesh.triangles), dtype=bool)
    outside[V.triangles()] = False
    # a slit vertex whose whole fan lies in the region keeps both its dofs there
    inner = free - set(mesh.triangles[outside].ravel().tolist())
    for _ in range(20):
        comps = [chain_in(mesh, rng, free, k, int(rng.integers(2, 6))) for k in kinds]
        if None in comps or not inner & set(comps[0].chain[1:-1]):
            continue
        cracks = CrackSet(comps)
        try:
            cracks.validate(mesh)
        except ValueError:
            continue
        return {"cracks": cracks}
    return None


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    kind=st.sampled_from(["none", "slit", "tie", "both", "frozen"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_source_operator_matches_columns_on_random_regions(shape, arc, box, kind, seed):
    # differential oracle: the edge-source operator against one solved
    # column per canonical source, on regions with holes and several
    # components, under slits, ties and frozen blocks
    mesh = SOURCE_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, min(8, len(mesh.gamma_vertices()) - 1))
    grid = PixelGrid(mesh, 8, 8)
    V, rect = random_source_region(grid, rng)
    config = random_source_config(mesh, rng, V, rect, kind)
    assume(config is not None)
    fact = oracles.factorize(mesh, gamma0, **config)
    dofs = fact.dm.corner_dof[V.triangles()]
    verts = mesh.triangles[V.triangles()]
    if kind == "slit":
        # a vertex of the region carries two dofs
        assert len(np.unique(dofs)) > len(np.unique(verts))
    if kind == "tie":
        assert len(np.unique(dofs)) < len(np.unique(verts))

    op = locpot.build_source_operator(fact, V, basis)
    ref = source_operator_columns(fact, V, basis)
    assert np.array_equal(op.tris, ref.tris)
    assert np.max(np.abs(op.matrix - ref.matrix), initial=0.0) <= 1e-12 * np.max(
        np.abs(ref.matrix), initial=0.0
    )
    # a triangle whose corners share one dof (inside a frozen block, or
    # three corners of one tie) gives exactly zero columns
    flat = np.repeat((dofs[:, 0] == dofs[:, 1]) & (dofs[:, 1] == dofs[:, 2]), 2)
    assert flat.any() or kind != "frozen"
    assert not np.any(op.matrix[:, flat])


def random_chain(rng, n_cells, n_edges):
    """A polyline of ``n_edges`` mesh edges inside the interior pixels of an 8x8 grid.

    An axis run, or an L of two runs, from a random vertex at least one
    pixel off the boundary; coordinates in mesh cells.
    """
    lo, hi = n_cells // 8, n_cells - n_cells // 8
    first = int(rng.integers(1, n_edges + 1))
    steps = [(first, bool(rng.integers(2)))]
    if first < n_edges:
        steps.append((n_edges - first, not steps[0][1]))
    point = rng.integers(lo, hi + 1, size=2)
    poly = [point.copy()]
    for length, vertical in steps:
        point = point.copy()
        point[int(vertical)] += length * (1 if rng.integers(2) else -1)
        poly.append(point)
    if np.any(np.array(poly) < lo) or np.any(np.array(poly) > hi):
        return None
    return [[float(x) / n_cells, float(y) / n_cells] for x, y in poly]


@settings(max_examples=20, deadline=None)
@given(
    n_cells=st.sampled_from([16, 24, 32]),
    n_slit=st.integers(1, 5),
    n_tie=st.integers(1, 4),
    box=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_source_operators_match_own_factorizations(n_cells, n_slit, n_tie, box, seed):
    # differential oracle: every (crack configuration, region) operator from
    # the one background, with the configuration's exact update, against
    # build_source_operator of the configuration's own factorization, on
    # random two-crack layouts; one-edge insulating chains open no slit, and
    # a layout whose cracks meet the boundary pixel ring is refused. The
    # table's crack matrices against nd_matrix of their own factorizations
    rng = np.random.default_rng(seed)
    ins, con = random_chain(rng, n_cells, n_slit), random_chain(rng, n_cells, n_tie)
    assume(ins is not None and con is not None)
    gamma0 = 1.0
    if box:
        x0, y0 = rng.uniform(0.0, 0.6, 2)
        gamma0 = {"boxes": [{"box": [x0, y0, x0 + 0.4, y0 + 0.4], "value": rng.uniform(0.1, 10.0)}]}
    spec = {
        "h": 1.0 / n_cells, "grid": [8, 8], "M": 8, "gamma0": gamma0, "methods": ["locpot"],
        "cracks": [{"kind": "insulating", "polyline": ins},
                   {"kind": "conducting", "polyline": con}],
    }
    try:
        built = harness.build_scenario(harness.scenario_from_dict(spec))
    except harness.ScenarioError:
        # the cracks meet, their pixel regions overlap, or a crack meets the
        # boundary pixel ring
        assume(False)
    table = built.table
    regions = locpot.source_regions(table)
    wanted = []
    for name in ndmap.CRACK_CONFIGS:
        update = table.crack_update(name)
        for key, region in regions.items():
            try:
                locpot.source_operators(table, [(name, key)])
            except ValueError as exc:
                # a grown W may reach into a far fan of the slit without
                # holding the star vertices that a far corner's load
                # condenses to, which its edge sources cannot express:
                # refused, and only there
                assert "far-fan corner" in str(exc)
                verts = set(built.mesh.triangles[region.triangles()].ravel().tolist())
                corners = 3 * region.triangles()[:, None] + np.arange(3)
                assert np.isin(update.far, corners).any()
                assert not set(update.S.tolist()) <= verts
            else:
                wanted.append((name, key))
    # the demo's six operators are always among them
    assert {pair for near, far, hi, lo, bg in locpot.VARIANTS.values()
            for pair in ((hi, near), (lo, near), (bg, "grown " + far))} <= set(wanted)
    got = locpot.source_operators(table, wanted)
    ref = oracles.source_operators_factorized(table, wanted)
    for pair in wanted:
        assert np.array_equal(got[pair].tris, ref[pair].tris)
        assert np.max(np.abs(got[pair].matrix - ref[pair].matrix)) <= 1e-12 * np.max(
            np.abs(ref[pair].matrix))
    for name in ndmap.CRACK_CONFIGS:
        want = ndmap.nd_matrix(oracles.factorize(built.mesh, built.gamma0, **table.configs[name]),
                               built.basis)
        N = table.nd(name)
        assert np.max(np.abs(N.entries - want.entries)) <= 1e-12 * np.max(np.abs(want.entries))
        assert (N.config_label, N.kinds) == (want.config_label, want.kinds)


def test_source_operator_refuses_a_far_corner_without_its_star(chain_setup):
    # a region that holds a far corner of the slit but not every vertex its
    # load condenses to cannot express that load by its own edge sources
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    update = table.crack_update("insulating")
    assert len(update.far)
    # one pixel holding a far corner, whose star spans more than that pixel
    pixel = int(grid.tri_pixel[update.far[0] // 3])
    region = PixelSet(grid, [pixel])
    assert not set(update.S.tolist()) <= set(mesh.triangles[region.triangles()].ravel().tolist())
    with pytest.raises(ValueError, match="far-fan corner"):
        locpot.build_source_operator(update.fact, region, basis, update)
    # the whole crack region holds it: the operator of the slit configuration
    op = locpot.build_source_operator(update.fact, V, basis, update)
    ref = locpot.build_source_operator(oracles.factorize(mesh, gamma0, cracks.of_kind(
        geometry.INSULATING)), V, basis)
    assert np.max(np.abs(op.matrix - ref.matrix)) <= 1e-12 * np.max(np.abs(ref.matrix))


def test_source_operator_of_a_slit_whose_star_holds_the_pin():
    # the pinned dof is zero in every potential, so a star that holds it
    # drops it, and the update may not shift the potentials' common offset
    # away there: a slit next to the pinned arc vertex of a disk, against the
    # slit's own factorization, on the interior away from its far fans
    mesh = build_disk_mesh(1.0, 0.125)
    pin = mesh.gamma_vertices()[0]
    edges, boundary = mesh.edges(), mesh.boundary_mask()

    def inner(v):
        near = np.concatenate([edges[edges[:, 0] == v, 1], edges[edges[:, 1] == v, 0]])
        return [int(w) for w in near if not boundary[w]]

    chains = [(a, v, b) for v in inner(pin) for a in inner(v) for b in inner(v) if a < b]
    for chain in chains:
        cracks = CrackSet([geometry.CrackComponent(chain, geometry.INSULATING)])
        far, _ = fem.split_fans(mesh, cracks)
        if pin in mesh.triangles[far // 3]:
            break
    else:
        pytest.fail("no slit next to the pin holds it in its far fan")
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 8)
    grid = PixelGrid(mesh, 8, 8)
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, PixelSet(grid),
                                 PixelSet(grid))
    update = table.crack_update("insulating")
    region = PixelSet(grid, interior_pixel_set(grid).members
                      - set(grid.tri_pixel[update.far // 3].tolist()))
    got = locpot.build_source_operator(update.fact, region, basis, update)
    ref = locpot.build_source_operator(oracles.factorize(mesh, gamma0, cracks), region, basis)
    assert np.max(np.abs(got.matrix - ref.matrix)) <= 1e-12 * np.max(np.abs(ref.matrix))


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
        lambda: locpot.build_source_operator(fem.factorize(mesh, gamma0), V, basis)
    )
    currents = peak(lambda: ndmap.nd_matrix(fem.factorize(mesh, gamma0), basis))
    assert sources <= 1.5 * currents


def test_empty_region_gives_zero_columns(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op = source_op(chain_setup, None, PixelSet(grid, ()))
    assert op.matrix.shape == (basis.M, 0)
    assert np.array_equal(op.matrix @ np.zeros(0), np.zeros(basis.M))


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
    U0 = numerical_range(op_empty)
    US = numerical_range(op_slit)
    r = min(U0.shape[1], US.shape[1])
    assert r >= 10
    angles = scipy.linalg.subspace_angles(U0[:, :r], US[:, :r])
    assert np.max(angles) < 1e-8


def test_range_containment_for_nested_regions(chain_setup, ops):
    # sources on a subregion are reachable from the larger region, so the
    # adjoint norms stay comparable; the far region fails the subspace test
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_V, _ = ops
    Ybig = PixelSet(grid, V.dilate().members & interior_pixel_set(grid).members)
    op_Y = source_op(chain_setup, None, Ybig)
    P = numerical_range(op_Y)
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
    Pf = numerical_range(op_far)
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
    cracked, plain = oracles.factorize(mesh, gamma0, cracks), fem.factorize(mesh, gamma0)

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
    M = len(diff)
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty.matrix, np.zeros(M))
    y = np.ones(M)
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty.matrix, y, n_values=[1.0, 1.0])
    with pytest.raises(ValueError):
        locpot.localized_sequence(diff, op_empty.matrix, y, n_values=[-1.0, 10.0])


def test_localized_sequence_degenerate_far_operator(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    _, op_mixed = ops
    empty_far = source_op(chain_setup, None, PixelSet(grid, ()))
    y = np.zeros(basis.M)
    y[0] = 1.0
    seq = locpot.localized_sequence(op_mixed.matrix, empty_far.matrix, y)
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
    seq = locpot.localized_sequence(diff, op_far.matrix, y)
    assert max(seq.a1_norms) < 10.0
    assert min(seq.a2_norms) > 0.05


def test_localized_demo_trends(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    runs = locpot.run_localized_demo(ndmap.Configurations(
        ndmap.Background(mesh, gamma0, basis), cracks, V, W))
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
    # the straightforward path: a fresh factorization for every source
    # operator and every ND matrix, the variant written out by hand
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    if variant == "insulating":
        near, far, hi, lo, bg = V, W, cracks, con, con
    else:
        near, far, hi, lo, bg = W, V, ins, cracks, ins

    def op(config, region):
        return locpot.build_source_operator(oracles.factorize(mesh, gamma0, config), region, basis)

    def nd(**config):
        return ndmap.nd_matrix(oracles.factorize(mesh, gamma0, **config), basis)

    diff = op(hi, near).matrix - op(lo, near).matrix
    U, s, _ = np.linalg.svd(diff, full_matrices=False)
    Y = PixelSet(grid, far.dilate().members & interior_pixel_set(grid).members)
    seq = locpot.localized_sequence(diff, op(bg, Y).matrix, U[:, 0])
    forms = {
        "upper_far": (nd(excluded=far), nd()),
        "lower_far": (nd(), nd(frozen=far)),
        "crack_near": (nd(cracks=hi), nd(cracks=lo)),
    }
    return seq, locpot.blowup_metrics(seq, forms), float(s[0]), forms


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
    # differential oracle: the one table of configurations, whose source
    # operators and matrices are updates of one background, against a fresh
    # factorization per call, with the variant written out by hand. The
    # operators agree to rounding, which the regularized solves amplify at
    # the last decades of n, so the sequence and its norms agree to 1e-5
    # relative, as against the column reference below. Each step's form
    # moves by at most |f|^2 times the 2-norm of the matrices' deviation
    # from their own factorizations, plus what the step's own deviation moves
    setup = chain_setup if scenario == "chain_setup" else contrast_setup()
    mesh, cracks, grid, V, W, gamma0, basis = setup
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    runs = locpot.run_localized_demo(table)
    for variant, (seq, report) in runs.items():
        ref_seq, ref_report, sigma, ref_forms = reference_variant(
            mesh, gamma0, cracks, grid, V, W, basis, variant
        )
        assert seq.n_values == ref_seq.n_values and seq.degenerate == ref_seq.degenerate
        for f, g in zip(seq.f_n, ref_seq.f_n):
            assert np.linalg.norm(f - g) <= 1e-5 * np.linalg.norm(g)
        assert seq.a1_norms == pytest.approx(ref_seq.a1_norms, rel=1e-5)
        assert seq.a2_norms == pytest.approx(ref_seq.a2_norms, rel=1e-5)
        assert sorted(report["forms"]) == sorted(ref_report["forms"])
        far, hi, lo = (locpot.VARIANTS[variant][i] for i in (1, 2, 3))
        for label, names, refs in (
            ("upper_far", ("excluded " + far, "none"), ref_forms["upper_far"]),
            ("lower_far", ("none", "frozen " + far), ref_forms["lower_far"]),
            ("crack_near", (hi, lo), ref_forms["crack_near"]),
        ):
            dev = sum(np.linalg.norm(table.nd(n).entries - r.entries, 2)
                      for n, r in zip(names, refs))
            diff = refs[0].entries - refs[1].entries
            scale = np.linalg.norm(diff, 2)
            for f, g, got, want in zip(seq.f_n, ref_seq.f_n, report["forms"][label],
                                       ref_report["forms"][label]):
                # the deviation of the matrices, that of the step, and the
                # rounding of two forms that cancel
                moved = np.linalg.norm(f - g) * scale * (np.linalg.norm(f) + np.linalg.norm(g))
                assert abs(got - want) <= (f @ f) * (dev + 1e-12 * scale) + moved
        assert report["sigma"] == pytest.approx(sigma, rel=1e-12)
        assert report["monotone"] == locpot.monotone_flags(ref_seq)


@pytest.mark.parametrize("scenario", ["chain_setup", "criterion_5"])
def test_localized_demo_matches_column_reference_operators(chain_setup, scenario, monkeypatch):
    # the demo on edge-source operators of one background against the demo
    # on one solved column per canonical source of each configuration's
    # own factorization: the same verdicts, sigma to rounding, and the
    # forms up to the rounding they amplify at the last decades
    setup = chain_setup if scenario == "chain_setup" else contrast_setup()
    mesh, cracks, grid, V, W, gamma0, basis = setup
    runs = locpot.run_localized_demo(ndmap.Configurations(
        ndmap.Background(mesh, gamma0, basis), cracks, V, W))
    monkeypatch.setattr(locpot, "source_operators", lambda table, wanted: (
        oracles.source_operators_factorized(table, wanted, source_operator_columns)))
    ref = locpot.run_localized_demo(ndmap.Configurations(
        ndmap.Background(mesh, gamma0, basis), cracks, V, W))
    assert sorted(runs) == sorted(ref)
    for variant, (seq, report) in runs.items():
        ref_seq, ref_report = ref[variant]
        assert seq.n_values == ref_seq.n_values and seq.degenerate == ref_seq.degenerate
        assert report["monotone"] == ref_report["monotone"]
        assert report["sigma"] == pytest.approx(ref_report["sigma"], rel=1e-12)
        assert sorted(report["forms"]) == sorted(ref_report["forms"])
        for label, values in report["forms"].items():
            assert values == pytest.approx(ref_report["forms"][label], rel=1e-5)


def test_localized_demo_factorizes_each_configuration_once(chain_setup, factorizations):
    # the one background of the six source operators, the crack and region
    # configurations and "none"
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    locpot.run_localized_demo(ndmap.Configurations(
        ndmap.Background(mesh, gamma0, basis), cracks, V, W))
    assert factorizations.labels == ["none"]


def test_no_crack_control_form_is_zero(chain_setup, ops):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    op_empty, op_mixed = ops
    diff = op_mixed.matrix - op_empty.matrix
    op_far = source_op(chain_setup, None, W)
    y = np.zeros(basis.M)
    y[1] = 1.0
    seq = locpot.localized_sequence(diff, op_far.matrix, y)
    N = ndmap.nd_matrix(fem.factorize(mesh, gamma0), basis)
    report = locpot.blowup_metrics(seq, {"control": (N, N)})
    assert all(v == 0.0 for v in report["forms"]["control"])


def test_sequence_csv_round_trip(tmp_path, chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    seq, report = locpot.run_localized_demo(table)["insulating"]
    path = tmp_path / "seq.csv"
    path.write_text(locpot.sequence_to_csv(seq, report))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,a1_norm,a2_norm,crack_near,lower_far,upper_far"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (len(seq), 6)
    assert np.allclose(data[:, 0], seq.n_values)
    assert np.allclose(data[:, 1], seq.a1_norms)
