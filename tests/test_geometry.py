import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from crackfind import geometry
from crackfind.geometry import (
    CONDUCTING,
    INSULATING,
    CrackComponent,
    CrackSet,
    Mesh,
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    mark_gamma,
    refine_mesh,
    peel_candidates,
    pixelset_is_admissible,
)


# ------------------------------------------------------------------ #
# mesh builders
# ------------------------------------------------------------------ #


def test_rect_mesh_minimal():
    mesh = build_rect_mesh(1.0, 1.0, 0.5)
    assert len(mesh.triangles) >= 8
    # closed loop: validated in the constructor, re-check degree by hand
    deg = {}
    for a, b in mesh.boundary_edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert all(d == 2 for d in deg.values())


def test_rect_mesh_area_bound():
    mesh = build_rect_mesh(1.0, 1.0, 0.05)
    areas = mesh.tri_areas()
    assert np.all(areas > 0)
    assert np.all(areas <= 1.5 * 0.05**2)
    assert mesh.h_max() <= 1.5 * 0.05


def test_rect_mesh_degenerate():
    with pytest.raises(ValueError):
        build_rect_mesh(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        build_rect_mesh(-1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_rect_mesh(1.0, 1.0, -0.1)


def _edge_counts(mesh):
    t = mesh.triangles
    n = len(mesh.vertices)
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
    _, counts = np.unique(keys, return_counts=True)
    return counts


@pytest.mark.parametrize(
    "mesh",
    [build_rect_mesh(1.0, 1.0, 0.13), build_rect_mesh(2.0, 1.0, 0.2), build_disk_mesh(1.0, 0.21)],
    ids=["square", "rect", "disk"],
)
def test_mesh_conforming(mesh):
    counts = _edge_counts(mesh)
    assert set(counts.tolist()) <= {1, 2}
    assert np.sum(counts == 1) == len(mesh.boundary_edges)


def test_disk_mesh_counts():
    mesh = build_disk_mesh(1.0, 0.21)
    K = 5
    assert len(mesh.vertices) == 1 + 3 * K * (K + 1)
    assert len(mesh.triangles) == 6 * K**2
    assert np.all(mesh.tri_areas() > 0)
    assert mesh.h_max() <= 1.5 * 0.21
    # total area approximates the disk from inside
    assert 0.9 * np.pi < mesh.tri_areas().sum() < np.pi


# ------------------------------------------------------------------ #
# gamma marking
# ------------------------------------------------------------------ #


def test_mark_gamma_all():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    marked = mark_gamma(mesh, "all")
    assert len(marked.gamma_edges) == len(marked.boundary_edges)


def test_mark_gamma_left_side():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    marked = mark_gamma(mesh, {"side": "left"})
    mids = 0.5 * (
        marked.vertices[marked.gamma_edges[:, 0]] + marked.vertices[marked.gamma_edges[:, 1]]
    )
    assert len(marked.gamma_edges) == 4
    assert np.allclose(mids[:, 0], 0.0)


def test_mark_gamma_empty_selection():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        mark_gamma(mesh, lambda x, y: False)


def test_mark_gamma_disconnected_selection():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        mark_gamma(mesh, lambda x, y: x < 0.01 or x > 0.99)


def test_gamma_vertices_cached_read_only():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    order = mesh.gamma_vertices()
    assert mesh.gamma_vertices() is order
    assert not order.flags.writeable


def test_distance_to_boundary_of_many_points():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    pts = np.random.default_rng(0).uniform(-0.2, 1.2, size=(40, 2))
    pts[0] = mesh.vertices[mesh.boundary_edges[0, 0]]
    many = mesh.distance_to_boundary(pts)
    assert many.shape == (40,) and many[0] == 0.0
    assert np.array_equal(many, [mesh.distance_to_boundary(p) for p in pts])


def test_gamma_vertices_ordered():
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    order = mesh.gamma_vertices()
    assert len(order) == len(mesh.boundary_edges)  # closed loop
    left = mark_gamma(mesh, {"side": "left"})
    arc = left.gamma_vertices()
    assert len(arc) == len(left.gamma_edges) + 1
    # consecutive entries are gamma edges
    keys = {left.edge_index(a, b) for a, b in left.gamma_edges}
    for a, b in zip(arc[:-1], arc[1:]):
        assert left.edge_index(a, b) in keys


# ------------------------------------------------------------------ #
# topology: edge table and components
# ------------------------------------------------------------------ #


def _edge_dict(mesh):
    # reference: sorted vertex pair -> ascending incident triangles
    out = {}
    for ti, tri in enumerate(mesh.triangles.tolist()):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            out.setdefault((min(a, b), max(a, b)), []).append(ti)
    return out


def _cracked_refined_mesh():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 8)
    mesh, cracks = embed_crack(mesh, [(0.25, 0.5), (0.75, 0.5)], INSULATING)
    return refine_mesh(mesh, cracks)[0]


@pytest.mark.parametrize(
    "mesh",
    [build_rect_mesh(2.0, 1.0, 0.2), build_disk_mesh(1.0, 0.21), _cracked_refined_mesh()],
    ids=["rect", "disk", "cracked-refined"],
)
def test_edge_table_matches_reference(mesh):
    ref = _edge_dict(mesh)
    edges = mesh.edges()
    assert [tuple(e) for e in edges.tolist()] == sorted(ref)
    assert mesh.edge_tris().tolist() == [(ref[e] + [-1])[:2] for e in sorted(ref)]
    for tri, ids in zip(mesh.triangles.tolist(), mesh.tri_edges().tolist()):
        sides = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
        assert [tuple(edges[i]) for i in ids] == [(min(s), max(s)) for s in sides]
    ids = np.arange(len(edges))
    assert np.array_equal(mesh.edge_index(edges[:, 0], edges[:, 1]), ids)
    assert np.array_equal(mesh.edge_index(edges[:, 1], edges[:, 0]), ids)

    n = len(mesh.vertices)
    c, d = edges[-1]
    # lo * n + hi of (c - 1, n + d) is the key of the real edge (c, d)
    assert mesh.edge_index(c - 1, n + d) == -1
    assert mesh.edge_index(-1, c) == mesh.edge_index(c, c) == -1
    far = int(np.argmax(np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)))
    assert (0, far) not in ref
    assert mesh.edge_index([0, far, c], [far, 0, d]).tolist() == [-1, -1, len(edges) - 1]


def test_components_small_graphs():
    assert geometry.components([], []) == {}
    assert geometry.components([3], []) == {3: 3}
    label = geometry.components([5, 2, 7, 4, 9, 1], [(5, 2), (2, 7), (9, 1)])
    assert label == {5: 2, 2: 2, 7: 2, 4: 4, 9: 1, 1: 1}
    # repeated pairs, a self loop, and the node -1 that stands for outside
    label = geometry.components([-1, 0, 1, 2], [(0, 1), (1, 0), (2, 2), (1, -1)])
    assert label == {-1: -1, 0: -1, 1: -1, 2: 2}
    cycle = geometry.components(range(6), [(i, (i + 1) % 6) for i in range(6)])
    assert set(cycle.values()) == {0}


def test_disconnected_mesh_rejected():
    # two unit squares side by side with a gap: each part is a valid mesh
    v = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [3, 0], [2, 1], [3, 1]]
    t = [[0, 1, 2], [1, 3, 2], [4, 5, 6], [5, 7, 6]]
    be = np.array([[0, 1], [1, 3], [3, 2], [2, 0], [4, 5], [5, 7], [7, 6], [6, 4]])
    Mesh(v[:4], t[:2], be[:4], be[:4])
    with pytest.raises(ValueError, match="one connected piece"):
        Mesh(v, t, be, be[:4])


def _interior_connected(mesh, cracks):
    # the per-crack-set search CrackSet.validate no longer runs: triangles
    # joined across every interior edge that is not a crack edge
    cut = {(min(a, b), max(a, b)) for c in cracks.components for a, b in c.edges()}
    adj = [[] for _ in mesh.triangles]
    for key, tris in _edge_dict(mesh).items():
        if len(tris) == 2 and key not in cut:
            adj[tris[0]].append(tris[1])
            adj[tris[1]].append(tris[0])
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(mesh.triangles)


CHAIN_MESHES = {"rect": build_rect_mesh(1.0, 1.0, 1 / 8), "disk": build_disk_mesh(1.0, 0.25)}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CHAIN_MESHES)), data=st.data())
def test_random_interior_chains_keep_interior_connected(name, data):
    mesh = CHAIN_MESHES[name]
    nbrs = {}
    for a, b in mesh.edges().tolist():
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    used = set(mesh.boundary_vertex_set())
    comps = []
    for _ in range(data.draw(st.integers(1, 4))):
        free = sorted(set(range(len(mesh.vertices))) - used)
        if not free:
            break
        chain = [data.draw(st.sampled_from(free))]
        for _ in range(data.draw(st.integers(1, 25))):
            step = sorted(set(nbrs[chain[-1]]) - used - set(chain))
            if not step:
                break
            chain.append(data.draw(st.sampled_from(step)))
        used.update(chain)
        if len(chain) > 1:
            kind = data.draw(st.sampled_from([INSULATING, CONDUCTING]))
            comps.append(CrackComponent(chain, kind))
    cracks = CrackSet(comps)
    cracks.validate(mesh)
    assert _interior_connected(mesh, cracks)


# ------------------------------------------------------------------ #
# crack embedding
# ------------------------------------------------------------------ #


def test_embed_horizontal_crack():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    m2, cracks = embed_crack(mesh, [(0.3, 0.5), (0.7, 0.5)], INSULATING)
    assert len(cracks) == 1
    comp = cracks.components[0]
    assert len(comp.chain) >= 2
    bvs = m2.boundary_vertex_set()
    assert not set(comp.chain) & bvs
    # chain lies on the segment exactly
    pts = m2.vertices[list(comp.chain)]
    assert np.allclose(pts[:, 1], 0.5)
    assert pts[0, 0] == pytest.approx(0.3)
    assert pts[-1, 0] == pytest.approx(0.7)
    assert np.all(np.diff(pts[:, 0]) > 0)


def test_embed_two_parallel_cracks():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    m2, c1 = embed_crack(mesh, [(0.3, 0.4), (0.7, 0.4)], INSULATING)
    m3, c2 = embed_crack(m2, [(0.3, 0.6), (0.7, 0.6)], CONDUCTING, cracks=c1)
    assert len(c2) == 2
    assert c2.kinds() == {INSULATING, CONDUCTING}
    vi = m3.vertices[list(c2.components[0].chain)]
    vj = m3.vertices[list(c2.components[1].chain)]
    d = np.min(np.linalg.norm(vi[:, None, :] - vj[None, :, :], axis=2))
    assert d > 0.19


def test_embed_crack_touching_boundary_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    with pytest.raises(ValueError):
        embed_crack(mesh, [(0.0, 0.5), (0.5, 0.5)], INSULATING)
    with pytest.raises(ValueError):
        embed_crack(mesh, [(0.5, 0.5), (1.2, 0.5)], INSULATING)


def test_embed_crack_self_intersection_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    with pytest.raises(ValueError):
        embed_crack(
            mesh,
            [(0.25, 0.25), (0.75, 0.75), (0.75, 0.25), (0.25, 0.75)],
            INSULATING,
        )


def test_embed_diagonal_crack():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    m2, cracks = embed_crack(mesh, [(0.25, 0.25), (0.5, 0.5)], CONDUCTING)
    pts = m2.vertices[list(cracks.components[0].chain)]
    assert np.allclose(pts[:, 0], pts[:, 1])
    assert np.all(m2.tri_areas() > 0)


@settings(max_examples=40, deadline=None)
@given(
    x0=st.floats(0.2, 0.45),
    x1=st.floats(0.55, 0.8),
    y1=st.floats(0.2, 0.8),
    y2=st.floats(0.2, 0.8),
)
def test_embedded_pairs_keep_distance(x0, x1, y1, y2):
    # either the second embedding fails loudly or the invariants hold
    mesh = build_rect_mesh(1.0, 1.0, 1 / 8)
    try:
        m2, c1 = embed_crack(mesh, [(x0, y1), (x1, y1)], INSULATING)
        m3, c2 = embed_crack(m2, [(x0, y2), (x1, y2)], CONDUCTING, cracks=c1)
    except ValueError:
        return
    c2.validate(m3)
    vi = m3.vertices[list(c2.components[0].chain)]
    vj = m3.vertices[list(c2.components[1].chain)]
    assert np.min(np.linalg.norm(vi[:, None, :] - vj[None, :, :], axis=2)) > 0


# ------------------------------------------------------------------ #
# pixels
# ------------------------------------------------------------------ #


def unit_grid(npix=8, cells_per_pixel=2):
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / (npix * cells_per_pixel))
    return PixelGrid(mesh, npix, npix)


def test_grid_assignment_total():
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    grid = PixelGrid(mesh, 8, 8)
    assert len(grid.tri_pixel) == len(mesh.triangles)
    sizes = [len(grid.pixel_tris(p)) for p in range(grid.n_pixels)]
    assert sum(sizes) == len(mesh.triangles)
    assert min(sizes) > 0


def test_grid_boundary_pixels_square():
    grid = unit_grid(8)
    ring = {
        grid.index(ix, iy)
        for ix in range(8)
        for iy in range(8)
        if ix in (0, 7) or iy in (0, 7)
    }
    assert grid.boundary_pixels == ring


def test_full_interior_block_admissible():
    grid = unit_grid(8)
    block = PixelSet.from_rect(grid, 1, 1, 6, 6)
    assert pixelset_is_admissible(block)


def test_enclosed_complement_rejected():
    grid = unit_grid(8)
    ring = PixelSet.from_rect(grid, 1, 1, 6, 6).members - PixelSet.from_rect(
        grid, 3, 3, 4, 4
    ).members
    assert not pixelset_is_admissible(PixelSet(grid, ring))


def test_margin_violation_rejected():
    grid = unit_grid(8)
    assert not pixelset_is_admissible(PixelSet(grid, {grid.index(0, 3)}))


def test_corner_patterns_enumerated():
    # all 16 membership patterns of a well-interior 2x2 block: exactly the
    # two checkerboards are rejected
    grid = unit_grid(8)
    cells = [grid.index(3, 3), grid.index(4, 3), grid.index(3, 4), grid.index(4, 4)]
    rejected = []
    for bits in itertools.product((0, 1), repeat=4):
        members = {c for c, b in zip(cells, bits) if b}
        if not pixelset_is_admissible(PixelSet(grid, members)):
            rejected.append(bits)
    assert sorted(rejected) == [(0, 1, 1, 0), (1, 0, 0, 1)]


def oracle_admissible(ps):
    """Independent admissibility check via scipy.ndimage labeling."""
    if not ps.members:
        return True
    if ps.members & ps.grid.boundary_pixels:
        return False
    if ps.members - ps.grid.nonempty_pixels:
        return False
    mask = ps.mask()
    pad = np.pad(mask, 1)
    a, b = pad[:-1, :-1], pad[:-1, 1:]
    c, d = pad[1:, :-1], pad[1:, 1:]
    if np.any((a & d & ~b & ~c) | (b & c & ~a & ~d)):
        return False
    comp = ~np.pad(mask, 1)
    _, nlab = ndimage.label(comp, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    return nlab == 1


def brute_force_peels(ps):
    out = []
    for m in sorted(ps.members):
        if all(
            q in ps.members for q in ps.grid.neighbors4(m)
        ) and len(ps.grid.neighbors4(m)) == 4:
            continue  # interior pixel, not peelable
        q = ps.minus(m)
        if oracle_admissible(q):
            out.append(q)
    return out


def test_peel_single_pixel():
    grid = unit_grid(8)
    single = PixelSet(grid, {grid.index(4, 4)})
    cands = [single.minus(m) for m in peel_candidates(single)]
    assert len(cands) == 1
    assert cands[0].members == frozenset()
    assert pixelset_is_admissible(cands[0])  # empty set admissible by convention


def test_peel_2x2_block():
    grid = unit_grid(8)
    block = PixelSet.from_rect(grid, 3, 3, 4, 4)
    cands = [block.minus(m) for m in peel_candidates(block)]
    assert len(cands) == 4
    assert cands == brute_force_peels(block)


def test_peel_3x3_block():
    grid = unit_grid(8)
    block = PixelSet.from_rect(grid, 2, 2, 4, 4)
    cands = [block.minus(m) for m in peel_candidates(block)]
    assert cands == brute_force_peels(block)
    # center pixel is not a boundary member, so at most 8 candidates
    assert grid.index(3, 3) in block.members
    assert all(grid.index(3, 3) in c.members for c in cands)


def test_peel_l_tromino_corner_contact():
    grid = unit_grid(8)
    l_shape = PixelSet(grid, {grid.index(3, 3), grid.index(4, 3), grid.index(3, 4)})
    cands = [l_shape.minus(m) for m in peel_candidates(l_shape)]
    # peeling the corner pixel would leave a diagonal pair: rejected
    members_lists = [c.members for c in cands]
    assert frozenset({grid.index(4, 3), grid.index(3, 4)}) not in members_lists
    assert cands == brute_force_peels(l_shape)


@settings(max_examples=60, deadline=None)
@given(
    members=st.sets(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=0, max_size=14
    )
)
def test_peel_matches_oracle(members):
    grid = unit_grid(8)
    ps = PixelSet(grid, {grid.index(ix, iy) for ix, iy in members})
    assert pixelset_is_admissible(ps) == oracle_admissible(ps)
    if pixelset_is_admissible(ps):
        cands = [ps.minus(m) for m in peel_candidates(ps)]
        assert cands == brute_force_peels(ps)
        for c in cands:
            assert pixelset_is_admissible(c)
            assert len(ps.members - c.members) == 1
            assert c.members <= ps.members


def test_pixels_touching_segment_on_gridline():
    # a segment running along a pixel boundary touches both rows
    grid = unit_grid(8)
    pix = grid.pixels_touching_segment((0.3, 0.5), (0.7, 0.5))
    rows = {grid.coords(p)[1] for p in pix}
    assert rows == {3, 4}
