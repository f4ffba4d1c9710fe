import functools
import hashlib
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
    interior_pixel_set,
    mark_gamma,
    refine_mesh,
    peel_candidates,
    pixelset_is_admissible,
)
from oracles import components_search, pixels_touching_scan, rect_mesh_loop


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


@pytest.mark.parametrize("size", [(1.0, 1.0, 0.5), (2.0, 1.0, 0.2), (1.0, 3.0, 1 / 7)])
def test_rect_mesh_matches_cell_loop(size):
    mesh = build_rect_mesh(*size)
    vertices, triangles, boundary = rect_mesh_loop(*size)
    assert np.array_equal(mesh.vertices, vertices)
    for got, want in ((mesh.triangles, triangles), (mesh.boundary_edges, boundary),
                      (mesh.gamma_edges, boundary)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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
    with pytest.raises(ValueError, match="matched no boundary edge"):
        mark_gamma(mesh, {"box": [0.3, 0.3, 0.7, 0.7]})


def test_mark_gamma_disconnected_selection():
    # two boundary edges on opposite sides share no vertex
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    be = mesh.boundary_edges
    mids = 0.5 * (mesh.vertices[be[:, 0]] + mesh.vertices[be[:, 1]])
    left = np.flatnonzero(mids[:, 0] < 0.01)[0]
    right = np.flatnonzero(mids[:, 0] > 0.99)[0]
    with pytest.raises(ValueError, match="connected along the boundary"):
        Mesh(mesh.vertices, mesh.triangles, be, be[[left, right]])


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
    # the unit square's boundary: the nearest side inside, the box outside
    x, y = pts.T
    inside = np.minimum.reduce([x, 1 - x, y, 1 - y])
    outside = np.hypot(np.maximum.reduce([0 * x, -x, x - 1]), np.maximum.reduce([0 * y, -y, y - 1]))
    assert np.allclose(many, np.where(inside >= 0, inside, outside), rtol=0, atol=1e-15)


def test_distance_to_boundary_goes_in_chunks(monkeypatch):
    # chunked by points: the same bits as one unchunked call, and no call
    # pairs more than DISTANCE_CHUNK points with boundary segments
    mesh = build_disk_mesh(1.0, 0.05)
    pts = np.random.default_rng(1).uniform(-1.2, 1.2, size=(2000, 2))
    a, b = mesh.boundary_segments()
    whole = geometry.point_segment_distance(pts, a, b).min(axis=-1)
    sizes = []
    real = geometry.point_segment_distance

    def recording(p, *args):
        sizes.append(len(p) * len(args[0]))
        return real(p, *args)

    monkeypatch.setattr(geometry, "point_segment_distance", recording)
    got = mesh.distance_to_boundary(pts)
    assert np.array_equal(got, whole)
    assert len(sizes) > 1 and max(sizes) <= geometry.DISTANCE_CHUNK
    assert mesh.distance_to_boundary(np.zeros((0, 2))).shape == (0,)


def test_clearance_is_each_vertex_distance_computed_once(monkeypatch):
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    asked = []
    real = Mesh.distance_to_boundary

    def recording(self, pts):
        asked.append(len(pts))
        return real(self, pts)

    monkeypatch.setattr(Mesh, "distance_to_boundary", recording)
    first = mesh.clearance([10, 3, 10, 40])
    assert asked == [3]
    assert np.array_equal(first, real(mesh, mesh.vertices[[10, 3, 10, 40]]))
    every = mesh.clearance(np.arange(len(mesh.vertices)))
    assert asked == [3, len(mesh.vertices) - 3]
    assert np.array_equal(every, real(mesh, mesh.vertices))
    mesh.clearance([0, 10])
    assert len(asked) == 2
    cached = mesh._cache["clearance"]
    assert not cached.flags.writeable
    every[:] = -1.0
    assert np.array_equal(mesh.clearance([10]), first[:1])


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
    assert geometry.components(0, []).tolist() == []
    assert geometry.components(1, []).tolist() == [0]
    label = geometry.components(10, [(5, 2), (2, 7), (9, 1)])
    assert label.tolist() == [0, 1, 2, 3, 4, 2, 6, 2, 8, 1]
    # repeated pairs and a self loop
    label = geometry.components(4, [(1, 2), (2, 1), (3, 3), (2, 0)])
    assert label.tolist() == [0, 0, 0, 3]
    cycle = geometry.components(6, [(i, (i + 1) % 6) for i in range(6)])
    assert cycle.tolist() == [0] * 6


@st.composite
def graphs(draw):
    # up to 60 nodes: random pairs, some repeated (either way round), some
    # self loops; the nodes no pair names stay isolated
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=n))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=5))
        pairs += [(b, a) for a, b in again]
    pairs += [(v, v) for v in draw(st.lists(node, max_size=3))]
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(graph=graphs())
def test_components_match_search(graph):
    n, pairs = graph
    ref = components_search(range(n), pairs)
    assert geometry.components(n, pairs).tolist() == [ref[v] for v in range(n)]


def test_components_of_a_shuffled_path():
    # a path visiting the nodes in random order takes several hooking rounds
    order = np.random.default_rng(0).permutation(500)
    pairs = np.column_stack([order[:-1], order[1:]])
    assert not geometry.components(500, pairs).any()
    ref = components_search(range(500), pairs[:250].tolist())
    assert geometry.components(500, pairs[:250]).tolist() == [ref[v] for v in range(500)]


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


def validate_one_by_one(mesh, cracks):
    """The component loop ``CrackSet.validate`` replaced: every check chain by chain."""
    bvs = mesh.boundary_vertex_set()
    et = mesh.edge_tris()
    seen_vertices = set()
    for comp in cracks.components:
        cv = set(comp.chain)
        if cv & bvs:
            raise ValueError("crack touches the boundary")
        if cv & seen_vertices:
            raise ValueError("crack components share a vertex")
        seen_vertices |= cv
        ids = mesh.edge_index(comp.chain[:-1], comp.chain[1:])
        if np.any(ids < 0) or np.any(et[ids, 1] < 0):
            raise ValueError("crack chain must follow interior mesh edges")
        if np.any(mesh.distance_to_boundary(mesh.vertices[list(comp.chain)]) <= 0):
            raise ValueError("crack vertex on the boundary")
    for i, ci in enumerate(cracks.components):
        for cj in cracks.components[i + 1:]:
            vi, vj = mesh.vertices[list(ci.chain)], mesh.vertices[list(cj.chain)]
            if np.min(np.linalg.norm(vi[:, None, :] - vj[None, :, :], axis=2)) <= 0:
                raise ValueError("crack components must stay separated")


def random_test_chain(mesh, rng):
    """A chain that is valid or breaks one single-chain check, at random."""
    bvs = sorted(mesh.boundary_vertex_set())
    inner = [v for v in range(len(mesh.vertices)) if v not in mesh.boundary_vertex_set()]
    edges = mesh.edges()
    pick = rng.integers(0, 6)
    if pick == 0:
        # from a boundary vertex along an edge
        a = int(rng.choice(bvs))
        nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
        return (a, int(rng.choice(nbrs)))
    if pick == 1:
        # a hull edge
        hull = edges[mesh.edge_tris()[:, 1] < 0]
        return tuple(int(v) for v in hull[rng.integers(0, len(hull))])
    if pick == 2:
        # two interior vertices that share no edge
        while True:
            a, b = (int(v) for v in rng.choice(inner, size=2, replace=False))
            if mesh.edge_index(a, b) < 0:
                return (a, b)
    if pick == 3:
        # out of range
        return (int(rng.choice(inner)), len(mesh.vertices) + 3)
    chain = [int(rng.choice(inner))]
    for _ in range(int(rng.integers(1, 5))):
        a = chain[-1]
        nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
        nbrs = [w for w in nbrs.tolist() if w not in chain]
        if not nbrs:
            break
        chain.append(int(rng.choice(nbrs)))
    return tuple(chain) if len(chain) > 1 else (chain[0], int(nbrs[0]))


def first_message(check):
    try:
        check()
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("shape", ["rect", "disk"])
def test_batched_checks_raise_like_the_chain_loop(shape):
    # check_chains over independent chains raises what the first bad chain
    # alone raises, and CrackSet.validate what the component loop raised,
    # checks in the same order
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8) if shape == "rect" else build_disk_mesh(1.0, 0.2)
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(150):
        chains = [random_test_chain(mesh, rng) for _ in range(int(rng.integers(1, 5)))]
        alone = [first_message(lambda c=c: validate_one_by_one(
            mesh, CrackSet([CrackComponent(c, INSULATING)]))) for c in chains]
        expected = next((m for m in alone if m is not None), None)
        assert first_message(lambda: geometry.check_chains(mesh, chains)) == expected
        cracks = CrackSet([CrackComponent(c, INSULATING) for c in chains])
        message = first_message(lambda: validate_one_by_one(mesh, cracks))
        assert first_message(lambda: cracks.validate(mesh)) == message
        outcomes.add(message)
    assert {None, "crack touches the boundary", "crack components share a vertex",
            "crack chain must follow interior mesh edges"} <= outcomes


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


def test_embed_off_grid_polyline_pinned():
    # a recorded chain and sha256 of the relocated vertex coordinates, which
    # any rewrite of embed_crack must reproduce
    mesh = build_rect_mesh(1.0, 1.0, 1 / 16)
    m2, cracks = embed_crack(mesh, [(0.31, 0.27), (0.52, 0.49), (0.70, 0.45)], INSULATING)
    assert cracks.components[0].chain == (73, 90, 91, 108, 109, 126, 127, 144, 145, 129, 130)
    assert hashlib.sha256(m2.vertices.tobytes()).hexdigest() == (
        "bc3ddb4bf0b19ae38b48c60b7bacc3245eef2e121023367f98d2b31a46cd6d09"
    )


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
    sizes = np.bincount(grid.tri_pixel, minlength=grid.n_pixels)
    assert len(sizes) == grid.n_pixels
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
    # every single removal the oracle admits; taking out a pixel whose four
    # neighbours are members encloses it, which the oracle rejects
    return [ps.minus(m) for m in sorted(ps.members) if oracle_admissible(ps.minus(m))]


@functools.cache
def region_grid(name):
    if name == "disk":
        return PixelGrid(build_disk_mesh(1.0, 0.1), 8, 8)
    return unit_grid(int(name))


@st.composite
def regions(draw, grid, within=None):
    # up to three rectangles, a few pixels toggled, cut down to ``within``
    members = set()
    for _ in range(draw(st.integers(0, 3))):
        ix = sorted(draw(st.integers(0, grid.nx - 1)) for _ in range(2))
        iy = sorted(draw(st.integers(0, grid.ny - 1)) for _ in range(2))
        members |= PixelSet.from_rect(grid, ix[0], iy[0], ix[1], iy[1]).members
    members ^= draw(st.sets(st.integers(0, grid.n_pixels - 1), max_size=6))
    if within is not None:
        members &= within
    return PixelSet(grid, members)


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


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["8", "16", "disk"]), data=st.data())
def test_peel_matches_oracle(name, data):
    grid = region_grid(name)
    ps = data.draw(regions(grid, interior_pixel_set(grid).members))
    assert pixelset_is_admissible(ps) == oracle_admissible(ps)
    if pixelset_is_admissible(ps):
        cands = [ps.minus(m) for m in peel_candidates(ps)]
        assert cands == brute_force_peels(ps)
        for c in cands:
            assert pixelset_is_admissible(c)
            assert len(ps.members - c.members) == 1
            assert c.members <= ps.members


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["8", "16", "disk"]), data=st.data())
def test_mask_operations_match_ndimage(name, data):
    # any region, grid edge included: components against ndimage's labels
    # renumbered by smallest member, the dilation against ndimage's with a
    # 3x3 structure, the triangles against the centroid assignment
    grid = region_grid(name)
    ps = data.draw(regions(grid))
    mask = ps.mask()
    assert np.array_equal(np.flatnonzero(mask), sorted(ps.members))
    labels, _ = ndimage.label(mask)
    flat = labels.ravel()
    found, first = np.unique(flat[flat > 0], return_index=True)
    number = np.full(len(found) + 1, -1)
    number[found] = np.argsort(np.argsort(first))
    assert np.array_equal(ps.components(), number[flat])
    grown = ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool))
    assert ps.dilate() == PixelSet(grid, np.flatnonzero(grown))
    want = [t for t, p in enumerate(grid.tri_pixel.tolist()) if p in ps.members]
    assert ps.triangles().tolist() == want


def test_pixels_touching_segment_on_gridline():
    # a segment running along a pixel boundary touches both rows
    grid = unit_grid(8)
    pix = grid.pixels_touching([(0.3, 0.5)], [(0.7, 0.5)])
    rows = {grid.coords(p)[1] for p in pix.tolist()}
    assert rows == {3, 4}


TOUCH_GRIDS = {
    "rect": PixelGrid(build_rect_mesh(2.0, 1.0, 0.25), 8, 4),
    "disk": PixelGrid(build_disk_mesh(1.0, 0.25), 8, 8),
}


@st.composite
def segment_ends(draw, grid):
    # a point of the grid's box widened by two pixels: anywhere, or on the
    # lattice of quarter pixels (grid lines and pixel centres included)
    if draw(st.booleans()):
        f = [draw(st.floats(-2.0, n + 2.0)) for n in (grid.nx, grid.ny)]
    else:
        f = [draw(st.integers(-8, 4 * n + 8)) / 4 for n in (grid.nx, grid.ny)]
    return tuple(grid.origin + np.array(f) * grid.h)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TOUCH_GRIDS)), data=st.data())
def test_pixels_touching_matches_scalar_clip(name, data):
    # random, lattice, degenerate (a = b) and off-grid segments, one batch
    grid = TOUCH_GRIDS[name]
    a = data.draw(st.lists(segment_ends(grid), min_size=1, max_size=6))
    b = [data.draw(st.one_of(st.just(p), segment_ends(grid))) for p in a]
    want = [pixels_touching_scan(grid, np.array(p), np.array(q)) for p, q in zip(a, b)]
    got = grid.pixels_touching(a, b)
    assert got.tolist() == sorted(set().union(*want))
    for p, q, pix in zip(a, b, want):
        assert grid.pixels_touching([p], [q]).tolist() == sorted(pix)


def test_pixels_touching_subnormal_segment():
    # the clip's ratios of a subnormal segment overflow to ±inf; the segment
    # touches what its end point touches, the corner pixel, with no warning
    grid = TOUCH_GRIDS["rect"]
    a, b = np.zeros((1, 2)), np.array([[0.0, 5.56e-312]])
    assert pixels_touching_scan(grid, a[0], b[0]) == {0}
    assert grid.pixels_touching(a, b).tolist() == [0]


def test_pixels_touching_no_segment():
    # a crack set without edges meets no pixel
    grid = unit_grid(4)
    assert grid.pixels_touching(np.zeros((0, 2)), np.zeros((0, 2))).tolist() == []
    assert grid.crack_pixels(CrackSet()) == set()


@pytest.mark.parametrize("shape", ["rect", "disk"])
def test_boundary_pixels_match_scalar_clip(shape):
    if shape == "rect":
        mesh = build_rect_mesh(2.0, 1.0, 1 / 12)
    else:
        mesh = build_disk_mesh(1.0, 0.1)
    a, b = mesh.boundary_segments()
    for n in range(3, 17):
        grid = PixelGrid(mesh, 2 * n if shape == "rect" else n, n)
        want = set().union(*(pixels_touching_scan(grid, p, q) for p, q in zip(a, b)))
        assert grid.boundary_pixels == want
