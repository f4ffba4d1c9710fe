"""Oracles of the acceptance criteria that only the tests use.

They recompute a quantity the program gets another way: the energy form
of two fields, a quadratic-form difference as a projection energy, a
field in a larger space, a carried current basis by a search for each
fine arc node's coarse edge, a source operator by one solved column per
canonical source, the dimension of the span of its sources' loads, the
column space of a source operator, the slit fans by a scan of the whole
mesh, a rectangle's triangulation one cell at a time, connected
components by a search over an adjacency dict, the pixels a segment
meets one pixel at a time, a pixel region's closed-square membership one
point at a time, and the candidate test chains one mesh edge at a time.
"""

import math

import numpy as np

from crackfind import fem, geometry, locpot, ndmap


def projection_identity_check(mesh, gamma0, cracks, basis, f_index, which="P"):
    """Cross-check a quadratic-form difference against a projection energy.

    ``which="P"``: the form difference between the full crack map and the
    conducting-only map at basis vector ``f_index`` against the energy of
    (full solution - conducting-only solution), measured in the full crack
    space.

    ``which="Q"``: the mirror check, insulating-only map minus full crack
    map against the energy of (insulating-only solution - full solution)
    in the insulating-only space.

    Returns (lhs, rhs); agreement is the caller's assertion.
    """
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    f = basis.vectors[:, f_index : f_index + 1]
    mixed = fem.factorize(mesh, gamma0, cracks)
    if which == "P":
        other = fem.factorize(mesh, gamma0, cracks.of_kind(geometry.CONDUCTING))
        big, small = mixed, other
    else:
        other = fem.factorize(mesh, gamma0, cracks.of_kind(geometry.INSULATING))
        big, small = other, mixed
    lhs = (
        ndmap.nd_matrix(big, basis).entries[f_index, f_index]
        - ndmap.nd_matrix(small, basis).entries[f_index, f_index]
    )
    u_big = fem.solve_neumann(big, f).values[:, 0]
    u_small = fem.Field(fem.solve_neumann(small, f).values[:, 0], small.dm)
    emb = embed_field(u_small, big.dm)
    diff = fem.Field(u_big - emb.values, big.dm)
    rhs = energy(big.K, diff, diff)
    return float(lhs), float(rhs)


def energy(K, a, b):
    """Bilinear energy form of two fields on the same dof map.

    Each field holds one vector, of shape ``(n_dofs,)`` or ``(n_dofs, 1)``.
    """
    if a.dofmap is not b.dofmap:
        raise ValueError("fields live on different dof maps")
    return float(np.vdot(a.values, K @ b.values))


def embed_field(field, target_dm):
    """Re-express a field in a larger space on the same mesh.

    Works per triangle corner, so it is exact whenever the source space is
    a subspace of the target space (for example: an unslit solution viewed
    in a slit space, or a frozen-region solution viewed without the
    region). Inconsistent corner values mean the spaces do not nest.
    """
    src = field.dofmap
    if src.mesh is not target_dm.mesh:
        raise ValueError("dof maps live on different meshes")
    out = np.full(target_dm.n_dofs, np.nan)
    act = target_dm.active_tri & src.active_tri
    scale = max(1.0, float(np.max(np.abs(field.values))))
    for t in np.nonzero(act)[0]:
        for c in range(3):
            d_t = target_dm.corner_dof[t, c]
            v = field.values[src.corner_dof[t, c]]
            if np.isnan(out[d_t]):
                out[d_t] = v
            elif abs(out[d_t] - v) > 1e-9 * scale:
                raise ValueError("field is not representable in the target space")
    if np.any(np.isnan(out)):
        raise ValueError("target space has dofs outside the source's support")
    return fem.Field(out, target_dm)


def source_operator_columns(fact, V, basis):
    """``locpot.build_source_operator`` with one solved column per canonical source.

    Column 2k + d is the weighted arc trace of the unit-norm source on the
    region's triangle k in direction d, solved as that source itself
    through ``fem.solve_source``; the 2T sources go in blocks of
    ``basis.M`` columns.
    """
    interior = geometry.interior_pixel_set(V.grid).members
    if V.members - interior:
        raise ValueError("source region must lie in the meshed interior")
    mesh = fact.dm.mesh
    tris = V.triangles()
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    src_tris = np.repeat(tris, 2)
    unit = np.tile(np.eye(2), (len(tris), 1)) / np.sqrt(mesh.tri_areas()[src_tris])[:, None]
    matrix = np.zeros((basis.M, 2 * len(tris)))
    for lo in range(0, len(src_tris), basis.M):
        cols = slice(lo, lo + basis.M)
        traces = fem.trace_on_gamma(fem.solve_source(fact, (src_tris[cols], unit[cols])))
        matrix[:, cols] = weighted.T @ traces
    return locpot.SourceOperator(tris, matrix)


def source_rank(dm, tris):
    """Dimension of the span of the loads of element sources on ``tris``.

    The loads of one triangle's sources span the zero-sum loads on its
    corner dofs, so the span is that of the differences of two dofs joined
    by a triangle side: the distinct corner dofs minus the components of
    the graph those sides make, found by ``components_search``.
    """
    corners = dm.corner_dof[tris].tolist()
    pairs = [(a, b) for row in corners for a, b in zip(row, row[1:] + row[:1]) if a != b]
    label = components_search({d for row in corners for d in row}, pairs)
    return len(label) - len(set(label.values()))


def numerical_range(op, rtol=1e-10):
    """Orthonormal basis of the operator's column space at the given cut."""
    matrix = getattr(op, "matrix", op)
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0))
    U, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    return U[:, :rank]


def split_fans_scan(mesh, insulating):
    """``fem.split_fans`` by two scans of every triangle corner.

    The reference the fan walk of ``fem.split_fans`` must match: it finds
    the slit fans among all 3T corners and cuts every crack edge at once.

    An interior chain vertex has a closed fan of triangles, which its two
    crack edges cut in two. The fan is a graph on the vertex's corners
    (flat index 3 t + c), joined across the uncut edges at the vertex; the
    side holding the vertex's lowest triangle keeps the vertex's own dof and
    the other side gets a new one. Returns ``(corners, owner)``: the flat
    corner indices of every far side, ascending, and for each the position
    of its vertex in the slit order (chain by chain, interior vertices in
    chain order). Raises if a fan does not split into exactly two sides.
    """
    slit = [v for comp in insulating.components for v in comp.chain[1:-1]]
    if not slit:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat = mesh.triangles.reshape(-1)
    pos = np.full(len(mesh.vertices), -1, dtype=np.int64)
    pos[slit] = np.arange(len(slit))
    fan = np.flatnonzero(pos[flat] >= 0)
    owner = pos[flat[fan]]
    # the two sides of each corner that meet at its vertex; an uncut one is
    # shared by exactly two corners of the same (interior) vertex
    t, c = np.divmod(fan, 3)
    sides = mesh.tri_edges()[t[:, None], np.column_stack([c, (c + 2) % 3])].reshape(-1)
    cut = np.zeros(len(mesh.edges()), dtype=bool)
    cut[insulating.edge_ids(mesh)] = True
    uncut = np.flatnonzero(~cut[sides])
    at = uncut[np.argsort(sides[uncut] * len(slit) + owner[uncut // 2], kind="stable")]
    pairs = np.column_stack([fan[at[0::2] // 2], fan[at[1::2] // 2]])
    label = components_search(fan.tolist(), pairs.tolist())
    # fan is ascending, so a vertex's first corner is its lowest
    lowest, sides = {}, set()
    for k, v in zip(fan.tolist(), owner.tolist()):
        lowest.setdefault(v, k)
        sides.add((v, label[k]))
    if np.any(np.bincount([v for v, _ in sides], minlength=len(slit)) != 2):
        raise ValueError("slit vertex fan does not split into two sides")
    far = np.array([label[k] != lowest[v] for k, v in zip(fan.tolist(), owner.tolist())])
    return fan[far], owner[far]


def rect_mesh_loop(width, height, target_h):
    """``geometry.build_rect_mesh``'s arrays, one cell and one boundary edge at a time.

    Returns ``(vertices, triangles, boundary_edges)``.
    """
    nx = max(2, int(math.ceil(width / target_h)))
    ny = max(2, int(math.ceil(height / target_h)))
    xx, yy = np.meshgrid(np.linspace(0.0, width, nx + 1), np.linspace(0.0, height, ny + 1))

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            tris += [(v00, v10, v01), (v10, v11, v01)]
    bedges = [(vid(ix, 0), vid(ix + 1, 0)) for ix in range(nx)]
    bedges += [(vid(nx, iy), vid(nx, iy + 1)) for iy in range(ny)]
    bedges += [(vid(ix, ny), vid(ix - 1, ny)) for ix in range(nx, 0, -1)]
    bedges += [(vid(0, iy), vid(0, iy - 1)) for iy in range(ny, 0, -1)]
    return (
        np.column_stack([xx.ravel(), yy.ravel()]),
        np.array(tris, dtype=np.int64),
        np.array(bedges, dtype=np.int64),
    )


def components_search(nodes, pairs):
    """``geometry.components`` by a depth-first search over an adjacency dict.

    ``pairs`` lists the graph's edges as node pairs; both ends must be in
    ``nodes``, which may be any integers. Returns ``{node: smallest node of
    its component}``.
    """
    adj = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    label = {}
    for root in sorted(adj):
        if root in label:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in label:
                    label[w] = root
                    stack.append(w)
    return label


def segment_meets_rect(p0, p1, x0, y0, x1, y1, tol=1e-12):
    """Whether the closed segment p0-p1 meets the closed rectangle.

    A Liang-Barsky clip, one boundary line at a time.
    """
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, p0[0] - x0),
        (dx, x1 - p0[0]),
        (-dy, p0[1] - y0),
        (dy, y1 - p0[1]),
    ):
        if p == 0.0:
            if q < -tol:
                return False
        else:
            # an overflowing ratio is far outside [0, 1]: its ±inf clips
            # exactly as the true ratio would
            with np.errstate(over="ignore"):
                r = q / p
            if p < 0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
    return t0 <= t1 + tol


def pixels_touching_scan(grid, p0, p1, tol=1e-12):
    """``PixelGrid.pixels_touching`` for one segment, one pixel at a time.

    Every pixel of the segment's bounding box, widened by ``tol`` in pixel
    units, is clipped with ``segment_meets_rect``. Returns a set.
    """
    x0, y0 = grid.origin
    h = grid.h
    ix_lo = max(0, int(math.floor((min(p0[0], p1[0]) - x0) / h - tol)))
    ix_hi = min(grid.nx - 1, int(math.floor((max(p0[0], p1[0]) - x0) / h + tol)))
    iy_lo = max(0, int(math.floor((min(p0[1], p1[1]) - y0) / h - tol)))
    iy_hi = min(grid.ny - 1, int(math.floor((max(p0[1], p1[1]) - y0) / h + tol)))
    out = set()
    for iy in range(iy_lo, iy_hi + 1):
        for ix in range(ix_lo, ix_hi + 1):
            sx, sy = x0 + ix * h, y0 + iy * h
            if segment_meets_rect(p0, p1, sx, sy, sx + h, sy + h):
                out.add(grid.index(ix, iy))
    return out


def in_closed_region(region, point):
    """Whether a point lies in the closed union of a pixel region's squares.

    The rule ``reconstruct.axis_chain_candidates`` applies to all vertices
    at once: on each axis the pixel at ``floor(f - 1e-9)`` and the one at
    ``floor(f + 1e-9)`` are tried, so a point on a pixel edge belongs to
    both pixels.
    """
    grid = region.grid
    fx = (point[0] - grid.origin[0]) / grid.h
    fy = (point[1] - grid.origin[1]) / grid.h
    eps = 1e-9
    for ix in {int(np.floor(fx - eps)), int(np.floor(fx + eps))}:
        for iy in {int(np.floor(fy - eps)), int(np.floor(fy + eps))}:
            if 0 <= ix < grid.nx and 0 <= iy < grid.ny and grid.index(ix, iy) in region.members:
                return True
    return False


def axis_chain_candidates_loop(mesh, region, lengths):
    """``reconstruct.axis_chain_candidates`` by a loop over the mesh edges.

    Each interior axis edge joins the list of its line, keyed by orientation
    and level (rounded to 9 digits); each line is sorted, split into maximal
    runs of consecutive edges, and every window of a run whose vertices all
    pass ``in_closed_region`` is a candidate. Candidates come by
    orientation, line, run, length and offset.
    """
    verts = mesh.vertices
    bvs = mesh.boundary_vertex_set()
    tol = 1e-9 * mesh.h_max()
    lines = {"h": {}, "v": {}}
    for a, b in mesh.edges().tolist():
        if a in bvs or b in bvs:
            continue
        dx = verts[b, 0] - verts[a, 0]
        dy = verts[b, 1] - verts[a, 1]
        if abs(dy) <= tol:
            axis, level, lo = "h", verts[a, 1], (a if dx > 0 else b)
            sort_key = verts[lo, 0]
        elif abs(dx) <= tol:
            axis, level, lo = "v", verts[a, 0], (a if dy > 0 else b)
            sort_key = verts[lo, 1]
        else:
            continue
        hi = b if lo == a else a
        lines[axis].setdefault(round(float(level), 9), []).append((sort_key, lo, hi))

    out = []
    for axis in ("h", "v"):
        for level in sorted(lines[axis]):
            edges = sorted(lines[axis][level])
            runs, cur = [], [edges[0]]
            for e in edges[1:]:
                if e[1] == cur[-1][2]:
                    cur.append(e)
                else:
                    runs.append(cur)
                    cur = [e]
            runs.append(cur)
            for run in runs:
                chain = [run[0][1]] + [e[2] for e in run]
                keep = [in_closed_region(region, verts[v]) for v in chain]
                for k in lengths:
                    for s in range(len(chain) - k):
                        if all(keep[s:s + k + 1]):
                            out.append(tuple(chain[s:s + k + 1]))
    return out


def carry_basis_search(basis, fine_mesh):
    """``harness.carry_basis``'s vectors by a search for each fine node's coarse edge.

    Every fine arc node is projected onto its nearest coarse arc edge and
    interpolates the basis there; a coarse arc node keeps its values.
    """
    cm = basis.mesh
    pos = np.full(len(fine_mesh.vertices), -1)
    pos[cm.gamma_vertices()] = np.arange(len(cm.gamma_vertices()))
    order_f = fine_mesh.gamma_vertices()
    pts = fine_mesh.vertices[order_f]
    A = cm.vertices[cm.gamma_edges[:, 0]]
    B = cm.vertices[cm.gamma_edges[:, 1]]
    d = geometry.point_segment_distance(pts, A, B)
    e = np.argmin(d, axis=1)
    AB = B[e] - A[e]
    L2 = np.einsum("ij,ij->i", AB, AB)
    t = np.clip(np.einsum("ij,ij->i", pts - A[e], AB) / L2, 0.0, 1.0)
    coarse = pos[order_f] >= 0
    off = ~coarse & (d.min(axis=1) > 1e-9 * np.sqrt(L2))
    if off.any():
        raise ValueError("arc node %d is not on a coarse arc edge" % order_f[np.argmax(off)])
    ends = pos[cm.gamma_edges[e]]
    vals = (1 - t)[:, None] * basis.vectors[ends[:, 0]] + t[:, None] * basis.vectors[ends[:, 1]]
    vals[coarse] = basis.vectors[pos[order_f[coarse]]]
    return vals
