"""Meshes, embedded crack polylines, and pixel-based test inclusions.

Everything downstream (assembly, boundary maps, reconstruction) treats the
objects built here as immutable: coordinate arrays are frozen after
construction, and crack embedding returns a fresh ``Mesh`` instead of
mutating its input.

Conventions:

* Triangles are counter-clockwise vertex index triples.
* Boundary edges are directed so the domain lies on the left; together they
  traverse the whole boundary exactly once.
* The measurement arc (gamma) is a nonempty, connected subset of the
  boundary edges. Currents are applied and voltages read only there.
* Cracks are simple chains of interior mesh edges, each chain tagged
  insulating or conducting.
* Pixels tile the bounding rectangle of the domain; admissible pixel unions
  act as test inclusions for the reconstruction loops.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

INSULATING = "insulating"
CONDUCTING = "conducting"
KINDS = (INSULATING, CONDUCTING)

# point-segment pairs per chunk of Mesh.distance_to_boundary
DISTANCE_CHUNK = 1 << 12


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def components(n, pairs):
    """Connected components of the undirected graph on the nodes 0..n-1.

    ``pairs`` lists the graph's edges as node pairs, shape (m, 2); self
    loops and repeated pairs are allowed. Returns an ``(n,)`` array that
    gives each node the smallest node of its component, so two nodes are
    connected exactly when their labels agree.

    Each round hooks the larger label of every pair whose labels differ
    onto the smaller one, then follows ``label[label]`` until every label
    is its own; a label never exceeds its node, so the last labels are the
    components' smallest nodes.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    label = np.arange(n)
    while True:
        a, b = label[pairs[:, 0]], label[pairs[:, 1]]
        apart = a != b
        if not apart.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def point_segment_distance(pt, a, b):
    """Distances from points to closed segments.

    ``a`` and ``b`` hold the m segments' ends (shape (m, 2)). ``pt`` is an
    array of k points (shape (k, 2)), which gives a (k, m) array of
    distances; one point of shape (2,) gives the m distances.
    """
    pt = np.asarray(pt, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = b - a
    l2 = np.einsum("ij,ij->i", d, d)
    safe = np.where(l2 == 0.0, 1.0, l2)
    rel = pt[..., None, :] - a
    t = np.clip(np.einsum("...ij,ij->...i", rel, d) / safe, 0.0, 1.0)
    proj = a + t[..., None] * d
    return np.linalg.norm(pt[..., None, :] - proj, axis=-1)


def _segments_intersect(p0, p1, q0, q1):
    # proper or touching intersection of closed segments
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
            and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
        )

    if d1 == 0 and on_seg(q0, q1, p0):
        return True
    if d2 == 0 and on_seg(q0, q1, p1):
        return True
    if d3 == 0 and on_seg(p0, p1, q0):
        return True
    if d4 == 0 and on_seg(p0, p1, q1):
        return True
    return False


class Mesh:
    """Conforming triangle mesh with an oriented boundary and a marked arc.

    Parameters
    ----------
    vertices : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Counter-clockwise vertex index triples.
    boundary_edges : (b, 2) int array
        Directed boundary edges with the domain on the left, covering the
        whole boundary exactly once.
    gamma_edges : (g, 2) int array
        The measurement arc: a nonempty subset of ``boundary_edges`` that
        is connected along the boundary.
    check : bool
        Run the full invariant check (positive areas, conformity, closed
        oriented boundary, connected gamma). Disable only for meshes that
        were already validated.
    """

    def __init__(self, vertices, triangles, boundary_edges, gamma_edges, check=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.gamma_edges = np.ascontiguousarray(gamma_edges, dtype=np.int64)
        for arr in (self.vertices, self.triangles, self.boundary_edges, self.gamma_edges):
            arr.setflags(write=False)
        self._cache = {}
        if check:
            self._validate()

    # ------------------------------------------------------------------ #
    def _validate(self):
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be a (t, 3) array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        areas = _signed_areas(v, t)
        if np.any(areas <= 0):
            raise ValueError("all triangles must have positive signed area")

        if np.any(np.bincount(self.tri_edges().ravel()) > 2):
            raise ValueError("non-conforming mesh: an edge is shared by > 2 triangles")
        et = self.edge_tris()
        inner = et[et[:, 1] >= 0]
        if np.any(components(len(t), inner) > 0):
            raise ValueError("mesh triangles must form one connected piece")

        be = self.boundary_edges
        if be.ndim != 2 or be.shape[1] != 2:
            raise ValueError("boundary_edges must be a (b, 2) array")
        be_ids = self.edge_index(be[:, 0], be[:, 1])
        if np.any(be_ids < 0) or not np.array_equal(
            np.sort(be_ids), np.flatnonzero(et[:, 1] < 0)
        ):
            raise ValueError("boundary_edges must cover the mesh hull exactly once")
        # a boundary edge a -> b is the side a -> b of its one triangle
        hull_tri = et[be_ids, 0]
        side = np.argmax(self.tri_edges()[hull_tri] == be_ids[:, None], axis=1)
        if np.any(t[hull_tri, side] != be[:, 0]):
            raise ValueError("boundary edge oriented with the domain on the right")
        outdeg = np.bincount(be[:, 0], minlength=len(v))
        indeg = np.bincount(be[:, 1], minlength=len(v))
        if np.any(outdeg > 1) or not np.array_equal(outdeg, indeg):
            raise ValueError("boundary edges do not form simple closed loops")

        ge = self.gamma_edges
        if len(ge) == 0:
            raise ValueError("gamma must be nonempty")
        ge_ids = self.edge_index(ge[:, 0], ge[:, 1])
        if not np.all(np.isin(ge_ids, be_ids)):
            raise ValueError("gamma_edges must be a subset of boundary_edges")
        if len(np.unique(ge_ids)) != len(ge):
            raise ValueError("duplicate gamma edge")
        # connectivity along the boundary via shared vertices
        arc = components(len(v), ge)[ge]
        if np.any(arc != arc[0, 0]):
            raise ValueError("gamma must be connected along the boundary")

    # ------------------------------------------------------------------ #
    def __str__(self):
        return "Mesh(vertices=%d, triangles=%d, boundary_edges=%d, gamma_edges=%d)" % (
            len(self.vertices),
            len(self.triangles),
            len(self.boundary_edges),
            len(self.gamma_edges),
        )

    __repr__ = __str__

    def tri_areas(self):
        if "areas" not in self._cache:
            a = _signed_areas(self.vertices, self.triangles)
            a.setflags(write=False)
            self._cache["areas"] = a
        return self._cache["areas"]

    def _edge_table(self):
        # one np.unique over the undirected keys lo * n + hi of all triangle
        # sides; the key encoding stays inside this method and edge_index
        if "edges" not in self._cache:
            n, t = len(self.vertices), self.triangles
            sides = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
            keys = sides.min(axis=1) * n + sides.max(axis=1)
            uniq, inv = np.unique(keys, return_inverse=True)
            # sides are numbered triangle by triangle, so an edge's first and
            # last side lie in its lowest and highest triangle
            _, first = np.unique(inv, return_index=True)
            _, last = np.unique(inv[::-1], return_index=True)
            lo, hi = first // 3, (len(inv) - 1 - last) // 3
            self._cache.update(
                edge_keys=uniq,
                edges=np.column_stack([uniq // n, uniq % n]),
                tri_edges=inv.reshape(-1, 3),
                edge_tris=np.column_stack([lo, np.where(hi > lo, hi, -1)]),
            )
            for name in ("edge_keys", "edges", "tri_edges", "edge_tris"):
                self._cache[name].setflags(write=False)
        return self._cache

    def edges(self):
        """Undirected edges, shape (E, 2), lower vertex first, rows sorted.

        A row index is the edge id that the other edge-table methods use.
        """
        return self._edge_table()["edges"]

    def tri_edges(self):
        """Edge ids of the triangle sides (0, 1), (1, 2), (2, 0), shape (T, 3)."""
        return self._edge_table()["tri_edges"]

    def edge_tris(self):
        """The two triangles at each edge, shape (E, 2).

        The lower triangle index comes first; a hull edge has -1 second.
        """
        return self._edge_table()["edge_tris"]

    def edge_index(self, a, b):
        """Edge id of the vertex pair(s) ``a``-``b`` (either order), -1 if none.

        Works elementwise on arrays and returns an int for scalar input.
        """
        keys = self._edge_table()["edge_keys"]
        n = len(self.vertices)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        q = lo * n + hi
        i = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        out = np.where((lo >= 0) & (hi < n) & (keys[i] == q), i, -1)
        return out if out.ndim else int(out)

    def boundary_vertex_set(self):
        if "bvs" not in self._cache:
            self._cache["bvs"] = set(self.boundary_edges.ravel().tolist())
        return self._cache["bvs"]

    def h_max(self):
        e = self.edges()
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return float(np.max(np.linalg.norm(d, axis=1)))

    def gamma_vertices(self):
        """Vertices of the measurement arc, ordered along the boundary.

        Follows the boundary orientation. For a gamma that is the full
        closed boundary the walk starts at the smallest vertex index and
        each vertex appears once; for a proper arc the list runs from one
        arc end to the other (one more vertex than edges). The walk is
        done once per mesh; the returned array is read-only.
        """
        if "gamma_vertices" not in self._cache:
            nxt = {int(a): int(b) for a, b in self.gamma_edges}
            has_in = set(nxt.values())
            starts = [a for a in nxt if a not in has_in]
            if starts:
                cur = min(starts)  # open arc
                closed = False
            else:
                cur = min(nxt)  # full loop
                closed = True
            order = [cur]
            while len(order) <= len(nxt):
                cur = nxt.get(cur)
                if cur is None or (closed and cur == order[0]):
                    break
                order.append(cur)
            order = np.array(order, dtype=np.int64)
            order.setflags(write=False)
            self._cache["gamma_vertices"] = order
        return self._cache["gamma_vertices"]

    def boundary_segments(self):
        return self.vertices[self.boundary_edges[:, 0]], self.vertices[self.boundary_edges[:, 1]]

    def distance_to_boundary(self, pts):
        """Distances from the k points ``pts`` (shape (k, 2)) to the boundary polygon.

        The points go in chunks of about ``DISTANCE_CHUNK`` point-segment
        pairs, so no k x b array over the b boundary edges is formed.
        """
        a, b = self.boundary_segments()
        pts = np.asarray(pts, dtype=float)
        out = np.empty(len(pts))
        step = max(1, DISTANCE_CHUNK // len(a))
        for lo in range(0, len(pts), step):
            out[lo:lo + step] = point_segment_distance(pts[lo:lo + step], a, b).min(axis=-1)
        return out

    def clearance(self, verts):
        """Distances of the vertices ``verts`` to the boundary polygon.

        Each vertex's distance is computed once per mesh, when it is first
        asked for, and kept in a read-only array. Filling it for every vertex
        at once would cost a pass over all vertex-segment pairs on each
        fresh mesh, where crack embedding checks only a chain's vertices.
        """
        if "clearance" not in self._cache:
            c = np.full(len(self.vertices), np.nan)
            c.setflags(write=False)
            self._cache["clearance"] = c
        c = self._cache["clearance"]
        verts = np.asarray(verts, dtype=np.int64)
        todo = np.unique(verts[np.isnan(c[verts])])
        if todo.size:
            c.setflags(write=True)
            c[todo] = self.distance_to_boundary(self.vertices[todo])
            c.setflags(write=False)
        return c[verts]

    def vertex_corners(self):
        """The triangle corners at each vertex: ``(corners, start)``.

        A corner is the flat index 3 t + c of corner c of triangle t. The
        corners of vertex v are ``corners[start[v]:start[v + 1]]``,
        ascending. One stable argsort of the 3T corners, done once per mesh;
        both arrays are read-only.
        """
        if "corners" not in self._cache:
            flat = self.triangles.reshape(-1)
            corners = np.argsort(flat, kind="stable")
            start = np.zeros(len(self.vertices) + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=len(self.vertices)), out=start[1:])
            for arr in (corners, start):
                arr.setflags(write=False)
            self._cache["corners"] = (corners, start)
        return self._cache["corners"]

    def containing_triangle(self, pt):
        """Index of a triangle whose closure contains ``pt``, or -1."""
        v, t = self.vertices, self.triangles
        a = v[t[:, 0]]
        e1 = v[t[:, 1]] - a
        e2 = v[t[:, 2]] - a
        d = np.asarray(pt, dtype=float) - a
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        s = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        u = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        ok = (s >= -1e-12) & (u >= -1e-12) & (s + u <= 1 + 1e-12)
        idx = np.nonzero(ok)[0]
        return int(idx[0]) if idx.size else -1


# ---------------------------------------------------------------------- #
# mesh builders
# ---------------------------------------------------------------------- #


def build_rect_mesh(width, height, target_h):
    """Structured triangulation of [0, width] x [0, height].

    Cells are split along the "/" diagonal, so axis-parallel and 45-degree
    lines through grid points run along mesh edges. The longest edge is the
    cell diagonal, below 1.5 * target_h. Gamma defaults to the whole
    boundary. At least two cells per side are generated so the mesh always
    has interior vertices.
    """
    if not (width > 0 and height > 0 and target_h > 0):
        raise ValueError("width, height and target_h must be positive")
    nx = max(2, int(math.ceil(width / target_h)))
    ny = max(2, int(math.ceil(height / target_h)))
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # vid[iy, ix] is the vertex at (xs[ix], ys[iy]); each cell splits into
    # (v00, v10, v01) and (v10, v11, v01)
    vid = np.arange((ny + 1) * (nx + 1)).reshape(ny + 1, nx + 1)
    v00 = vid[:-1, :-1].ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    tris = np.column_stack([v00, v10, v01, v10, v01 + 1, v01]).reshape(-1, 3)
    # the boundary ring counter-clockwise from the origin: bottom, right,
    # top, left
    ring = np.concatenate([vid[0, :-1], vid[:-1, -1], vid[-1, :0:-1], vid[:0:-1, 0]])
    bedges = np.column_stack([ring, np.roll(ring, -1)])
    return Mesh(vertices, tris, bedges, bedges)


def build_disk_mesh(radius, target_h):
    """Triangulation of a disk by concentric rings (n-th ring has 6n vertices).

    The boundary is the regular polygon inscribed in the circle of the given
    radius. Ring spacing and circumferential spacing are both close to
    target_h, and the longest edge stays below 1.5 * target_h.
    """
    if not (radius > 0 and target_h > 0):
        raise ValueError("radius and target_h must be positive")
    K = max(2, int(math.ceil(radius / target_h)))
    verts = [(0.0, 0.0)]
    ring_start = [0]
    for k in range(1, K + 1):
        r = radius * k / K
        m = 6 * k
        ring_start.append(len(verts))
        ang = 2.0 * np.pi * np.arange(m) / m
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    verts = np.array(verts, dtype=float)

    tris = []
    # center fan
    s1 = ring_start[1]
    for i in range(6):
        tris.append((0, s1 + i, s1 + (i + 1) % 6))
    # annuli: zip ring k (inner) with ring k+1 (outer) by angle
    for k in range(1, K):
        n_in, n_out = 6 * k, 6 * (k + 1)
        si, so = ring_start[k], ring_start[k + 1]
        i = j = 0
        while i < n_in or j < n_out:
            adv_in = (i + 1) / n_in if i < n_in else np.inf
            adv_out = (j + 1) / n_out if j < n_out else np.inf
            # ties advance the inner ring, keeping the zip centered on the
            # shared angles (otherwise the closing edge spans a whole sector)
            if adv_out < adv_in:
                tris.append((so + j % n_out, so + (j + 1) % n_out, si + i % n_in))
                j += 1
            else:
                tris.append((si + i % n_in, so + j % n_out, si + (i + 1) % n_in))
                i += 1
    m = 6 * K
    so = ring_start[K]
    bedges = np.array([(so + i, so + (i + 1) % m) for i in range(m)], dtype=np.int64)
    return Mesh(verts, np.array(tris, dtype=np.int64), bedges, bedges)


def refine_mesh(mesh, cracks):
    """Regular midpoint refinement; every triangle splits into four.

    Original vertices keep their indices, so the coarse trace nodes are a
    subset of the fine ones and coarse piecewise-linear data interpolates
    exactly. Crack chains are carried over with edge midpoints inserted.
    Returns (refined mesh, refined cracks).
    """
    nv = len(mesh.vertices)
    te = mesh.tri_edges()
    # midpoints are numbered in the order a sweep over the triangle sides
    # first meets their edges
    _, first = np.unique(te.ravel(), return_index=True)
    order = np.argsort(first)
    mid = np.empty(len(order), dtype=np.int64)
    mid[order] = nv + np.arange(len(order))
    ends = mesh.edges()[order]
    new_pts = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])

    a, b, c = mesh.triangles.T
    mab, mbc, mca = mid[te].T
    tris = np.stack(
        [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1
    ).reshape(-1, 3)

    def midpoint(a, b):
        return mid[mesh.edge_index(a, b)]

    def split_edges(edges):
        m = midpoint(edges[:, 0], edges[:, 1])
        return np.column_stack([edges[:, 0], m, m, edges[:, 1]]).reshape(-1, 2)

    fine = Mesh(
        np.vstack([mesh.vertices, new_pts]),
        tris,
        split_edges(mesh.boundary_edges),
        split_edges(mesh.gamma_edges),
        check=False,
    )
    comps = []
    for comp in cracks.components:
        chain = [comp.chain[0]]
        for a, b in comp.edges():
            chain.append(midpoint(a, b))
            chain.append(b)
        comps.append(CrackComponent(chain, comp.kind))
    out = CrackSet(comps)
    out.validate(fine)
    return fine, out


def mark_gamma(mesh, selector):
    """Return a mesh with gamma replaced by the edges matching ``selector``.

    Selector forms:

    * ``"all"``: the whole boundary.
    * ``{"side": "left"|"right"|"bottom"|"top"}``: edges of one side of an
      axis-aligned rectangle (matched by midpoint coordinate).
    * ``{"box": [xmin, ymin, xmax, ymax]}``: edges with both endpoints in
      the closed box.
    * ``{"angle": [a0, a1]}``: edges whose midpoint polar angle (radians,
      measured from the domain centroid) lies in [a0, a1].

    The selection must be nonempty and connected along the boundary.
    """
    be = mesh.boundary_edges
    mids = 0.5 * (mesh.vertices[be[:, 0]] + mesh.vertices[be[:, 1]])
    if selector == "all":
        keep = np.ones(len(be), dtype=bool)
    elif isinstance(selector, dict) and "side" in selector:
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        tol = 1e-9 * max(hi[0] - lo[0], hi[1] - lo[1])
        side = selector["side"]
        if side == "left":
            keep = np.abs(mids[:, 0] - lo[0]) < tol
        elif side == "right":
            keep = np.abs(mids[:, 0] - hi[0]) < tol
        elif side == "bottom":
            keep = np.abs(mids[:, 1] - lo[1]) < tol
        elif side == "top":
            keep = np.abs(mids[:, 1] - hi[1]) < tol
        else:
            raise ValueError("unknown side %r" % (side,))
    elif isinstance(selector, dict) and "box" in selector:
        x0, y0, x1, y1 = selector["box"]
        p = mesh.vertices[be[:, 0]]
        q = mesh.vertices[be[:, 1]]
        keep = (
            (p[:, 0] >= x0) & (p[:, 0] <= x1) & (p[:, 1] >= y0) & (p[:, 1] <= y1)
            & (q[:, 0] >= x0) & (q[:, 0] <= x1) & (q[:, 1] >= y0) & (q[:, 1] <= y1)
        )
    elif isinstance(selector, dict) and "angle" in selector:
        a0, a1 = selector["angle"]
        c = mesh.vertices.mean(axis=0)
        ang = np.arctan2(mids[:, 1] - c[1], mids[:, 0] - c[0])
        ang = np.where(ang < a0, ang + 2 * np.pi, ang)
        keep = (ang >= a0) & (ang <= a1)
    else:
        raise ValueError("unrecognized gamma selector %r" % (selector,))
    if not keep.any():
        raise ValueError("gamma selector matched no boundary edge")
    return Mesh(mesh.vertices, mesh.triangles, be, be[keep])


# ---------------------------------------------------------------------- #
# cracks
# ---------------------------------------------------------------------- #


class CrackComponent:
    """One crack: a simple chain of interior mesh edges plus its kind."""

    def __init__(self, chain, kind):
        if kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        self.chain = tuple(int(v) for v in chain)
        self.kind = kind
        if len(self.chain) < 2:
            raise ValueError("a crack chain needs at least one edge")
        if len(set(self.chain)) != len(self.chain):
            raise ValueError("crack chain must be simple")

    def edges(self):
        return [(self.chain[i], self.chain[i + 1]) for i in range(len(self.chain) - 1)]

    def __repr__(self):
        return "CrackComponent(kind=%s, vertices=%d)" % (self.kind, len(self.chain))


class CrackSet:
    """Disjoint crack components; may mix insulating and conducting kinds."""

    def __init__(self, components=()):
        self.components = tuple(components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return "CrackSet(%s)" % (", ".join(repr(c) for c in self.components),)

    def kinds(self):
        return {c.kind for c in self.components}

    def of_kind(self, kind):
        return CrackSet([c for c in self.components if c.kind == kind])

    def _edge_ends(self):
        # the start and end vertices of every crack edge, chain by chain
        a = [v for c in self.components for v in c.chain[:-1]]
        b = [v for c in self.components for v in c.chain[1:]]
        return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)

    def edge_ids(self, mesh):
        """Mesh edge ids of the crack edges, chain by chain (-1: not an edge)."""
        return mesh.edge_index(*self._edge_ends())

    def segments(self, mesh):
        """Start and end points of the crack edges, chain by chain, each (k, 2)."""
        a, b = self._edge_ends()
        return mesh.vertices[a], mesh.vertices[b]

    def vertex_set(self):
        out = set()
        for comp in self.components:
            out.update(comp.chain)
        return out

    def validate(self, mesh):
        """Check all invariants against the mesh; raise ValueError on failure.

        The checks leave vertex-disjoint simple chains of interior edges,
        no chain vertex on the boundary. Such a crack set cannot disconnect
        the mesh interior, so connectivity is not searched here: a chain
        vertex is interior, so its triangles form a closed fan, and the
        only edges cut in that fan are its own chain's (at most two). A tip
        loses one edge of its fan, which stays in one piece. The two
        triangles at any crack edge are therefore joined by walking along
        one side of the chain, through the fans of its vertices, and around
        a tip. ``Mesh`` checks once that the uncut mesh is connected.

        The single-chain checks are ``check_chains``'s; the first component
        that breaks any check raises, its checks taken in the order
        boundary, shared vertex, edges, boundary distance.
        """
        chains = [comp.chain for comp in self.components]
        faults = _chain_faults(mesh, chains)
        # a component that shares a vertex with an earlier one
        shared, seen = np.zeros(len(chains), dtype=bool), set()
        for i, chain in enumerate(chains):
            shared[i] = not seen.isdisjoint(chain)
            seen.update(chain)
        faults = np.column_stack([faults[:, :1], shared, faults[:, 1:]])
        messages = (CHAIN_FAULTS[0], "crack components share a vertex") + CHAIN_FAULTS[1:]
        _raise_first(faults, messages)
        if len(self.components) > 1:
            for i in range(len(self.components)):
                for j in range(i + 1, len(self.components)):
                    vi = mesh.vertices[list(self.components[i].chain)]
                    vj = mesh.vertices[list(self.components[j].chain)]
                    d = np.min(
                        np.linalg.norm(vi[:, None, :] - vj[None, :, :], axis=2)
                    )
                    if d <= 0:
                        raise ValueError("crack components must stay separated")


# the invariants a single crack chain must keep, in the order they are checked
CHAIN_FAULTS = (
    "crack touches the boundary",
    "crack chain must follow interior mesh edges",
    "crack vertex on the boundary",
)


def _chain_faults(mesh, chains):
    # which of CHAIN_FAULTS each vertex chain breaks, shape (k, 3): one pass
    # over every chain vertex and edge; vertex ids out of range break the
    # edge check only, as edge_index gives them no edge
    lens = np.fromiter(map(len, chains), dtype=np.int64, count=len(chains))
    verts = np.fromiter(
        itertools.chain.from_iterable(chains), dtype=np.int64, count=int(lens.sum())
    )
    owner = np.repeat(np.arange(len(chains)), lens)
    valid = (verts >= 0) & (verts < len(mesh.vertices))
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
    on_boundary[mesh.boundary_edges] = True
    step = owner[1:] == owner[:-1]
    ids = mesh.edge_index(verts[:-1][step], verts[1:][step])
    not_interior = (ids < 0) | (mesh.edge_tris()[ids, 1] < 0)
    faults = np.zeros((len(chains), 3), dtype=bool)
    faults[owner[valid][on_boundary[verts[valid]]], 0] = True
    faults[owner[:-1][step][not_interior], 1] = True
    faults[owner[valid][mesh.clearance(verts[valid]) <= 0], 2] = True
    return faults


def _raise_first(faults, messages):
    # the message of the first fault of the first chain that has one
    bad = np.flatnonzero(faults.any(axis=1))
    if bad.size:
        raise ValueError(messages[int(np.argmax(faults[bad[0]]))])


def check_chains(mesh, chains):
    """Check vertex chains one by one against the mesh, all in one pass.

    A chain must have none of ``CHAIN_FAULTS``: a boundary vertex, a step
    that is not an interior mesh edge, a vertex at distance zero from the
    boundary. The first chain with one raises ``ValueError`` with the
    message ``CrackSet.validate`` gives for it alone. Chains may share
    vertices.
    """
    _raise_first(_chain_faults(mesh, chains), CHAIN_FAULTS)


def embed_crack(mesh, polyline, kind, cracks=None):
    """Embed a polyline crack along mesh edges; returns (new mesh, crack set).

    Vertices of the mesh near the polyline are relocated onto it (anchors of
    the polyline move their nearest vertex exactly; intermediate path
    vertices move to their orthogonal projection), so the resulting chain of
    mesh edges coincides with the polyline. The relocation must keep every
    triangle positively oriented, otherwise the polyline is not resolvable
    at this mesh size and the call fails.

    ``cracks`` carries previously embedded components; their vertices are
    never moved, and the new component must stay disjoint from them.
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("polyline must be a list of at least two 2D points")
    if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) == 0):
        raise ValueError("consecutive polyline points must be distinct")
    for i in range(len(pts) - 1):
        for j in range(i + 2, len(pts) - 1):
            if _segments_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                raise ValueError("polyline must not self-intersect")
    for p, dist in zip(pts, mesh.distance_to_boundary(pts)):
        if mesh.containing_triangle(p) < 0:
            raise ValueError("polyline leaves the domain")
        if dist <= 1e-12:
            raise ValueError("polyline touches the boundary")

    existing = cracks.components if cracks is not None else ()
    blocked = mesh.boundary_vertex_set() | set().union(
        *(set(c.chain) for c in existing), set()
    )

    free = np.ones(len(mesh.vertices), dtype=bool)
    free[list(blocked)] = False

    # nearest free vertex for each polyline anchor
    anchors = []
    for p in pts:
        d = np.where(free, np.linalg.norm(mesh.vertices - p, axis=1), np.inf)
        pick = int(np.argmin(d))
        if not free[pick]:
            raise ValueError("no interior vertex available near polyline point")
        anchors.append(pick)
    if len(set(anchors)) != len(anchors):
        raise ValueError("polyline is too short for the mesh resolution")

    # adjacency over interior, unblocked vertices
    e = mesh.edges()
    adj = {}
    for a, b in e[free[e].all(axis=1)].tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def dijkstra(src, dst, seg_a, seg_b):
        # an edge costs its length plus 20 times its head's distance to the segment
        dev = 20.0 * point_segment_distance(mesh.vertices, seg_a, seg_b)[:, 0]
        dist = {src: 0.0}
        prev = {}
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if u == dst:
                break
            if du > dist.get(u, np.inf):
                continue
            pu = mesh.vertices[u]
            for w in adj.get(u, ()):
                cost = float(np.linalg.norm(mesh.vertices[w] - pu)) + float(dev[w])
                nd = du + cost
                if nd < dist.get(w, np.inf) - 1e-15:
                    dist[w] = nd
                    prev[w] = u
                    heapq.heappush(heap, (nd, w))
        if dst not in dist:
            raise ValueError("no edge path between polyline points")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path[::-1]

    chain = [anchors[0]]
    moved = {anchors[0]: pts[0].copy()}
    for s in range(len(pts) - 1):
        path = dijkstra(anchors[s], anchors[s + 1], pts[s], pts[s + 1])
        seg = pts[s + 1] - pts[s]
        seg_len2 = float(seg @ seg)
        last_t = 0.0
        for v in path[1:]:
            t = float((mesh.vertices[v] - pts[s]) @ seg) / seg_len2
            if v == anchors[s + 1]:
                moved[v] = pts[s + 1].copy()
            else:
                if t <= last_t or t >= 1.0:
                    raise ValueError("edge path does not advance along the polyline")
                moved[v] = pts[s] + t * seg
                last_t = t
            chain.append(v)
    if len(set(chain)) != len(chain):
        raise ValueError("crack chain must be simple")

    new_vertices = mesh.vertices.copy()
    for v, p in moved.items():
        new_vertices[v] = p
    areas = _signed_areas(new_vertices, mesh.triangles)
    if np.any(areas <= 0):
        raise ValueError("crack not resolvable at this mesh size (triangle flip)")

    new_mesh = Mesh(
        new_vertices, mesh.triangles, mesh.boundary_edges, mesh.gamma_edges, check=False
    )
    comp = CrackComponent(chain, kind)
    out = CrackSet(tuple(existing) + (comp,))
    out.validate(new_mesh)
    return new_mesh, out


# ---------------------------------------------------------------------- #
# pixels
# ---------------------------------------------------------------------- #


class PixelGrid:
    """Square pixels tiling the bounding rectangle of a mesh.

    Pixel index is row-major: ``p = iy * nx + ix`` with ``ix`` fastest.
    Triangles are assigned to the pixel containing their centroid, so every
    triangle belongs to exactly one pixel. ``boundary_pixels`` are the
    pixels whose closed square touches the domain boundary; admissible test
    inclusions must avoid them.
    """

    def __init__(self, mesh, nx, ny):
        if nx < 1 or ny < 1:
            raise ValueError("nx, ny must be positive")
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        hx = (hi[0] - lo[0]) / nx
        hy = (hi[1] - lo[1]) / ny
        if abs(hx - hy) > 1e-9 * max(hx, hy):
            raise ValueError("pixels must be square: nx, ny mismatch the domain aspect")
        self.nx = int(nx)
        self.ny = int(ny)
        self.h = float(0.5 * (hx + hy))
        self.mesh = mesh
        self.origin = np.array([lo[0], lo[1]], dtype=float)
        self.origin.setflags(write=False)

        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        ix = np.clip(((cent[:, 0] - lo[0]) / hx).astype(int), 0, nx - 1)
        iy = np.clip(((cent[:, 1] - lo[1]) / hy).astype(int), 0, ny - 1)
        self.tri_pixel = iy * nx + ix
        self.tri_pixel.setflags(write=False)

        self.boundary_pixels = frozenset(self.pixels_touching(*mesh.boundary_segments()).tolist())
        self.nonempty_pixels = frozenset(np.unique(self.tri_pixel).tolist())

    def pixels_touching(self, a, b):
        """Sorted distinct pixels whose closed square meets a closed segment.

        ``a`` and ``b`` hold the k segments' ends, shape (k, 2). Each segment
        is clipped (Liang-Barsky) against every pixel of its bounding box,
        all in one array pass. Both the box and the clip allow ``1e-12``, so
        a segment that ends on a pixel edge touches the pixels on both sides.
        """
        tol = 1e-12
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        f_lo = (np.minimum(a, b) - self.origin) / self.h
        f_hi = (np.maximum(a, b) - self.origin) / self.h
        lo = np.maximum(np.floor(f_lo - tol).astype(np.int64), 0)
        hi = np.minimum(np.floor(f_hi + tol).astype(np.int64), [self.nx - 1, self.ny - 1])
        # every (segment, pixel) pair of the boxes, ix fastest
        size = np.maximum(hi - lo + 1, 0)
        count = size[:, 0] * size[:, 1]
        seg = np.repeat(np.arange(len(a)), count)
        j = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
        ix = lo[seg, 0] + j % size[seg, 0]
        iy = lo[seg, 1] + j // size[seg, 0]
        x0 = self.origin[0] + ix * self.h
        y0 = self.origin[1] + iy * self.h
        p0, d = a[seg], b[seg] - a[seg]
        p = np.column_stack([-d[:, 0], d[:, 0], -d[:, 1], d[:, 1]])
        q = np.column_stack([
            p0[:, 0] - x0, x0 + self.h - p0[:, 0], p0[:, 1] - y0, y0 + self.h - p0[:, 1]
        ])
        # a ratio that overflows is far outside [0, 1], so the clip reads
        # its ±inf exactly as it would the true ratio
        with np.errstate(over="ignore"):
            r = np.divide(q, p, out=np.zeros_like(q), where=p != 0)
        t0 = np.where(p < 0, r, 0.0).max(axis=1)
        t1 = np.where(p > 0, r, 1.0).min(axis=1)
        meets = (t0 <= t1 + tol) & ~((p == 0) & (q < -tol)).any(axis=1)
        return np.unique(iy[meets] * self.nx + ix[meets])

    def crack_pixels(self, cracks):
        """Pixels whose closed square meets some edge of a crack set."""
        return set(self.pixels_touching(*cracks.segments(self.mesh)).tolist())

    @property
    def n_pixels(self):
        return self.nx * self.ny

    def coords(self, p):
        return p % self.nx, p // self.nx

    def index(self, ix, iy):
        return iy * self.nx + ix

    def to_json(self):
        return {
            "origin": self.origin.tolist(),
            "nx": self.nx,
            "ny": self.ny,
            "h": self.h,
        }


class PixelSet:
    """A union of pixels used as a test inclusion."""

    def __init__(self, grid, members=()):
        self.grid = grid
        self.members = frozenset(int(m) for m in members)
        if self.members and not (0 <= min(self.members) and max(self.members) < grid.n_pixels):
            raise ValueError("pixel index out of range")

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, PixelSet)
            and self.grid is other.grid
            and self.members == other.members
        )

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "PixelSet(%d pixels)" % len(self.members)

    @classmethod
    def from_rect(cls, grid, ix0, iy0, ix1, iy1):
        """Pixels with ix0 <= ix <= ix1 and iy0 <= iy <= iy1."""
        members = [
            grid.index(ix, iy)
            for iy in range(iy0, iy1 + 1)
            for ix in range(ix0, ix1 + 1)
        ]
        return cls(grid, members)

    def mask(self):
        """Membership as a boolean ``(ny, nx)`` array, row iy, column ix."""
        m = np.zeros(self.grid.n_pixels, dtype=bool)
        m[list(self.members)] = True
        return m.reshape(self.grid.ny, self.grid.nx)

    def minus(self, pixel):
        return PixelSet(self.grid, self.members - {int(pixel)})

    def components(self):
        """4-connected component of every pixel, as an ``(n_pixels,)`` array.

        Pixels off the set hold -1. Components are numbered from 0 in the
        order of their smallest members.
        """
        grid = self.grid
        ids = np.arange(grid.n_pixels).reshape(grid.ny, grid.nx)
        m = self.mask()
        members = ids[m]
        label = components(grid.n_pixels, _pairs4(ids, m))[members]
        out = np.full(grid.n_pixels, -1)
        # each label is its component's smallest member, so the labels' ranks
        # number the components
        out[members] = np.unique(label, return_inverse=True)[1]
        return out

    def dilate(self):
        """Grow by one layer of 8-neighbors (clipped to the grid)."""
        pad = _pad(self.mask())
        shifts = [_shifted(pad, dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        return PixelSet(self.grid, np.flatnonzero(np.logical_or.reduce(shifts)))

    def triangles(self):
        """Sorted indices of the triangles inside the member pixels."""
        return np.flatnonzero(self.mask().ravel()[self.grid.tri_pixel])

    def vertex_set(self, mesh):
        """Vertices incident to any member-pixel triangle."""
        t = self.triangles()
        return set(mesh.triangles[t].ravel().tolist()) if t.size else set()


def pixelset_is_admissible(p):
    """Whether the pixel union is a valid test inclusion.

    Requires a connected complement (every non-member pixel can reach the
    outside of the grid through edge-adjacent non-members), no diagonal
    corner contacts in any 2x2 block, and no member touching the domain
    boundary. The empty set is admissible.
    """
    if not p.members:
        return True
    if p.members & p.grid.boundary_pixels:
        return False
    # a pixel with no triangles lies outside the meshed domain
    if p.members - p.grid.nonempty_pixels:
        return False
    # corner contacts: either diagonal pattern in a 2x2 block (pad with
    # complement so blocks straddling the grid edge are covered)
    pad = _pad(p.mask())
    a = pad[:-1, :-1]
    b = pad[:-1, 1:]
    c = pad[1:, :-1]
    d = pad[1:, 1:]
    if np.any((a & d & ~b & ~c) | (b & c & ~a & ~d)):
        return False

    # complement connectivity to the grid exterior: the padding ring is
    # complement too and stands for the outside; its corner is node 0 of the
    # padded grid, so every free pixel must have label 0
    free = ~pad
    ids = np.arange(free.size).reshape(free.shape)
    return not components(free.size, _pairs4(ids, free))[free.ravel()].any()


def interior_pixel_set(grid):
    """Pixels that hold domain triangles and keep clear of the boundary."""
    return PixelSet(grid, grid.nonempty_pixels - grid.boundary_pixels)


def peel_candidates(p):
    """The boundary pixels of ``p`` whose removal leaves an admissible set.

    ``p`` must be admissible. Then a removal keeps the complement connected
    to the outside (the freed pixel joins it across an edge) and keeps the
    set clear of the boundary, so it can only go wrong by a corner contact,
    and only in the four 2x2 blocks around the freed pixel: one whose two
    neighbours of it are members and whose diagonal pixel is not.

    Pixels come in row-major order, so the result is deterministic. The
    list is empty when no single removal stays admissible.
    """
    pad = _pad(p.mask())

    def at(dx, dy):
        return _shifted(pad, dx, dy)

    # a member that lacks one of its four neighbours is on the boundary
    out = at(0, 0) & ~(at(-1, 0) & at(1, 0) & at(0, -1) & at(0, 1))
    for dx in (-1, 1):
        for dy in (-1, 1):
            out &= ~(at(dx, 0) & at(0, dy) & ~at(dx, dy))
    return np.flatnonzero(out).tolist()


def _pad(mask):
    # the mask inside a ring of False (np.pad takes twenty times as long)
    out = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    out[1:-1, 1:-1] = mask
    return out


def _shifted(pad, dx, dy):
    # a grid-shaped view of a mask padded by one ring of False: its [iy, ix]
    # is the mask's pixel (ix + dx, iy + dy), or False off the grid
    ny, nx = pad.shape[0] - 2, pad.shape[1] - 2
    return pad[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]


def _pairs4(ids, keep):
    # the pairs of 4-neighbours of a 2-D array of node ids that are both kept
    across = keep[:, :-1] & keep[:, 1:]
    down = keep[:-1] & keep[1:]
    return np.concatenate([
        np.column_stack([ids[:, :-1][across], ids[:, 1:][across]]),
        np.column_stack([ids[:-1][down], ids[1:][down]]),
    ])
