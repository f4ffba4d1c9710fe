"""Piecewise-linear finite elements on slit and constrained triangulations.

The degree-of-freedom map realizes four kinds of constrained spaces on one
mesh:

* insulating cracks: every interior vertex of a chain carries one dof per
  side of the slit (the two fans of incident triangles), while the chain
  tips keep a single dof, so the crack opens but stays attached at its ends;
* conducting cracks: all vertices of a component share one dof, which makes
  the potential constant there and balances the flux jump weakly;
* an excluded pixel region: its triangles drop out of the bilinear form and
  enclosed vertices lose their dofs (Neumann hole);
* a frozen pixel region: each connected component of the region collapses
  to a single dof (potential locally constant there).

Potentials are grounded by pinning one boundary dof during the solve and
subtracting the mean of the trace over the measurement arc afterwards.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .geometry import CONDUCTING, INSULATING

MEAN_FREE_RTOL = 1e-9
RESIDUAL_RTOL = 1e-10


class Conductivity:
    """Positive per-triangle background conductivity."""

    def __init__(self, mesh, values):
        v = np.asarray(values, dtype=float)
        if v.ndim == 0:
            v = np.full(len(mesh.triangles), float(v))
        if v.shape != (len(mesh.triangles),):
            raise ValueError("need one conductivity value per triangle")
        if not np.all(v > 0):
            raise ValueError("conductivity must be strictly positive")
        self.values = v
        self.values.setflags(write=False)

    @classmethod
    def from_spec(cls, mesh, spec):
        """Build from a number or a {default, boxes: [{box, value}]} mapping."""
        if isinstance(spec, (int, float)):
            return cls(mesh, float(spec))
        vals = np.full(len(mesh.triangles), float(spec.get("default", 1.0)))
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        for rule in spec.get("boxes", ()):
            x0, y0, x1, y1 = rule["box"]
            inside = (
                (cent[:, 0] >= x0)
                & (cent[:, 0] <= x1)
                & (cent[:, 1] >= y0)
                & (cent[:, 1] <= y1)
            )
            vals[inside] = float(rule["value"])
        return cls(mesh, vals)


class Field:
    """A dof vector tied to the DofMap it was solved on.

    ``values`` has shape ``(n_dofs,)`` for one solve, or ``(n_dofs, k)``
    when a block of k currents was solved at once (one column per current).
    """

    def __init__(self, values, dofmap):
        self.values = np.asarray(values, dtype=float)
        self.dofmap = dofmap

    def __repr__(self):
        return "Field(%d dofs)" % len(self.values)


class ElementVectorField:
    """Per-triangle constant 2-vector supported on a set of triangles."""

    def __init__(self, mesh, values, support):
        self.mesh = mesh
        self.support = np.asarray(sorted(set(int(t) for t in support)), dtype=np.int64)
        v = np.zeros((len(mesh.triangles), 2))
        values = np.asarray(values, dtype=float)
        if values.shape == (len(self.support), 2):
            v[self.support] = values
        elif values.shape == v.shape:
            v[self.support] = values[self.support]
        else:
            raise ValueError("values must cover the support or the whole mesh")
        self.values = v
        self.values.setflags(write=False)

    def __repr__(self):
        return "ElementVectorField(%d support triangles)" % len(self.support)


def gamma_mass(mesh):
    """Mass matrix of piecewise-linear functions on the measurement arc.

    Rows and columns follow ``mesh.gamma_vertices()`` order.
    """
    if "gamma_mass" not in mesh._cache:
        order = mesh.gamma_vertices()
        pos = np.zeros(len(mesh.vertices), dtype=np.int64)
        pos[order] = np.arange(len(order))
        ia, ib = pos[mesh.gamma_edges].T
        d = mesh.vertices[mesh.gamma_edges[:, 0]] - mesh.vertices[mesh.gamma_edges[:, 1]]
        # one dot per edge vector, as np.linalg.norm takes it, so the lengths
        # and the sums below (edge by edge, in edge order) match a loop's bits
        ell = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        M = np.zeros((len(order), len(order)))
        np.add.at(
            M,
            (np.column_stack([ia, ib, ia, ib]), np.column_stack([ia, ib, ib, ia])),
            np.column_stack([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0]),
        )
        M.setflags(write=False)
        mesh._cache["gamma_mass"] = M
    return mesh._cache["gamma_mass"]


def arc_weights(mesh):
    """Integrals of the arc vertices' hat functions: the row sums of ``gamma_mass``."""
    if "arc_weights" not in mesh._cache:
        w = gamma_mass(mesh).sum(axis=1)
        w.setflags(write=False)
        mesh._cache["arc_weights"] = w
    return mesh._cache["arc_weights"]


def require_mean_free(mesh, f, what):
    """Raise unless every column of ``f`` (values on the arc nodes) is mean-free.

    A column passes when ``|w . f| <= MEAN_FREE_RTOL * sum(w) * max|f|``
    with ``w`` the arc weights: relative to the column's own size, so a
    rescaled current passes or fails alike, and a zero column passes.
    """
    w = arc_weights(mesh)
    f = f.reshape(len(w), -1)
    scale = MEAN_FREE_RTOL * w.sum() * np.max(np.abs(f), axis=0, initial=0.0)
    if np.any(np.abs(w @ f) > scale):
        raise ValueError("%s must be mean-free on the arc" % what)


def _hat_gradients(mesh):
    # gradients of the three nodal hats per triangle, shape (t, 3, 2)
    if "hat_grads" not in mesh._cache:
        p = mesh.vertices[mesh.triangles]
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
        g = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        g /= (2.0 * mesh.tri_areas())[:, None, None]
        g.setflags(write=False)
        mesh._cache["hat_grads"] = g
    return mesh._cache["hat_grads"]


class DofMap:
    """Vertex-to-dof assignment realizing one constrained space.

    ``corner_dof`` has one dof index per triangle corner (-1 on excluded
    triangles), which is the resolution needed to keep the two sides of an
    insulating slit apart. ``vertex_dof`` is what boundary traces use: the
    smallest dof on the vertex's active corners, -1 for a vertex swallowed
    by an excluded region. Only interior slit vertices carry two dofs; for
    them it is the dof of the side holding their lowest triangle.
    """

    def __init__(self, mesh, cracks, excluded, frozen, corner_dof, active_tri, n_dofs):
        self.mesh = mesh
        self.cracks = cracks
        self.excluded = excluded
        self.frozen = frozen
        self.corner_dof = corner_dof
        self.active_tri = active_tri
        self.n_dofs = int(n_dofs)
        for arr in (self.corner_dof, self.active_tri):
            arr.setflags(write=False)

        vertex_dof = np.full(len(mesh.vertices), self.n_dofs, dtype=np.int64)
        np.minimum.at(vertex_dof, mesh.triangles[active_tri], corner_dof[active_tri])
        vertex_dof[vertex_dof == self.n_dofs] = -1
        self.vertex_dof = vertex_dof
        self.vertex_dof.setflags(write=False)

        self.gamma_order = mesh.gamma_vertices()
        self.gamma_dofs = self.vertex_dof[self.gamma_order]
        if np.any(self.gamma_dofs < 0):
            raise ValueError("a measurement-arc vertex lost its dof")
        self.gamma_dofs.setflags(write=False)

    def config_label(self):
        parts = []
        ins = sum(1 for c in self.cracks.components if c.kind == INSULATING)
        con = sum(1 for c in self.cracks.components if c.kind == CONDUCTING)
        if ins:
            parts.append("ins:%d" % ins)
        if con:
            parts.append("con:%d" % con)
        if self.excluded is not None and len(self.excluded):
            parts.append("excluded:%dpx" % len(self.excluded))
        if self.frozen is not None and len(self.frozen):
            parts.append("frozen:%dpx" % len(self.frozen))
        return "+".join(parts) if parts else "none"

    def __repr__(self):
        return "DofMap(%s, %d dofs)" % (self.config_label(), self.n_dofs)


def split_fans(mesh, insulating):
    """The far sides of the interior vertices of insulating chains.

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
    label = geometry.components(fan.tolist(), pairs.tolist())
    # fan is ascending, so a vertex's first corner is its lowest
    lowest, sides = {}, set()
    for k, v in zip(fan.tolist(), owner.tolist()):
        lowest.setdefault(v, k)
        sides.add((v, label[k]))
    if np.any(np.bincount([v for v, _ in sides], minlength=len(slit)) != 2):
        raise ValueError("slit vertex fan does not split into two sides")
    far = np.array([label[k] != lowest[v] for k, v in zip(fan.tolist(), owner.tolist())])
    return fan[far], owner[far]


def build_dofmap(mesh, cracks=None, excluded=None, frozen=None):
    """Construct the dof map for a crack set and an optional pixel region.

    ``excluded`` and ``frozen`` are mutually exclusive. Regions must be
    admissible pixel sets and may not touch any crack vertex: mixing a
    region with a crack inside it has no defined meaning here and is
    rejected outright.
    """
    if cracks is None:
        cracks = geometry.CrackSet()
    if excluded is not None and len(excluded) == 0:
        excluded = None
    if frozen is not None and len(frozen) == 0:
        frozen = None
    if excluded is not None and frozen is not None:
        raise ValueError("excluded and frozen regions are mutually exclusive")
    region = excluded if excluded is not None else frozen
    if region is not None and not geometry.pixelset_is_admissible(region):
        raise ValueError("region must be an admissible pixel set")
    if cracks.components:
        cracks.validate(mesh)
        if region is not None:
            if cracks.vertex_set() & region.vertex_set(mesh):
                raise ValueError("cracks overlapping the region are not supported")

    nv = len(mesh.vertices)
    tri = mesh.triangles
    corner = tri.astype(np.int64).copy()
    active = np.ones(len(tri), dtype=bool)

    # insulating slits: a second dof for the far-side fan of each interior
    # chain vertex, numbered after the vertices in slit order
    insulating = cracks.of_kind(INSULATING)
    far, owner = split_fans(mesh, insulating)
    corner.reshape(-1)[far] = nv + owner
    next_dof = nv + sum(len(comp.chain) - 2 for comp in insulating.components)

    # ties: conducting chains and frozen-region components map onto their
    # smallest vertex id
    remap = np.arange(next_dof, dtype=np.int64)
    for comp in cracks.components:
        if comp.kind == CONDUCTING:
            remap[list(comp.chain)] = min(comp.chain)

    if frozen is not None:
        grid = frozen.grid
        members = sorted(frozen.members)
        pairs = [(p, q) for p in members for q in grid.neighbors4(p) if q in frozen.members]
        label = geometry.components(members, pairs)
        for root in sorted(set(label.values())):
            block = [p for p in members if label[p] == root]
            verts = list(geometry.PixelSet(grid, block).vertex_set(mesh))
            remap[verts] = min(verts)

    corner = remap[corner]

    if excluded is not None:
        active[excluded.triangles()] = False

    used_dofs = np.unique(corner[active])
    dense = np.full(next_dof, -1, dtype=np.int64)
    dense[used_dofs] = np.arange(len(used_dofs))
    final = np.where(active[:, None], dense[corner], -1)
    return DofMap(mesh, cracks, excluded, frozen, final, active, len(used_dofs))


def element_stiffness(mesh, gamma0):
    """Per-triangle stiffness of the weighted Dirichlet form, shape (T, 3, 3).

    Entry ``[t, i, j]`` pairs the hats of corners i and j of triangle t.
    """
    g = _hat_gradients(mesh)
    return np.einsum("tic,tjc->tij", g, g) * (mesh.tri_areas() * gamma0.values)[:, None, None]


def assemble_stiffness(mesh, gamma0, dm):
    """Sparse symmetric stiffness matrix of the weighted Dirichlet form."""
    if dm.mesh is not mesh:
        raise ValueError("dof map was built for a different mesh")
    local = element_stiffness(mesh, gamma0)
    act = dm.active_tri
    rows = np.repeat(dm.corner_dof[act], 3, axis=1).reshape(-1)
    cols = np.tile(dm.corner_dof[act], (1, 3)).reshape(-1)
    vals = local[act].reshape(-1)
    # exactly symmetric: the conversion sums each entry and its mirror over
    # the same triangles in the same order; zeros (right angles) are dropped
    K = sp.coo_matrix((vals, (rows, cols)), shape=(dm.n_dofs, dm.n_dofs)).tocsr()
    K.eliminate_zeros()
    return K


class Factorization:
    """Direct factorization of the grounded stiffness, reusable across solves.

    One dof (the first measurement-arc vertex) is pinned to zero, which
    makes the reduced matrix positive definite; callers re-ground the
    solution by subtracting the trace mean.

    Because the reduced matrix is symmetric positive definite, SuperLU runs
    in symmetric mode: a minimum-degree ordering of its pattern, applied to
    rows and columns alike, with the diagonal taken as pivot. That keeps
    the factors much sparser than the default column ordering does, which
    sees only the pattern of A^T A. ``_check_residual`` still guards every
    solve.
    """

    def __init__(self, K, dm):
        self.dm = dm
        self.pin = int(dm.gamma_dofs[0])
        keep = np.ones(dm.n_dofs, dtype=bool)
        keep[self.pin] = False
        self.keep = keep
        self.K = K
        self._lu = spla.splu(
            K[keep][:, keep].tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def solve(self, b, rows=None):
        """Solve for a right-hand side ``(n_dofs,)`` or a block ``(n_dofs, k)``.

        With ``rows`` (distinct dofs), ``b`` holds only those rows of the
        right-hand side and every other row is zero. The dense block the
        factorization solves is built once, already without the pinned row.
        A block goes through the factorization in one call; the pinned dof
        is zero in every column.
        """
        rows = np.arange(self.dm.n_dofs) if rows is None else np.asarray(rows, dtype=np.int64)
        free = rows != self.pin
        dense = np.zeros((self.dm.n_dofs - 1,) + b.shape[1:])
        dense[rows[free] - (rows[free] > self.pin)] = b[free]
        y = self._lu.solve(dense)
        del dense
        # allocated after the solve, so the block's temporary copies are
        # gone before the result exists
        x = np.zeros((self.dm.n_dofs,) + y.shape[1:])
        x[self.keep] = y
        return x


def _check_residual(K, x, b, rows=None):
    """Largest relative residual over the columns; raises if any is too big.

    Each column is judged against its own right-hand side, so one bad
    column cannot hide behind the norm of a large block. With ``rows``
    (distinct), ``b`` holds only those rows of the right-hand side, as in
    ``Factorization.solve``. ``K`` may be sparse or a dense array.
    """
    r = K @ x
    if rows is None:
        r -= b
    else:
        r[rows] -= b
    bn = np.linalg.norm(b.reshape(len(b), -1), axis=0)
    rn = np.linalg.norm(r.reshape(len(r), -1), axis=0)
    rel = np.divide(rn, bn, out=np.zeros_like(rn), where=bn > 0)
    worst = float(np.max(rel, initial=0.0))
    if worst > RESIDUAL_RTOL:
        raise RuntimeError("linear solve did not converge: relative residual %.3e" % worst)
    return worst


def _load(dofs, cols, values, tail):
    # right-hand side as (distinct rows, their values) for one column
    # (tail ()) or k columns (tail (k,)); np.add.at sums each entry's
    # contributions in the order given, as it would on the dense block
    rows, at = np.unique(dofs, return_inverse=True)
    b = np.zeros((len(rows),) + tail)
    np.add.at(b.reshape(len(rows), -1), (at.reshape(dofs.shape), cols), values)
    return rows, b


def _solve(K, dm, rows, b, fact):
    # shared tail of every solve: factorize if needed, one solve for the
    # whole block from the load on its rows, per-column residual check,
    # then grounding in place
    if fact is None:
        fact = Factorization(K, dm)
    x = fact.solve(b, rows)
    _check_residual(K, x, b, rows)
    w = arc_weights(dm.mesh)
    x -= (w @ x[dm.gamma_dofs]) / w.sum()
    return Field(x, dm)


def solve_neumann(K, dm, f, fact=None):
    """Solve the weak problem for mean-free currents on the arc.

    ``f`` holds nodal current-density values on the ordered arc vertices:
    one current of shape ``(G,)``, or a block ``(G, k)`` of k currents,
    which are solved together and give a Field with k columns. Every
    current must be mean-free. The result is grounded: each trace has zero
    mean.
    """
    f = np.asarray(f, dtype=float)
    M = gamma_mass(dm.mesh)
    if f.ndim not in (1, 2) or f.shape[0] != len(M):
        raise ValueError("current vector does not match the arc nodes")
    require_mean_free(dm.mesh, f, "boundary current")
    cols = np.arange(f.size // len(M))[None, :]
    rows, b = _load(dm.gamma_dofs[:, None], cols, (M @ f).reshape(len(M), -1), f.shape[1:])
    return _solve(K, dm, rows, b, fact)


def solve_source(K, dm, F, fact=None):
    """Solve for the potentials generated by interior element sources.

    ``F`` is either one ElementVectorField, which gives a Field with one
    column, or a pair ``(tris, vectors)`` of shapes ``(k,)`` and ``(k, 2)``
    standing for k sources: source j is the constant vector ``vectors[j]``
    on triangle ``tris[j]`` and zero elsewhere. The k sources are solved
    together and give a Field with k columns. No source may meet an
    excluded region.
    """
    mesh = dm.mesh
    if isinstance(F, ElementVectorField):
        if F.mesh is not mesh:
            raise ValueError("source field lives on a different mesh")
        tris, vectors = F.support, F.values[F.support]
        cols, tail = np.zeros(len(tris), dtype=np.int64), ()
    else:
        tris, vectors = F
        tris = np.asarray(tris, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=float)
        if tris.ndim != 1 or vectors.shape != (len(tris), 2):
            raise ValueError("sources need one triangle and one 2-vector each")
        if tris.size and (tris.min() < 0 or tris.max() >= len(mesh.triangles)):
            raise ValueError("source triangle index out of range")
        cols, tail = np.arange(len(tris)), (len(tris),)
    if not np.all(dm.active_tri[tris]):
        raise ValueError("source support meets the excluded region")
    g = _hat_gradients(mesh)[tris]
    contrib = mesh.tri_areas()[tris, None] * np.einsum("tic,tc->ti", g, vectors)
    # a triangle whose corners share one dof (inside a frozen block) loads it
    # with exactly zero; rounding would leave a residue the solve fails on
    dofs = dm.corner_dof[tris]
    contrib[(dofs[:, 0] == dofs[:, 1]) & (dofs[:, 1] == dofs[:, 2])] = 0.0
    rows, b = _load(dofs, cols[:, None], contrib, tail)
    return _solve(K, dm, rows, b, fact)


def energy(K, a, b):
    """Bilinear energy form of two fields on the same dof map."""
    if a.dofmap is not b.dofmap:
        raise ValueError("fields live on different dof maps")
    return float(a.values @ (K @ b.values))


def gradient_on(field, region):
    """Per-triangle gradient of a field, restricted to a region.

    ``region`` is a PixelSet or an iterable of triangle indices. Triangles
    outside the region (or excluded from the dof map) carry a zero vector.
    """
    dm = field.dofmap
    mesh = dm.mesh
    if isinstance(region, geometry.PixelSet):
        tris = region.triangles()
    else:
        tris = np.asarray(sorted(set(int(t) for t in region)), dtype=np.int64)
    tris = tris[dm.active_tri[tris]] if tris.size else tris
    g = _hat_gradients(mesh)
    vals = np.zeros((len(tris), 2))
    for k, t in enumerate(tris):
        u = field.values[dm.corner_dof[t]]
        vals[k] = u @ g[t]
    return ElementVectorField(mesh, vals, tris)


def trace_on_gamma(field):
    """Nodal trace on the ordered measurement-arc vertices."""
    return field.values[field.dofmap.gamma_dofs].copy()


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
    return Field(out, target_dm)
