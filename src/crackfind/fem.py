"""Piecewise-linear finite elements on constrained triangulations.

The program factorizes two kinds of space on one mesh: the crack-free one,
and the one with an excluded pixel region, whose triangles drop out of the
bilinear form and whose enclosed vertices lose their dofs (a Neumann hole).
``ndmap`` gets every crack configuration and every frozen region as an
exact update of the crack-free factorization. The ``DofMap`` still carries
a crack set, so that a slit or tied space built elsewhere (the reference
spaces the updates are checked against) solves and labels as any other.

Potentials are grounded by pinning one boundary dof during the solve and
subtracting the mean of the trace over the measurement arc afterwards.

``Factorization.solve`` is the one sparse solve: every current, source and
Green's block goes through it, and it checks every column's residual
against the stiffness itself (``_check_residual``), so no caller checks
again. A block of k >= 2 columns with ``n_dofs * k >= SPLIT_SIZE`` is
solved as two column halves at once, one on the caller's thread and one on
a single worker thread: SuperLU's triangular solves release the GIL, so
the halves use two cores. The split depends on the block's shape alone,
never on the host, so a one-core host does the same arithmetic.

The worker thread runs solve halves only, and this must stay so. A
``Factorization.solve`` there would wait on itself, since its split submits
to the one thread it runs on. A factorization there would overlap the
caller's work with a second factorization's memory: in a trial that moved
the factorizations onto it, the locpot-contrast benchmark's peak resident
memory rose from about 79 MB to 100-128 MB.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .geometry import CONDUCTING, INSULATING

MEAN_FREE_RTOL = 1e-9
RESIDUAL_RTOL = 1e-10
# n_dofs * k from which a block of k >= 2 columns is solved as two halves
# at once; below it the second thread costs more than it saves
# (BENCH_25.json measures the split's speedup against n_dofs * k)
SPLIT_SIZE = 2 ** 16

# (pid, executor) of the one worker thread, made on first use; a forked
# child makes its own, since the parent's thread does not run there
_worker = None


def _second_thread():
    # Only solve halves run here, never a factorization: with scipy 1.17.1 a
    # SuperLU factorization made on a worker thread and freed on the main
    # thread is never freed. 100 such factorizations of a 3,600-dof
    # Laplacian raised a process's peak resident memory from 61 to 181 MB,
    # where the same work on one thread did not grow it
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        _worker = (os.getpid(), concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="crackfind-solve"))
    return _worker[1]


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

    A solve gives ``values`` of shape ``(n_dofs, k)``, one column per current
    or source of its block, and ``gradient_on`` reads all k columns.
    """

    def __init__(self, values, dofmap):
        self.values = np.asarray(values, dtype=float)
        self.dofmap = dofmap

    def __repr__(self):
        return "Field(%d dofs)" % len(self.values)


def gamma_mass(mesh):
    """Mass matrix of piecewise-linear functions on the measurement arc.

    Rows and columns follow ``mesh.gamma_vertices()`` order.
    """
    def build():
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
        return M

    return mesh.memo("gamma_mass", build)


def arc_weights(mesh):
    """Integrals of the arc vertices' hat functions: the row sums of ``gamma_mass``."""
    return mesh.memo("arc_weights", lambda: gamma_mass(mesh).sum(axis=1))


def require_mean_free(mesh, f, what):
    """Raise unless every column of ``f`` ``(G, k)`` on the arc nodes is mean-free.

    A column passes when ``|w . f| <= MEAN_FREE_RTOL * sum(w) * max|f|``
    with ``w`` the arc weights: relative to the column's own size, so a
    rescaled current passes or fails alike, and a zero column passes.
    """
    w = arc_weights(mesh)
    scale = MEAN_FREE_RTOL * w.sum() * np.max(np.abs(f), axis=0, initial=0.0)
    if np.any(np.abs(w @ f) > scale):
        raise ValueError("%s must be mean-free on the arc" % what)


def _hat_gradients(mesh):
    # gradients of the three nodal hats per triangle, shape (t, 3, 2)
    def build():
        p = mesh.vertices[mesh.triangles]
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
        g = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        g /= (2.0 * mesh.tri_areas())[:, None, None]
        return g

    return mesh.memo("hat_grads", build)


def config_label(cracks, excluded=None, frozen=None):
    """Display label of a configuration: crack counts by kind, region sizes.

    ``cracks`` is a ``CrackSet``; ``excluded`` and ``frozen`` are pixel
    regions or None. A configuration with none of them is ``"none"``.
    """
    parts = []
    ins = sum(1 for c in cracks.components if c.kind == INSULATING)
    con = sum(1 for c in cracks.components if c.kind == CONDUCTING)
    if ins:
        parts.append("ins:%d" % ins)
    if con:
        parts.append("con:%d" % con)
    if excluded is not None and len(excluded):
        parts.append("excluded:%dpx" % len(excluded))
    if frozen is not None and len(frozen):
        parts.append("frozen:%dpx" % len(frozen))
    return "+".join(parts) if parts else "none"


class DofMap:
    """Vertex-to-dof assignment realizing one constrained space.

    ``corner_dof`` has one dof index per triangle corner (-1 on excluded
    triangles), which is the resolution needed to keep the two sides of an
    insulating slit apart. ``vertex_dof`` is what boundary traces use: the
    smallest dof on the vertex's active corners, -1 for a vertex swallowed
    by an excluded region. Only interior slit vertices carry two dofs; for
    them it is the dof of the side holding their lowest triangle.
    """

    def __init__(self, mesh, cracks, excluded, corner_dof, active_tri, n_dofs):
        self.mesh = mesh
        self.cracks = cracks
        self.excluded = excluded
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
        return config_label(self.cracks, self.excluded)

    def __repr__(self):
        return "DofMap(%s, %d dofs)" % (self.config_label(), self.n_dofs)


def split_fans(mesh, insulating):
    """The far sides of the interior vertices of insulating chains.

    An interior chain vertex has a closed fan of triangles, which its two
    crack edges cut in two. The fan is a graph on the vertex's corners
    (flat index 3 t + c), joined across the uncut edges at the vertex; the
    side holding the vertex's lowest triangle keeps the vertex's own dof and
    the other side gets a new one. Returns ``(corners, owner)``: the flat
    corner indices of every far side and for each the position of its
    vertex in the slit order (chain by chain, interior vertices in chain
    order), ordered by corner, then by position. Raises if a fan does not
    split into exactly two sides.

    Each chain is split on its own, through the fans that
    ``Mesh.vertex_corners`` lists, so the cost follows the slit vertices,
    not the mesh. For a valid crack set that is the same as cutting all
    its edges at once, since only a vertex's own chain has edges at it;
    the chains may also overlap, as a batch of test chains does.
    """
    chains = [comp.chain for comp in insulating.components]
    slit = np.array([v for chain in chains for v in chain[1:-1]], dtype=np.int64)
    if not len(slit):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    prev = np.array([v for chain in chains for v in chain[:-2]], dtype=np.int64)
    nxt = np.array([v for chain in chains for v in chain[2:]], dtype=np.int64)
    corners, start = mesh.vertex_corners()
    deg = start[slit + 1] - start[slit]
    first = np.cumsum(deg) - deg
    owner = np.repeat(np.arange(len(slit)), deg)
    fan = corners[np.repeat(start[slit] - first, deg) + np.arange(int(deg.sum()))]
    # the two sides of each corner that meet at its vertex; an uncut one is
    # shared by exactly two corners of the same fan
    t, c = np.divmod(fan, 3)
    sides = mesh.tri_edges()[t[:, None], np.column_stack([c, (c + 2) % 3])].reshape(-1)
    at = np.repeat(owner, 2)
    cut = (sides == mesh.edge_index(prev, slit)[at]) | (sides == mesh.edge_index(slit, nxt)[at])
    uncut = np.flatnonzero(~cut)
    pair = uncut[np.argsort(at[uncut] * len(mesh.edges()) + sides[uncut], kind="stable")] // 2
    # each corner's side is labelled by its first corner in the fan
    label = geometry.components(len(fan), pair.reshape(-1, 2))
    # a fan's corners are ascending, so its first corner is its lowest
    sides_per_vertex = np.bincount(owner[np.unique(label)], minlength=len(slit))
    if np.any(sides_per_vertex != 2):
        raise ValueError("slit vertex fan does not split into two sides")
    far = np.flatnonzero(label != first[owner])
    far = far[np.lexsort((owner[far], fan[far]))]
    return fan[far], owner[far]


def build_dofmap(mesh, excluded=None):
    """Construct the dof map of the crack-free mesh, or of it with an excluded region.

    The region must be an admissible pixel set. A vertex of an active
    triangle keeps one dof, numbered densely in vertex order; a vertex that
    only excluded triangles hold has none.
    """
    if excluded is not None and len(excluded) == 0:
        excluded = None
    if excluded is not None and not geometry.pixelset_is_admissible(excluded):
        raise ValueError("region must be an admissible pixel set")
    corner = mesh.triangles
    active = np.ones(len(corner), dtype=bool)
    if excluded is not None:
        active[excluded.triangles()] = False
    used_dofs = np.unique(corner[active])
    dense = np.full(len(mesh.vertices), -1, dtype=np.int64)
    dense[used_dofs] = np.arange(len(used_dofs))
    final = np.where(active[:, None], dense[corner], -1)
    return DofMap(mesh, geometry.CrackSet(), excluded, final, active, len(used_dofs))


def element_stiffness(mesh, gamma0, tris=slice(None)):
    """Per-triangle stiffness of the weighted Dirichlet form, shape (T, 3, 3).

    Entry ``[t, i, j]`` pairs the hats of corners i and j of triangle t; with
    ``tris``, only the triangles ``tris`` are formed, in that order.
    """
    g = _hat_gradients(mesh)[tris]
    scale = mesh.tri_areas()[tris] * gamma0.values[tris]
    return np.einsum("tic,tjc->tij", g, g) * scale[:, None, None]


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

    The one forward handle of a configuration: it holds the dof map ``dm``
    and the stiffness ``K`` it factorizes, and every solve takes it alone.
    One dof (the first measurement-arc vertex) is pinned to zero, which
    makes the reduced matrix positive definite; callers re-ground the
    solution by subtracting the trace mean.

    Because the reduced matrix is symmetric positive definite, SuperLU runs
    in symmetric mode: a minimum-degree ordering of its pattern, applied to
    rows and columns alike, with the diagonal taken as pivot. That keeps
    the factors much sparser than the default column ordering does, which
    sees only the pattern of A^T A. ``solve`` checks the residual of every
    column it solves.
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

    def solve(self, b, rows):
        """Solve for a block ``(len(rows), k)`` of right-hand side rows, checked.

        ``rows`` are distinct dofs; ``b`` holds only those rows of the
        right-hand side and every other row is zero. Returns the ``(n_dofs,
        k)`` solution, zero at the pinned dof. Every column's residual
        against ``K`` is checked on every row (``_check_residual`` raises),
        so a load must be balanced: the pinned row's residual is minus the
        sum of the load.

        The right-hand side, without the pinned row, is built in the
        result's own rows, which the factorization copies, and the solution
        overwrites it. A block with k >= 2 and ``n_dofs * k >= SPLIT_SIZE``
        is solved as two column halves at once: the second half on the
        module's one worker thread, which runs only the factorization's
        solve and the residual check, the first on the caller's thread.
        Both write into the one result. An error in either half reaches the
        caller unchanged, after both halves have ended. A column's last bits
        may depend on the width of the block SuperLU solves it in, never on
        the thread, so a block of a given shape always gives the same bits.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n, k = self.dm.n_dofs, b.shape[1]
        x = np.zeros((n, k))
        free = rows != self.pin
        x[rows[free] - (rows[free] > self.pin)] = b[free]
        # the worker gets the arrays it needs, not the factorization, so it
        # never keeps a factorization alive after its caller drops it
        part = (self._lu, self.K, self.keep, rows)
        if k < 2 or n * k < SPLIT_SIZE:
            _solve_columns(*part, x, b)
            return x
        half = k // 2
        job = _second_thread().submit(_solve_columns, *part, x[:, half:], b[:, half:])
        try:
            _solve_columns(*part, x[:, :half], b[:, :half])
        finally:
            concurrent.futures.wait([job])
        job.result()
        return x


def _solve_columns(lu, K, keep, rows, x, b):
    # solve the columns of ``x`` in place: its rows above the last hold the
    # right-hand side without the pinned row, which the solve copies; the
    # solution fills every row but the pinned one, which is zero, and each
    # column's residual is checked against K and the load ``b`` on ``rows``
    y = lu.solve(x[:-1])
    x[keep] = y
    del y
    x[~keep] = 0.0
    _check_residual(K, x, b, rows)


def factorize(mesh, gamma0, excluded=None):
    """The ``Factorization`` of the crack-free mesh, or of it with an excluded region.

    The region is as ``build_dofmap`` takes it; the stiffness is assembled
    with the background conductivity ``gamma0``.
    """
    dm = build_dofmap(mesh, excluded)
    return Factorization(assemble_stiffness(mesh, gamma0, dm), dm)


def _check_residual(K, x, b, rows=None):
    """Largest relative residual over the columns; raises if any is too big.

    Each column is judged against its own right-hand side, so one bad
    column cannot hide behind the norm of a large block. With ``rows``
    (distinct), ``b`` holds only those rows of the right-hand side, as in
    ``Factorization.solve``. ``K`` may be sparse, a dense array, or a
    ``(k, n, n)`` stack of dense systems with ``x`` and ``b`` of shape
    ``(k, n, c)``; each column of each system is judged on its own.
    """
    r = K @ x
    if rows is None:
        r -= b
    else:
        r[rows] -= b
    # column norms without an n x k temporary of squares
    bn = np.sqrt(np.einsum("...ij,...ij->...j", b, b))
    rn = np.sqrt(np.einsum("...ij,...ij->...j", r, r))
    rel = np.divide(rn, bn, out=np.zeros_like(rn), where=bn > 0)
    worst = float(np.max(rel, initial=0.0))
    if worst > RESIDUAL_RTOL:
        raise RuntimeError("linear solve did not converge: relative residual %.3e" % worst)
    return worst


def _load(dofs, cols, values, k):
    # right-hand side of k columns as (distinct rows, their values);
    # np.add.at sums each entry's contributions in the order given, as it
    # would on the dense block
    rows, at = np.unique(dofs, return_inverse=True)
    b = np.zeros((len(rows), k))
    np.add.at(b, (at.reshape(dofs.shape), cols), values)
    return rows, b


def _solve(fact, rows, b):
    # shared tail of every current and source solve: one checked solve for
    # the whole block from the load on its rows, then grounding in place
    x = fact.solve(b, rows)
    dm = fact.dm
    w = arc_weights(dm.mesh)
    x -= (w @ x[dm.gamma_dofs]) / w.sum()
    return Field(x, dm)


def solve_neumann(fact, F):
    """Solve the weak problem of a configuration for mean-free arc currents.

    ``F`` is a block ``(G, k)`` of k currents, nodal current-density values
    on the ordered arc vertices, which are solved together and give a Field
    with k columns. Every current must be mean-free. The result is
    grounded: each trace has zero mean.
    """
    dm = fact.dm
    F = np.asarray(F, dtype=float)
    M = gamma_mass(dm.mesh)
    if F.ndim != 2 or F.shape[0] != len(M):
        raise ValueError("currents must be a (G, k) block on the arc nodes")
    require_mean_free(dm.mesh, F, "boundary current")
    rows, b = _load(dm.gamma_dofs[:, None], np.arange(F.shape[1])[None, :], M @ F, F.shape[1])
    return _solve(fact, rows, b)


def source_loads(dm, tris, vectors):
    """Corner loads ``(k, 3)`` of k element sources on the dof map ``dm``.

    Source j is the constant vector ``vectors[j]`` on triangle ``tris[j]``
    and zero elsewhere; its load on corner i of that triangle is the
    integral of the vector against the corner's hat gradient. The loads of
    a triangle sum to exactly zero, and rounding would leave a residue the
    solve fails on when it is not small against the load: so a triangle
    whose three corners share one dof has zero loads, and of two corners
    that share one dof (tied, on a conducting chain), the first carries
    exactly minus the load of the third corner and the second none. No
    source may meet an excluded region.
    """
    mesh = dm.mesh
    tris = np.asarray(tris, dtype=np.int64)
    vectors = np.asarray(vectors, dtype=float)
    if tris.ndim != 1 or vectors.shape != (len(tris), 2):
        raise ValueError("sources need one triangle and one 2-vector each")
    if tris.size and (tris.min() < 0 or tris.max() >= len(mesh.triangles)):
        raise ValueError("source triangle index out of range")
    if not np.all(dm.active_tri[tris]):
        raise ValueError("source support meets the excluded region")
    g = _hat_gradients(mesh)[tris]
    loads = mesh.tri_areas()[tris, None] * np.einsum("tic,tc->ti", g, vectors)
    dofs = dm.corner_dof[tris]
    # same[:, i]: corner i shares its dof with the next corner
    same = dofs == np.roll(dofs, -1, axis=1)
    loads[same.all(axis=1)] = 0.0
    k = np.flatnonzero(same.sum(axis=1) == 1)
    i = np.argmax(same[k], axis=1)
    loads[k, i] = -loads[k, (i + 2) % 3]
    loads[k, (i + 1) % 3] = 0.0
    return loads


def solve_source(fact, F):
    """Solve a configuration for the potentials of interior element sources.

    ``F`` is a pair ``(tris, vectors)`` of shapes ``(k,)`` and ``(k, 2)``
    standing for k sources: source j is the constant vector ``vectors[j]``
    on triangle ``tris[j]`` and zero elsewhere. The k sources are solved
    together and give a Field with k columns; their loads are those of
    ``source_loads``.
    """
    dm = fact.dm
    tris, vectors = F
    loads = source_loads(dm, tris, vectors)
    dofs = dm.corner_dof[np.asarray(tris, dtype=np.int64)]
    rows, b = _load(dofs, np.arange(len(loads))[:, None], loads, len(loads))
    return _solve(fact, rows, b)


def gradient_on(field, tris):
    """Gradients ``(k, len(tris), 2)`` of the k columns of a field on ``tris``.

    ``field.values`` has shape ``(n_dofs, k)``, as every solve returns it;
    entry ``[j, i]`` is the constant gradient of column j on triangle
    ``tris[i]``. No triangle may be excluded from the field's dof map.
    """
    dm = field.dofmap
    tris = np.asarray(tris, dtype=np.int64)
    if not np.all(dm.active_tri[tris]):
        raise ValueError("gradient triangles meet the excluded region")
    u = field.values[dm.corner_dof[tris]]
    return np.einsum("tij,tic->jtc", u, _hat_gradients(dm.mesh)[tris])


def trace_on_gamma(field):
    """Nodal trace on the ordered measurement-arc vertices."""
    return field.values[field.dofmap.gamma_dofs].copy()
