"""Interior source operators, their adjoints, and localized boundary currents.

A source operator maps a piecewise-constant vector field on a pixel region
to the arc voltage it generates. Expressed in orthonormal bases on both
sides, it becomes an explicit matrix whose transpose is its adjoint, which
sends a boundary current to the gradient of its potential on the region.

The localized-current construction regularizes against a source operator on
a far region: the resulting currents concentrate energy where the sought
singular vector lives and starve it everywhere the far operator can reach.
"""

from __future__ import annotations

import io

import numpy as np
import scipy.linalg

from . import fem, geometry

INVISIBLE_ATOL = 1e-12
DEFAULT_N_VALUES = tuple(10 ** k for k in range(7))


class SourceOperator:
    """Explicit matrix of the source-to-voltage map on a pixel region.

    Columns correspond to unit-norm element fields (one triangle, one
    coordinate direction, scaled by 1/sqrt(area)); rows correspond to the
    current-basis vectors. With orthonormal bases on both sides, the matrix
    transpose is the adjoint: it sends a current's coefficients to the
    sqrt(area)-scaled gradients of its potential on the region.
    """

    def __init__(self, tris, matrix):
        self.tris = np.asarray(tris, dtype=np.int64)
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != 2 * len(self.tris):
            raise ValueError("matrix shape does not match the region")

    def __repr__(self):
        return "SourceOperator(%d triangles)" % len(self.tris)


def _edge_forest(node, n):
    """Breadth-first spanning forest of the graph on a region's corner dofs.

    ``node`` ``(T, 3)`` numbers the corner dofs of the region's triangles
    0..n-1. The graph's edges are the triangle sides that join two distinct
    dofs, and each component is rooted at its smallest node. Returns
    ``(tri, tail, head, ends, root)``: one forest edge per non-root node, as
    a triangle (row of ``node``) and its corners at the parent (tail) and
    at the child (head), in breadth-first order. ``ends`` starts at 0, and
    the edges ``ends[j]:ends[j + 1]`` make level j + 1 of the forest, whose
    parents all lie on earlier levels. ``root`` gives each node its
    component's root.
    """
    tri = np.repeat(np.arange(len(node)), 3)
    a = np.tile([0, 1, 2], len(node))
    b = np.tile([1, 2, 0], len(node))
    joins = node[tri, a] != node[tri, b]
    # each joining side in both directions
    tri = np.tile(tri[joins], 2)
    tail = np.concatenate([a[joins], b[joins]])
    head = np.concatenate([b[joins], a[joins]])
    parent, child = node[tri, tail], node[tri, head]
    root = geometry.components(n, np.column_stack([parent, child]))
    seen = root == np.arange(n)
    frontier = seen.copy()
    levels = [np.zeros(0, dtype=np.int64)]
    while True:
        step = np.flatnonzero(frontier[parent] & ~seen[child])
        if not step.size:
            break
        # the first listed side into each newly reached node
        step = step[np.unique(child[step], return_index=True)[1]]
        seen[child[step]] = True
        frontier[:] = False
        frontier[child[step]] = True
        levels.append(step)
    order = np.concatenate(levels)
    ends = np.cumsum([len(level) for level in levels])
    return tri[order], tail[order], head[order], ends, root


class RegionSolves:
    """Voltages of the loads on a region's corner dofs, from edge-source solves.

    ``fact`` is a configuration's ``fem.Factorization``. A source on one
    triangle loads only that triangle's corner dofs, with loads that sum to
    zero, so every load of a source on the region lies in the span of the
    differences e_v - e_w of corner dofs joined by a triangle side. That
    span has dimension r = (distinct corner dofs) - (connected components
    of the graph those sides make), and a spanning forest of the graph
    (``_edge_forest``) gives a basis of it: for a forest edge from parent p
    to child v on triangle t, the element source (x_v - x_p) / area_t on t
    loads exactly e_v - e_p, since each hat is linear on t. These r sources
    go through ``fem.solve_source`` in blocks of ``basis.M`` columns, so a
    block is never wider than the current block of the configuration's ND
    matrix. Summed from each root in breadth-first order, they give for
    every dof ``dofs[i]`` the load e_v - e_root(v): ``phi[:, i]`` is its
    voltage in the current basis and ``psi[:, i]`` its pinned potentials
    on the dofs ``rows``; the roots' columns are zero. ``root[i]`` is the
    position of its root.
    """

    def __init__(self, fact, region, basis, rows=()):
        dm = fact.dm
        mesh = dm.mesh
        tris = region.triangles()
        self.dofs, node = np.unique(dm.corner_dof[tris], return_inverse=True)
        node = node.reshape(-1, 3)
        rows = np.asarray(rows, dtype=np.int64)
        tri, tail, head, ends, self.root = _edge_forest(node, len(self.dofs))
        # the edge source of each forest edge: (x_head - x_tail) / area
        edge_tris = tris[tri]
        corners = mesh.vertices[mesh.triangles[edge_tris]]
        at = np.arange(len(tri))
        vectors = (corners[at, head] - corners[at, tail]) / mesh.tri_areas()[edge_tris, None]
        weighted = fem.gamma_mass(mesh) @ basis.vectors
        # allocated before the solves, which they outlive: allocated after,
        # they land among the freed solve blocks and the heap grows around them
        self.phi = np.zeros((basis.M, len(self.dofs)))
        self.psi = np.zeros((len(rows), len(self.dofs)))
        E = np.zeros((basis.M, len(tri)))
        P = np.zeros((len(rows), len(tri)))
        for lo in range(0, len(tri), basis.M):
            cols = slice(lo, lo + basis.M)
            # keep only the traces and the rows: the block's potentials are
            # freed before the next block is solved
            x = fem.solve_source(fact, (edge_tris[cols], vectors[cols]))
            E[:, cols] = weighted.T @ fem.trace_on_gamma(x)
            P[:, cols] = x.values[rows] - x.values[fact.pin]
            del x
        parent, child = node[tri, tail], node[tri, head]
        for lo, hi in zip(ends[:-1], ends[1:]):
            self.phi[:, child[lo:hi]] = self.phi[:, parent[lo:hi]] + E[:, lo:hi]
            self.psi[:, child[lo:hi]] = self.psi[:, parent[lo:hi]] + P[:, lo:hi]


def build_source_operator(fact, V, basis, update=None, solves=None):
    """Assemble the source-to-voltage matrix for sources on region ``V``.

    ``fact`` is the configuration's ``fem.Factorization``, or with
    ``update``, an ``ndmap.CrackUpdate``, the crack-free background that
    the update's crack configuration is an exact update of. Column 2k + d
    is the current-basis representation of the voltage of the canonical
    element source on triangle k of the region: direction d, scaled to
    unit L2 norm. An empty region gives a zero-column operator.

    ``solves`` are the ``RegionSolves`` on ``fact`` of a region that holds
    V, with ``rows`` the update's U; by default V's own are solved here. A
    canonical column is the combination of their ``phi`` by the source's
    corner loads from ``fem.source_loads``, which sum to zero. A triangle
    whose three corners share one dof has zero loads, so its columns are
    exactly zero; no canonical source is solved.

    With ``update``, a load on a far corner of a slit, whose dof the crack
    configuration renews, is the load ``update.far_loads`` it condenses to
    on the slit's star S, so every load is a vertex load of the background,
    and the update's ``change`` turns the background's voltages of the
    loads into the configuration's from their pinned potentials on U
    (``psi``); a tied corner keeps its own vertex, which the tie holds
    equal to the others. A region that holds a far corner must hold the
    vertices its load condenses to in the same component of its forest,
    else this raises.
    """
    interior = geometry.interior_pixel_set(V.grid).members
    if V.members - interior:
        raise ValueError("source region must lie in the meshed interior")
    dm = fact.dm
    mesh = dm.mesh
    if solves is None:
        rows = () if update is None else dm.vertex_dof[update.U]
        solves = RegionSolves(fact, V, basis, rows)
    tris = V.triangles()
    src_tris = np.repeat(tris, 2)
    unit = np.tile(np.eye(2), (len(tris), 1)) / np.sqrt(mesh.tri_areas()[src_tris])[:, None]
    loads = fem.source_loads(dm, src_tris, unit)
    node = np.searchsorted(solves.dofs, dm.corner_dof[tris])
    phi, psi = solves.phi, solves.psi
    if update is not None and len(update.far):
        flat = 3 * tris[:, None] + np.arange(3)
        k = np.minimum(np.searchsorted(update.far, flat), len(update.far) - 1)
        hit = update.far[k] == flat
        if hit.any():
            # the condensed loads of the far corners the region holds, as
            # extra columns after its dofs
            star = dm.vertex_dof[update.S]
            held = np.isin(star, solves.dofs)
            S = np.where(held, np.searchsorted(solves.dofs, star), 0)
            joined = held & (solves.root[S] == solves.root[node[hit]][:, None])
            if np.any((update.far_loads[k[hit]] != 0) & ~joined):
                raise ValueError("source region holds a far-fan corner without its whole star")
            phi = np.concatenate([phi, phi[:, S] @ update.far_loads.T], axis=1)
            psi = np.concatenate([psi, psi[:, S] @ update.far_loads.T], axis=1)
            node = np.where(hit, len(solves.dofs) + k, node)

    src_node = np.repeat(node, 2, axis=0)
    matrix = np.zeros((basis.M, len(src_tris)))
    for i in range(3):
        matrix += phi[:, src_node[:, i]] * loads[:, i]
    if update is not None:
        P = np.zeros((len(psi), len(src_tris)))
        for i in range(3):
            P += psi[:, src_node[:, i]] * loads[:, i]
        matrix += update.change(P)
    return SourceOperator(tris, matrix)


class Y0Pick:
    """Dominant voltage direction of a crack-difference matrix ``difference``."""

    def __init__(self, y0, sigma, visible, difference):
        self.y0 = y0
        self.sigma = sigma
        self.visible = visible
        self.difference = difference

    def __repr__(self):
        state = "visible" if self.visible else "invisible at this resolution"
        return "Y0Pick(sigma=%.3e, %s)" % (self.sigma, state)


def pick_y0(op_hi, op_lo):
    """Pick the target voltage for the localized-current construction.

    ``op_hi`` and ``op_lo`` are source operators on one region whose
    configurations differ by the sought cracks (see ``VARIANTS``). Returns
    the dominant left singular vector of their difference with its singular
    value; a singular value below the visibility floor means the cracks are
    invisible at this resolution and no vector is returned.
    """
    if not np.array_equal(op_hi.tris, op_lo.tris):
        raise ValueError("operators must share a region")
    diff = op_hi.matrix - op_lo.matrix
    if diff.shape[1] == 0:
        return Y0Pick(None, 0.0, False, diff)
    U, s, _ = np.linalg.svd(diff, full_matrices=False)
    sigma = float(s[0])
    if sigma < INVISIBLE_ATOL:
        return Y0Pick(None, sigma, False, diff)
    return Y0Pick(U[:, 0].copy(), sigma, True, diff)


class LocSequence:
    """Regularized current sequence with the adjoint norms of each step."""

    def __init__(self, y0, n_values, f_n, a1_norms, a2_norms, degenerate):
        self.y0 = y0
        self.n_values = list(n_values)
        self.f_n = f_n
        self.a1_norms = a1_norms
        self.a2_norms = a2_norms
        self.degenerate = degenerate

    def __len__(self):
        return len(self.f_n)


def localized_sequence(A1, A2, y0, n_values=None):
    """Currents whose energy drains off A2's region while A1's response grows.

    ``A1`` and ``A2`` are source-operator matrices. For each
    regularization index n, solves (A2 A2* + I/n) xi = y0 in the current
    basis and normalizes f = xi / |A2* xi|^(3/2). Records |A1* f| and
    |A2* f|, whose squares are the energies f drives into the two regions.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.any(y0):
        raise ValueError("y0 must be nonzero")
    if n_values is None:
        n_values = DEFAULT_N_VALUES
    n_values = [float(n) for n in n_values]
    if any(n <= 0 for n in n_values) or any(
        b <= a for a, b in zip(n_values, n_values[1:])
    ):
        raise ValueError("n_values must be positive and increasing")
    G2 = A2 @ A2.T
    eye = np.eye(len(G2))
    f_n, a1_norms, a2_norms = [], [], []
    degenerate = False
    used = []
    for n in n_values:
        xi = scipy.linalg.solve(G2 + eye / n, y0, assume_a="pos")
        a2_xi = float(np.linalg.norm(A2.T @ xi))
        if a2_xi == 0.0:
            degenerate = True
            break
        f = xi / a2_xi ** 1.5
        used.append(n)
        f_n.append(f)
        a1_norms.append(float(np.linalg.norm(A1.T @ f)))
        a2_norms.append(float(np.linalg.norm(A2.T @ f)))
    return LocSequence(y0, used, f_n, a1_norms, a2_norms, degenerate)


def monotone_flags(seq):
    """Trend checks after the first decade; failures are reported, not hidden."""
    a1 = np.asarray(seq.a1_norms)[1:]
    a2 = np.asarray(seq.a2_norms)[1:]
    return {
        "a1_nondecreasing_after_first_decade": bool(np.all(np.diff(a1) >= 0)),
        "a2_nonincreasing_after_first_decade": bool(np.all(np.diff(a2) <= 0)),
    }


def blowup_metrics(seq, configs):
    """Evaluate quadratic forms of the sequence currents and report trends.

    ``configs`` maps a label to a (high, low) NdMatrix pair; the form is
    f^T (high - low) f per step. The trend ratio divides the last value by
    the first (clamped away from zero).
    """
    report = {"n_values": list(seq.n_values), "forms": {}, "trend": {}}
    for label, (hi, lo) in configs.items():
        diff = hi.entries - lo.entries
        vals = [float(f @ (diff @ f)) for f in seq.f_n]
        report["forms"][label] = vals
        first = vals[0] if vals else 0.0
        last = vals[-1] if vals else 0.0
        ratio = last / first if first != 0 else np.inf if last else 1.0
        report["trend"][label] = {"first": first, "last": last, "ratio": float(ratio)}
    return report


# variant: (near region, far region, high and low crack configuration,
# background seen from the far region). High minus low is the sought kind
# of crack; the background is the other kind alone.
VARIANTS = {
    "insulating": ("V", "W", "all", "conducting", "conducting"),
    "conducting": ("W", "V", "insulating", "all", "insulating"),
}


def source_regions(table):
    """The source regions of a two-crack run: ``V``, ``W`` and ``grown V``, ``grown W``.

    A grown region is the region and the ring of pixels around it, clipped
    to the meshed interior.
    """
    grid = table.V.grid
    interior = geometry.interior_pixel_set(grid).members
    pixels = {"V": table.V, "W": table.W}
    for key in ("V", "W"):
        pixels["grown " + key] = geometry.PixelSet(grid, pixels[key].dilate().members & interior)
    return pixels


def source_operators(table, wanted):
    """Source operators of crack configurations on the run's source regions.

    ``table`` is the run's ``ndmap.Configurations`` and ``wanted`` lists
    (crack configuration, region) pairs, the regions named as in
    ``source_regions``. Every operator is ``build_source_operator`` of the
    table's crack-free background with the configuration's
    ``ndmap.CrackUpdate``. The edge sources of ``grown V`` and ``grown W``
    are solved on the background once each, as far as a wanted region
    needs them, and serve both the region and the grown one, with the
    pinned potentials on the update's U. Returns ``{pair: SourceOperator}``.
    """
    pixels = source_regions(table)
    basis = table.background.basis
    solves, out = {}, {}
    for name, region in wanted:
        update = table.crack_update(name)
        fact = update.fact
        key = region[-1]
        if key not in solves:
            solves[key] = RegionSolves(fact, pixels["grown " + key], basis,
                                       fact.dm.vertex_dof[update.U])
        out[name, region] = build_source_operator(fact, pixels[region], basis, update,
                                                  solves[key])
    return out


def run_localized_demo(table, n_values=None):
    """End-to-end localized-current runs of both variants on a two-crack run.

    ``table`` is the run's ``ndmap.Configurations``. Each variant in
    ``VARIANTS`` picks its target voltage from the source operators of its
    high and low configurations on the near region, and regularizes against
    the background's operator on the far region grown by one pixel ring
    (clipped to the meshed interior). The six source operators come from
    ``source_operators``: edge-source solves of the two grown regions on
    the table's one crack-free background, and each crack configuration's
    exact update of it. Every ND matrix comes from the table, so
    configurations another method of the run has solved are not solved
    again. Returns ``{variant: (sequence, report)}``; a report's form
    localized at the near cracks should grow while its far-region forms
    shrink.
    """
    wanted = []
    for near, far, hi, lo, bg in VARIANTS.values():
        wanted += [(hi, near), (lo, near), (bg, "grown " + far)]
    ops = source_operators(table, wanted)

    out = {}
    for variant, (near, far, hi, lo, bg) in VARIANTS.items():
        pick = pick_y0(ops[hi, near], ops[lo, near])
        if not pick.visible:
            raise ValueError(
                "%s cracks invisible at this resolution (sigma=%.3e)" % (variant, pick.sigma)
            )
        seq = localized_sequence(
            pick.difference, ops[bg, "grown " + far].matrix, pick.y0, n_values
        )
        report = blowup_metrics(seq, {
            "upper_far": (table.nd("excluded " + far), table.nd("none")),
            "lower_far": (table.nd("none"), table.nd("frozen " + far)),
            "crack_near": (table.nd(hi), table.nd(lo)),
        })
        report["variant"] = variant
        report["sigma"] = pick.sigma
        report["monotone"] = monotone_flags(seq)
        out[variant] = (seq, report)
    return out


def sequence_to_csv(seq, report):
    """CSV text of (n, |A1* f|, |A2* f|, the report's quadratic forms) rows."""
    labels = sorted(report["forms"]) if report else []
    cols = [seq.n_values, seq.a1_norms, seq.a2_norms]
    cols += [report["forms"][k] for k in labels]
    header = ",".join(["n", "a1_norm", "a2_norm"] + labels)
    arr = np.column_stack(cols) if cols[0] else np.zeros((0, 3 + len(labels)))
    out = io.StringIO()
    np.savetxt(out, arr, fmt="%.17g", delimiter=",", header=header, comments="")
    return out.getvalue()
