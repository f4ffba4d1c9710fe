"""Boundary-current bases, current-to-voltage Gram matrices, and the
operator-inequality tests that drive the reconstruction methods.

A configuration (cracks, an excluded region, or a frozen region) induces a
map from mean-free currents on the measurement arc to voltages there. In a
fixed orthonormal current basis that map becomes a small symmetric matrix,
and every monotonicity test reduces to an eigenvalue bound on a difference
of two such matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import fem, geometry

SYM_RTOL = 1e-8
PSD_TAU_FACTOR = 1e-8

# extra slack multiple reported with every certificate so near-threshold
# decisions are visible without re-running
MARGIN_SCALE = 10.0


class CurrentBasis:
    """Orthonormal mean-free current vectors on the ordered arc nodes.

    ``vectors`` has one basis vector per column. Orthonormality is with
    respect to the arc mass inner product, so matrix transposes of
    operators expressed in this basis coincide with their adjoints.
    """

    def __init__(self, mesh, vectors):
        self.mesh = mesh
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must be a (nodes, M) array")
        Mg = fem.gamma_mass(mesh)
        if v.shape[0] != len(Mg):
            raise ValueError("vectors do not match the arc nodes")
        fem.require_mean_free(mesh, v, "basis vectors")
        self.vectors = v
        self.vectors.setflags(write=False)
        self.M = v.shape[1]
        self.gram = v.T @ Mg @ v
        if np.max(np.abs(self.gram - self.gram.T)) > 1e-12 * max(
            1.0, float(np.max(np.abs(self.gram)))
        ):
            raise ValueError("basis gram matrix must be symmetric")
        if np.linalg.eigvalsh(self.gram)[0] <= 0:
            raise ValueError("basis vectors must be linearly independent")

    def __repr__(self):
        return "CurrentBasis(M=%d)" % self.M

    @classmethod
    def from_vectors(cls, mesh, raw):
        """Project a ``(nodes, M)`` block of raw nodal vectors mean-free and orthonormalize it."""
        v = np.asarray(raw, dtype=float)
        Mg = fem.gamma_mass(mesh)
        w = fem.arc_weights(mesh)
        v = v - np.outer(np.ones(len(w)), (w @ v) / w.sum())
        gram = v.T @ Mg @ v
        R = scipy.linalg.cholesky(gram, lower=False)
        v = scipy.linalg.solve_triangular(R, v.T, lower=False, trans="T").T
        return cls(mesh, v)


def build_basis(mesh, M):
    """Orthonormal basis of M mean-free hat currents on the arc.

    Hats sit at evenly spread arc nodes, are projected mean-free, then
    orthonormalized in the arc inner product. M must leave room for the
    mean-free constraint (at most one less than the node count).
    """
    order = mesh.gamma_vertices()
    G = len(order)
    if not (1 <= M <= G - 1):
        raise ValueError("basis size must be between 1 and %d" % (G - 1,))
    idx = np.floor(np.arange(M) * G / M).astype(int)
    B = np.zeros((G, M))
    B[idx, np.arange(M)] = 1.0
    return CurrentBasis.from_vectors(mesh, B)


class NdMatrix:
    """Symmetric Gram matrix of a current-to-voltage map in a fixed basis.

    ``kinds`` holds the crack kinds of the configuration the matrix comes
    from (empty when it has no cracks); ``config_label`` is for display.
    """

    def __init__(self, entries, config_label, kinds):
        e = np.asarray(entries, dtype=float)
        # most entries come exactly symmetric, which needs no scale
        if not (e == e.T).all():
            scale = max(1.0e-300, float(np.max(np.abs(e))))
            if np.max(np.abs(e - e.T)) > 1e-12 * scale:
                raise ValueError("entries must be symmetric")
        self.entries = e
        self.entries.setflags(write=False)
        self.config_label = config_label
        self.kinds = frozenset(kinds)

    def __repr__(self):
        return "NdMatrix(%s, M=%d)" % (self.config_label, len(self.entries))

    def to_json(self):
        return {
            "config": self.config_label,
            "M": int(len(self.entries)),
            "entries": self.entries.reshape(-1).tolist(),
        }


def nd_matrix(fact, basis):
    """The ND matrix in ``basis`` of the configuration factorized in ``fact``.

    ``fact`` is the configuration's ``fem.Factorization``; the basis
    currents go through it in one block solve.
    """
    dm = fact.dm
    weighted = fem.gamma_mass(dm.mesh) @ basis.vectors
    N = fem.trace_on_gamma(fem.solve_neumann(fact, basis.vectors)).T @ weighted
    return NdMatrix(0.5 * (N + N.T), dm.config_label(), dm.cracks.kinds())


class Background:
    """A mesh's crack-free forward problem, factorized once for a run.

    Every crack configuration and region of a run changes the crack-free
    stiffness only on its own star, so all of them are exact updates of
    this one problem. ``fact``, its ``fem.Factorization``, is made on its
    first read and ``N0``, its NdMatrix (``nd_matrix``), on the first read
    of that; both are kept until ``release()``, and every read after it
    raises. ``green`` gives the pinned Green's entries that updates read.
    """

    def __init__(self, mesh, gamma0, basis):
        self.mesh = mesh
        self.gamma0 = gamma0
        self.basis = basis
        self._fact = self._N0 = None
        self._released = False

    @property
    def fact(self):
        if self._released:
            raise RuntimeError("the background was released")
        if self._fact is None:
            self._fact = fem.factorize(self.mesh, self.gamma0)
        return self._fact

    @property
    def N0(self):
        fact = self.fact
        if self._N0 is None:
            self._N0 = nd_matrix(fact, self.basis)
        return self._N0

    def release(self):
        """Drop the factorization once no later step reads it."""
        self._fact = self._N0 = None
        self._released = True

    def green(self, verts, stars, width=None):
        """``(Z, stacks)``: ``_green_block`` on the distinct unpinned ``verts``.

        Z ``(len(verts), M)`` holds the basis currents' pinned potentials,
        read off the Green's columns; ``stars`` are positions in ``verts``.
        Each column is solved once, ``width`` (by default M) at a time.
        """
        fact = self.fact
        weighted = fem.gamma_mass(self.mesh) @ self.basis.vectors
        return _green_block(fact, fact.dm.vertex_dof[verts], width or self.basis.M, stars,
                            weighted)


# the crack configurations of a run's table
CRACK_CONFIGS = ("all", "insulating", "conducting")


class Configurations:
    """The named configurations of one two-crack run and their ND matrices.

    ``V`` surrounds the insulating cracks and ``W`` the conducting ones.
    The eight names: ``none`` (no cracks), ``all`` (every crack),
    ``insulating`` and ``conducting`` (one kind alone), and ``excluded V``,
    ``frozen V``, ``excluded W``, ``frozen W`` (a region excluded or frozen,
    no cracks); ``configs`` maps each name to the crack set or the region
    of that configuration, as keyword arguments (``cracks``, ``excluded``
    or ``frozen``) of a factorization of it. The monotonicity chain and the
    localized potentials compare matrices of these configurations, so a run
    keeps one table on its ``Background``, and ``nd(name)`` reads them:

    * ``none`` is the background's ``N0``.
    * every other name, all at once on the first request for any of them
      (the fill): exact updates of the background. Its pinned potentials
      ``Z`` and Green's entries ``G`` are solved on the union of the two
      regions' boundary vertices and the crack stars, each column once.
    * the crack configurations are ``N0 + dN`` by ``CrackUpdate``, the math
      of ``crack_signature``: the slits' far fans condensed onto their
      star S (``_woodbury``), then the ties on C (``_tied_correction``).
      ``crack_update(name)`` hands the update to callers that need more
      than the matrix; locpot's source operators are such callers.
    * the four region configurations. A region R changes the background
      only through its own triangles, which touch the rest of the mesh at
      its boundary vertices C (``geometry.region_closure``). R's element
      stiffness condensed onto C is ``L = K_CC - K_CI K_II^-1 K_IC``, I the
      rest of R's vertices. Excluding R takes L away,
      ``N = N0 - Z_C^T (I + E G_CC)^-1 E Z_C`` with ``E = -L``
      (``_woodbury``); freezing R ties C, one tie per group of 4-connected
      components that meet at a vertex, by ``_frozen``, the update that
      ``RegionMaps`` applies to its excluded region. An empty region gives
      the background matrix itself.
    """

    def __init__(self, background, cracks, V, W):
        self.background = background
        self.V = V
        self.W = W
        self.configs = {
            "none": {},
            "all": {"cracks": cracks},
            "insulating": {"cracks": cracks.of_kind(geometry.INSULATING)},
            "conducting": {"cracks": cracks.of_kind(geometry.CONDUCTING)},
        }
        for key, region in (("V", V), ("W", W)):
            self.configs["excluded " + key] = {"excluded": region}
            self.configs["frozen " + key] = {"frozen": region}
        self._nd = {}
        # the crack configurations' CrackUpdate, which hold the background;
        # None once the table is released
        self._updates = {}

    def nd(self, name):
        """The named configuration's NdMatrix, solved on first request."""
        self._check_held()
        if name == "none":
            return self.background.N0
        if name not in self._nd:
            self._fill()
        return self._nd[name]

    def crack_update(self, name):
        """The ``CrackUpdate`` of a crack configuration on the run's background."""
        self._check_held()
        if not self._updates:
            self._fill()
        return self._updates[name]

    def release(self):
        """Drop the background once no later step reads it.

        Every later read raises, so a step that still needs the background
        fails loudly instead of factorizing it again.
        """
        self._updates = None
        self.background.release()

    def _check_held(self):
        if self._updates is None:
            raise RuntimeError("the configuration table was released")

    def _fill(self):
        # every matrix but "none", as updates of the background; a region's
        # element stiffness is condensed and dropped before the background
        # is read, which may factorize it
        background = self.background
        mesh, gamma0 = background.mesh, background.gamma0
        pin = mesh.gamma_vertices()[0]
        cracks = self.configs["all"]["cracks"]
        if cracks.components:
            cracks.validate(mesh)
        stars = {name: _crack_star(mesh, gamma0, pin, self.configs[name]["cracks"])
                 for name in CRACK_CONFIGS}
        local = fem.element_stiffness(mesh, gamma0)
        regions = {"V": self.V, "W": self.W}
        closures = [geometry.region_closure(region, ties=True) for region in regions.values()]
        blocks = [_region_blocks(mesh, local, region, closure, pin)
                  for region, closure in zip(regions.values(), closures)]
        del local
        # the stars of "all" hold those of the other two
        U = np.unique(np.concatenate([stars["all"][0], stars["all"][4]]))
        # V, W and the stars may share vertices: each Green's column once
        sets = [C for C, _ in blocks] + [U]
        verts = np.unique(np.concatenate(sets))
        at = [np.searchsorted(verts, X)[None] for X in sets]
        N0 = background.N0
        Z, G = background.green(verts, at)
        empty = geometry.CrackSet()
        for (key, region), closure, (C, L), P, G_C in zip(regions.items(), closures, blocks, at, G):
            # an empty C corrects nothing, and N0 symmetrized is N0 itself
            excluded = N0.entries - _woodbury(Z[P], G_C, -L[None])
            excluded = excluded.reshape(N0.entries.shape)
            self._nd["excluded " + key] = NdMatrix(
                0.5 * (excluded + excluded.T), fem.config_label(empty, excluded=region), ()
            )
            self._nd["frozen " + key] = _frozen(N0, Z[P[0]], G_C[0], closure, region, pin)
        for name, star in stars.items():
            update = CrackUpdate(background.fact, star, U, Z[at[-1][0]], G[-1][0])
            self._updates[name] = update
            config = self.configs[name]["cracks"]
            self._nd[name] = NdMatrix(
                N0.entries + update.change(), fem.config_label(config), config.kinds()
            )


class CrackUpdate:
    """A crack set as an exact update of a factorized crack-free background.

    The cracks change the background's stiffness only on their stars
    (``_crack_star``): the slits by ``E`` on the old dofs S of their far
    triangles, once the far fans' new dofs are condensed out, and the ties
    by tying the conducting vertices C, one column of ``T`` per component.
    ``fact`` is the background's ``fem.Factorization``; ``U`` is the
    ascending union of S and C (or a superset), and ``Z`` and ``G`` are the
    background's pinned potentials of the basis currents and its pinned
    Green's block on U. ``far`` lists the flat corners ``3 t + c`` whose
    dof a slit renews, ascending, and row k of ``far_loads`` is the load on
    S that a unit load on far corner k becomes once its dof is condensed
    out, ``-dS_nn^-1 dS_nS`` (``_slit_stars``); each row sums to one, so a
    balanced load stays balanced.
    """

    def __init__(self, fact, star, U, Z, G):
        self.fact = fact
        self.S, self.E, self.far, self.far_loads, self.C, self.T = star
        self.U, self.Z, self.G = U, Z, G
        # whether S holds every vertex of the far triangles: all but the pin
        self._whole = not np.any(fact.dm.corner_dof[self.far // 3] == fact.pin)

    def change(self, P=None):
        """How the cracks change the background's response: ``N - N0``, or of loads ``P``.

        Without ``P``: the change ``(M, M)`` of the ND matrix, exactly
        symmetric. With ``P`` ``(len(U), r)``, the background's pinned
        potentials on U of r balanced vertex loads (far corners condensed):
        the change ``(M, r)`` of their voltages in the current basis. One
        ``_woodbury`` solve gives the slits' update and folds it onto C,
        where ``_tied_correction`` then applies the ties; the loads ride
        along as right-hand columns beside ``Z``.
        """
        Z, G, M = self.Z, self.G, self.Z.shape[1]
        s, c = np.searchsorted(self.U, self.S), np.searchsorted(self.U, self.C)
        R = Z if P is None else np.concatenate([Z, P], axis=1)
        # the slits' columns X = (I + E G)^-1 E R_S sum to zero over S, since
        # E annihilates constants while S holds the whole star (the pin would
        # leave it): so the left factor less its first row gives the same
        # change, without the offset that the far pin gives every potential
        # and that would scale the rounding of those sums into the change.
        # The ties' short circuit cancels that offset by itself
        Z_S = Z[s]
        if self._whole:
            Z_S = Z_S - Z_S[:1]
        slit, dR, dG = _woodbury(Z_S, G[np.ix_(s, s)], self.E, G[np.ix_(c, s)], R[s])
        R_C = R[c] - dR
        tied = _tied_correction(G[np.ix_(c, c)] - dG, R_C[:, :M], self.T,
                                None if P is None else R_C)
        dN = np.zeros(slit.shape)
        dN -= slit
        dN -= tied
        return 0.5 * (dN + dN.T) if P is None else dN[:, M:]


def _region_blocks(mesh, local, region, closure, pin):
    # (C, L) of a pixel region, given its ``geometry.region_closure``: its
    # boundary vertices but the pin, which is zero in every potential,
    # ascending, and its element stiffness ``local[its triangles]``
    # condensed onto them
    in_S, in_C = closure[:2]
    S = np.flatnonzero(in_S)
    if not len(S):
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    if not geometry.pixelset_is_admissible(region):
        raise ValueError("region must be an admissible pixel set")
    c = in_C[S]
    if np.isin(S[~c], mesh.gamma_vertices()).any():
        # as fem.build_dofmap refuses the excluded region
        raise ValueError("a measurement-arc vertex lost its dof")
    tris = region.triangles()
    node = np.searchsorted(S, mesh.triangles[tris])
    K = np.zeros((len(S), len(S)))
    np.add.at(K, (node[:, :, None], node[:, None, :]), local[tris])
    L = K[np.ix_(c, c)]
    if not c.all():
        L = L - K[np.ix_(c, ~c)] @ _dense_solve(K[np.ix_(~c, ~c)], K[np.ix_(~c, c)])
    C = S[c]
    keep = C != pin
    return C[keep], L[np.ix_(keep, keep)]


def _frozen(N0, Z, G, closure, region, pin):
    # the NdMatrix of ``region`` frozen, a tie update of a base N0 (which
    # may hold the region's triangles or exclude them) by its pinned
    # potentials Z and Green's block G on all boundary vertices C of the
    # region but the pin, ascending, used as handed. ``closure`` is the
    # region's ``geometry.region_closure`` with ties; T ties C, one column
    # per group of the closure's ties (components that meet at a vertex
    # share its dof). The pin is zero in every potential, so C drops it and
    # its group's column goes
    _, in_C, tie = closure
    C = np.flatnonzero(in_C)
    tied = tie[C[C != pin]]
    N = N0.entries
    if len(tied):
        ties = np.unique(tied)
        if in_C[pin]:
            ties = ties[ties != tie[pin]]
        T = (tied[:, None] == ties).astype(float)
        N = N - _tied_correction(G, Z, T)
    label = fem.config_label(geometry.CrackSet(), frozen=region)
    return NdMatrix(0.5 * (N + N.T), label, ())


def _dense_solve(A, B, spd=False):
    # small dense systems, one or a (k, n, n) stack, with the relative-residual
    # guard of the sparse solves on every column of every system. ``spd``
    # marks symmetric positive definite systems: one of them is solved by
    # Cholesky from its lower triangle, a stack by LU like any other
    if spd and A.ndim == 2 and len(A):
        _, X, info = scipy.linalg.lapack.dposv(A, B, lower=1)
        if info:
            raise np.linalg.LinAlgError("system is not positive definite")
    else:
        X = np.linalg.solve(A, B)
    fem._check_residual(A, X, B)
    return X


def _green_block(fact, dofs, width, stars, weighted=None):
    # the pinned Green's entries that stars pair. ``dofs`` are distinct and
    # none of them the pin; each (k, m) array in ``stars`` lists k stars as
    # positions in ``dofs`` and gets the (k, m, m) stack of G on them. Each
    # column is solved once, ``width`` columns at a time, so no n x |dofs|
    # array is formed, and of each solved block only the rows a star pairs
    # with its columns are kept. The load e_c - e_pin is balanced, so the
    # solve's residual check holds on every row. Each stack is filled a
    # column per row, with one flat take per block, and handed out
    # transposed. Returns ``(Z, stacks)``: Z is None, or with ``weighted``,
    # the arc loads (G, M) of M currents, their pinned potentials on
    # ``dofs``, x_c^T b by the symmetry of the pinned stiffness (the Green's
    # column x_c is 0 at the pin)
    Z = None if weighted is None else np.empty((len(dofs), weighted.shape[1]))
    out = [np.empty(P.shape + P.shape[1:]) for P in stars]
    # per stack: the stars' dofs, and their places in the order of the
    # columns they read
    plan = []
    for P in stars:
        order = np.argsort(P.ravel(), kind="stable")
        plan.append((dofs[P], P.ravel()[order], order))
    for lo in range(0, len(dofs), width):
        cols = dofs[lo:lo + width]
        b = np.vstack([np.eye(len(cols)), -np.ones((1, len(cols)))])
        at = np.append(cols, fact.pin)
        x = fact.solve(b, at)
        if Z is not None:
            Z[lo:lo + width] = x[fact.dm.gamma_dofs].T @ weighted
        for GT, (D, col, order) in zip(out, plan):
            first, last = np.searchsorted(col, [lo, lo + width])
            if first < last:
                j, i = np.divmod(order[first:last], D.shape[1])
                GT[j, i] = x.take(D[j] * len(cols) + (col[first:last, None] - lo))
    return Z, [np.swapaxes(GT, 1, 2) for GT in out]


def _tied_correction(G, Z, T, R=None):
    # how much tying the rows of the Green's block G by the indicator columns
    # T (m, groups) lowers the ND matrix of the potentials Z on them, with R
    # = Z unless given (the potentials of other loads on the rows), in
    # short-circuit form: (Q^T Z)^T (Q^T G Q)^-1 Q^T R, where Q spans the
    # complement of T's columns, a column per tied row but its group's
    # first (that row less the first) and a unit column per row T leaves
    # out (tied to the pin). That is Z^T (H - H T (T^T H T)^-1 T^T H) R with
    # H = G^-1, from one positive definite solve of size m - groups; the
    # differences cancel the common offset a far pin gives the potentials.
    # G, Z and R may be stacks (k, m, .) of blocks that T ties alike.
    # ``lead`` is each row's group's first row, -1 for a row tied to the pin
    row, col = np.nonzero(T)
    lead = np.full(len(T), -1)
    if len(row):
        lead[row] = T.argmax(axis=0)[col]
    short = lead != np.arange(len(T))
    rows, base = np.flatnonzero(short), lead[short]
    QZ = _shorted(Z, rows, base)
    QR = QZ if R is None else _shorted(R, rows, base)
    QGQ = _shorted(np.swapaxes(_shorted(G, rows, base), -1, -2), rows, base)
    return np.swapaxes(QZ, -1, -2) @ _dense_solve(QGQ, QR, spd=True)


def _shorted(X, rows, base):
    # Q^T X for _tied_correction's Q along the rows (axis -2) of X: row
    # ``rows[i]`` less row ``base[i]``, or alone where ``base[i]`` is -1.
    # One group tied to its first row, the usual case, subtracts that row,
    # from a slice where the rows are consecutive
    if len(base) and base[0] >= 0 and (base == base[0]).all():
        lo = rows[0]
        part = (X[..., lo:lo + len(rows), :] if rows[-1] - lo == len(rows) - 1
                else X.take(rows, axis=-2))
        return part - X[..., base[0]:base[0] + 1, :]
    out = X.take(rows, axis=-2)
    live = base >= 0
    out[..., live, :] -= X.take(base[live], axis=-2)
    return out


def _woodbury(Z, G, E, Y=None, R=None):
    # dN = Z^T (I + E G)^-1 E R, so that N = N0 - dN, for a stiffness change
    # E on vertices S with pinned potentials Z (m, M) and Green's block G on
    # S, or (k, m, .) stacks; R = Z unless given (the pinned potentials of
    # other loads on S, which the update then maps to their voltages). One
    # solve: for X = (I + E G)^-1 E R, its right-hand sides' products with E
    # formed one by one, so each column has the bits it would have alone.
    # With Y, the Green's entries (c, m) of vertices C against S, also the
    # fold onto C: (dN, Y X, Y W Y^T), subtracted from R_C and G_CC, from
    # one solve for W = (I + E G)^-1 E, whose m columns are fewer than the
    # fold's c, and X = W R
    A = np.eye(G.shape[-1]) + E @ G
    R = Z if R is None else R
    if Y is None:
        return np.swapaxes(Z, -1, -2) @ _dense_solve(A, E @ R)
    W = _dense_solve(A, E)
    X = W @ R
    return np.swapaxes(Z, -1, -2) @ X, Y @ X, (Y @ W) @ np.swapaxes(Y, -1, -2)


# chains per stacked pass of chain_matrices' corrections and of the inner
# eigen tests, whose (k, M, M) stacks set the peak memory of an inner run;
# slit chains per pass of ``_stars``, whose arrays per chain are smaller and
# whose cost per pass is larger
CHAIN_BATCH = 64
STAR_BATCH = 256


def chain_matrices(background, components):
    """ND matrices of single test chains as low-rank updates of the ``Background``.

    Yields the entries of the components' matrices in the given order, as
    exactly symmetric ``(k, M, M)`` stacks of ``CHAIN_BATCH`` components
    (the last stack holds the rest). A chain changes the crack-free forward
    problem only on its star, the triangles at its slit or tied vertices,
    so its matrix is the background matrix ``N0`` minus a small dense
    correction: ``_woodbury`` for a slit, ``_tied_correction`` for a tie.
    Every chain is checked first (``geometry.check_chains``, one pass; the
    first bad chain raises) and every star is found, ``STAR_BATCH`` slit
    chains at a time with one stacked condensation per star shape. Then
    the background gives ``N0``, and ``Background.green`` the pinned
    potentials ``Z`` on the union of the stars and the pinned Green's
    entries ``G_SS`` of every star S; each Green's column is solved once,
    and only the entries that stars pair are kept.

    * insulating chain: the slit gives each interior vertex a new dof for
      its far fan (``fem.split_fans``). ``dS``, the stiffness of the far
      triangles with the new dofs minus their original stiffness, is
      condensed onto the old dofs ``S`` of those triangles,
      ``E = dS_SS - dS_Sn dS_nn^-1 dS_nS``, and ``_woodbury`` gives
      ``N = N0 - Z_S^T (I + E G_SS)^-1 E Z_S``.
    * conducting chain C, tied to one dof by ``T`` (a column of ones),
      by ``_tied_correction``:
      ``N = N0 - Z_C^T (H - H T (T^T H T)^-1 T^T H) Z_C`` with
      ``H = G_CC^-1``.

    Within a stack the corrections are formed as ``(k, m, m)`` stacks of
    one star size. The pinned dof is zero in every potential, so a star
    that holds it drops its row and column, which is exact. Every small
    dense solve is checked against ``fem.RESIDUAL_RTOL``, per chain and
    per column. ``nd_matrix`` of the chain's factorization is the reference
    this path must match.
    """
    components = list(components)
    mesh = background.mesh
    geometry.check_chains(mesh, [comp.chain for comp in components])
    # the background pins its first arc vertex (fem.Factorization); the
    # stars are found before it is read
    pin = mesh.gamma_vertices()[0]
    groups = _stars(mesh, background.gamma0, pin, components)
    union = np.unique(np.concatenate([S.ravel() for _, S, _ in groups]))
    at = [np.searchsorted(union, S) for _, S, _ in groups]
    N0 = background.N0
    Z, G = background.green(union, at)
    for lo in range(0, len(components), CHAIN_BATCH):
        hi = min(lo + CHAIN_BATCH, len(components))
        N = np.empty((hi - lo,) + N0.entries.shape)
        for (idx, _, E), P, G_S in zip(groups, at, G):
            first, last = np.searchsorted(idx, [lo, hi])
            if first < last:
                part = slice(first, last)
                G_p, Z_p = G_S[part], Z[P[part]]
                if E is None:
                    corr = _tied_correction(G_p, Z_p, np.ones((G_p.shape[-1], 1)))
                else:
                    corr = _woodbury(Z_p, G_p, E[part])
                N[idx[part] - lo] = N0.entries - corr
        yield 0.5 * (N + np.swapaxes(N, -1, -2))


def crack_signature(background, cracks):
    """The change ``dN = N(cracks) - N0`` a crack set makes to the ``Background``'s ``N0``.

    ``dN``, an exactly symmetric ``(M, M)`` array, is the exact low-rank
    correction of ``chain_matrices`` made for every component at once,
    since the cracks change the background only on their stars.

    * The slits of every insulating component form one update ``E``, their
      far-fan stiffness change condensed onto the old dofs ``S`` of all
      their far triangles, and ``N1 = N0 - Z_S^T (I + E G_SS)^-1 E Z_S``
      by ``_woodbury``.
      Far fans of two chains may share a triangle, whose corners then move
      together, so the updates of single chains would not add up to it.
    * The conducting components tie their vertices ``C``, one column of
      ``T`` per component, on the slit problem: the same ``_woodbury``
      solve folds ``E`` into the pinned potentials and Green's entries on
      ``C``, and ``_tied_correction`` applies the ties there.

    Both steps are exact: the slit's new dofs carry no current and are
    condensed out, and they never lie on ``C``. ``CrackUpdate.change``
    makes them, as it does for the crack configurations of a run's table.
    ``G`` and ``Z`` on ``U = S ∪ C`` both come from the background's
    Green's columns (``Background.green``), so no current is solved; ``S``
    drops the pin as ``_slit_stars`` does. The crack set is validated and
    ``E`` formed before the background is read; an empty ``U`` (no crack,
    or only one-edge insulating chains) reads nothing. ``nd_matrix`` of the
    cracks' own factorization minus the background's is the reference.
    """
    mesh = background.mesh
    if cracks.components:
        cracks.validate(mesh)
    star = _crack_star(mesh, background.gamma0, mesh.gamma_vertices()[0], cracks)
    U = np.unique(np.concatenate([star[0], star[4]]))
    if not len(U):
        return np.zeros((background.basis.M, background.basis.M))
    # as many solves as blocks of M columns, but of equal width: the solved
    # block's temporaries set the peak memory of an anti-crime run
    width = -(-len(U) // -(-len(U) // background.basis.M))
    Z, (G,) = background.green(U, [np.arange(len(U))[None]], width)
    return CrackUpdate(background.fact, star, U, Z, G[0]).change()


def _crack_star(mesh, gamma0, pin, cracks):
    # (S, E, far, far_loads, C, T) of a crack set, as ``CrackUpdate`` reads
    # them: the joint star of its slits without the pin and their update,
    # their far corners and the loads those condense to on S, and the
    # conducting vertices with one indicator column of T per component
    slits = [c for c in cracks.components if c.kind == geometry.INSULATING and len(c.chain) > 2]
    star = (np.zeros(0, dtype=np.int64), np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
            np.zeros((0, 0)))
    if slits:
        star = _slit_stars(mesh, gamma0, pin, slits, np.zeros(1, dtype=np.int64), joint=True)
    tied = [c.chain for c in cracks.components if c.kind == geometry.CONDUCTING]
    C = np.array([v for chain in tied for v in chain], dtype=np.int64)
    T = np.repeat(np.eye(len(tied)), [len(chain) for chain in tied], axis=0)
    return star + (C, T)


def _stars(mesh, gamma0, pin, components):
    # the chains' stars in groups of one kind and size, each (idx, S, E): the
    # positions of its k chains, ascending, their star vertices S (k, m)
    # without the pin, and the updates E (k, m, m) on them (None for ties)
    conducting = np.array([comp.kind == geometry.CONDUCTING for comp in components], dtype=bool)
    length = np.array([len(comp.chain) for comp in components], dtype=np.int64)
    groups = []
    for n in np.unique(length[conducting]):
        idx = np.flatnonzero(conducting & (length == n))
        S = np.array([components[i].chain for i in idx], dtype=np.int64)
        groups.append((idx, S, None))
    # an insulating chain without an interior vertex opens nothing
    idx = np.flatnonzero(~conducting & (length == 2))
    groups.append((idx, np.zeros((len(idx), 0), dtype=np.int64), np.zeros((len(idx), 0, 0))))
    # the slit stars batch by batch, so that their temporaries follow one
    # batch, then merged by star size
    slit = np.flatnonzero(~conducting & (length > 2))
    parts = {}
    for lo in range(0, len(slit), STAR_BATCH):
        idx = slit[lo:lo + STAR_BATCH]
        for part in _slit_stars(mesh, gamma0, pin, [components[i] for i in idx], idx):
            parts.setdefault(part[1].shape[1], []).append(part)
    for part in parts.values():
        idx = np.concatenate([p[0] for p in part])
        order = np.argsort(idx, kind="stable")
        groups.append((idx[order], np.concatenate([p[1] for p in part])[order],
                       np.concatenate([p[2] for p in part])[order]))
    return groups


def _slit_stars(mesh, gamma0, pin, comps, idx, joint=False):
    # ``_stars`` of insulating chains with interior vertices, at positions
    # idx, in groups of one shape; with ``joint``, the slits of all the
    # chains form one star, so a triangle in the far fans of two chains
    # moves both its corners in one update, returned as ``_crack_star``'s
    # (S, E, far, far_loads)
    far, owner = fem.split_fans(mesh, geometry.CrackSet(comps))
    n = np.array([len(comp.chain) - 2 for comp in comps], dtype=np.int64)
    if joint:
        n = n.sum(keepdims=True)
    chain = np.repeat(np.arange(len(n)), n)[owner]
    slit = owner - (np.cumsum(n) - n)[chain]
    order = np.lexsort((far, chain))
    far, chain, slit = far[order], chain[order], slit[order]
    # each chain's far triangles, ascending, as rows of one list
    t = far // 3
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (chain[1:] != chain[:-1])
    row = np.cumsum(first) - 1
    tris, tri_chain = t[first], chain[first]
    # the element stiffness of the far triangles only, each formed once
    far_tris, at_far = np.unique(tris, return_inverse=True)
    local = fem.element_stiffness(mesh, gamma0, far_tris)
    # a chain's vertices numbered locally in the order its triangles' corners
    # meet them, its new dofs after them in slit order
    nv = len(mesh.vertices)
    key = (tri_chain[:, None] * nv + mesh.triangles[tris]).ravel()
    uniq, seen, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(seen)] = np.arange(len(uniq))
    m = np.bincount(uniq // nv, minlength=len(n))
    start = np.cumsum(m) - m
    verts = np.empty(len(uniq), dtype=np.int64)
    verts[rank] = uniq % nv
    old = rank[inverse].reshape(-1, 3) - start[tri_chain][:, None]
    new = old.copy()
    new[row, far % 3] = m[chain] + slit
    # entry (i, j) of a far triangle moves when corner i or j does
    moved = new != old
    changed = moved[:, :, None] | moved[:, None, :]
    groups = []
    for mk, nk in np.unique(np.column_stack([m, n]), axis=0).tolist():
        cs = np.flatnonzero((m == mk) & (n == nk))
        pos = np.full(len(n), -1)
        pos[cs] = np.arange(len(cs))
        # the moved entries of the group's triangles, triangle by triangle:
        # added with the new dofs, then taken away with the old ones, summed
        # in that order into each chain's flat (D, D) block
        D = mk + nk
        tri, i, j = np.nonzero(changed & (pos[tri_chain] >= 0)[:, None, None])
        block = pos[tri_chain[tri]] * D
        at = np.concatenate([(block + new[tri, i]) * D + new[tri, j],
                             (block + old[tri, i]) * D + old[tri, j]])
        entries = local[at_far[tri], i, j]
        dS = np.bincount(at, np.concatenate([entries, -entries]), minlength=len(cs) * D * D)
        dS = dS.reshape(len(cs), D, D)
        Y = _dense_solve(dS[:, mk:, mk:], dS[:, mk:, :mk])
        E = dS[:, :mk, :mk] - dS[:, :mk, mk:] @ Y
        S = verts[start[cs][:, None] + np.arange(mk)]
        # the pinned dof is zero in every potential: a star that holds it
        # drops its row and column
        held = S == pin
        has = held.any(axis=1)
        if not has.all():
            groups.append((idx[cs[~has]], S[~has], E[~has]))
        if np.any(has):
            keep, k = ~held[has], int(np.sum(has))
            groups.append((
                idx[cs[has]],
                S[has][keep].reshape(k, mk - 1),
                E[has][keep[:, :, None] & keep[:, None, :]].reshape(k, mk - 1, mk - 1),
            ))
    if joint:
        # the one star, with the far corners, ascending, and the loads on S
        # that a unit load on each one's new dof condenses to: -dS_nn^-1 dS_nS
        (_, S, E), = groups
        return S[0], E[0], far, -Y[0][slit][:, ~held[0]]
    return groups


# which sides of the region bracket a peel tests: both, or only the one
# that detects its crack kind (excluded for insulating, frozen for conducting)
MODES = ("both", "insulating", "conducting")


class RegionMaps:
    """ND matrices of the excluded and frozen configurations of regions R in R0.

    Upper peeling tests regions that shrink from ``R0`` one pixel at a time.
    A region changes the crack-free forward problem only on its own
    triangles and on how its boundary vertices C (``geometry.region_closure``)
    are closed, so both responses come from one block: the ND matrix of the
    excluded R and its pinned potentials ``Z`` and Green's block ``G`` on
    C, which start from one factorization of the excluded R0.

    * excluded: in vertex space, with a placeholder identity row on every
      enclosed vertex, taking pixel p out of R adds p's element stiffness
      back and drops the placeholder of the vertices p releases. That
      update ``E`` lives on p's vertices S, and ``_woodbury`` gives
      ``N(R - p) = N(R) - Z_S^T (I + E G_SS)^-1 E Z_S`` (an enclosed vertex
      has the Green's row ``e_v`` and potential zero); the same solve folds
      Z and G over to C(R - p).
    * frozen: R's triangles then carry no energy, so frozen(R) is the
      excluded R with C tied, by ``_frozen``, the update the configuration
      table applies to its background.

    A candidate's block is folded when the frozen side reads it, and in
    mode "insulating" only when ``peel`` accepts it; the last folded block
    is kept for ``peel`` to install. A fold forms Z and G on C(R - p)
    alone. Each pixel's S and element stiffness are assembled once, at the
    start. A block keeps each vertex's position in its C, and Z and G with
    a zero row (and column) that a vertex off C gathers, so an update sets
    identity entries only on the vertices p releases, and the frozen side
    ties views of the block's own Z and G. R - p's closure comes from R's:
    only p's vertices change, by how many of R's pixels hold each, and a
    region that stays one piece (``geometry.one_piece``, decided around p)
    ties all of its C as one group. A test costs its dense solves plus a
    few gathers.
    ``mode`` (one of ``MODES``) names the sides to test: "insulating" the
    excluded response, "conducting" the frozen one. The caller keeps every
    region admissible. Every small dense solve is checked against
    ``fem.RESIDUAL_RTOL``. ``nd_matrix`` of a factorization of the region's
    own constrained space is the reference this path must match; the
    frozen space's dof map exists only as that test reference.

    R0 keeps its own factorization: condensed onto C(R0) as an update of
    the crack-free ``Background``, it agreed to 1.3e-13 relative but took
    26.9 ms against 8.6 ms on the upper-peel benchmark scenario (529
    interior vertices onto 96, one BLAS thread).
    """

    def __init__(self, mesh, gamma0, basis, R0, mode="both"):
        if mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        self.mesh = mesh
        self.region = R0
        self._mode = mode
        self._pin = mesh.gamma_vertices()[0]
        # the frozen side reads the ties of each tested region's closure
        self._ties = mode != "insulating"
        closure = geometry.region_closure(R0, ties=self._ties)
        if closure[0][self._pin]:
            raise ValueError("the start region holds the pinned arc vertex")
        self._pixels = _pixel_stiffness(mesh, gamma0, R0)
        # how many of the region's pixels each vertex is in: a tested
        # region's closure follows from it and its parent's
        self._count = geometry.pixel_counts(R0)
        C = np.flatnonzero(closure[1])
        fact = fem.factorize(mesh, gamma0, excluded=R0)
        N = nd_matrix(fact, basis)
        Z, (G,) = _green_block(fact, fact.dm.vertex_dof[C], basis.M, [np.arange(len(C))[None]],
                               fem.gamma_mass(mesh) @ basis.vectors)
        # (NdMatrix, Z, G, closure, position map, one piece) of the excluded
        # region: Z and G with a last row (and column) of zeros, the map
        # giving each vertex its position in C and -1, that zero row, off C,
        # and the flag whether the frozen side knows the region to be one
        # piece
        self._block = (N, np.pad(Z, ((0, 1), (0, 0))), np.pad(G[0], (0, 1)), closure,
                       _position_map(len(mesh.vertices), C), self._ties and geometry.one_piece(R0))
        self._last = None

    def matrices(self, pixel=None):
        """(excluded, frozen) NdMatrix of the region, or of it without ``pixel``.

        A side that ``mode`` leaves out is None.
        """
        region, block = self.region, self._block
        if pixel is not None:
            region = self._without(pixel)
            block = self._opened(pixel, region, fold=self._ties)
        excluded = None if self._mode == "conducting" else block[0]
        frozen = None
        if self._mode != "insulating":
            N, Z, G, closure = block[:4]
            frozen = _frozen(N, Z[:-1], G[:-1, :-1], closure, region, self._pin)
        return excluded, frozen

    def peel(self, pixel):
        """Take ``pixel`` out of the region and install its folded block."""
        region = self._without(pixel)
        self._block = self._opened(pixel, region, fold=True)
        self._count[self._pixels[pixel][0]] -= 1
        self.region = region
        self._last = None

    def _without(self, pixel):
        if pixel not in self.region.members:
            raise ValueError("pixel %d is not in the region" % pixel)
        return self.region.minus(pixel)

    def _opened(self, pixel, region, fold):
        # the block of ``region``, the region without ``pixel``: only its
        # NdMatrix unless ``fold``. A folded block is kept, as (pixel,
        # block), until the region changes. S are p's vertices, ``at`` their
        # positions in the kept block (-1 if enclosed); the fold forms Z
        # and G on C(R - p) alone, which lies in the kept C and the
        # vertices p releases, and derives the new region's closure once
        if fold and self._last is not None and self._last[0] == pixel:
            return self._last[1]
        N, Z, G, _, pos, _ = self._block
        S, E = self._pixels[pixel]
        at = pos[S]
        # the released vertices lose their placeholder rows
        E = E - np.diag((at < 0).astype(float))
        Z_S, G_SS = Z.take(at, 0), _grown(G, S, at, S, at)
        if fold:
            closure, whole = self._closure(pixel, region, S)
            C = np.flatnonzero(closure[1])
            at_C = pos[C]
            dN, dZ, dG = _woodbury(Z_S, G_SS, E, _grown(G, C, at_C, S, at))
        else:
            dN = _woodbury(Z_S, G_SS, E)
        N = N.entries - dN
        N = NdMatrix(0.5 * (N + N.T), fem.config_label(geometry.CrackSet(), excluded=region), ())
        if not fold:
            return (N,)
        # the new block, padded by gathering the kept block's zero row and
        # column last; a released vertex's Green's row is e_v
        ext = np.append(at_C, -1)
        Z = Z.take(ext, 0)
        Z[:-1] -= dZ
        G = G.take(ext, 0).take(ext, 1)
        released = np.flatnonzero(at_C < 0)
        G[released, released] = 1.0
        inner = G[:-1, :-1]
        inner -= dG
        np.add(inner, inner.T, out=inner)
        inner *= 0.5
        block = N, Z, G, closure, _position_map(len(pos), C), whole
        self._last = (pixel, block)
        return block

    def _closure(self, pixel, region, S):
        # ``geometry.region_closure`` of ``region``, the region without
        # ``pixel``, from the kept block's: only the pixel's vertices S
        # change, each staying in S and C while another pixel of the region
        # holds it. A region that stays one piece ties all of C to group 0.
        # Returns the closure and whether the region is known to be one piece
        kept = self._block[3]
        on = self._count[S] > 1
        in_S, in_C = kept[0].copy(), kept[1].copy()
        in_S[S] = on
        in_C[S] = on
        if not self._ties:
            return (in_S, in_C), False
        if self._block[5] and geometry.one_piece(self.region, pixel):
            return (in_S, in_C, np.where(in_C, 0, -1)), True
        return geometry.region_closure(region, ties=True), False


def _pixel_stiffness(mesh, gamma0, region):
    # {pixel: (S, E)} of each pixel of ``region``: the vertices of its
    # triangles, ascending, and its element stiffness assembled on them.
    # All pixels in one pass: the blocks lie in one flat array, and each
    # entry sums its triangles' terms in ascending triangle order
    tris = region.triangles()
    local = fem.element_stiffness(mesh, gamma0, tris)
    owner = region.grid.tri_pixel[tris]
    nv = len(mesh.vertices)
    keys, node = np.unique(owner[:, None] * nv + mesh.triangles[tris], return_inverse=True)
    pixels, start, size = np.unique(keys // nv, return_index=True, return_counts=True)
    base = np.cumsum(size * size) - size * size
    at = np.searchsorted(pixels, owner)
    node = node.reshape(-1, 3) - start[at][:, None]
    flat = (base[at][:, None, None] + node[:, :, None] * size[at][:, None, None]
            + node[:, None, :])
    E = np.bincount(flat.ravel(), local.ravel(), minlength=int(np.sum(size * size)))
    return {int(p): (keys[s:s + n] % nv, E[b:b + n * n].reshape(n, n))
            for p, s, n, b in zip(pixels, start, size, base)}


def _position_map(n, verts):
    # each of n vertices' position in the ascending ``verts``, -1 off them
    pos = np.full(n, -1)
    pos[verts] = np.arange(len(verts))
    return pos


def _grown(G, rows, at_r, cols, at_c):
    # a peel block's Green's entries on ascending vertex rows and columns,
    # given their positions in the kept, padded block: -1 gathers its zero
    # row or column, and an enclosed vertex's Green's row is e_v, so only
    # its unit entry is set; every enclosed row is also a column
    out = G.take(at_r, 0).take(at_c, 1)
    r = np.flatnonzero(at_r < 0)
    out[r, np.searchsorted(cols, rows[r])] = 1.0
    return out


def psd_tests(A, tau):
    """``psd_test`` on a ``(k, n, n)`` stack: (verdicts, smallest eigenvalues).

    Each matrix must be symmetric up to the same relative tolerance; ``tau``
    is one threshold for all or one per matrix. One stacked ``eigvalsh``.
    """
    min_eig = _spectra(A)[:, 0]
    return min_eig >= -tau, min_eig


def _spectra(A):
    # the ascending eigenvalues (k, n) of a (k, n, n) stack, each matrix
    # checked symmetric to SYM_RTOL of its largest entry and symmetrized:
    # one stacked eigvalsh
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("need a stack of square matrices")
    AT = np.swapaxes(A, 1, 2)
    # an exactly symmetric stack, the usual one, is its own symmetric part
    if (A == AT).all():
        return np.linalg.eigvalsh(A)
    scale = np.maximum(np.abs(A).reshape(len(A), -1).max(axis=1), 1e-300)
    work = A - AT
    np.abs(work, out=work)
    if np.any(work.reshape(len(A), -1).max(axis=1) > SYM_RTOL * scale):
        raise ValueError("matrix is not symmetric")
    np.add(A, AT, out=work)
    work *= 0.5
    return np.linalg.eigvalsh(work)


def psd_test(A, tau):
    """Positive-semidefiniteness certificate: (verdict, smallest eigenvalue).

    ``A`` is a square array; it must be symmetric up to a strict relative
    tolerance. The verdict is true iff the smallest eigenvalue is at least
    ``-tau``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    passed, min_eig = psd_tests(A[None], tau)
    return bool(passed[0]), float(min_eig[0])


def default_taus(entries):
    """``default_tau`` of every minuend in a ``(k, M, M)`` stack of entries.

    One stacked ``eigvalsh``; each value equals ``default_tau`` of that
    matrix alone.
    """
    w = np.linalg.eigvalsh(0.5 * (entries + np.swapaxes(entries, -1, -2)))
    return PSD_TAU_FACTOR * np.max(np.abs(w), axis=-1)


def default_tau(minuend):
    """Tolerance scaled to the spectral norm of the minuend, an NdMatrix."""
    return float(default_taus(minuend.entries[None])[0])


def tau_for(minuend, tau):
    """The threshold a test uses: ``tau`` when given, else the default."""
    if tau is not None:
        return float(tau)
    return default_tau(minuend)


def _record(name, passed, min_eig, tau):
    return {
        "test": name,
        "passed": bool(passed),
        "min_eig": float(min_eig),
        "tau": float(tau),
        "close_call": bool(abs(min_eig) < MARGIN_SCALE * tau),
    }


def certificate(name, diff, minuend, tau):
    """Run one inequality test and return its stored certificate.

    ``diff`` is the matrix difference that must be positive semidefinite;
    ``minuend`` sets the default threshold when ``tau`` is None. The record
    holds the test name, the verdict, the smallest eigenvalue, the
    threshold, and whether the call was close (|min_eig| within
    ``MARGIN_SCALE`` thresholds).
    """
    t = tau_for(minuend, tau)
    passed, min_eig = psd_test(diff, t)
    return _record(name, passed, min_eig, t)


def certificates(names, diffs, taus, minuend=None):
    """``certificate`` for a ``(k, M, M)`` stack of differences, one record each.

    ``names`` and ``taus`` give the name and the threshold of every test,
    each one for all or one per difference; ``default_taus`` gives the
    default thresholds of a stack of minuends. With ``minuend``, the
    ``(M, M)`` entries of an NdMatrix, ``taus`` lists one threshold per
    difference, and None there is ``default_tau`` of the minuend, whose
    spectrum joins the differences' stacked ``eigvalsh`` (and is checked
    symmetric like them).
    """
    if isinstance(names, str):
        names = [names] * len(diffs)
    if minuend is None:
        w = _spectra(diffs)
    else:
        w = _spectra(np.concatenate([minuend[None], diffs]))
        default, w = PSD_TAU_FACTOR * np.max(np.abs(w[0])), w[1:]
        taus = [default if t is None else t for t in taus]
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (len(diffs),))
    min_eig = w[:, 0]
    return [_record(*test) for test in zip(names, min_eig >= -taus, min_eig, taus)]


def symmetric_noise(N, level, rng):
    """Symmetric perturbation with spectral norm ``level`` times the matrix's.

    Returns a new NdMatrix; level 0 returns the input unchanged.
    """
    if level == 0:
        return N
    E = rng.standard_normal(N.entries.shape)
    E = 0.5 * (E + E.T)
    norm_N = float(np.linalg.norm(N.entries, 2))
    norm_E = float(np.linalg.norm(E, 2))
    E *= level * norm_N / norm_E
    return NdMatrix(N.entries + E, N.config_label + "+noise", N.kinds)
