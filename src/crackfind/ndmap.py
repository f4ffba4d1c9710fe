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
    def from_vectors(cls, mesh, raw, orthonormalize=True):
        """Project raw nodal vectors mean-free and orthonormalize them."""
        v = np.array(raw, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        Mg = fem.gamma_mass(mesh)
        w = fem.arc_weights(mesh)
        v = v - np.outer(np.ones(len(w)), (w @ v) / w.sum())
        if orthonormalize:
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

    def __init__(self, entries, basis, config_label, kinds):
        e = np.asarray(entries, dtype=float)
        scale = max(1.0e-300, float(np.max(np.abs(e))))
        if np.max(np.abs(e - e.T)) > 1e-12 * scale:
            raise ValueError("entries must be symmetric")
        self.entries = e
        self.entries.setflags(write=False)
        self.basis = basis
        self.config_label = config_label
        self.kinds = frozenset(kinds)

    def __repr__(self):
        return "NdMatrix(%s, M=%d)" % (self.config_label, len(self.entries))

    def to_json(self):
        return {
            "config": self.config_label,
            "M": int(len(self.entries)),
            "entries": [float(x) for x in self.entries.reshape(-1)],
        }


class NdSolver:
    """One configuration's forward machinery: dof map, stiffness, factorization.

    ``config`` is None (no cracks, no region), a CrackSet, or a dict with
    any of the keys ``cracks``, ``excluded``, ``frozen``; other keys are
    rejected. Reusable for many currents; building it once per
    configuration is what makes reconstruction loops affordable.
    """

    def __init__(self, mesh, gamma0, config=None):
        if config is None:
            config = {}
        if isinstance(config, geometry.CrackSet):
            config = {"cracks": config}
        unknown = set(config) - {"cracks", "excluded", "frozen"}
        if unknown:
            raise ValueError("unknown configuration keys: %s" % sorted(unknown))
        self.mesh = mesh
        self.gamma0 = gamma0
        self.dm = fem.build_dofmap(
            mesh,
            config.get("cracks"),
            excluded=config.get("excluded"),
            frozen=config.get("frozen"),
        )
        self.K = fem.assemble_stiffness(mesh, gamma0, self.dm)
        self.fact = fem.Factorization(self.K, self.dm)

    def solve_current(self, f):
        """Potential for one arc current ``(G,)`` or a block ``(G, k)``."""
        return fem.solve_neumann(self.K, self.dm, f, self.fact)

    def solve_source(self, F):
        """Potential of one ElementVectorField or a ``(tris, vectors)`` block."""
        return fem.solve_source(self.K, self.dm, F, self.fact)

    def nd_matrix(self, basis):
        """The configuration's matrix in ``basis``, from one block solve."""
        return self._nd_matrix(self.solve_current(basis.vectors), basis)

    def _nd_matrix(self, potentials, basis):
        # the matrix from the potentials of the basis currents
        weighted = fem.gamma_mass(self.mesh) @ basis.vectors
        N = fem.trace_on_gamma(potentials).T @ weighted
        return NdMatrix(0.5 * (N + N.T), basis, self.dm.config_label(), self.dm.cracks.kinds())


def nd_matrix(mesh, gamma0, config, basis):
    """Assemble the boundary-map matrix for one configuration.

    ``config`` is None, a CrackSet, or a dict with any of the keys
    ``cracks``, ``excluded``, ``frozen``.
    """
    return NdSolver(mesh, gamma0, config).nd_matrix(basis)


class Configurations:
    """The named configurations of one two-crack run and their ND matrices.

    ``V`` surrounds the insulating cracks and ``W`` the conducting ones.
    The eight names: ``none`` (no cracks), ``all`` (every crack),
    ``insulating`` and ``conducting`` (one kind alone), and ``excluded V``,
    ``frozen V``, ``excluded W``, ``frozen W`` (a region excluded or frozen,
    no cracks). The data, the monotonicity chain and the localized
    potentials all compare matrices of these configurations, so a run keeps
    one table: ``nd(name)`` solves a configuration the first time it is
    asked for, and ``solver(name)`` gives a fresh ``NdSolver`` to callers
    that need more than the matrix, recording its matrix if the table lacks
    it. The table keeps matrices only, never a solver, so at most one
    factorization is alive at a time.
    """

    def __init__(self, mesh, gamma0, basis, cracks, V, W):
        self.mesh = mesh
        self.gamma0 = gamma0
        self.basis = basis
        self.V = V
        self.W = W
        self.configs = {
            "none": None,
            "all": cracks,
            "insulating": cracks.of_kind(geometry.INSULATING),
            "conducting": cracks.of_kind(geometry.CONDUCTING),
        }
        for key, region in (("V", V), ("W", W)):
            self.configs["excluded " + key] = {"excluded": region}
            self.configs["frozen " + key] = {"frozen": region}
        self._nd = {}

    def nd(self, name):
        """The named configuration's NdMatrix, solved on first request."""
        if name not in self._nd:
            self._nd[name] = nd_matrix(self.mesh, self.gamma0, self.configs[name], self.basis)
        return self._nd[name]

    def solver(self, name):
        """A fresh NdSolver for the named configuration; the caller owns it."""
        solver = NdSolver(self.mesh, self.gamma0, self.configs[name])
        if name not in self._nd:
            self._nd[name] = solver.nd_matrix(self.basis)
        return solver


def _dense_solve(A, B):
    # small dense system with the relative-residual guard of the sparse solves
    X = np.linalg.solve(A, B)
    fem._check_residual(A, X, B)
    return X


def _green_block(fact, K, dofs, width):
    # the pinned Green's block on ``dofs`` (distinct, none of them the pin),
    # solved ``width`` columns at a time so that no n x |dofs| array is
    # formed; the load e_c - e_pin is balanced, so the residual holds on
    # every row
    G = np.empty((len(dofs), len(dofs)))
    for lo in range(0, len(dofs), width):
        cols = dofs[lo:lo + width]
        b = np.vstack([np.eye(len(cols)), -np.ones((1, len(cols)))])
        at = np.append(cols, fact.pin)
        x = fact.solve(b, at)
        fem._check_residual(K, x, b, at)
        G[:, lo:lo + width] = x[dofs]
    return G


def _background(solver, basis, verts):
    # (N0, Z, G) of a factorized background on the vertices ``verts``
    # (distinct, none of them pinned): its NdMatrix, the pinned potentials of
    # the basis currents on them and their pinned Green's block, solved
    # basis.M columns at a time like the currents
    potentials = solver.solve_current(basis.vectors)
    N0 = solver._nd_matrix(potentials, basis)
    dofs = solver.dm.vertex_dof[verts]
    Z = potentials.values[dofs] - potentials.values[solver.fact.pin]
    return N0, Z, _green_block(solver.fact, solver.K, dofs, basis.M)


def _tied_correction(G, Z, T):
    # how much tying the rows of the Green's block G by the indicator columns
    # T lowers the ND matrix of the potentials Z on them:
    # Z^T (H - H T (T^T H T)^-1 T^T H) Z with H = G^-1
    HZ = _dense_solve(G, np.column_stack([Z, T]))
    HZ, HT = HZ[:, :Z.shape[1]], HZ[:, Z.shape[1]:]
    ZHT = Z.T @ HT
    return Z.T @ HZ - ZHT @ _dense_solve(T.T @ HT, ZHT.T)


def chain_matrices(mesh, gamma0, basis, components):
    """ND matrices of single test chains as low-rank updates of one background.

    Yields one NdMatrix per component, in the given order. A chain changes
    the crack-free forward problem only on its star, the triangles at its
    slit or tied vertices, so its matrix is the background matrix ``N0``
    minus a small dense correction (static condensation plus Woodbury).
    Every star is found first; then the background is factorized once and
    ``_background`` gives ``N0``, the pinned potentials ``Z`` and the pinned
    Green's block ``G`` on the sorted union of the stars, so each Green's
    column is solved once.

    * insulating chain: the slit gives each interior vertex a new dof for
      its far fan (``fem.split_fans``). ``dS``, the stiffness of the far
      triangles with the new dofs minus their original stiffness, is
      condensed onto the old dofs ``S`` of those triangles,
      ``E = dS_SS - dS_Sn dS_nn^-1 dS_nS``, and
      ``N = N0 - Z_S^T (I + E G_SS)^-1 E Z_S``.
    * conducting chain C, tied to one dof by ``T`` (a column of ones):
      ``N = N0 - Z_C^T (H - H T (T^T H T)^-1 T^T H) Z_C`` with
      ``H = G_CC^-1``.

    The pinned dof is zero in every potential, so a star that holds it
    drops its row and column, which is exact. Every chain goes through
    ``CrackSet.validate``; every small dense solve is checked against
    ``fem.RESIDUAL_RTOL``. ``NdSolver`` on the chain's configuration is the
    reference this path must match.
    """
    local = fem.element_stiffness(mesh, gamma0)
    # the background pins its first arc vertex (fem.Factorization); the
    # stars are found before it is factorized
    pin = mesh.gamma_vertices()[0]
    components = list(components)
    stars = [_star(mesh, local, pin, comp) for comp in components]
    union = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + [S for S, _ in stars]))
    N0, Z, G = _background(NdSolver(mesh, gamma0), basis, union)
    for comp, (S, E) in zip(components, stars):
        at = np.searchsorted(union, S)
        G_S, Z_S = G[np.ix_(at, at)], Z[at]
        if not len(S):
            corr = 0.0
        elif E is None:
            corr = _tied_correction(G_S, Z_S, np.ones((len(S), 1)))
        else:
            corr = Z_S.T @ _dense_solve(np.eye(len(S)) + E @ G_S, E @ Z_S)
        N = N0.entries - corr
        label = "ins:1" if comp.kind == geometry.INSULATING else "con:1"
        yield NdMatrix(0.5 * (N + N.T), basis, label, {comp.kind})


def _star(mesh, local, pin, comp):
    # (star vertices S without the pin, the update E on them; None for a tie)
    cracks = geometry.CrackSet([comp])
    cracks.validate(mesh)
    if comp.kind == geometry.CONDUCTING:
        return np.asarray(comp.chain, dtype=np.int64), None
    n_slit = len(comp.chain) - 2
    if not n_slit:
        # no interior vertex: nothing opens, the background's matrix
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    far, owner = fem.split_fans(mesh, cracks)
    # far is ascending: number its triangles and their vertices locally,
    # the new dofs after the old ones
    t = far // 3
    first = np.concatenate([[True], t[1:] != t[:-1]])
    tris, at = t[first], np.cumsum(first) - 1
    index = {}
    old = [index.setdefault(v, len(index)) for v in mesh.triangles[tris].ravel().tolist()]
    old = np.array(old).reshape(-1, 3)
    verts, m = np.array(list(index), dtype=np.int64), len(index)
    new = old.copy()
    new[at, far % 3] = m + owner
    # entry (i, j) of a far triangle moves when corner i or j does
    moved = new != old
    changed = (moved[:, :, None] | moved[:, None, :]).reshape(-1, 9)
    entries = local[tris].reshape(-1, 9)[changed]
    rows = [np.repeat(dofs, 3, axis=1)[changed] for dofs in (new, old)]
    cols = [np.tile(dofs, (1, 3))[changed] for dofs in (new, old)]
    dS = np.zeros((m + n_slit, m + n_slit))
    np.add.at(dS, (np.concatenate(rows), np.concatenate(cols)), np.concatenate([entries, -entries]))
    E = dS[:m, :m] - dS[:m, m:] @ _dense_solve(dS[m:, m:], dS[m:, :m])
    keep = verts != pin
    return verts[keep], E[keep][:, keep]


# which sides of the region bracket a peel tests: both, or only the one
# that detects its crack kind (excluded for insulating, frozen for conducting)
MODES = ("both", "insulating", "conducting")


def _region_label(kind, region):
    # the config label NdSolver gives a region configuration
    return "%s:%dpx" % (kind, len(region)) if len(region) else "none"


class RegionMaps:
    """ND matrices of the excluded and frozen configurations of regions R in R0.

    Upper peeling tests regions that shrink from ``R0`` one pixel at a time.
    A region changes the crack-free forward problem only on its own
    triangles and on how its boundary vertices C (vertices with triangles
    both inside and outside R) are closed, so both responses are exact
    low-rank updates. Every such C lies in the skeleton of R0: the vertices
    of R0 whose triangles lie in more than one pixel.

    * frozen, stateless: one factorization of the crack-free background
      gives ``N0``, its pinned potentials ``Z`` and its pinned Green's block
      ``G`` on the skeleton, solved M columns at a time like the basis
      currents, so no solve of the run is wider than the current solves.
      Tying every vertex of a 4-connected component of R to one value is
      the same as tying its boundary vertices alone, because the stiffness
      annihilates constants and an enclosed vertex then takes the tied
      value. So ``N = N0 - Z_C^T (H - H T (T^T H T)^-1 T^T H) Z_C`` with
      ``H = G_CC^-1`` and one indicator column of ``T`` per component, the
      ``chain_matrices`` conducting formula with several ties.
    * excluded, one folded block: in vertex space, with a placeholder
      identity row on every enclosed vertex, taking pixel p out of R adds
      p's element stiffness back and drops the placeholder of the vertices
      p releases. That update ``E`` lives on p's vertices S, and
      ``N(R - p) = N(R) - Z_S^T (I + E G_SS)^-1 E Z_S``, the
      ``chain_matrices`` insulating formula, where G and Z now belong to the excluded R. They
      are kept on C(R) only, since an enclosed vertex has the Green's row
      ``e_v`` and potential zero. The block starts from one factorization
      of the excluded R0 and its Green's columns on C(R0); ``peel`` folds an
      accepted removal into it.

    ``mode`` (one of ``MODES``) names the sides to build: "insulating"
    needs only the excluded response, "conducting" only the frozen one.
    The caller keeps every region admissible. Every small dense solve is
    checked against ``fem.RESIDUAL_RTOL``; ``NdSolver`` on the region's
    configuration is the reference this path must match.
    """

    def __init__(self, mesh, gamma0, basis, R0, mode="both"):
        if mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        self.mesh = mesh
        self.basis = basis
        self.region = R0
        self._start = R0.members
        self._grid = grid = R0.grid
        self._local = fem.element_stiffness(mesh, gamma0)
        # (vertex, pixel) for every pixel a vertex has a triangle in
        pairs = np.unique(
            np.column_stack([mesh.triangles.ravel(), np.repeat(grid.tri_pixel, 3)]), axis=0
        )
        in_R0 = np.zeros(len(mesh.vertices), dtype=bool)
        in_R0[mesh.triangles[R0.triangles()]] = True
        if in_R0[mesh.gamma_vertices()[0]]:
            raise ValueError("the start region holds the pinned arc vertex")
        multi = np.bincount(pairs[:, 0], minlength=len(mesh.vertices)) > 1
        self._skeleton = np.flatnonzero(multi & in_R0)
        on = np.isin(pairs[:, 0], self._skeleton)
        self._pair_vertex = np.searchsorted(self._skeleton, pairs[on, 0])
        self._pair_pixel = pairs[on, 1]
        self._frozen = self._excluded = self._last = None
        # each side is (NdMatrix, vertices, their pinned potentials, their
        # pinned Green's block); one factorization is alive at a time
        if mode != "insulating":
            N, Z, G = _background(NdSolver(mesh, gamma0), basis, self._skeleton)
            self._frozen = (N, self._skeleton, Z, G)
        if mode != "conducting":
            C = self._boundary(R0)
            N, Z, G = _background(NdSolver(mesh, gamma0, {"excluded": R0}), basis, C)
            self._excluded = (N, C, Z, G)

    def _boundary(self, region):
        # the region's boundary vertices C, ascending
        member = np.zeros(self._grid.n_pixels, dtype=bool)
        member[list(region.members)] = True
        inside = member[self._pair_pixel]
        n = len(self._skeleton)
        has_in = np.bincount(self._pair_vertex[inside], minlength=n) > 0
        has_out = np.bincount(self._pair_vertex[~inside], minlength=n) > 0
        return self._skeleton[has_in & has_out]

    def matrices(self, pixel=None):
        """(excluded, frozen) NdMatrix of the region, or of it without ``pixel``.

        A side that ``mode`` leaves out is None.
        """
        region = self.region if pixel is None else self._without(pixel)
        excluded = frozen = None
        if self._excluded is not None:
            excluded = self._excluded[0] if pixel is None else self._opened(pixel)[0]
        if self._frozen is not None:
            frozen = self.frozen(region)
        return excluded, frozen

    def frozen(self, region):
        """NdMatrix of ``region`` (any admissible subset of R0) frozen."""
        if not region.members <= self._start:
            raise ValueError("the region is not inside the start region")
        N0, skeleton, Z, G = self._frozen
        at = np.searchsorted(skeleton, self._boundary(region))
        N = N0.entries
        if len(at):
            # each boundary vertex's component; a vertex in two would need
            # the two components tied together, which a region never asks for
            label = region.components()
            roots = sorted(set(label.values()))
            comp = np.full(self._grid.n_pixels, -1)
            comp[list(label)] = np.searchsorted(roots, list(label.values()))
            inside = comp[self._pair_pixel] >= 0
            lo = np.full(len(self._skeleton), len(roots))
            hi = np.full(len(self._skeleton), -1)
            np.minimum.at(lo, self._pair_vertex[inside], comp[self._pair_pixel[inside]])
            np.maximum.at(hi, self._pair_vertex[inside], comp[self._pair_pixel[inside]])
            if np.any(lo[at] != hi[at]):
                raise ValueError("frozen components share a vertex")
            T = np.zeros((len(at), len(roots)))
            T[np.arange(len(at)), lo[at]] = 1.0
            N = N - _tied_correction(G[np.ix_(at, at)], Z[at], T)
        return NdMatrix(0.5 * (N + N.T), self.basis, _region_label("frozen", region), ())

    def _without(self, pixel):
        if pixel not in self.region.members:
            raise ValueError("pixel %d is not in the region" % pixel)
        return self.region.minus(pixel)

    def _opened(self, pixel):
        # the excluded matrix of the region without ``pixel`` and the pieces
        # of its update: S (p's vertices), their positions in the kept block
        # (-1 if enclosed), I + E G_SS, E and Z_S; kept until the region
        # changes, since an accepted test is folded next
        region = self._without(pixel)
        if self._last is not None and self._last[0] == pixel:
            return self._last[1]
        N, kept, Z, G = self._excluded
        tris = self._grid.pixel_tris(pixel)
        S, local = np.unique(self.mesh.triangles[tris], return_inverse=True)
        local = local.reshape(-1, 3)
        E = np.zeros((len(S), len(S)))
        np.add.at(E, (local[:, :, None], local[:, None, :]), self._local[tris])
        is_kept = np.isin(S, kept)
        boundary, enclosed = np.flatnonzero(is_kept), np.flatnonzero(~is_kept)
        at = np.full(len(S), -1)
        at[boundary] = np.searchsorted(kept, S[boundary])
        # the released vertices lose their placeholder rows
        E[enclosed, enclosed] -= 1.0
        G_SS = np.zeros((len(S), len(S)))
        G_SS[np.ix_(boundary, boundary)] = G[np.ix_(at[boundary], at[boundary])]
        G_SS[enclosed, enclosed] = 1.0
        Z_S = np.zeros((len(S), Z.shape[1]))
        Z_S[boundary] = Z[at[boundary]]
        A = np.eye(len(S)) + E @ G_SS
        N = N.entries - Z_S.T @ _dense_solve(A, E @ Z_S)
        N = NdMatrix(0.5 * (N + N.T), self.basis, _region_label("excluded", region), ())
        self._last = (pixel, (N, S, at, A, E, Z_S))
        return self._last[1]

    def peel(self, pixel):
        """Take ``pixel`` out of the region and fold it into the excluded block."""
        region = self._without(pixel)
        if self._excluded is not None:
            N, S, at, A, E, Z_S = self._opened(pixel)
            _, kept, Z, G = self._excluded
            # the kept block grows by the vertices p releases, whose Green's
            # rows are e_v and potentials zero, then is updated and cut back
            # to the new region's boundary
            released = S[at < 0]
            n = len(kept)
            U = np.concatenate([kept, released])
            G_U = np.zeros((len(U), len(U)))
            G_U[:n, :n] = G
            G_U[n:, n:] = np.eye(len(released))
            Z_U = np.vstack([Z, np.zeros((len(released), Z.shape[1]))])
            pos = at.copy()
            pos[at < 0] = n + np.arange(len(released))
            Y = G_U[:, pos]
            G_U -= Y @ _dense_solve(A, E @ Y.T)
            Z_U -= Y @ _dense_solve(A, E @ Z_S)
            new = self._boundary(region)
            order = np.argsort(U)
            keep = order[np.searchsorted(U[order], new)]
            G = G_U[np.ix_(keep, keep)]
            self._excluded = (N, new, Z_U[keep], 0.5 * (G + G.T))
        self.region = region
        self._last = None


def psd_test(A, tau):
    """Positive-semidefiniteness certificate: (verdict, smallest eigenvalue).

    ``A`` may be an NdMatrix or a square array; it must be symmetric up to
    a strict relative tolerance. The verdict is true iff the smallest
    eigenvalue is at least ``-tau``.
    """
    if isinstance(A, NdMatrix):
        A = A.entries
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    scale = max(1e-300, float(np.max(np.abs(A))))
    if np.max(np.abs(A - A.T)) > SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    min_eig = float(w[0])
    return (min_eig >= -tau, min_eig)


def default_tau(minuend):
    """Tolerance scaled to the spectral norm of the inequality's minuend."""
    if isinstance(minuend, NdMatrix):
        minuend = minuend.entries
    w = np.linalg.eigvalsh(0.5 * (minuend + minuend.T))
    return PSD_TAU_FACTOR * float(np.max(np.abs(w)))


def tau_for(minuend, tau):
    """The threshold a test uses: ``tau`` when given, else the default."""
    if tau is not None:
        return float(tau)
    return default_tau(minuend)


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
    return {
        "test": name,
        "passed": bool(passed),
        "min_eig": float(min_eig),
        "tau": float(t),
        "close_call": bool(abs(min_eig) < MARGIN_SCALE * t),
    }


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
    return NdMatrix(N.entries + E, N.basis, N.config_label + "+noise", N.kinds)
