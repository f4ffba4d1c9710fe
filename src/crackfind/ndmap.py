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
        w = fem.arc_weights(mesh)
        means = np.abs(w @ v) / w.sum()
        if np.max(means) > 1e-10:
            raise ValueError("basis vectors must be mean-free on the arc")
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


# background Green's columns solved per block in ChainMaps; bounds the
# dense n x k block that one batch of neighbouring chains needs
GREEN_COLUMNS = 128


def _dense_solve(A, B):
    # small dense system with the relative-residual guard of the sparse solves
    X = np.linalg.solve(A, B)
    fem._check_residual(A, X, B)
    return X


class ChainMaps:
    """ND matrices of single test chains as low-rank updates of one background.

    A chain changes the crack-free forward problem only on its star, the
    triangles at its slit or tied vertices, so its matrix is the background
    matrix ``N0`` minus a small dense correction (static condensation plus
    Woodbury). The background gets one ``NdSolver``: one factorization and
    one block solve, which give ``N0`` and the pinned potentials ``Z`` (one
    column per basis current). ``G`` is the background Green's function of
    the pinned stiffness; only its blocks on stars are formed, from columns
    solved in batches of neighbouring chains.

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

    def __init__(self, mesh, gamma0, basis):
        self.mesh = mesh
        self.basis = basis
        background = NdSolver(mesh, gamma0)
        potentials = background.solve_current(basis.vectors)
        self.background = background._nd_matrix(potentials, basis)
        self._fact = background.fact
        self._K = background.K
        pin = self._fact.pin
        self._Z = potentials.values - potentials.values[pin]
        self._local = fem.element_stiffness(mesh, gamma0)

    def nd_matrices(self, components):
        """One NdMatrix per single-chain configuration, in the given order."""
        batch, columns = [], set()
        for comp in components:
            star = self._star(comp)
            batch.append((comp, star))
            columns.update(star[0].tolist())
            if len(columns) >= GREEN_COLUMNS:
                yield from self._updated(batch, columns)
                batch, columns = [], set()
        yield from self._updated(batch, columns)

    def _star(self, comp):
        # (star dofs S without the pin, the update E on them; None for a tie)
        cracks = geometry.CrackSet([comp])
        cracks.validate(self.mesh)
        if comp.kind == geometry.CONDUCTING:
            return np.asarray(comp.chain, dtype=np.int64), None
        n_slit = len(comp.chain) - 2
        if not n_slit:
            # no interior vertex: nothing opens, the background's matrix
            return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
        far, owner = fem.split_fans(self.mesh, cracks)
        # far is ascending: number its triangles and their vertices locally,
        # the new dofs after the old ones
        t = far // 3
        first = np.concatenate([[True], t[1:] != t[:-1]])
        tris, at = t[first], np.cumsum(first) - 1
        index = {}
        old = [index.setdefault(v, len(index)) for v in self.mesh.triangles[tris].ravel().tolist()]
        old = np.array(old).reshape(-1, 3)
        verts, m = np.array(list(index), dtype=np.int64), len(index)
        new = old.copy()
        new[at, far % 3] = m + owner
        # entry (i, j) of a far triangle moves when corner i or j does
        moved = new != old
        changed = (moved[:, :, None] | moved[:, None, :]).reshape(-1, 9)
        entries = self._local[tris].reshape(-1, 9)[changed]
        rows = [np.repeat(dofs, 3, axis=1)[changed] for dofs in (new, old)]
        cols = [np.tile(dofs, (1, 3))[changed] for dofs in (new, old)]
        dS = np.zeros((m + n_slit, m + n_slit))
        np.add.at(dS, (np.concatenate(rows), np.concatenate(cols)), np.concatenate([entries, -entries]))
        E = dS[:m, :m] - dS[:m, m:] @ _dense_solve(dS[m:, m:], dS[m:, :m])
        keep = verts != self._fact.pin
        return verts[keep], E[keep][:, keep]

    def _updated(self, batch, columns):
        if not batch:
            return
        columns = np.array(sorted(columns), dtype=np.int64)
        green = self._green(columns)
        for comp, (verts, E) in batch:
            at = np.searchsorted(columns, verts)
            G, Z = green[at][:, at], self._Z[verts]
            if not len(verts):
                corr = 0.0
            elif E is None:
                HZ = _dense_solve(G, np.column_stack([Z, np.ones(len(verts))]))
                HZ, H1 = HZ[:, :-1], HZ[:, -1]
                t = Z.T @ H1
                corr = Z.T @ HZ - np.outer(t, t) / H1.sum()
            else:
                corr = Z.T @ _dense_solve(np.eye(len(verts)) + E @ G, E @ Z)
            N = self.background.entries - corr
            label = "ins:1" if comp.kind == geometry.INSULATING else "con:1"
            yield NdMatrix(0.5 * (N + N.T), self.basis, label, {comp.kind})

    def _green(self, verts):
        # rows ``verts`` of the pinned Green's columns of ``verts``: the load
        # e_v - e_pin is balanced, so the residual holds on every row
        if not len(verts):
            return np.zeros((0, 0))
        pin = self._fact.pin
        b = np.vstack([np.eye(len(verts)), -np.ones((1, len(verts)))])
        rows = np.append(verts, pin)
        x = self._fact.solve(b, rows)
        fem._check_residual(self._K, x, b, rows)
        return x[verts]


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


def default_tau(minuend, factor=PSD_TAU_FACTOR):
    """Tolerance scaled to the spectral norm of the inequality's minuend."""
    if isinstance(minuend, NdMatrix):
        minuend = minuend.entries
    w = np.linalg.eigvalsh(0.5 * (minuend + minuend.T))
    return factor * float(np.max(np.abs(w)))


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
    f = basis.vectors[:, f_index]
    mixed = NdSolver(mesh, gamma0, cracks)
    if which == "P":
        other = NdSolver(mesh, gamma0, cracks.of_kind(geometry.CONDUCTING))
        big, small = mixed, other
        lhs = (
            mixed.nd_matrix(basis).entries[f_index, f_index]
            - other.nd_matrix(basis).entries[f_index, f_index]
        )
    else:
        other = NdSolver(mesh, gamma0, cracks.of_kind(geometry.INSULATING))
        big, small = other, mixed
        lhs = (
            other.nd_matrix(basis).entries[f_index, f_index]
            - mixed.nd_matrix(basis).entries[f_index, f_index]
        )
    u_big = big.solve_current(f)
    u_small = small.solve_current(f)
    emb = fem.embed_field(u_small, big.dm)
    diff = fem.Field(u_big.values - emb.values, big.dm)
    rhs = fem.energy(big.K, diff, diff)
    return float(lhs), float(rhs)


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
