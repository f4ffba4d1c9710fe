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
        w = Mg.sum(axis=1)
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
        w = Mg.sum(axis=1)
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
        weighted = fem.gamma_mass(self.mesh) @ basis.vectors
        traces = fem.trace_on_gamma(self.solve_current(basis.vectors))
        N = traces.T @ weighted
        return NdMatrix(0.5 * (N + N.T), basis, self.dm.config_label(), self.dm.cracks.kinds())


def nd_matrix(mesh, gamma0, config, basis):
    """Assemble the boundary-map matrix for one configuration.

    ``config`` is None, a CrackSet, or a dict with any of the keys
    ``cracks``, ``excluded``, ``frozen``.
    """
    return NdSolver(mesh, gamma0, config).nd_matrix(basis)


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
