"""Oracles of the acceptance criteria that only the tests use.

They recompute a quantity the program gets another way: a quadratic-form
difference as a projection energy, a field in a larger space, and the
column space of a source operator.
"""

import numpy as np

from crackfind import fem, geometry, ndmap


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
    mixed = ndmap.NdSolver(mesh, gamma0, cracks)
    if which == "P":
        other = ndmap.NdSolver(mesh, gamma0, cracks.of_kind(geometry.CONDUCTING))
        big, small = mixed, other
        lhs = (
            mixed.nd_matrix(basis).entries[f_index, f_index]
            - other.nd_matrix(basis).entries[f_index, f_index]
        )
    else:
        other = ndmap.NdSolver(mesh, gamma0, cracks.of_kind(geometry.INSULATING))
        big, small = other, mixed
        lhs = (
            other.nd_matrix(basis).entries[f_index, f_index]
            - mixed.nd_matrix(basis).entries[f_index, f_index]
        )
    u_big = big.solve_current(f)
    u_small = small.solve_current(f)
    emb = embed_field(u_small, big.dm)
    diff = fem.Field(u_big.values - emb.values, big.dm)
    rhs = fem.energy(big.K, diff, diff)
    return float(lhs), float(rhs)


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


def numerical_range(op, rtol=1e-10):
    """Orthonormal basis of the operator's column space at the given cut."""
    matrix = getattr(op, "matrix", op)
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0))
    U, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    return U[:, :rank]
