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

import numpy as np
import scipy.linalg

from . import fem, geometry, ndmap

INVISIBLE_ATOL = 1e-12
RANGE_RTOL = 1e-10
DEFAULT_N_VALUES = tuple(10 ** k for k in range(7))


class SourceOperator:
    """Explicit matrix of the source-to-voltage map on a pixel region.

    Columns correspond to unit-norm element fields (one triangle, one
    coordinate direction, scaled by 1/sqrt(area)); rows correspond to the
    current-basis vectors. With orthonormal bases on both sides, the matrix
    transpose acts as the adjoint.
    """

    def __init__(self, mesh, basis, tris, matrix, config_label):
        self.mesh = mesh
        self.basis = basis
        self.tris = np.asarray(tris, dtype=np.int64)
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (basis.M, 2 * len(self.tris)):
            raise ValueError("matrix shape does not match basis and region")
        self.config_label = config_label
        self._root_areas = np.sqrt(mesh.tri_areas()[self.tris]) if len(self.tris) else np.zeros(0)

    def __repr__(self):
        return "SourceOperator(%s, %d triangles)" % (self.config_label, len(self.tris))

    def pack(self, values):
        """Field values on the region triangles -> orthonormal coefficients."""
        v = np.asarray(values, dtype=float)
        if v.shape != (len(self.tris), 2):
            raise ValueError("values must be one 2-vector per region triangle")
        return (v * self._root_areas[:, None]).reshape(-1)

    def unpack(self, coeffs):
        c = np.asarray(coeffs, dtype=float).reshape(len(self.tris), 2)
        return c / self._root_areas[:, None]

    def apply(self, F):
        """Current-basis coefficients of the voltage generated by ``F``."""
        if isinstance(F, fem.ElementVectorField):
            F = F.values[self.tris]
        return self.matrix @ self.pack(F)

    def adjoint(self, f_coeffs):
        """Gradient field on the region generated by the current ``f_coeffs``."""
        c = self.matrix.T @ np.asarray(f_coeffs, dtype=float)
        if not len(self.tris):
            return fem.ElementVectorField(self.mesh, np.zeros((0, 2)), [])
        return fem.ElementVectorField(self.mesh, self.unpack(c), self.tris)


class DifferenceOperator:
    """Difference of two source operators sharing a region and basis."""

    def __init__(self, op_a, op_b):
        if op_a.mesh is not op_b.mesh or op_a.basis is not op_b.basis:
            raise ValueError("operators must share a mesh and basis")
        if not np.array_equal(op_a.tris, op_b.tris):
            raise ValueError("operators must share a region")
        self.mesh = op_a.mesh
        self.basis = op_a.basis
        self.tris = op_a.tris
        self.matrix = op_a.matrix - op_b.matrix
        self.config_label = "%s minus %s" % (op_a.config_label, op_b.config_label)
        self._parts = (op_a, op_b)

    def adjoint(self, f_coeffs):
        a = self._parts[0].adjoint(f_coeffs)
        b = self._parts[1].adjoint(f_coeffs)
        return fem.ElementVectorField(self.mesh, a.values - b.values, self.tris)


def build_source_operator(mesh, gamma0, config, V, basis):
    """Assemble the source-to-voltage matrix for sources on region ``V``.

    Column 2k + d is the current-basis representation of the voltage of the
    canonical element source on triangle k of the region: direction d,
    scaled to unit L2 norm. All columns share one factorization, and the
    sources go through ``fem.solve_source`` in blocks of ``basis.M``
    columns, so a block is never wider than the current block of the
    configuration's ND matrix. An empty region gives a zero-column operator.
    """
    interior = geometry.interior_pixel_set(V.grid).members
    if V.members - interior:
        raise ValueError("source region must lie in the meshed interior")
    solver = ndmap.NdSolver(mesh, gamma0, config)
    tris = V.triangles()
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    src_tris = np.repeat(tris, 2)
    unit = np.tile(np.eye(2), (len(tris), 1)) / np.sqrt(mesh.tri_areas()[src_tris])[:, None]
    matrix = np.zeros((basis.M, 2 * len(tris)))
    for lo in range(0, len(src_tris), basis.M):
        cols = slice(lo, lo + basis.M)
        # keep only the traces: the block's potentials are freed before the
        # next block is solved
        traces = fem.trace_on_gamma(solver.solve_source((src_tris[cols], unit[cols])))
        matrix[:, cols] = weighted.T @ traces
    return SourceOperator(mesh, basis, tris, matrix, solver.dm.config_label())


def numerical_range(op, rtol=RANGE_RTOL):
    """Orthonormal basis of the operator's column space at the given cut."""
    matrix = getattr(op, "matrix", op)
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0))
    U, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    return U[:, :rank]


class Y0Pick:
    """Dominant voltage direction of a crack-difference operator."""

    def __init__(self, y0, sigma, visible, difference):
        self.y0 = y0
        self.sigma = sigma
        self.visible = visible
        self.difference = difference

    def __repr__(self):
        state = "visible" if self.visible else "invisible at this resolution"
        return "Y0Pick(sigma=%.3e, %s)" % (self.sigma, state)


def pick_y0(mesh, gamma0, cracks, V, basis, variant="insulating"):
    """Pick the target voltage for the localized-current construction.

    ``variant="insulating"`` differences the full-crack operator on ``V``
    against the conducting-only one (sensitive to the insulating cracks);
    ``variant="conducting"`` differences insulating-only against full
    (sensitive to the conducting cracks, with ``V`` covering those).

    Returns the dominant left singular vector with its singular value; a
    singular value below the visibility floor means the configuration is
    invisible at this resolution and no vector is returned.
    """
    if variant not in ("insulating", "conducting"):
        raise ValueError("variant must be 'insulating' or 'conducting'")
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    if variant == "insulating":
        op_a = build_source_operator(mesh, gamma0, cracks, V, basis)
        op_b = build_source_operator(mesh, gamma0, con, V, basis)
    else:
        op_a = build_source_operator(mesh, gamma0, ins, V, basis)
        op_b = build_source_operator(mesh, gamma0, cracks, V, basis)
    diff = DifferenceOperator(op_a, op_b)
    if diff.matrix.shape[1] == 0:
        return Y0Pick(None, 0.0, False, diff)
    U, s, _ = np.linalg.svd(diff.matrix, full_matrices=False)
    sigma = float(s[0])
    if sigma < INVISIBLE_ATOL:
        return Y0Pick(None, sigma, False, diff)
    return Y0Pick(U[:, 0].copy(), sigma, True, diff)


class LocSequence:
    """Regularized current sequence with its per-step localization metrics."""

    def __init__(self, y0, n_values, f_n, xi, a1_norms, a2_norms, metrics, degenerate):
        self.y0 = y0
        self.n_values = list(n_values)
        self.f_n = f_n
        self.xi = xi
        self.a1_norms = a1_norms
        self.a2_norms = a2_norms
        self.metrics = metrics
        self.degenerate = degenerate

    def __len__(self):
        return len(self.f_n)


def localized_sequence(A1, A2, y0, n_values=None, diff_pair=None):
    """Currents whose energy drains off A2's region while A1's response grows.

    For each regularization index n, solves (A2 A2* + I/n) xi = y0 in the
    current basis and normalizes f = xi / |A2* xi|^(3/2). Records |A1* f|
    and |A2* f|; when ``diff_pair`` (a high/low matrix pair) is given, the
    corresponding quadratic form at f is recorded as the difference-field
    energy.
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
    B1 = getattr(A1, "matrix", A1)
    B2 = getattr(A2, "matrix", A2)
    G2 = B2 @ B2.T
    eye = np.eye(len(G2))
    f_n, xi_list, a1_norms, a2_norms, metrics = [], [], [], [], []
    degenerate = False
    used = []
    for n in n_values:
        xi = scipy.linalg.solve(G2 + eye / n, y0, assume_a="pos")
        a2_xi = float(np.linalg.norm(B2.T @ xi))
        if a2_xi == 0.0:
            degenerate = True
            break
        f = xi / a2_xi ** 1.5
        a1 = float(np.linalg.norm(B1.T @ f))
        a2 = float(np.linalg.norm(B2.T @ f))
        entry = {"energy_V": a1 ** 2, "energy_Y": a2 ** 2}
        if diff_pair is not None:
            hi, lo = diff_pair
            hi = hi.entries if isinstance(hi, ndmap.NdMatrix) else hi
            lo = lo.entries if isinstance(lo, ndmap.NdMatrix) else lo
            entry["diff_energy"] = float(f @ ((hi - lo) @ f))
        used.append(n)
        f_n.append(f)
        xi_list.append(xi)
        a1_norms.append(a1)
        a2_norms.append(a2)
        metrics.append(entry)
    return LocSequence(y0, used, f_n, xi_list, a1_norms, a2_norms, metrics, degenerate)


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

    ``configs`` maps a label to a (high, low) matrix pair; the form is
    f^T (high - low) f per step. The trend ratio divides the last value by
    the first (clamped away from zero).
    """
    report = {"n_values": list(seq.n_values), "forms": {}, "trend": {}}
    for label, (hi, lo) in configs.items():
        hi = hi.entries if isinstance(hi, ndmap.NdMatrix) else np.asarray(hi)
        lo = lo.entries if isinstance(lo, ndmap.NdMatrix) else np.asarray(lo)
        diff = hi - lo
        vals = [float(f @ (diff @ f)) for f in seq.f_n]
        report["forms"][label] = vals
        first = vals[0] if vals else 0.0
        last = vals[-1] if vals else 0.0
        ratio = last / first if first != 0 else np.inf if last else 1.0
        report["trend"][label] = {"first": first, "last": last, "ratio": float(ratio)}
    return report


def run_localized_demo(
    mesh, gamma0, cracks, grid, V, W, basis, variant="insulating", n_values=None
):
    """End-to-end localized-current run on a two-crack scenario.

    ``V`` surrounds the insulating cracks and ``W`` the conducting ones.
    The far region for the regularization is the other region grown by one
    pixel ring (clipped to the meshed interior). Returns the sequence and
    the three-form trend report: the form localized at the cracks inside
    the near region should grow while the far-region forms shrink.
    """
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    interior = geometry.interior_pixel_set(grid)
    if variant == "insulating":
        near, far, bg = V, W, con
    elif variant == "conducting":
        near, far, bg = W, V, ins
    else:
        raise ValueError("variant must be 'insulating' or 'conducting'")
    pick = pick_y0(mesh, gamma0, cracks, near, basis, variant)
    if not pick.visible:
        raise ValueError(
            "configuration invisible at this resolution (sigma=%.3e)" % pick.sigma
        )
    Y = geometry.PixelSet(grid, far.dilate(1).members & interior.members)
    op_far = build_source_operator(mesh, gamma0, bg, Y, basis)
    N_empty = ndmap.nd_matrix(mesh, gamma0, None, basis)
    N_excl = ndmap.nd_matrix(mesh, gamma0, {"excluded": far}, basis)
    N_froz = ndmap.nd_matrix(mesh, gamma0, {"frozen": far}, basis)
    if variant == "insulating":
        N_hi = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
        N_lo = ndmap.nd_matrix(mesh, gamma0, con, basis)
    else:
        N_hi = ndmap.nd_matrix(mesh, gamma0, ins, basis)
        N_lo = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    seq = localized_sequence(
        pick.difference, op_far, pick.y0, n_values, diff_pair=(N_hi, N_lo)
    )
    forms = {
        "upper_far": (N_excl, N_empty),
        "lower_far": (N_empty, N_froz),
        "crack_near": (N_hi, N_lo),
    }
    report = blowup_metrics(seq, forms)
    report["variant"] = variant
    report["sigma"] = pick.sigma
    report["monotone"] = monotone_flags(seq)
    return seq, report


def sequence_to_csv(seq, report, path):
    """Write (n, |A1* f|, |A2* f|, the report's quadratic forms) rows."""
    labels = sorted(report["forms"]) if report else []
    cols = [seq.n_values, seq.a1_norms, seq.a2_norms]
    cols += [report["forms"][k] for k in labels]
    header = ",".join(["n", "a1_norm", "a2_norm"] + labels)
    arr = np.column_stack(cols) if cols[0] else np.zeros((0, 3 + len(labels)))
    np.savetxt(path, arr, fmt="%.17g", delimiter=",", header=header, comments="")
