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


def build_source_operator(solver, V, basis):
    """Assemble the source-to-voltage matrix for sources on region ``V``.

    ``solver`` is the configuration's ``ndmap.NdSolver``. Column 2k + d is
    the current-basis representation of the voltage of the canonical
    element source on triangle k of the region: direction d, scaled to unit
    L2 norm. All columns share the solver's factorization, and the sources
    go through ``fem.solve_source`` in blocks of ``basis.M`` columns, so a
    block is never wider than the current block of the configuration's ND
    matrix. An empty region gives a zero-column operator.
    """
    interior = geometry.interior_pixel_set(V.grid).members
    if V.members - interior:
        raise ValueError("source region must lie in the meshed interior")
    mesh = solver.mesh
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

    ``A1`` and ``A2`` are source operators or their matrices. For each
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
    B1 = getattr(A1, "matrix", A1)
    B2 = getattr(A2, "matrix", A2)
    G2 = B2 @ B2.T
    eye = np.eye(len(G2))
    f_n, a1_norms, a2_norms = [], [], []
    degenerate = False
    used = []
    for n in n_values:
        xi = scipy.linalg.solve(G2 + eye / n, y0, assume_a="pos")
        a2_xi = float(np.linalg.norm(B2.T @ xi))
        if a2_xi == 0.0:
            degenerate = True
            break
        f = xi / a2_xi ** 1.5
        used.append(n)
        f_n.append(f)
        a1_norms.append(float(np.linalg.norm(B1.T @ f)))
        a2_norms.append(float(np.linalg.norm(B2.T @ f)))
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


# variant: (near region, far region, high and low crack configuration,
# background seen from the far region). High minus low is the sought kind
# of crack; the background is the other kind alone.
VARIANTS = {
    "insulating": ("V", "W", "all", "conducting", "conducting"),
    "conducting": ("W", "V", "insulating", "all", "insulating"),
}


def run_localized_demo(table, n_values=None):
    """End-to-end localized-current runs of both variants on a two-crack run.

    ``table`` is the run's ``ndmap.Configurations``. Each variant in
    ``VARIANTS`` picks its target voltage from the source operators of its
    high and low configurations on the near region, and regularizes against
    the background's operator on the far region grown by one pixel ring
    (clipped to the meshed interior). The source operators come from the
    table's solvers, one alive at a time; every ND matrix comes from the
    table, so configurations another method of the run has solved are not
    solved again. Returns ``{variant: (sequence, report)}``; a report's
    form localized at the near cracks should grow while its far-region
    forms shrink.
    """
    grid = table.V.grid
    interior = geometry.interior_pixel_set(grid).members
    pixels = {"V": table.V, "W": table.W}
    for key in ("V", "W"):
        pixels["grown " + key] = geometry.PixelSet(grid, pixels[key].dilate(1).members & interior)
    # the source regions each crack configuration feeds
    feeds = {}
    for near, far, hi, lo, bg in VARIANTS.values():
        for name, region in ((hi, near), (lo, near), (bg, "grown " + far)):
            feeds.setdefault(name, []).append(region)

    ops = {}
    for name, regions in feeds.items():
        solver = table.solver(name)
        for region in regions:
            ops[name, region] = build_source_operator(solver, pixels[region], table.basis)
        del solver  # one factorization alive at a time

    out = {}
    for variant, (near, far, hi, lo, bg) in VARIANTS.items():
        pick = pick_y0(ops[hi, near], ops[lo, near])
        if not pick.visible:
            raise ValueError(
                "%s cracks invisible at this resolution (sigma=%.3e)" % (variant, pick.sigma)
            )
        seq = localized_sequence(pick.difference, ops[bg, "grown " + far], pick.y0, n_values)
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


def sequence_to_csv(seq, report, path):
    """Write (n, |A1* f|, |A2* f|, the report's quadratic forms) rows."""
    labels = sorted(report["forms"]) if report else []
    cols = [seq.n_values, seq.a1_norms, seq.a2_norms]
    cols += [report["forms"][k] for k in labels]
    header = ",".join(["n", "a1_norm", "a2_norm"] + labels)
    arr = np.column_stack(cols) if cols[0] else np.zeros((0, 3 + len(labels)))
    np.savetxt(path, arr, fmt="%.17g", delimiter=",", header=header, comments="")
