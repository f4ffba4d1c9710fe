"""Crack reconstruction from boundary data.

Two methods, both driven by eigenvalue tests on differences of
current-to-voltage matrices. The outer method peels pixels off a large
test region while the data stays bracketed between the region's excluded
and frozen responses; what survives is an upper bound for the crack set.
The inner method probes short axis-aligned edge chains and keeps those
whose response is dominated by the data; their union marks the cracks
from inside.
"""

from __future__ import annotations

import numpy as np

from . import geometry, ndmap

MODES = ndmap.MODES


def _entries(m):
    return m.entries if isinstance(m, ndmap.NdMatrix) else np.asarray(m, dtype=float)


class UpperBoundResult:
    """Outcome of the peeling method.

    ``peel_trace`` records every test in order: the initial region check,
    then one entry per attempted removal with its certificates. A
    certificate holds the test name, the smallest eigenvalue of the
    difference, the threshold used, and the margin to that threshold.
    """

    def __init__(self, final_set, peel_trace, inequalities_used, initial_ok):
        self.final_set = final_set
        self.peel_trace = tuple(peel_trace)
        self.inequalities_used = inequalities_used
        self.initial_ok = bool(initial_ok)

    def decision_margins(self):
        """Smallest pass margin and weakest fail margin over the whole trace.

        Margins are min_eig + tau: nonnegative for a pass, negative for a
        fail. Values near zero mean the call was close at the given tau.
        """
        pass_m, fail_m = None, None
        for entry in self.peel_trace:
            for cert in entry["certificates"]:
                m = cert["min_eig"] + cert["tau"]
                if cert["passed"]:
                    pass_m = m if pass_m is None else min(pass_m, m)
                else:
                    fail_m = m if fail_m is None else max(fail_m, m)
        return {"closest_pass": pass_m, "closest_fail": fail_m}

    def to_json(self):
        return {
            "method": "upper_bound_peeling",
            "inequalities_used": self.inequalities_used,
            "initial_ok": self.initial_ok,
            "grid": self.final_set.grid.to_json(),
            "final_members": sorted(self.final_set.members),
            "decision_margins": self.decision_margins(),
            "peel_trace": [dict(e) for e in self.peel_trace],
        }


class InnerResult:
    """Outcome of the test-crack union method.

    ``accepted`` and ``rejected`` partition the candidate list; each entry
    keeps the chain's vertex ids and the eigenvalue certificate of its
    test.
    """

    def __init__(self, kind, accepted, rejected):
        self.kind = kind
        self.accepted = tuple(accepted)
        self.rejected = tuple(rejected)

    def accepted_chains(self):
        return [e["chain"] for e in self.accepted]

    def decision_margins(self):
        pass_m = min((e["min_eig"] + e["tau"] for e in self.accepted), default=None)
        fail_m = max((e["min_eig"] + e["tau"] for e in self.rejected), default=None)
        return {"closest_pass": pass_m, "closest_fail": fail_m}

    def to_json(self):
        return {
            "method": "inner_chain_union",
            "kind": self.kind,
            "accepted": [dict(e) for e in self.accepted],
            "rejected": [dict(e) for e in self.rejected],
            "decision_margins": self.decision_margins(),
        }


def upper_bound_tests(data, excluded, frozen, tau=None, data_tau=None):
    """Run the bracket tests of one region from its ND matrices.

    Returns (all_passed, certificates). The data must sit below the
    region's ``excluded`` response and above its ``frozen`` one; a side
    given as None is not tested, which is how the single-kind modes run only
    the side that detects their crack kind. The frozen side's default
    threshold depends only on the data, so a caller that tests many regions
    computes it once and passes it as ``data_tau``.
    """
    if excluded is None and frozen is None:
        raise ValueError("need the excluded or the frozen response")
    d = _entries(data)
    certs = []
    if excluded is not None:
        certs.append(
            ndmap.certificate("excluded_minus_data", excluded.entries - d, excluded, tau)
        )
    if frozen is not None:
        t = tau if data_tau is None else data_tau
        certs.append(ndmap.certificate("data_minus_frozen", d - frozen.entries, data, t))
    return all(c["passed"] for c in certs), certs


def reconstruct_upper(data, mesh, gamma0, basis, grid, mode="both", tau=None):
    """Shrink a pixel region around the cracks by greedy peeling.

    Starts from every interior pixel with a one-pixel margin to the
    boundary. Each pass scans the current region's boundary pixels in
    index order and removes the first one whose removal keeps all
    applicable tests passing; the loop stops when no removal survives.

    A removal that fails once is never retried: the excluded response of
    any smaller region is dominated by the current one and the frozen
    response dominates it, so both test differences only move further
    negative as peeling proceeds (the thresholds move the same way). The
    trace records each removal's certificates from its first attempt.

    Every region's matrices come from ``ndmap.RegionMaps``: one
    factorization of the crack-free background and one of the excluded
    start region for the whole call, then per tested region

    * frozen: ``N = N0 - Z_C^T (H - H T (T^T H T)^-1 T^T H) Z_C``, with C the
      region's boundary vertices, ``H = G_CC^-1`` and T tying each
      4-connected component;
    * excluded: ``N(R - p) = N(R) - Z_S^T (I + E G_SS)^-1 E Z_S``, with E the
      stiffness pixel p gives back on its vertices S, G and Z those of the
      excluded R; an accepted peel folds the update into G and Z.
    """
    maps = ndmap.RegionMaps(mesh, gamma0, basis, geometry.interior_pixel_set(grid), mode)
    data_tau = None if mode == "insulating" else ndmap.tau_for(data, tau)
    trace = []
    ok0, certs0 = upper_bound_tests(data, *maps.matrices(), tau=tau, data_tau=data_tau)
    trace.append(
        {"action": "initial", "pixels": len(maps.region), "passed": ok0, "certificates": certs0}
    )
    if not ok0:
        # data inconsistent with every crack set inside the start region
        return UpperBoundResult(maps.region, trace, mode, initial_ok=False)

    dead = set()
    while True:
        advanced = False
        for pixel in geometry.peel_candidates(maps.region):
            if pixel in dead:
                continue
            ok, certs = upper_bound_tests(
                data, *maps.matrices(pixel), tau=tau, data_tau=data_tau
            )
            trace.append(
                {"action": "peel", "pixel": int(pixel), "passed": ok, "certificates": certs}
            )
            if ok:
                maps.peel(pixel)
                advanced = True
                break
            dead.add(pixel)
        if not advanced:
            break
    return UpperBoundResult(maps.region, trace, mode, initial_ok=True)


def reconstruct_inner(data, mesh, gamma0, basis, candidates, kind, tau=None):
    """Classify candidate chains by whether the data dominates their response.

    For insulating data a chain is kept when data - N_chain stays positive
    semidefinite; for conducting data when N_chain - data does. The data
    must come from cracks of the single matching kind: an NdMatrix whose
    crack kinds are both, or the other one, is refused.

    Every N_chain comes from ``ndmap.chain_matrices``, a low-rank update of
    one factorized crack-free background on the chain's star (the formulas
    are in its docstring). A candidate that fails ``CrackSet.validate``
    raises. The insulating threshold depends only on the data, so it is
    computed once.
    """
    if kind not in geometry.KINDS:
        raise ValueError("kind must be one of %s" % (geometry.KINDS,))
    kinds = data.kinds if isinstance(data, ndmap.NdMatrix) else frozenset()
    if len(kinds) > 1:
        raise ValueError("data mixes crack kinds; inner tests need single-kind data")
    if kinds and kind not in kinds:
        raise ValueError("data kind does not match the requested test kind")
    d = _entries(data)
    comps = []
    for raw in candidates:
        comp = raw if isinstance(raw, geometry.CrackComponent) else geometry.CrackComponent(raw, kind)
        if comp.kind != kind:
            raise ValueError("candidate kind does not match the requested test kind")
        comps.append(comp)
    if kind == geometry.INSULATING:
        tau = ndmap.tau_for(data, tau)
    accepted, rejected = [], []
    for comp, n_chain in zip(comps, ndmap.chain_matrices(mesh, gamma0, basis, comps)):
        if kind == geometry.INSULATING:
            diff, minuend = d - n_chain.entries, data
        else:
            diff, minuend = n_chain.entries - d, n_chain
        cert = ndmap.certificate("chain", diff, minuend, tau)
        entry = {
            "chain": [int(v) for v in comp.chain],
            "min_eig": cert["min_eig"],
            "tau": cert["tau"],
            "close_call": cert["close_call"],
        }
        (accepted if cert["passed"] else rejected).append(entry)
    return InnerResult(kind, accepted, rejected)


def axis_chain_candidates(mesh, region, lengths=(1, 2, 4)):
    """Horizontal and vertical interior-edge chains inside a pixel region.

    Chains follow consecutive collinear mesh edges; every chain vertex must
    be an interior vertex lying in the closed union of the region's pixel
    squares. Returned as vertex-id tuples, deterministically ordered by
    orientation, line, offset, and length.
    """
    verts = mesh.vertices
    bvs = mesh.boundary_vertex_set()
    tol = 1e-9 * mesh.h_max()

    lines = {"h": {}, "v": {}}
    for a, b in mesh.edges().tolist():
        # an edge with no boundary vertex is an interior edge
        if a in bvs or b in bvs:
            continue
        dx = verts[b, 0] - verts[a, 0]
        dy = verts[b, 1] - verts[a, 1]
        if abs(dy) <= tol:
            axis, level, lo = "h", verts[a, 1], (a if dx > 0 else b)
            hi = b if lo == a else a
            sort_key = verts[lo, 0]
        elif abs(dx) <= tol:
            axis, level, lo = "v", verts[a, 0], (a if dy > 0 else b)
            hi = b if lo == a else a
            sort_key = verts[lo, 1]
        else:
            continue
        lines[axis].setdefault(round(float(level), 9), []).append((sort_key, lo, hi))

    grid = region.grid
    members = region.members

    def in_region(v):
        # closed squares: a vertex on a pixel edge belongs to both pixels
        fx = (verts[v, 0] - grid.origin[0]) / grid.h
        fy = (verts[v, 1] - grid.origin[1]) / grid.h
        eps = 1e-9
        for ix in {int(np.floor(fx - eps)), int(np.floor(fx + eps))}:
            for iy in {int(np.floor(fy - eps)), int(np.floor(fy + eps))}:
                if 0 <= ix < grid.nx and 0 <= iy < grid.ny and grid.index(ix, iy) in members:
                    return True
        return False

    out = []
    for axis in ("h", "v"):
        for level in sorted(lines[axis]):
            edges = sorted(lines[axis][level])
            # split into maximal runs of consecutive edges
            runs, cur = [], [edges[0]]
            for e in edges[1:]:
                if e[1] == cur[-1][2]:
                    cur.append(e)
                else:
                    runs.append(cur)
                    cur = [e]
            runs.append(cur)
            for run in runs:
                chain_all = [run[0][1]] + [e[2] for e in run]
                keep = [in_region(v) for v in chain_all]
                for k in lengths:
                    for s in range(len(chain_all) - k):
                        if all(keep[s : s + k + 1]):
                            out.append(tuple(chain_all[s : s + k + 1]))
    return out


def _crack_segments(cracks, mesh):
    # (start points, end points) of every crack edge
    seg_a, seg_b = [], []
    for comp in cracks.components:
        pts = mesh.vertices[np.asarray(comp.chain, dtype=np.int64)]
        seg_a.extend(pts[:-1])
        seg_b.extend(pts[1:])
    if seg_a:
        return np.asarray(seg_a), np.asarray(seg_b)
    return np.zeros((0, 2)), np.zeros((0, 2))


def score(result, ground_truth, grid):
    """Quality metrics of a reconstruction against the true crack set.

    Ground truth is rasterized as the pixels whose closed square meets a
    crack segment. Because a crack lying on a pixel edge meets both
    adjacent pixels while either one alone covers it, set agreement is
    judged with one pixel of slack: precision allows results within the
    1-dilated truth, and the reported recall counts truth pixels within
    the 1-dilated result ("recall_strict" counts exact membership).
    """
    truth = grid.crack_pixels(ground_truth)
    seg_a, seg_b = _crack_segments(ground_truth, grid.mesh)

    if isinstance(result, InnerResult):
        truth_edges = set(ground_truth.edge_ids(grid.mesh).tolist())
        covered = set()
        for chain in result.accepted_chains():
            covered.update(grid.mesh.edge_index(chain[:-1], chain[1:]).tolist())
        n_truth = len(truth_edges)
        return {
            "kind": result.kind,
            "n_candidates": len(result.accepted) + len(result.rejected),
            "n_accepted": len(result.accepted),
            "n_rejected": len(result.rejected),
            "edge_coverage": (len(truth_edges & covered) / n_truth) if n_truth else 1.0,
        }

    final = result.final_set
    members = final.members
    dil_truth = geometry.PixelSet(grid, truth).dilate(1).members if truth else frozenset()
    dil_final = final.dilate(1).members if members else frozenset()

    recall_strict = (len(members & truth) / len(truth)) if truth else 1.0
    recall = (len(truth & dil_final) / len(truth)) if truth else 1.0
    precision = (len(members & dil_truth) / len(members)) if members else 1.0

    h_res = h_truth = None
    if len(seg_a) and members:
        centers = np.asarray([grid.center(p) for p in sorted(members)])
        dists = geometry.point_segment_distance(centers, seg_a, seg_b)
        h_res = float(np.max(np.min(dists, axis=1)))
        samples = []
        for a, b in zip(seg_a, seg_b):
            n = max(2, int(np.ceil(np.linalg.norm(b - a) / (0.5 * grid.h))) + 1)
            t = np.linspace(0.0, 1.0, n)
            samples.append(a[None, :] + t[:, None] * (b - a)[None, :])
        samples = np.concatenate(samples)
        gaps = np.min(np.linalg.norm(samples[:, None, :] - centers[None, :, :], axis=2), axis=1)
        h_truth = float(np.max(gaps))

    return {
        "n_truth_pixels": len(truth),
        "n_final_pixels": len(members),
        "recall_strict": recall_strict,
        "recall": recall,
        "precision": precision,
        "hausdorff_result_to_truth": h_res,
        "hausdorff_truth_to_result": h_truth,
    }


def raster_csv(pixelset, path):
    """Write the pixel mask as a CSV grid of 0/1, row iy ascending."""
    np.savetxt(path, pixelset.mask().astype(int), fmt="%d", delimiter=",")
