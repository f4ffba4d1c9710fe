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

import io

import numpy as np

from . import geometry, ndmap


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
    computes it once and passes it as ``data_tau``. Both differences and the
    spectrum behind the excluded side's default threshold come from one
    stacked ``eigvalsh`` (``ndmap.certificates``); each record equals
    ``ndmap.certificate`` of its side alone.
    """
    if excluded is None and frozen is None:
        raise ValueError("need the excluded or the frozen response")
    d = data.entries
    names, diffs, taus = [], [], []
    if excluded is not None:
        names.append("excluded_minus_data")
        diffs.append(excluded.entries - d)
        taus.append(tau)
    if frozen is not None:
        names.append("data_minus_frozen")
        diffs.append(d - frozen.entries)
        taus.append(ndmap.tau_for(data, tau if data_tau is None else data_tau))
    minuend = excluded.entries if excluded is not None and tau is None else None
    certs = ndmap.certificates(names, np.stack(diffs), taus, minuend)
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
    factorization, of the excluded start region, for the whole call in
    every mode, then exact low-rank updates of it per tested region. The
    excluded matrix is the update; the frozen one ties the updated block's
    boundary vertices, since a frozen region's triangles carry no energy.
    An accepted peel installs its update as the new block.
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


def reconstruct_inner(data, background, candidates, kind, tau=None):
    """Classify candidate chains by whether the data dominates their response.

    ``candidates`` are vertex chains, each tested as a crack of ``kind``.
    For insulating data a chain is kept when data - N_chain stays positive
    semidefinite; for conducting data when N_chain - data does. The data
    must come from cracks of the single matching kind: an NdMatrix whose
    crack kinds are both, or the other one, is refused.

    Every N_chain comes from ``ndmap.chain_matrices``, a low-rank update of
    the crack-free ``background`` (an ``ndmap.Background``) on the chain's
    star (the formulas are in its docstring). A candidate that fails
    ``geometry.check_chains`` raises before the background is read. ``chain_matrices`` yields the
    entries of the chains in order, a batch at a time as one ``(k, M, M)``
    stack, and each stack is tested as it comes, one stacked ``eigvalsh``
    per batch. The insulating threshold depends only on the data, so it is
    computed once; a conducting chain's default threshold comes from one
    stacked ``eigvalsh`` of its batch's chain matrices.
    """
    if kind not in geometry.KINDS:
        raise ValueError("kind must be one of %s" % (geometry.KINDS,))
    if len(data.kinds) > 1:
        raise ValueError("data mixes crack kinds; inner tests need single-kind data")
    if data.kinds and kind not in data.kinds:
        raise ValueError("data kind does not match the requested test kind")
    d = data.entries
    comps = [geometry.CrackComponent(chain, kind) for chain in candidates]
    if kind == geometry.INSULATING:
        tau = ndmap.tau_for(data, tau)
    accepted, rejected = [], []
    lo = 0
    for N in ndmap.chain_matrices(background, comps):
        if kind == geometry.INSULATING:
            certs = ndmap.certificates("chain", d - N, tau)
        else:
            taus = ndmap.default_taus(N) if tau is None else tau
            certs = ndmap.certificates("chain", N - d, taus)
        for comp, cert in zip(comps[lo:lo + len(N)], certs):
            entry = {
                "chain": list(comp.chain),
                "min_eig": cert["min_eig"],
                "tau": cert["tau"],
                "close_call": cert["close_call"],
            }
            (accepted if cert["passed"] else rejected).append(entry)
        lo += len(N)
    return InnerResult(kind, accepted, rejected)


def axis_chain_candidates(mesh, region, lengths):
    """Horizontal and vertical interior-edge chains inside a pixel region.

    A chain has one of the given ``lengths`` (counted in edges) and follows
    consecutive collinear mesh edges; every chain vertex must be an interior
    vertex lying in the closed union of the region's pixel squares. Returned
    as vertex-id tuples, deterministically ordered by orientation, line,
    run of consecutive edges, length and offset.
    """
    verts = mesh.vertices
    tol = 1e-9 * mesh.h_max()

    # interior axis edges: axis 0 runs along x (horizontal), 1 along y; an
    # edge points from its lower end ``lo`` to ``hi`` and lies on the line
    # through its first vertex, at a level rounded to 9 digits
    e = mesh.edges()
    d = verts[e[:, 1]] - verts[e[:, 0]]
    flat = np.abs(d) <= tol
    axis = np.where(flat[:, 1], 0, 1)
    keep = (flat[:, 0] | flat[:, 1]) & ~mesh.boundary_mask()[e].any(axis=1)
    e, d, axis = e[keep], d[keep], axis[keep]
    level = np.round(verts[e[:, 0], 1 - axis], 9)
    forward = d[np.arange(len(e)), axis] > 0
    lo = np.where(forward, e[:, 0], e[:, 1])
    hi = np.where(forward, e[:, 1], e[:, 0])
    order = np.lexsort((hi, lo, verts[lo, axis], level, axis))
    axis, level, lo, hi = axis[order], level[order], lo[order], hi[order]
    # maximal runs of consecutive edges along one line
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (axis[1:] != axis[:-1]) | (level[1:] != level[:-1]) | (lo[1:] != hi[:-1])

    in_region = region.covers(verts)

    # windows of k consecutive edges inside one run, from edge s on, whose
    # vertices all lie in the region, ordered by run, length and s
    run = np.cumsum(new_run)
    chains, keys = [], [np.zeros((0, 3), dtype=int)]
    for j, k in enumerate(lengths):
        s = np.arange(len(order) - k + 1)
        window = s[:, None] + np.arange(k)
        ok = (run[s] == run[s + k - 1]) & in_region[lo[s]] & in_region[hi[window]].all(axis=1)
        s, window = s[ok], window[ok]
        chains += np.column_stack([lo[s], hi[window]]).tolist()
        keys.append(np.column_stack([run[s], np.full(len(s), j), s]))
    keys = np.concatenate(keys).T
    return [tuple(chains[i]) for i in np.lexsort(keys[::-1])]


def score(result, ground_truth, grid):
    """Quality metrics of a reconstruction against the true crack set.

    Ground truth is rasterized as the pixels whose closed square meets a
    crack segment. Because a crack lying on a pixel edge meets both
    adjacent pixels while either one alone covers it, set agreement is
    judged with one pixel of slack: precision allows results within the
    1-dilated truth, and the reported recall counts truth pixels within
    the 1-dilated result ("recall_strict" counts exact membership).
    "crack_coverage" is the share of crack length inside the closed union
    of the final pixels: 201 samples on each crack edge, each edge weighted
    by its length. An inner result's "edge_coverage" is the share of crack
    edges its accepted chains cover (recall), and "edge_precision" the
    share of their distinct edges on a crack, 1.0 if none is accepted.
    """
    truth = grid.crack_pixels(ground_truth)
    seg_a, seg_b = ground_truth.segments(grid.mesh)

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
            "edge_precision": (len(truth_edges & covered) / len(covered)) if covered else 1.0,
        }

    final = result.final_set
    members = final.members
    dil_truth = geometry.PixelSet(grid, truth).dilate().members if truth else frozenset()
    dil_final = final.dilate().members if members else frozenset()

    recall_strict = (len(members & truth) / len(truth)) if truth else 1.0
    recall = (len(truth & dil_final) / len(truth)) if truth else 1.0
    precision = (len(members & dil_truth) / len(members)) if members else 1.0
    coverage = 1.0
    if len(seg_a):
        t = np.linspace(0.0, 1.0, 201)[:, None]
        samples = (seg_a[:, None] + t * (seg_b - seg_a)[:, None]).reshape(-1, 2)
        inside = final.covers(samples).reshape(len(seg_a), -1).mean(axis=1)
        length = np.linalg.norm(seg_b - seg_a, axis=1)
        coverage = float(inside @ length / length.sum())

    h_res = h_truth = None
    if len(seg_a) and members:
        ix, iy = grid.coords(np.array(sorted(members)))
        corner = grid.origin + np.column_stack([ix, iy]) * grid.h
        centers = 0.5 * (corner + (corner + grid.h))
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
        "crack_coverage": coverage,
        "hausdorff_result_to_truth": h_res,
        "hausdorff_truth_to_result": h_truth,
    }


def raster_csv(pixelset):
    """CSV text of the pixel mask as a grid of 0/1, row iy ascending."""
    out = io.StringIO()
    np.savetxt(out, pixelset.mask().astype(int), fmt="%d", delimiter=",")
    return out.getvalue()
