"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test asserts exactly the published criterion (tolerances included) and
prints one PASS line with the measured numbers; tighter checks live in the
per-module test files.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from crackfind import fem, geometry, harness, locpot, ndmap, reconstruct
from crackfind.geometry import (
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    point_segment_distance,
)


def _line(n, text):
    print("criterion %d: PASS  %s" % (n, text))


@pytest.fixture(scope="module")
def pinned_mixed():
    """The reference mixed scenario: cracks in the last interior pixel row
    of an 8x8 grid at h = 1/32, tips on pixel boundaries."""
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 32)
    mesh, cracks = embed_crack(
        mesh, [(8 / 32, 26 / 32), (16 / 32, 26 / 32)], geometry.INSULATING
    )
    mesh, cracks = embed_crack(
        mesh, [(20 / 32, 26 / 32), (28 / 32, 26 / 32)], geometry.CONDUCTING, cracks=cracks
    )
    grid = PixelGrid(mesh, 8, 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 32)
    data = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    data_ins = ndmap.nd_matrix(mesh, gamma0, cracks.of_kind(geometry.INSULATING), basis)
    return mesh, cracks, grid, gamma0, basis, data, data_ins


def test_criterion_1_forward_convergence():
    t0 = time.perf_counter()
    vals, tris = [], []
    for h in (0.08, 0.04, 0.02):
        mesh = build_disk_mesh(1.0, h)
        gamma0 = fem.Conductivity(mesh, 1.0)
        order = mesh.gamma_vertices()
        theta = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
        basis = ndmap.CurrentBasis.from_vectors(mesh, np.cos(theta), orthonormalize=False)
        vals.append(ndmap.nd_matrix(mesh, gamma0, None, basis).entries[0, 0])
        tris.append(len(mesh.triangles))
    dt = time.perf_counter() - t0
    errs = [abs(v - np.pi) / np.pi for v in vals]
    assert tris[-1] >= 10_000
    assert errs[-1] <= 0.02
    assert errs[0] > errs[1] > errs[2]
    assert dt < 30.0
    _line(1, "cos mode energy %.6f vs pi, relerr %.4f%% at %d tris, monotone over "
             "3 levels, %.1fs" % (vals[-1], 100 * errs[-1], tris[-1], dt))


def test_criterion_2_monotonicity_chain_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_scen = 5
    for k in range(n_scen):
        def seg(lo_row, hi_row):
            # keep the crack inside the interior pixel ring (x in [4, 28]/32)
            y = int(rng.integers(lo_row, hi_row + 1))
            length = int(rng.integers(4, 9))
            x0 = int(rng.integers(4, 29 - length))
            return [[x0 / 32, y / 32], [(x0 + length) / 32, y / 32]]

        scn = harness.scenario_from_dict(
            {
                "name": "chain-%d" % k,
                "h": 1 / 32,
                "cracks": [
                    {"kind": "insulating", "polyline": seg(4, 14)},
                    {"kind": "conducting", "polyline": seg(18, 28)},
                ],
                "grid": [8, 8],
                "M": 32,
                "methods": ["chain"],
                "seed": k,
            }
        )
        report = harness.run_scenario(scn)
        chain = report.results["chain"]
        assert chain["passed"], (k, chain["tests"])
        assert len(chain["tests"]) == 6
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _line(2, "%d randomized scenarios, 6/6 psd tests each at tau=1e-8*scale, %.1fs"
          % (n_scen, dt))


def test_criterion_3_projection_identities(chain_setup):
    t0 = time.perf_counter()
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    mesh2 = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh2, cracks2 = embed_crack(mesh2, [(4 / 16, 6 / 16), (9 / 16, 6 / 16)], geometry.INSULATING)
    mesh2, cracks2 = embed_crack(
        mesh2, [(6 / 16, 11 / 16), (11 / 16, 11 / 16)], geometry.CONDUCTING, cracks=cracks2
    )
    basis2 = ndmap.build_basis(mesh2, 24)
    gamma02 = fem.Conductivity(mesh2, 1.0)

    pairs = 0
    worst = 0.0
    for m, c, g0, b in ((mesh, cracks, gamma0, basis), (mesh2, cracks2, gamma02, basis2)):
        for f_index in range(10):
            for which in ("P", "Q"):
                lhs, rhs = ndmap.projection_identity_check(m, g0, c, b, f_index, which)
                rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                worst = max(worst, rel)
                assert rel <= 1e-8, (which, f_index, lhs, rhs)
            pairs += 1
    dt = time.perf_counter() - t0
    assert pairs >= 20
    _line(3, "P and Q identities on %d (config, f) pairs, worst rel err %.2e, %.1fs"
          % (pairs, worst, dt))


def test_criterion_4_adjoint_identity(chain_setup):
    t0 = time.perf_counter()
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    areas = mesh.tri_areas()
    rng = np.random.default_rng(404)
    worst = 0.0
    for config in (None, cracks):
        solver = ndmap.NdSolver(mesh, gamma0, config)
        op = locpot.build_source_operator(solver, V, basis)
        for _ in range(100):
            Fv = rng.standard_normal((len(op.tris), 2))
            d = rng.standard_normal(basis.M)
            lhs = float(op.apply(Fv) @ d)
            u = solver.solve_current(basis.vectors @ d)
            gu = fem.gradient_on(u, op.tris)
            rhs = float(np.sum(areas[op.tris, None] * Fv * gu.values[op.tris]))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-10, (config, lhs, rhs)
    dt = time.perf_counter() - t0
    _line(4, "source-to-voltage adjoint on 100 pairs x 2 configs, worst rel err "
             "%.2e, %.1fs" % (worst, dt))


def test_criterion_5_localized_potential_trends():
    t0 = time.perf_counter()
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(mesh, [(0.25, 0.125), (0.5, 0.125)], geometry.INSULATING)
    mesh, cracks = embed_crack(
        mesh, [(0.5, 0.875), (0.75, 0.875)], geometry.CONDUCTING, cracks=cracks
    )
    grid = PixelGrid(mesh, 16, 16)
    V = PixelSet.from_rect(grid, 3, 1, 8, 2)
    W = PixelSet.from_rect(grid, 7, 13, 12, 14)
    gamma0 = fem.Conductivity(mesh, 0.01)
    basis = ndmap.build_basis(mesh, 40)
    ratios = {}
    runs = locpot.run_localized_demo(ndmap.Configurations(mesh, gamma0, basis, cracks, V, W))
    for variant, (seq, report) in runs.items():
        assert seq.n_values[0] == 1 and seq.n_values[-1] == 10**6
        t = report["trend"]
        assert t["upper_far"]["ratio"] <= 1e-2, t
        assert t["lower_far"]["ratio"] <= 1e-2, t
        assert t["crack_near"]["ratio"] >= 1e2, t
        flags = report["monotone"]
        assert flags["a1_nondecreasing_after_first_decade"]
        assert flags["a2_nonincreasing_after_first_decade"]
        ratios[variant] = t["crack_near"]["ratio"]
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _line(5, "far forms shrink >= 100x, crack form grows %.0fx (ins) / %.0fx (con), "
             "%.1fs" % (ratios["insulating"], ratios["conducting"], dt))


def test_criterion_6_upper_bound_roundtrip(pinned_mixed):
    t0 = time.perf_counter()
    mesh, cracks, grid, gamma0, basis, data, _ = pinned_mixed
    res = reconstruct.reconstruct_upper(data, mesh, gamma0, basis, grid)
    dt = time.perf_counter() - t0
    assert res.initial_ok
    s = reconstruct.score(res, cracks, grid)
    two_h = 2.0 * mesh.h_max()
    assert s["recall"] == 1.0  # against 1-pixel-dilated truth
    assert s["hausdorff_result_to_truth"] is not None
    assert s["hausdorff_result_to_truth"] <= two_h
    assert dt < 1800.0
    _line(6, "final set %s, dilated recall 1.0, hausdorff(final->D) %.4f <= 2h=%.4f, "
             "%.1fs" % (sorted(res.final_set.members), s["hausdorff_result_to_truth"],
                        two_h, dt))


def _inner_roundtrip(kind):
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(mesh, [(5 / 16, 9 / 16), (10 / 16, 9 / 16)], kind)
    grid = PixelGrid(mesh, 8, 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 24)
    data = ndmap.nd_matrix(mesh, gamma0, cracks, basis)
    region = geometry.interior_pixel_set(grid)
    lengths = (2, 4) if kind == geometry.INSULATING else (1, 2, 4)
    cands = reconstruct.axis_chain_candidates(mesh, region, lengths)
    res = reconstruct.reconstruct_inner(data, mesh, gamma0, basis, cands, kind)

    comp = cracks.components[0]
    pts = mesh.vertices[list(comp.chain)]
    segs = [(np.array([a]), np.array([b])) for a, b in zip(pts[:-1], pts[1:])]
    truth_edges = set(cracks.edge_ids(mesh).tolist())

    def min_dist(chain):
        return min(
            float(np.min(point_segment_distance(p, a, b)))
            for p in mesh.vertices[list(chain)]
            for a, b in segs
        )

    subs = [
        c for c in cands
        if all(mesh.edge_index(a, b) in truth_edges for a, b in zip(c[:-1], c[1:]))
    ]
    far = [c for c in cands if min_dist(c) >= 2.0 / 16]
    accepted = {tuple(e["chain"]) for e in res.accepted}
    rejected = {tuple(e["chain"]) for e in res.rejected}

    assert subs and all(tuple(c) in accepted for c in subs)
    n_far_rejected = sum(1 for c in far if tuple(c) in rejected)
    assert n_far_rejected >= 0.95 * len(far)
    for e in res.rejected:
        assert e["min_eig"] < -e["tau"]
    coverage = reconstruct.score(res, cracks, grid)["edge_coverage"]
    assert coverage >= 0.90
    return len(cands), len(subs), n_far_rejected, len(far), coverage


def test_criterion_7_inner_roundtrip():
    t0 = time.perf_counter()
    stats = {}
    for kind, name in ((geometry.INSULATING, "ins"), (geometry.CONDUCTING, "con")):
        stats[name] = _inner_roundtrip(kind)
    dt = time.perf_counter() - t0
    _line(7, "ins: %d/%d far rejected, %d subs accepted, coverage %.2f; "
             "con: %d/%d far rejected, %d subs accepted, coverage %.2f; %.1fs"
          % (stats["ins"][2], stats["ins"][3], stats["ins"][1], stats["ins"][4],
             stats["con"][2], stats["con"][3], stats["con"][1], stats["con"][4], dt))


def test_criterion_8_missing_tip_detected(pinned_mixed):
    mesh, cracks, grid, gamma0, basis, _, data_ins = pinned_mixed
    # the insulating crack spans pixel columns 2..3 and touches 1 and 4;
    # this region stops two pixel columns short of the right tip
    C = PixelSet.from_rect(grid, 1, 1, 2, 6)
    ok, certs = reconstruct.upper_bound_tests(
        data_ins, mesh, gamma0, basis, C, mode="insulating"
    )
    assert not ok
    cert = certs[0]
    assert cert["min_eig"] < -10.0 * cert["tau"]
    _line(8, "region missing the tip by 2 pixels fails the test: min_eig %.3e "
             "< -10*tau = %.3e" % (cert["min_eig"], -10.0 * cert["tau"]))


def test_criterion_9_reports_reproducible(tmp_path):
    t0 = time.perf_counter()
    base = {
        "name": "repro",
        "h": 1 / 32,
        "cracks": [
            {"kind": "insulating", "polyline": [[8 / 32, 26 / 32], [16 / 32, 26 / 32]]},
            {"kind": "conducting", "polyline": [[20 / 32, 22 / 32], [28 / 32, 22 / 32]]},
        ],
        "grid": [8, 8],
        "M": 32,
        "seed": 42,
    }
    noisy = harness.scenario_from_dict(
        {**base, "methods": [], "noise": 1e-3, "anti_crime": True}
    )
    full = harness.scenario_from_dict(
        {**base, "methods": ["upper", "chain"], "anti_crime": True}
    )
    for scn, tag in ((noisy, "noisy-data"), (full, "full-run")):
        a, b = tmp_path / (tag + "-a"), tmp_path / (tag + "-b")
        harness.run_scenario(scn, out_dir=str(a))
        harness.run_scenario(scn, out_dir=str(b))
        names = set(os.listdir(a))
        assert names == set(os.listdir(b))
        for name in sorted(names - {"timings.json"}):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (tag, name)
    dt = time.perf_counter() - t0
    _line(9, "noisy data matrices and full reports byte-identical across reruns "
             "(seed fixed), %.1fs" % dt)
