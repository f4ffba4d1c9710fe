import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crackfind import fem, geometry, harness, ndmap, reconstruct
from crackfind.geometry import (
    CrackComponent,
    CrackSet,
    PixelGrid,
    PixelSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    interior_pixel_set,
    mark_gamma,
    pixelset_is_admissible,
)
import oracles
from oracles import axis_chain_candidates_loop, split_fans_scan


def vid(mesh, x, y):
    d = np.linalg.norm(mesh.vertices - np.array([x, y]), axis=1)
    v = int(np.argmin(d))
    assert d[v] < 1e-12
    return v


@pytest.fixture(scope="module")
def setup():
    """Unit square with one insulating and one conducting crack in the last
    interior pixel row, tips on pixel boundaries. Pixels fully crossed by a
    crack block their peel gate, so the peel recovers them exactly; the
    tip-touched neighbors are covered by the one-pixel scoring slack."""
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(
        mesh, [(2 / 16, 13 / 16), (6 / 16, 13 / 16)], geometry.INSULATING
    )
    mesh, cracks = embed_crack(
        mesh, [(10 / 16, 13 / 16), (14 / 16, 13 / 16)], geometry.CONDUCTING, cracks=cracks
    )
    grid = PixelGrid(mesh, 8, 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 20)
    data = {
        key: ndmap.nd_matrix(oracles.factorize(mesh, gamma0, config), basis)
        for key, config in (
            ("mixed", cracks),
            ("ins", cracks.of_kind(geometry.INSULATING)),
            ("con", cracks.of_kind(geometry.CONDUCTING)),
            ("empty", None),
        )
    }
    return mesh, cracks, grid, gamma0, basis, data


def core_pixels(cracks, grid):
    """Pixels holding a crack edge midpoint: inside D beyond any doubt."""
    out = set()
    for comp in cracks.components:
        pts = grid.mesh.vertices[list(comp.chain)]
        for a, b in zip(pts[:-1], pts[1:]):
            m = 0.5 * (a + b)
            ix = int((m[0] - grid.origin[0]) / grid.h)
            iy = int((m[1] - grid.origin[1]) / grid.h)
            out.add(grid.index(ix, iy))
    return out


def test_upper_no_cracks_peels_to_empty(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    res = reconstruct.reconstruct_upper(data["empty"], mesh, gamma0, basis, grid)
    assert res.initial_ok
    assert len(res.final_set) == 0
    peels = [e for e in res.peel_trace if e["action"] == "peel"]
    assert all(e["passed"] for e in peels)
    assert len(peels) == len(interior_pixel_set(grid))


def test_upper_mixed_roundtrip(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    res = reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid)
    assert res.initial_ok
    assert res.inequalities_used == "both"
    assert pixelset_is_admissible(res.final_set)

    core = core_pixels(cracks, grid)
    assert res.final_set.members == core

    # every intermediate accepted state still contains the core pixels
    state = set(interior_pixel_set(grid).members)
    for e in res.peel_trace:
        if e["action"] == "peel" and e["passed"]:
            state.discard(e["pixel"])
            assert core <= state

    s = reconstruct.score(res, cracks, grid)
    assert s["recall"] == 1.0
    assert s["precision"] == 1.0
    assert s["hausdorff_result_to_truth"] <= 1e-9
    assert s["hausdorff_truth_to_result"] <= grid.h + 1e-12


def test_upper_deterministic_trace(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    a = reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid)
    b = reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid)
    assert a.to_json() == b.to_json()


def test_upper_rejection_certificates_reverifiable(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    res = reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid)
    rejected = [e for e in res.peel_trace if e["action"] == "peel" and not e["passed"]]
    assert rejected
    for e in rejected:
        assert any(c["min_eig"] < -c["tau"] for c in e["certificates"] if not c["passed"])

    # replay the peel sequence up to the first rejection and recompute it
    state = set(interior_pixel_set(grid).members)
    for e in res.peel_trace:
        if e["action"] != "peel":
            continue
        if not e["passed"]:
            cand = PixelSet(grid, state - {e["pixel"]})
            ok, certs = reconstruct.upper_bound_tests(
                data["mixed"],
                ndmap.nd_matrix(fem.factorize(mesh, gamma0, excluded=cand), basis),
                ndmap.nd_matrix(oracles.factorize(mesh, gamma0, frozen=cand), basis),
            )
            assert not ok
            for fresh, old in zip(certs, e["certificates"]):
                assert fresh["min_eig"] == pytest.approx(old["min_eig"], abs=1e-13)
            break
        state.discard(e["pixel"])


def test_upper_single_kind_modes(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    res_i = reconstruct.reconstruct_upper(
        data["ins"], mesh, gamma0, basis, grid, mode="insulating"
    )
    res_c = reconstruct.reconstruct_upper(
        data["con"], mesh, gamma0, basis, grid, mode="conducting"
    )
    assert res_i.final_set.members == core_pixels(cracks.of_kind(geometry.INSULATING), grid)
    assert res_c.final_set.members == core_pixels(cracks.of_kind(geometry.CONDUCTING), grid)
    for res, name in ((res_i, "excluded_minus_data"), (res_c, "data_minus_frozen")):
        for e in res.peel_trace:
            assert len(e["certificates"]) == 1
            assert e["certificates"][0]["test"] == name


def test_upper_initial_failure_reported():
    # crack inside the one-pixel margin, outside the start region
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(
        mesh, [(5 / 16, 1 / 16), (9 / 16, 1 / 16)], geometry.INSULATING
    )
    grid = PixelGrid(mesh, 8, 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 16)
    data = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, cracks), basis)
    res = reconstruct.reconstruct_upper(data, mesh, gamma0, basis, grid)
    assert not res.initial_ok
    assert res.final_set == interior_pixel_set(grid)
    assert len(res.peel_trace) == 1
    assert res.peel_trace[0]["action"] == "initial"


def test_upper_mode_validation(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    with pytest.raises(ValueError):
        reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid, mode="all")


def sub_chains(chain, lengths):
    out = []
    for k in lengths:
        for s in range(len(chain) - k):
            out.append(tuple(chain[s : s + k + 1]))
    return out


def far_chains(mesh, y, xs, k):
    pts = [vid(mesh, x, y) for x in xs]
    return sub_chains(tuple(pts), [k])


def test_inner_insulating_subchains_accepted_far_rejected(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    d_chain = cracks.of_kind(geometry.INSULATING).components[0].chain
    subs = sub_chains(d_chain, [2, 4])
    far = far_chains(mesh, 9 / 16, [2 ** -4 * k for k in range(4, 12)], 2)
    res = reconstruct.reconstruct_inner(
        data["ins"], ndmap.Background(mesh, gamma0, basis), subs + far, geometry.INSULATING
    )
    got_accepted = {tuple(e["chain"]) for e in res.accepted}
    got_rejected = {tuple(e["chain"]) for e in res.rejected}
    assert got_accepted == set(subs)
    assert got_rejected == set(far)
    assert got_accepted.isdisjoint(got_rejected)
    for e in res.rejected:
        assert e["min_eig"] < -e["tau"]
    exact = [e for e in res.accepted if tuple(e["chain"]) == tuple(d_chain)]
    assert abs(exact[0]["min_eig"]) < 1e-12

    s = reconstruct.score(res, cracks.of_kind(geometry.INSULATING), grid)
    assert s["edge_coverage"] == 1.0
    assert s["n_accepted"] == len(subs)


def test_inner_conducting_subchains_accepted_far_rejected(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    d_chain = cracks.of_kind(geometry.CONDUCTING).components[0].chain
    subs = sub_chains(d_chain, [1, 2])
    far = far_chains(mesh, 7 / 16, [2 ** -4 * k for k in range(4, 12)], 1)
    res = reconstruct.reconstruct_inner(
        data["con"], ndmap.Background(mesh, gamma0, basis), subs + far, geometry.CONDUCTING
    )
    assert {tuple(e["chain"]) for e in res.accepted} == set(subs)
    assert {tuple(e["chain"]) for e in res.rejected} == set(far)
    for e in res.rejected:
        assert e["min_eig"] < -e["tau"]


@settings(max_examples=40, deadline=None)
@given(start=st.integers(0, 7), k=st.integers(1, 4), kind_ins=st.booleans())
def test_inner_random_subchain_soundness(setup, start, k, kind_ins):
    mesh, cracks, grid, gamma0, basis, data = setup
    kind = geometry.INSULATING if kind_ins else geometry.CONDUCTING
    d = data["ins" if kind_ins else "con"]
    chain = cracks.of_kind(kind).components[0].chain
    if kind_ins and k < 2:
        k = 2
    start = min(start, len(chain) - 1 - k)
    sub = chain[start : start + k + 1]
    res = reconstruct.reconstruct_inner(d, ndmap.Background(mesh, gamma0, basis), [sub], kind)
    assert len(res.accepted) == 1
    assert res.accepted[0]["min_eig"] >= -res.accepted[0]["tau"]


def test_inner_mixed_data_refused(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    chain = cracks.components[0].chain[:3]
    with pytest.raises(ValueError):
        reconstruct.reconstruct_inner(
            data["mixed"], ndmap.Background(mesh, gamma0, basis), [chain], geometry.INSULATING
        )
    with pytest.raises(ValueError):
        reconstruct.reconstruct_inner(
            data["ins"], ndmap.Background(mesh, gamma0, basis), [chain], geometry.CONDUCTING
        )
    # the crack kinds ride along through anti-crime data and noise
    assert data["mixed"].kinds == set(geometry.KINDS)
    assert data["empty"].kinds == set()
    spec = {
        "h": 1 / 16,
        "cracks": [
            {"kind": "insulating", "polyline": [[2 / 16, 13 / 16], [6 / 16, 13 / 16]]},
            {"kind": "conducting", "polyline": [[10 / 16, 13 / 16], [14 / 16, 13 / 16]]},
        ],
        "M": 20,
        "anti_crime": True,
        "noise": 1e-6,
    }
    for cracks_spec, kind, refused in (
        (spec["cracks"], geometry.INSULATING, True),
        (spec["cracks"][:1], geometry.CONDUCTING, True),
        (spec["cracks"][:1], geometry.INSULATING, False),
    ):
        scn = harness.scenario_from_dict(dict(spec, cracks=cracks_spec))
        built = harness.build_scenario(scn)
        noisy, _ = harness.generate_data(scn, built)
        assert noisy.kinds == {c["kind"] for c in cracks_spec}
        own_chain = built.cracks.components[0].chain[:3]
        args = (noisy, built.table.background, [own_chain], kind)
        if refused:
            with pytest.raises(ValueError, match="kind"):
                reconstruct.reconstruct_inner(*args)
        else:
            reconstruct.reconstruct_inner(*args)


def test_inner_factorizes_the_background_once(setup, monkeypatch, factorizations):
    # one factorization and one NdMatrix (the background's) per call
    # whatever the candidate count, and one default threshold per insulating
    # call; conducting ones come from one stacked spectrum per batch of chains
    mesh, cracks, grid, gamma0, basis, data = setup
    matrices, taus, stacked = [], [], []
    real_tau, real_taus = ndmap.default_tau, ndmap.default_taus
    real_matrix = ndmap.NdMatrix.__init__

    def counting_matrix(self, *args):
        matrices.append(1)
        real_matrix(self, *args)

    def counting_tau(*args, **kwargs):
        taus.append(1)
        return real_tau(*args, **kwargs)

    def counting_taus(*args, **kwargs):
        stacked.append(1)
        return real_taus(*args, **kwargs)

    monkeypatch.setattr(ndmap.NdMatrix, "__init__", counting_matrix)
    monkeypatch.setattr(ndmap, "default_tau", counting_tau)
    monkeypatch.setattr(ndmap, "default_taus", counting_taus)
    region = interior_pixel_set(grid)
    for kind, lengths, key in (
        (geometry.INSULATING, (2, 4), "ins"),
        (geometry.CONDUCTING, (1, 2), "con"),
    ):
        cands = reconstruct.axis_chain_candidates(mesh, region, lengths)
        assert len(cands) > 400
        for subset in (cands[:3], cands):
            factorizations.reset()
            matrices.clear()
            taus.clear()
            stacked.clear()
            res = reconstruct.reconstruct_inner(data[key], ndmap.Background(mesh, gamma0, basis),
                                                subset, kind)
            assert len(res.accepted) + len(res.rejected) == len(subset)
            assert (factorizations.made, len(matrices)) == (1, 1)
            batches = -(-len(subset) // ndmap.CHAIN_BATCH)
            if kind == geometry.INSULATING:
                assert (len(taus), len(stacked)) == (1, 1)
            else:
                assert (len(taus), len(stacked)) == (0, batches)


def test_upper_factorizes_once_and_thresholds_the_data_once(setup, monkeypatch, factorizations):
    # the excluded start region alone, in every mode; one data threshold per
    # call, and one stacked eigvalsh per test, which also gives the excluded
    # side's threshold
    mesh, cracks, grid, gamma0, basis, data = setup
    taus, stacked, spectra, admissible = [0], [0], [0], [0]
    real_tau, real_taus = ndmap.default_tau, ndmap.default_taus
    real_eigvalsh = np.linalg.eigvalsh
    real_admissible = geometry.pixelset_is_admissible

    def counting_tau(*args, **kwargs):
        taus[0] += 1
        return real_tau(*args, **kwargs)

    def counting_taus(*args, **kwargs):
        stacked[0] += 1
        return real_taus(*args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        spectra[0] += 1
        return real_eigvalsh(*args, **kwargs)

    def counting_admissible(*args):
        admissible[0] += 1
        return real_admissible(*args)

    monkeypatch.setattr(ndmap, "default_tau", counting_tau)
    monkeypatch.setattr(ndmap, "default_taus", counting_taus)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(geometry, "pixelset_is_admissible", counting_admissible)
    for mode, key in (("both", "mixed"), ("insulating", "ins"), ("conducting", "con")):
        factorizations.reset()
        taus[0] = stacked[0] = spectra[0] = admissible[0] = 0
        res = reconstruct.reconstruct_upper(data[key], mesh, gamma0, basis, grid, mode=mode)
        assert len(res.peel_trace) > 10
        assert factorizations.labels == ["excluded:%dpx" % len(interior_pixel_set(grid))]
        # default_tau itself goes through default_taus
        data_taus = int(mode != "insulating")
        assert (taus[0], stacked[0]) == (data_taus, data_taus)
        assert spectra[0] == len(res.peel_trace) + data_taus
        # only the excluded start region's dof map checks admissibility
        assert admissible[0] == 1


def test_upper_tests_pay_no_regathering(monkeypatch):
    # on the peel of mixed_32's layout: the closure searches components only
    # for a region of several pieces, each test's two differences and the
    # excluded side's threshold go through one stacked eigvalsh, and the
    # frozen side's tie update reads the tested block's own Green's block
    # (a view of the block's padded array), not a copy of it
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_32.json")
    s = harness.load_scenario(path)
    built = harness.build_scenario(s)
    data, _ = harness.generate_data(s, built)
    pieces, stacks, tests, blocks, tied = [], [], [0], [], []
    real_components, real_spectra = PixelSet.components, ndmap._spectra
    real_matrices, real_tied = ndmap.RegionMaps.matrices, ndmap._tied_correction
    real_tests = reconstruct.upper_bound_tests

    def components(self):
        out = real_components(self)
        pieces.append(out.max() + 1)
        return out

    def spectra(A):
        stacks.append(len(A))
        return real_spectra(A)

    def upper_bound_tests(*args, **kwargs):
        tests[0] += 1
        return real_tests(*args, **kwargs)

    def matrices(self, pixel=None):
        out = real_matrices(self, pixel)
        blocks.append((self._block if pixel is None else self._last[1])[2])
        return out

    def tied_correction(G, Z, T):
        tied.append(G)
        return real_tied(G, Z, T)

    monkeypatch.setattr(PixelSet, "components", components)
    monkeypatch.setattr(ndmap, "_spectra", spectra)
    monkeypatch.setattr(reconstruct, "upper_bound_tests", upper_bound_tests)
    monkeypatch.setattr(ndmap.RegionMaps, "matrices", matrices)
    monkeypatch.setattr(ndmap, "_tied_correction", tied_correction)
    res = reconstruct.reconstruct_upper(data, built.mesh, built.gamma0, built.basis, built.grid)
    assert res.initial_ok and tests[0] == len(res.peel_trace) > 10
    assert all(n > 1 for n in pieces)
    assert stacks == [3] * tests[0]
    assert len(tied) == len(blocks) == tests[0]
    assert all(np.shares_memory(a, b) for a, b in zip(tied, blocks))


def test_inner_refuses_invalid_candidates(setup):
    # a candidate that fails CrackSet.validate raises wherever it sits among
    # valid ones, for both kinds
    mesh, cracks, grid, gamma0, basis, data = setup
    valid = [tuple(vid(mesh, x / 16, 9 / 16) for x in range(s, s + 3)) for s in (4, 6, 8)]
    invalid = {
        "boundary": tuple(vid(mesh, x / 16, 8 / 16) for x in (0, 1, 2)),
        "interior mesh edges": (vid(mesh, 4 / 16, 4 / 16), vid(mesh, 6 / 16, 4 / 16)),
    }
    for kind, key in ((geometry.INSULATING, "ins"), (geometry.CONDUCTING, "con")):
        for message, bad in invalid.items():
            for at in range(len(valid) + 1):
                cands = valid[:at] + [bad] + valid[at:]
                with pytest.raises(ValueError, match=message):
                    reconstruct.reconstruct_inner(
                        data[key], ndmap.Background(mesh, gamma0, basis), cands, kind)


def test_inner_refuses_a_bad_candidate_before_factorizing(setup, factorizations):
    # one bad chain at a random place among valid candidates raises the
    # message of its first broken check, before any factorization
    mesh, cracks, grid, gamma0, basis, data = setup
    valid = reconstruct.axis_chain_candidates(mesh, interior_pixel_set(grid), (2, 4))
    edges = mesh.edges()
    hull = edges[mesh.edge_tris()[:, 1] < 0][5]
    corner = vid(mesh, 0.0, 8 / 16)
    inward = vid(mesh, 1 / 16, 8 / 16)
    bad_chains = [
        ((corner, inward, vid(mesh, 2 / 16, 8 / 16)), "crack touches the boundary"),
        ((vid(mesh, 4 / 16, 4 / 16), vid(mesh, 6 / 16, 4 / 16)),
         "crack chain must follow interior mesh edges"),
        (tuple(int(v) for v in hull), "crack touches the boundary"),
    ]
    rng = np.random.default_rng(7)
    for kind, key in ((geometry.INSULATING, "ins"), (geometry.CONDUCTING, "con")):
        for bad, message in bad_chains:
            at = int(rng.integers(0, len(valid) + 1))
            cands = valid[:at] + [bad] + valid[at:]
            with pytest.raises(ValueError) as got:
                reconstruct.reconstruct_inner(
                    data[key], ndmap.Background(mesh, gamma0, basis), cands, kind)
            assert str(got.value) == message
    assert factorizations.made == 0


@pytest.mark.parametrize("kind", geometry.KINDS)
def test_stacked_certificates_match_per_candidate_tests(kind):
    # mixed star sizes, one-edge chains (an empty insulating star) and stars
    # that hold the pinned arc vertex, against one factorization and one
    # certificate per chain: identical verdicts and close calls, min_eig
    # within 1e-12 of the minuend's size, the insulating tau bit for bit
    mesh = mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 8), {"box": [-0.1, 0.4, 0.5, 1.1]})
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0.6, 1, 1], "value": 2.0}]})
    basis = ndmap.build_basis(mesh, 6)
    pin = int(mesh.gamma_vertices()[0])
    assert pin == vid(mesh, 0.5, 1.0)
    crack = CrackComponent([vid(mesh, x / 8, 4 / 8) for x in range(2, 6)], kind)
    data = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, CrackSet([crack])), basis)
    grid = PixelGrid(mesh, 4, 4)
    cands = reconstruct.axis_chain_candidates(mesh, PixelSet(grid, range(16)), (1, 2, 3, 5))
    assert len(cands) > ndmap.CHAIN_BATCH
    if kind == geometry.INSULATING:
        far = [split_fans_scan(mesh, CrackSet([CrackComponent(c, kind)]))[0] for c in cands]
        assert any(pin in mesh.triangles[f // 3] for f in far)
    res = reconstruct.reconstruct_inner(data, ndmap.Background(mesh, gamma0, basis), cands, kind)
    res = res.to_json()
    entries = {
        tuple(e["chain"]): (passed, e)
        for passed, key in ((True, "accepted"), (False, "rejected"))
        for e in res[key]
    }
    assert len(entries) == len(cands)
    verdicts = set()
    for chain in cands:
        config = CrackSet([CrackComponent(chain, kind)])
        n_chain = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, config), basis)
        if kind == geometry.INSULATING:
            diff, minuend = data.entries - n_chain.entries, data
        else:
            diff, minuend = n_chain.entries - data.entries, n_chain
        cert = ndmap.certificate("chain", diff, minuend, None)
        passed, e = entries[chain]
        assert passed == cert["passed"] and e["close_call"] == cert["close_call"]
        assert abs(e["min_eig"] - cert["min_eig"]) <= 1e-12 * np.linalg.norm(minuend.entries, 2)
        if kind == geometry.INSULATING:
            assert e["tau"] == cert["tau"]
        else:
            assert e["tau"] == pytest.approx(cert["tau"], rel=1e-12, abs=0)
        verdicts.add(passed)
    assert verdicts == {True, False}


def inner_reference(data, built, cands, kind):
    """Per-candidate classification with one factorization per chain."""
    out = {"accepted": [], "rejected": []}
    for chain in cands:
        comp = CrackComponent(chain, kind)
        n_chain = ndmap.nd_matrix(oracles.factorize(built.mesh, built.gamma0, CrackSet([comp])),
                                  built.basis)
        if kind == geometry.INSULATING:
            diff, minuend = data.entries - n_chain.entries, data
        else:
            diff, minuend = n_chain.entries - data.entries, n_chain
        cert = ndmap.certificate("chain", diff, minuend, None)
        out["accepted" if cert["passed"] else "rejected"].append((list(chain), cert))
    return out


@pytest.mark.parametrize("kind", geometry.KINDS)
def test_inner_partition_matches_per_candidate_reference(kind):
    # the shipped inner config and its conducting twin: the same partition,
    # the insulating tau bit for bit, min_eig within 1e-12 of the data's size
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "inner_insulating_16.json")
    with open(path) as fh:
        spec = json.load(fh)
    for crack in spec["cracks"]:
        crack["kind"] = kind
    scn = harness.scenario_from_dict(spec)
    built = harness.build_scenario(scn)
    data, _ = harness.generate_data(scn, built)
    region = interior_pixel_set(built.grid)
    cands = reconstruct.axis_chain_candidates(built.mesh, region, scn.inner_lengths)
    res = reconstruct.reconstruct_inner(data, built.table.background, cands, kind)
    ref = inner_reference(data, built, cands, kind)
    assert ref["accepted"] and ref["rejected"]
    scale = np.max(np.abs(data.entries))
    for key in ("accepted", "rejected"):
        got = res.to_json()[key]
        assert [e["chain"] for e in got] == [chain for chain, _ in ref[key]]
        for e, (_, cert) in zip(got, ref[key]):
            if kind == geometry.INSULATING:
                assert e["tau"] == cert["tau"]
            else:
                assert e["tau"] == pytest.approx(cert["tau"], rel=1e-12, abs=0)
            assert abs(e["min_eig"] - cert["min_eig"]) <= 1e-12 * scale


def test_axis_chain_candidates_structure(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    region = PixelSet.from_rect(grid, 1, 1, 6, 6)
    chains = reconstruct.axis_chain_candidates(mesh, region, lengths=(1, 2, 4))
    assert chains == reconstruct.axis_chain_candidates(mesh, region, lengths=(1, 2, 4))
    assert len(chains) == len(set(chains))
    bvs = set(np.flatnonzero(mesh.boundary_mask()).tolist())
    et = mesh.edge_tris()
    x0, y0, x1, y1 = (2 / 16, 2 / 16, 14 / 16, 14 / 16)
    for chain in chains:
        assert len(chain) in (2, 3, 5)
        pts = mesh.vertices[list(chain)]
        assert np.ptp(pts[:, 0]) < 1e-12 or np.ptp(pts[:, 1]) < 1e-12
        assert not (set(chain) & bvs)
        assert np.all(pts[:, 0] >= x0 - 1e-12) and np.all(pts[:, 0] <= x1 + 1e-12)
        assert np.all(pts[:, 1] >= y0 - 1e-12) and np.all(pts[:, 1] <= y1 + 1e-12)
        for a, b in zip(chain[:-1], chain[1:]):
            e = mesh.edge_index(a, b)
            assert e >= 0 and et[e, 1] >= 0


@pytest.mark.parametrize("case", ["inner-chains", "partial", "disk", "slanted"])
def test_axis_chain_candidates_match_the_per_vertex_rule(case):
    # the candidates are those of the loop over every edge that tests each
    # vertex by the closed-square rule, in the same order; a slanted crack
    # moves vertices off their lattice lines, which breaks lines into runs
    if case == "disk":
        mesh = build_disk_mesh(1.0, 0.1)
    else:
        crack = [(0.3, 0.3), (0.62, 0.55)] if case == "slanted" else [(0.25, 0.75), (0.5, 0.75)]
        mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
        mesh, _ = embed_crack(mesh, crack, geometry.INSULATING)
    grid = PixelGrid(mesh, 8, 8)
    region = {
        "inner-chains": interior_pixel_set(grid),
        "partial": PixelSet.from_rect(grid, 2, 1, 5, 4),
        "disk": PixelSet.from_rect(grid, 1, 2, 6, 5),
        "slanted": interior_pixel_set(grid),
    }[case]
    for lengths in ((1, 2, 4), (2, 4)):
        want = axis_chain_candidates_loop(mesh, region, lengths)
        every = axis_chain_candidates_loop(mesh, PixelSet(grid, range(64)), lengths)
        assert 0 < len(want) < len(every)
        assert reconstruct.axis_chain_candidates(mesh, region, lengths) == want


def test_axis_chain_candidates_counts():
    # unembedded grid mesh: counts follow from the lattice layout
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    grid = PixelGrid(mesh, 4, 4)
    region = PixelSet.from_rect(grid, 1, 1, 2, 2)
    # region squares span [1/4, 3/4]: 5 lattice lines each way fit inside,
    # 5 usable vertices per line -> 4 one-edge and 3 two-edge chains
    chains = reconstruct.axis_chain_candidates(mesh, region, lengths=(1, 2))
    assert len(chains) == 2 * (5 * 4 + 5 * 3)


def test_score_trivial_cases(setup):
    mesh, cracks, grid, gamma0, basis, data = setup
    truth = grid.crack_pixels(cracks)

    exact = reconstruct.UpperBoundResult(PixelSet(grid, truth), [], "both", True)
    s = reconstruct.score(exact, cracks, grid)
    assert s["precision"] == 1.0 and s["recall"] == 1.0 and s["recall_strict"] == 1.0

    empty = reconstruct.UpperBoundResult(PixelSet(grid, []), [], "both", True)
    s = reconstruct.score(empty, cracks, grid)
    assert s["recall"] == 0.0 and s["recall_strict"] == 0.0
    assert s["precision"] == 1.0 and s["crack_coverage"] == 0.0
    assert s["hausdorff_result_to_truth"] is None
    assert reconstruct.score(empty, CrackSet(), grid)["crack_coverage"] == 1.0

    inner_empty = reconstruct.InnerResult(geometry.INSULATING, [], [])
    s = reconstruct.score(inner_empty, cracks.of_kind(geometry.INSULATING), grid)
    assert s["edge_coverage"] == 0.0
    # nothing accepted, nothing off the crack, as upper precision of an empty set
    assert s["edge_precision"] == 1.0

    for v in s.values():
        if isinstance(v, float):
            assert 0.0 <= v <= 1.0


def test_edge_precision_counts_accepted_edges_off_the_crack(setup):
    # one accepted chain on the crack and one off it, each of one edge: half
    # the distinct accepted edges lie on the crack; a repeated chain counts once
    mesh, cracks, grid, gamma0, basis, data = setup
    ins = cracks.of_kind(geometry.INSULATING)
    on = ins.components[0].chain[:2]
    off = next(e for e in mesh.edges().tolist()
               if mesh.edge_index(*e) not in set(ins.edge_ids(mesh).tolist()))
    entry = {"min_eig": 0.0, "tau": 1e-9}
    accepted = [dict(entry, chain=list(c)) for c in (on, off, off[::-1])]
    s = reconstruct.score(reconstruct.InnerResult(geometry.INSULATING, accepted, []), ins, grid)
    assert s["edge_precision"] == 0.5
    assert s["edge_coverage"] == 1 / len(ins.edge_ids(mesh))


MIXED_32 = os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_32.json")


def test_crack_coverage_counts_samples_in_the_closed_squares():
    # the insulating crack runs along y = 26/32 over eight edges from
    # x = 8/32; pixel (2, 6) spans x in [8/32, 12/32], so it holds four
    # edges whole and the fifth at its first sample only
    built = harness.build_scenario(harness.load_scenario(MIXED_32))
    grid = built.grid
    one = reconstruct.UpperBoundResult(PixelSet(grid, [grid.index(2, 6)]), [], "both", True)
    s = reconstruct.score(one, built.cracks.of_kind(geometry.INSULATING), grid)
    assert s["crack_coverage"] == pytest.approx((4 + 1 / 201) / 8, rel=1e-15, abs=0)


def upper_coverage(**changes):
    with open(MIXED_32) as fh:
        spec = dict(json.load(fh), **changes)
    report = harness.run_scenario(harness.scenario_from_dict(spec))
    return report.results["upper"]["score"]["crack_coverage"]


@pytest.mark.parametrize("anti_crime", [True, False])
def test_shipped_upper_run_covers_the_cracks(anti_crime):
    assert upper_coverage(anti_crime=anti_crime) == 1.0


@pytest.mark.xfail(strict=True, reason="the row-major peel uncovers vertical cracks")
def test_vertical_cracks_are_covered():
    # the vertical layout of the coverage ladder, inverse crime, 8x8
    cracks = [
        {"kind": "insulating", "polyline": [[0.3125, 0.25], [0.3125, 0.5]]},
        {"kind": "conducting", "polyline": [[0.6875, 0.5], [0.6875, 0.75]]},
    ]
    assert upper_coverage(cracks=cracks, anti_crime=False) == 1.0


def test_result_serialization_roundtrip(setup, tmp_path):
    mesh, cracks, grid, gamma0, basis, data = setup
    res = reconstruct.reconstruct_upper(data["mixed"], mesh, gamma0, basis, grid)
    loaded = json.loads(json.dumps(res.to_json()))
    assert loaded["final_members"] == sorted(res.final_set.members)
    assert loaded["initial_ok"] is True
    assert loaded["decision_margins"]["closest_fail"] < 0

    raster = tmp_path / "upper.csv"
    raster.write_text(reconstruct.raster_csv(res.final_set))
    m = np.loadtxt(raster, delimiter=",", dtype=int)
    assert m.shape == (grid.ny, grid.nx)
    assert np.array_equal(m.astype(bool), res.final_set.mask())
