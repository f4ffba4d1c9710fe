import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crackfind import cli, fem, geometry, harness, locpot, ndmap
from crackfind.geometry import refine_mesh
import oracles
from oracles import carry_basis_search


MIXED = {
    "name": "mixed",
    "shape": "rect",
    "size": [1.0, 1.0],
    "h": 1 / 16,
    "cracks": [
        {"kind": "insulating", "polyline": [[2 / 16, 13 / 16], [6 / 16, 13 / 16]]},
        {"kind": "conducting", "polyline": [[10 / 16, 13 / 16], [14 / 16, 13 / 16]]},
    ],
    "grid": [8, 8],
    "M": 20,
    "methods": ["upper", "chain"],
    "seed": 5,
}


@pytest.fixture(scope="module")
def mixed_scenario():
    return harness.scenario_from_dict(MIXED)


@pytest.fixture(scope="module")
def mixed_run(mixed_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("mixed_run")
    report = harness.run_scenario(mixed_scenario, out_dir=str(out))
    return report, out


def test_scenario_roundtrip(mixed_scenario):
    echo = mixed_scenario.to_json()
    again = harness.scenario_from_dict(echo)
    assert again == mixed_scenario
    assert json.dumps(echo, sort_keys=True)  # fully serializable


def test_scenario_validation_itemizes_all_problems():
    bad = dict(MIXED)
    bad["shape"] = "rect"
    bad["M"] = 0
    bad["noise"] = -1.0
    bad["mode"] = "sideways"
    bad["cracks"] = [{"kind": "porous", "polyline": [[0.5, 0.5], [2.5, 0.5]]}]
    with pytest.raises(harness.ScenarioError) as err:
        harness.scenario_from_dict(bad)
    text = " ".join(err.value.problems)
    assert len(err.value.problems) >= 4
    assert "M" in text and "noise" in text and "mode" in text and "kind" in text


def test_scenario_unknown_field_rejected():
    with pytest.raises(harness.ScenarioError) as err:
        harness.scenario_from_dict({"cheese": 1})
    assert "cheese" in err.value.problems[0]


def test_inner_method_requires_single_kind():
    bad = dict(MIXED)
    bad["methods"] = ["inner"]
    with pytest.raises(harness.ScenarioError) as err:
        harness.scenario_from_dict(bad)
    assert any("inner" in p for p in err.value.problems)


@pytest.mark.parametrize("polyline, refused", [
    # an interior vertex on the edge of the boundary pixel ring: part of its
    # far fan lies in the ring, outside the crack region
    ([[0.8125, 0.625], [0.875, 0.625], [0.875, 0.5625]], True),
    # an end on the ring's edge opens no far fan there
    ([[0.6875, 0.125], [0.6875, 0.25]], False),
    ([[0.8125, 0.625], [0.8125, 0.5625]], False),
])
def test_locpot_refuses_a_slit_along_the_pixel_ring(polyline, refused):
    # the localized potentials' source operators are updates of the
    # crack-free background, which condense a far corner's load onto the
    # slit's star inside V; the chain and the other methods run
    spec = {"h": 1.0 / 16, "grid": [8, 8], "M": 8, "gamma0": 1.0,
            "cracks": [{"kind": "insulating", "polyline": polyline},
                       {"kind": "conducting", "polyline": [[0.1875, 0.375], [0.1875, 0.4375]]}]}
    s = harness.scenario_from_dict(dict(spec, methods=["locpot"]))
    if refused:
        with pytest.raises(harness.ScenarioError, match="runs along the boundary pixel ring"):
            harness.build_scenario(s)
    else:
        locpot.source_operators(harness.build_scenario(s).table, locpot_pairs())
    for methods in (["chain"], ["upper"]):
        harness.build_scenario(harness.scenario_from_dict(dict(spec, methods=methods)))


def locpot_pairs():
    # the (configuration, region) pairs of the demo's six source operators
    return sorted({pair for near, far, hi, lo, bg in locpot.VARIANTS.values()
                   for pair in ((hi, near), (lo, near), (bg, "grown " + far))})


def test_build_scenario_regions_disjoint(mixed_scenario):
    built = harness.build_scenario(mixed_scenario)
    assert len(built.cracks.components) == 2
    V, W = built.table.V, built.table.W
    assert V.members and W.members
    assert not (V.members & W.members)
    assert geometry.pixelset_is_admissible(V)


def test_carry_basis_is_exact_interpolation(mixed_scenario):
    built = harness.build_scenario(mixed_scenario)
    fine, _ = refine_mesh(built.mesh, built.cracks)
    fb = harness.carry_basis(built.basis, fine)
    assert fb.M == built.basis.M
    # orthonormality carries over because the functions are unchanged
    assert np.allclose(fb.gram, np.eye(fb.M), atol=1e-11)
    pos_f = {int(v): i for i, v in enumerate(fine.gamma_vertices())}
    for i, v in enumerate(built.mesh.gamma_vertices()):
        assert np.allclose(fb.vectors[pos_f[int(v)]], built.basis.vectors[i])


@pytest.mark.parametrize("shape, gamma, M", [
    ("rect", "all", 20),
    ("rect", {"side": "top"}, 6),
    ("disk", {"angle": [0.5, 2.5]}, 5),
], ids=["rect-all", "rect-top", "disk-angle"])
def test_carry_basis_matches_edge_search(shape, gamma, M):
    # differential oracle: the neighbour lookup against the nearest coarse
    # edge of every fine arc node; on the dyadic rect meshes every midpoint
    # sits at t = 0.5 exactly, so the two agree bit for bit
    if shape == "rect":
        mesh = geometry.build_rect_mesh(1.0, 1.0, 1 / 16)
    else:
        mesh = geometry.build_disk_mesh(1.0, 0.15)
    if gamma != "all":
        mesh = geometry.mark_gamma(mesh, gamma)
    basis = ndmap.build_basis(mesh, M)
    fine, _ = refine_mesh(mesh, geometry.CrackSet())
    got = harness.carry_basis(basis, fine).vectors
    ref = carry_basis_search(basis, fine)
    if shape == "rect":
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_carry_basis_refuses_nodes_off_the_coarse_arc():
    # a basis on the left side cannot be carried onto the whole boundary
    mesh = geometry.mark_gamma(geometry.build_rect_mesh(1.0, 1.0, 1 / 8), {"side": "left"})
    basis = ndmap.build_basis(mesh, 4)
    fine, _ = refine_mesh(mesh, geometry.CrackSet())
    harness.carry_basis(basis, geometry.mark_gamma(fine, {"side": "left"}))
    with pytest.raises(ValueError, match="arc node .* is not on a coarse arc edge"):
        harness.carry_basis(basis, geometry.mark_gamma(fine, "all"))
    # a node between two coarse arc nodes but off their midpoint
    moved = fine.vertices.copy()
    order = geometry.mark_gamma(fine, {"side": "left"}).gamma_vertices()
    moved[order[3], 1] += 1e-3
    off = geometry.Mesh(moved, fine.triangles, fine.boundary_edges, fine.boundary_edges)
    with pytest.raises(ValueError, match="arc node %d is not" % order[3]):
        harness.carry_basis(basis, geometry.mark_gamma(off, {"side": "left"}))


def test_anti_crime_data_validates_the_fine_cracks_once(monkeypatch):
    # mixed_32's anti-crime data validates its refined crack set once, in
    # ndmap.crack_signature; geometry.refine_mesh carries a valid set over
    # without validating it again
    s = harness.load_scenario(os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_32.json"))
    built = harness.build_scenario(s)
    meshes = []
    real = geometry.CrackSet.validate

    def validate(self, mesh):
        meshes.append(len(mesh.vertices))
        return real(self, mesh)

    monkeypatch.setattr(geometry.CrackSet, "validate", validate)
    harness.generate_data(s, built)
    fine, _ = refine_mesh(built.mesh, built.cracks)
    assert meshes == [len(fine.vertices)]


def test_anti_crime_changes_data_not_verdicts():
    # needs the scale where pixel gates are resolved by the basis; coarser
    # meshes leave borderline probes that the transplant legitimately flips
    import dataclasses

    s = harness.scenario_from_dict(
        {
            "name": "ac",
            "h": 1 / 32,
            "cracks": [
                {"kind": "insulating", "polyline": [[8 / 32, 26 / 32], [16 / 32, 26 / 32]]},
                {"kind": "conducting", "polyline": [[20 / 32, 26 / 32], [28 / 32, 26 / 32]]},
            ],
            "grid": [8, 8],
            "M": 32,
            "seed": 0,
        }
    )
    built = harness.build_scenario(s)
    plain, _ = harness.generate_data(s, built)
    ac, prov = harness.generate_data(dataclasses.replace(s, anti_crime=True), built)
    gap = np.linalg.norm(ac.entries - plain.entries, 2)
    assert gap > 1e3 * ndmap.default_tau(plain)  # far above solver tolerance
    assert prov["anti_crime"] and prov["signature_norm"] > 0

    from crackfind import reconstruct

    a = reconstruct.reconstruct_upper(plain, built.mesh, built.gamma0, built.basis, built.grid)
    b = reconstruct.reconstruct_upper(ac, built.mesh, built.gamma0, built.basis, built.grid)
    assert a.final_set.members == b.final_set.members == {50, 51, 53, 54}


def test_noise_is_seeded_and_bounded(mixed_scenario):
    import dataclasses

    built = harness.build_scenario(mixed_scenario)
    noisy_scn = dataclasses.replace(mixed_scenario, noise=1e-3, seed=21)
    a, prov_a = harness.generate_data(noisy_scn, built)
    b, _ = harness.generate_data(noisy_scn, built)
    assert np.array_equal(a.entries, b.entries)
    c, _ = harness.generate_data(dataclasses.replace(noisy_scn, seed=22), built)
    assert not np.array_equal(a.entries, c.entries)
    assert np.allclose(a.entries, a.entries.T)
    clean, _ = harness.generate_data(mixed_scenario, built)
    norm = np.linalg.norm(a.entries - clean.entries, 2)
    assert prov_a["noise_norm"] == pytest.approx(norm)
    assert norm <= 1e-3 * np.linalg.norm(clean.entries, 2) * (1 + 1e-9)


def test_run_report_structure(mixed_run):
    report, _ = mixed_run
    res = report.results
    assert res["chain"]["passed"]
    assert len(res["chain"]["tests"]) == 6
    up = res["upper"]
    assert up["score"]["recall"] == 1.0 and up["score"]["precision"] == 1.0
    for entry in up["report"]["peel_trace"]:
        names = [c["test"] for c in entry["certificates"]]
        assert names == ["excluded_minus_data", "data_minus_frozen"]
    assert report.timings.keys() == {"build", "data", "upper", "chain"}


def test_artifacts_match_manifest(mixed_run):
    # manifest.json hashes every file of the run once, report.json included;
    # only the manifest itself and the volatile timings are not hashed
    report, out = mixed_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["volatile"] == ["timings.json"]
    assert manifest["files"] == report.manifest
    assert set(os.listdir(out)) == set(manifest["files"]) | {"manifest.json", "timings.json"}
    for name, digest in report.manifest.items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_report_is_the_one_record(mixed_run):
    # report.json holds the scenario and a result for every method that ran,
    # and no copy of either is written next to it
    report, out = mixed_run
    loaded = json.loads((out / "report.json").read_text())
    assert loaded["scenario"] == report.scenario
    assert set(loaded["results"]) == set(report.scenario["methods"]) == {"upper", "chain"}
    assert "manifest" not in loaded
    assert sorted(n for n in os.listdir(out) if n.endswith(".json")) == [
        "data_matrix.json", "manifest.json", "report.json", "timings.json",
    ]


def test_rerun_is_byte_identical(mixed_scenario, mixed_run, tmp_path):
    _, first = mixed_run
    harness.run_scenario(mixed_scenario, out_dir=str(tmp_path))
    names = set(os.listdir(first))
    assert names == set(os.listdir(tmp_path))
    for name in names - {"timings.json"}:
        assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_artifacts_are_compact_sorted_json(mixed_scenario, mixed_run):
    # every JSON artifact is one line of sorted-key JSON as the C encoder
    # writes it (the rerun test checks its bytes), and the data matrix reads
    # back to its exact entries
    report, out = mixed_run
    assert (out / "report.json").read_text() == json.dumps(
        report.to_json(), sort_keys=True) + "\n"
    for name in ("data_matrix.json", "manifest.json", "timings.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name
    data, _ = harness.generate_data(mixed_scenario, harness.build_scenario(mixed_scenario))
    loaded = json.loads((out / "data_matrix.json").read_text())
    entries = np.array(loaded["entries"]).reshape(loaded["M"], loaded["M"])
    assert np.array_equal(entries, data.entries)


def test_empty_crack_scenario_reports_empty_set(tmp_path):
    s = harness.scenario_from_dict(
        {"name": "empty", "h": 1 / 8, "grid": [4, 4], "M": 8, "methods": ["upper"]}
    )
    report = harness.run_scenario(s)
    assert report.results["upper"]["report"]["final_members"] == []
    assert report.results["upper"]["report"]["initial_ok"] is True


def _write_config(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_upper_roundtrip(tmp_path, capsys):
    cfg = _write_config(tmp_path, MIXED)
    code = cli.main(["reconstruct-upper", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "report.json" in summary["artifacts"]
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    upper = rep["results"]["upper"]
    assert upper["score"]["recall"] == 1.0
    assert upper["report"]["initial_ok"] is True
    assert rep["scenario"]["methods"] == ["upper"]


def test_cli_invalid_override_exits_2_before_writing(tmp_path, capsys):
    # an override is validated with the rest of the scenario, by the run,
    # before any output directory is made
    cfg = _write_config(tmp_path, MIXED)
    out = tmp_path / "o"
    code = cli.main(["reconstruct-upper", "--config", cfg, "--modes", "0", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    s = harness.scenario_from_dict(dict(MIXED, methods=["upper"]))
    problems = harness.validate_scenario(dataclasses.replace(s, M=0))
    assert problems
    assert err == {"error": "invalid config", "problems": problems}
    assert not out.exists()


def test_cli_failed_initial_bracket_is_not_scored(tmp_path, capsys):
    # at this noise level the bracket around the start region fails, and the
    # untouched start region must not be reported as a reconstruction
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_chain_32.json")
    out = tmp_path / "u"
    code = cli.main(["reconstruct-upper", "--config", cfg, "--noise", "1e-3", "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["initial_ok"] is False
    upper = json.loads((out / "report.json").read_text())["results"]["upper"]
    assert upper["report"]["initial_ok"] is False
    assert upper["score"] is None


def test_cli_inner_without_candidates_is_not_scored(tmp_path, capsys):
    # no chain of 40 edges fits in the interior pixels; an empty candidate
    # list is no reconstruction and must not get an edge coverage of 0
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "inner_insulating_16.json")
    with open(path) as fh:
        scn = dict(json.load(fh), inner_lengths=[40])
    cfg = _write_config(tmp_path, scn, "long.json")
    out = tmp_path / "i"
    assert cli.main(["reconstruct-inner", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config"
    assert any("no candidate" in p for p in err["problems"])
    assert not (out / "report.json").exists()


def test_cli_repeated_inner_lengths_exit_2(tmp_path, capsys):
    # a repeated length would test every chain of that length twice and
    # count each accepted chain twice
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "inner_insulating_16.json")
    with open(path) as fh:
        scn = dict(json.load(fh), inner_lengths=[2, 2])
    with pytest.raises(harness.ScenarioError, match="inner_lengths must not repeat"):
        harness.scenario_from_dict(scn)
    cfg = _write_config(tmp_path, scn, "twice.json")
    out = tmp_path / "i"
    assert cli.main(["reconstruct-inner", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config"
    assert err["problems"] == ["inner_lengths must not repeat"]
    assert not (out / "report.json").exists()


def test_inner_without_candidates_is_refused_before_the_data(monkeypatch):
    # the candidate list needs only the mesh, the grid and the lengths, so
    # neither the data nor the upper peel before the inner method runs
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "inner_insulating_16.json")
    with open(path) as fh:
        scn = dict(json.load(fh), methods=["upper", "inner"], inner_lengths=[40])

    def no_data(*args):
        raise AssertionError("data generated for a run without candidates")

    monkeypatch.setattr(harness, "generate_data", no_data)
    with pytest.raises(harness.ScenarioError, match="no candidate"):
        harness.run_scenario(harness.scenario_from_dict(scn))


def test_cli_verify_monotonicity_exit_codes(tmp_path, capsys):
    cfg = _write_config(tmp_path, MIXED)
    assert cli.main(["verify-monotonicity", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_cli_override_flags(tmp_path, capsys):
    cfg = _write_config(tmp_path, MIXED)
    out = str(tmp_path / "s")
    code = cli.main(
        ["simulate", "--config", cfg, "--out", out, "--modes", "12", "--seed", "9",
         "--noise", "1e-4", "--anti-crime", "on"]
    )
    assert code == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    scn = rep["scenario"]
    assert scn["M"] == 12 and scn["seed"] == 9 and scn["anti_crime"] is True
    assert rep["data_provenance"]["noise_norm"] > 0
    assert rep["results"]["noise_check"]["exceeds_tau"] is True

    # ndmatrix strips measurement effects: the pure operator on this mesh
    code = cli.main(["ndmatrix", "--config", cfg, "--out", str(tmp_path / "n"),
                     "--noise", "1e-4", "--anti-crime", "on"])
    assert code == 0
    rep = json.loads((tmp_path / "n" / "report.json").read_text())
    assert rep["scenario"]["anti_crime"] is False and rep["scenario"]["noise"] == 0.0


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    bad = _write_config(tmp_path, {"shape": "torus"}, "bad.json")
    assert cli.main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config"

    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "unreadable config"

    mixed_inner = dict(MIXED)
    cfg = _write_config(tmp_path, mixed_inner, "mi.json")
    assert cli.main(["reconstruct-inner", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "problems" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "update",
    [
        {"gamma": {"box": 5}},
        {"inner_lengths": ["a"]},
        {"gamma0": {"boxes": [{"box": 3, "value": 1}]}},
        {"locpot_n": [None]},
        # non-finite numbers and an unordered sequence
        {"tau": float("inf")},
        {"noise": float("inf")},
        {"size": [float("inf"), 1.0]},
        {"gamma0": float("nan")},
        {"gamma0": {"default": float("inf")}},
        {"gamma0": {"boxes": [{"box": [0, 0, 0.5, 0.5], "value": float("inf")}]}},
        {"locpot_n": [10, 1]},
        # misspelt keys and a length set with no insulating test in it
        {"gamma0": {"default": 1.0, "boxs": []}},
        {"gamma0": {"boxes": [{"box": [0, 0, 0.5, 0.5], "value": 2.0, "vale": 3.0}]}},
        {"cracks": [dict(MIXED["cracks"][0], knd="conducting"), MIXED["cracks"][1]]},
        {"cracks": MIXED["cracks"][:1], "methods": ["inner"], "inner_lengths": [1]},
        # values that used to be coerced: a string flag turned on, fractions
        # and booleans rounded to integers, and a seed the generator refuses
        {"anti_crime": "false"},
        {"anti_crime": "no"},
        {"M": 32.7},
        {"M": True},
        {"grid": [8.5, 8]},
        {"seed": 1.9},
        {"seed": -1},
        # real-valued fields that used to pass through float(): a flag and
        # strings became numbers
        {"noise": True},
        {"noise": "1e-3"},
        {"tau": True},
        {"h": "0.0625"},
        {"size": ["1", True]},
        {"cracks": [{"kind": "insulating", "polyline": [["0.125", 0.8125], [0.375, 0.8125]]}]},
        # too few values for the monotone flags to compare anything
        {"locpot_n": [1]},
        {"locpot_n": [1, 10]},
    ],
)
def test_malformed_nested_values_are_itemized(update, tmp_path, capsys):
    bad = dict(MIXED, **update)
    with pytest.raises(harness.ScenarioError):
        harness.scenario_from_dict(bad)
    cfg = _write_config(tmp_path, bad)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config" and err["problems"]


def test_infinite_tau_override_rejected(tmp_path, capsys):
    # an infinite threshold would certify every test
    cfg = _write_config(tmp_path, MIXED)
    argv = ["verify-monotonicity", "--config", cfg, "--out", str(tmp_path / "x")]
    assert cli.main(argv + ["--tau", "inf"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config"
    assert any("tau" in p for p in err["problems"])


def test_negative_seed_override_rejected(tmp_path, capsys):
    # with noise the seed reaches the generator, which refuses it mid-run
    cfg = _write_config(tmp_path, MIXED)
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "x"), "--noise", "1e-3"]
    assert cli.main(argv + ["--seed", "-3"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid config"
    assert any("seed" in p for p in err["problems"])


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
# each shipped config's recorded embedding: the crack chains (vertex ids)
# and the sha256 of the embedded mesh's vertex coordinates, which any
# rewrite of embed_crack must reproduce
H16 = "1113a0479d0dc48b94abab5a343303a8afec0f0ad1102bc4bd69c70b35d433bc"
H32 = "313df5f4e051e980b8c4caccbe5731a7df1e8be4fed5acd4f3e272b05272d1de"
EMBEDDINGS = {
    "inner_insulating_16.json": ([range(158, 164)], H16),
    "locpot_contrast_16.json": ([range(38, 43), range(246, 251)], H16),
    "mixed_32.json": ([range(866, 875), range(878, 887)], H32),
    "mixed_chain_32.json": ([range(866, 875), range(746, 755)], H32),
}


@pytest.mark.parametrize("path", CONFIGS, ids=[os.path.basename(p) for p in CONFIGS])
def test_shipped_config_loads_and_builds(path):
    s = harness.load_scenario(path)
    built = harness.build_scenario(s)
    assert len(built.cracks) == len(s.cracks)
    chains, digest = EMBEDDINGS[os.path.basename(path)]
    assert [c.chain for c in built.cracks.components] == [tuple(c) for c in chains]
    assert hashlib.sha256(built.mesh.vertices.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name, labels", [
    # the fine background whose update is the anti-crime data's signature,
    # the run's background for the data's "none", then the peel's excluded
    # start region
    ("mixed_32.json", ["none", "none", "excluded:36px"]),
    # the one background of the data, of locpot's source operators and of
    # every crack and region configuration of the table
    ("locpot_contrast_16.json", ["none"]),
])
def test_shipped_run_factorizes_these_configurations(name, labels, factorizations):
    # a change that adds or repeats a factorization, or factorizes a frozen
    # region, fails here by name
    path = os.path.join(os.path.dirname(CONFIGS[0]), name)
    harness.run_scenario(harness.load_scenario(path))
    assert factorizations.labels == labels
    # the run's background goes after its last reader, here the data step
    # or locpot, before anything else is factorized
    assert factorizations.most == 1


def test_cli_inner_single_kind(tmp_path, capsys):
    scn = {
        "name": "ins",
        "h": 1 / 16,
        "cracks": [{"kind": "insulating", "polyline": [[4 / 16, 8 / 16], [8 / 16, 8 / 16]]}],
        "grid": [8, 8],
        "M": 16,
        "inner_lengths": [2],
        "seed": 1,
    }
    cfg = _write_config(tmp_path, scn, "ins.json")
    code = cli.main(["reconstruct-inner", "--config", cfg, "--out", str(tmp_path / "i")])
    assert code == 0
    capsys.readouterr()
    rep = json.loads((tmp_path / "i" / "report.json").read_text())
    sc = rep["results"]["inner"]["score"]
    assert sc["edge_coverage"] == 1.0
    # the three two-edge windows inside the four-edge crack
    assert sc["n_accepted"] == 3


@settings(max_examples=25, deadline=None)
@given(
    h_div=st.sampled_from([4, 8, 16]),
    n=st.integers(3, 10),
    M=st.integers(1, 12),
    noise=st.floats(0, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_scenario_normalization_idempotent(h_div, n, M, noise, seed):
    obj = {
        "name": "prop",
        "h": 1.0 / h_div,
        "grid": [n, n],
        "M": M,
        "noise": noise,
        "seed": seed,
        "methods": [],
    }
    s = harness.scenario_from_dict(obj)
    assert harness.scenario_from_dict(s.to_json()) == s


# two cracks, one per kind, small enough for every method family in a second
TWO_KINDS = {
    "name": "two-kinds",
    "h": 1 / 16,
    "cracks": [
        {"kind": "insulating", "polyline": [[0.25, 0.25], [0.5, 0.25]]},
        {"kind": "conducting", "polyline": [[0.5, 0.75], [0.75, 0.75]]},
    ],
    "grid": [8, 8],
    "M": 16,
}

METHOD_ORDERS = [("locpot", "chain"), ("chain", "locpot"), ("chain",), ("locpot",), ("inner",)]


def two_kinds_run(methods):
    # TWO_KINDS running ``methods``; the inner method tests its insulating
    # crack alone, since it needs cracks of one kind
    spec = dict(TWO_KINDS, methods=list(methods))
    if "inner" in methods:
        spec.update(cracks=TWO_KINDS["cracks"][:1], inner_lengths=[2])
    return harness.scenario_from_dict(spec)


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory, count_factorizations):
    # per method list: (factorizations built, most alive at once, output dir)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        counter = count_factorizations(mp)
        for methods in METHOD_ORDERS:
            counter.reset()
            s = two_kinds_run(methods)
            run_dir = tmp_path_factory.mktemp("-".join(methods))
            harness.run_scenario(s, out_dir=str(run_dir))
            out[methods] = (counter.made, counter.most, run_dir)
    return out


@pytest.mark.parametrize("methods", [("locpot", "chain"), ("chain", "locpot"), ("chain",),
                                     ("inner",)])
def test_run_solves_each_configuration_once(table_runs, methods):
    # one background for the data, the source operators, every crack and
    # region configuration of the table and every test chain, in any order
    made, most, _ = table_runs[methods]
    assert made == 1
    assert most == 1


@pytest.mark.parametrize("first", ["chain", "locpot"])
def test_table_releases_its_background_after_its_last_reader(count_factorizations, first):
    # the fine background of the anti-crime signature, then the run's
    # background, which a table reader listed before upper drops before
    # upper factorizes its start region: one factorization is alive at a
    # time, and the results are those of each method run alone
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_chain_32.json")
    spec = harness.load_scenario(path).to_json()
    with pytest.MonkeyPatch.context() as mp:
        counter = count_factorizations(mp)
        counter.reset()
        both = harness.run_scenario(harness.scenario_from_dict(dict(spec, methods=[first, "upper"])))
        assert (counter.made, counter.most) == (3, 1)
    for method in (first, "upper"):
        alone = harness.run_scenario(harness.scenario_from_dict(dict(spec, methods=[method])))
        assert harness._dump_json(both.results[method]) == harness._dump_json(alone.results[method])


def test_every_factorization_is_made_on_the_main_thread(monkeypatch):
    # the worker thread of the split solves never factorizes: SuperLU
    # factors made there and freed on the main thread leak. Every method,
    # with anti-crime data, whose fine background solves its Green's
    # columns in split blocks; each run factorizes its fine background and
    # its own, and the upper run its start region
    threads, workers = [], []
    real, real_columns = fem.Factorization.__init__, fem._solve_columns

    def init(self, *args):
        threads.append(threading.current_thread() is threading.main_thread())
        real(self, *args)

    def solve_columns(*args):
        workers.append(threading.current_thread() is not threading.main_thread())
        return real_columns(*args)

    monkeypatch.setattr(fem.Factorization, "__init__", init)
    monkeypatch.setattr(fem, "_solve_columns", solve_columns)
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    mixed = harness.load_scenario(os.path.join(root, "mixed_chain_32.json")).to_json()
    inner = harness.load_scenario(os.path.join(root, "inner_insulating_16.json")).to_json()
    for spec in (dict(mixed, methods=["chain", "locpot", "upper"]), dict(inner, anti_crime=True)):
        harness.run_scenario(harness.scenario_from_dict(spec))
    assert len(threads) == 5 and all(threads)
    assert any(workers)


def test_a_released_table_refuses_every_read(chain_setup, factorizations):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    table.nd("excluded V")
    table.release()
    for read in (lambda: table.nd("excluded V"), lambda: table.nd("frozen W"),
                 lambda: table.nd("none"), lambda: table.crack_update("all"),
                 lambda: table.background.N0, lambda: table.background.fact):
        with pytest.raises(RuntimeError, match="released"):
            read()
    assert factorizations.made == 1


@pytest.mark.parametrize("methods", [("locpot",), ("locpot", "chain"), ("chain", "locpot")])
def test_locpot_run_factorizes_the_data_and_the_background(monkeypatch, methods):
    # the crack-free background, for the data and every later step whatever
    # the method order: no crack configuration is factorized
    labels = []
    real = fem.factorize

    def factorize(*args, **kwargs):
        fact = real(*args, **kwargs)
        labels.append(fact.dm.config_label())
        return fact

    monkeypatch.setattr(fem, "factorize", factorize)
    harness.run_scenario(harness.scenario_from_dict(dict(TWO_KINDS, methods=list(methods))))
    assert labels == ["none"]


def test_locpot_solves_sources_on_the_background_only(monkeypatch):
    # every edge-source block of a locpot run goes to the crack-free
    # background, in ceil(r / M) blocks per grown region, r the rank of the
    # region's loads there
    s = harness.scenario_from_dict(dict(TWO_KINDS, methods=["locpot"]))
    built = harness.build_scenario(s)
    calls = []
    real = fem.solve_source

    def solve_source(fact, F):
        calls.append(fact.dm.config_label())
        return real(fact, F)

    monkeypatch.setattr(fem, "solve_source", solve_source)
    locpot.run_localized_demo(built.table)
    background = fem.build_dofmap(built.mesh)
    regions = locpot.source_regions(built.table)
    blocks = sum(-(-oracles.source_rank(background, regions["grown " + key].triangles()) // s.M)
                 for key in ("V", "W"))
    assert calls == ["none"] * blocks
    assert blocks >= 2


@pytest.mark.parametrize("methods", [("locpot", "chain"), ("chain", "locpot")])
def test_shared_table_keeps_artifacts_of_separate_runs(table_runs, methods):
    combined = table_runs[methods][2]

    def chain(run_dir):
        return json.loads((run_dir / "report.json").read_text())["results"]["chain"]

    assert chain(combined) == chain(table_runs[("chain",)][2])
    for name in ("locpot_insulating.csv", "locpot_conducting.csv"):
        assert (combined / name).read_bytes() == (table_runs[("locpot",)][2] / name).read_bytes()


def test_program_loads_only_the_scipy_subpackages_it_uses():
    # every scipy subpackage costs resident memory for the whole run:
    # importing scipy.ndimage alone raised a crackfind process's ru_maxrss by
    # 2.1 MB (63.2 to 65.2 MB), far more than the run-to-run spread of the
    # benchmark's peak RSS
    code = (
        "import sys\n"
        "import crackfind.cli, crackfind.harness\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.count('.') == 1\n"
        "             and m.startswith('scipy.') and not m.split('.')[1].startswith('_')\n"
        "             and hasattr(mod, '__path__')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split("\n")[-2] == str(["scipy.linalg", "scipy.sparse"])
