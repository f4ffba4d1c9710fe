"""Tests of the benchmark itself: verdict checks, seeds, tracing and layout.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # pins the BLAS threads before numpy loads
import probe
import tracing
import verdicts
import workloads

harness = run.import_harness()

# small two-crack scenario that runs every method family in about a second
SMALL = {
    "name": "small",
    "h": 1.0 / 16,
    "gamma0": 1.0,
    "cracks": [
        {"kind": "insulating", "polyline": [[0.25, 0.25], [0.5, 0.25]]},
        {"kind": "conducting", "polyline": [[0.5, 0.75], [0.75, 0.75]]},
    ],
    "grid": [8, 8],
    "M": 16,
    "methods": ["upper", "chain", "locpot"],
}


def _reference(workload):
    return run.load_reference(workload)["verdicts"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_agrees_with_itself(workload):
    ref = _reference(workload)
    assert verdicts.compare(ref, copy.deepcopy(ref)) == (verdicts.n_verdicts(ref), 0)


def _flip_one(ref):
    if "upper" in ref:
        entry = ref["upper"]["trace"][5]
        entry["passed"] = not entry["passed"]
    if "inner" in ref:
        ref["inner"][0]["passed"] = not ref["inner"][0]["passed"]
    if "chain" in ref:
        ref["chain"][0]["passed"] = not ref["chain"][0]["passed"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_flipped_verdict_makes_failed_nonzero(workload):
    ref = _reference(workload)
    flipped = copy.deepcopy(ref)
    _flip_one(flipped)
    if "locpot" in flipped:
        flipped["locpot"]["conducting"]["monotone"]["a1_nondecreasing_after_first_decade"] = False
    attempted, failed = verdicts.compare(flipped, ref)
    assert attempted == verdicts.n_verdicts(ref)
    assert failed >= 1


def test_missing_run_fails_every_verdict():
    for workload in workloads.WORKLOADS:
        ref = _reference(workload)
        n = verdicts.n_verdicts(ref)
        assert verdicts.compare(ref, {}) == (n, n)


def test_min_eig_must_agree_to_a_share_of_tau():
    ref = _reference("upper-peel")
    cert = ref["upper"]["trace"][3]["certificates"][0]
    for share, ok in ((0.5, True), (2.0, False)):
        got = copy.deepcopy(ref)
        got["upper"]["trace"][3]["certificates"][0]["min_eig"] += (
            share * verdicts.MIN_EIG_TAU_SHARE * cert["tau"]
        )
        assert (verdicts.compare(ref, got)[1] == 0) is ok


def test_seeds_are_deterministic_and_keep_the_cracks_inside():
    for workload in workloads.WORKLOADS:
        base = workloads.scenario_dict(workload, 0)
        assert base["cracks"] == workloads.WORKLOADS[workload]["scenario"]["cracks"]
        for seed in range(1, 6):
            spec = workloads.scenario_dict(workload, seed)
            assert spec == workloads.scenario_dict(workload, seed)
            assert spec["cracks"] != base["cracks"]
            # grid margin: every crack point stays off the boundary pixel ring
            lo, hi = 1.0 / spec["grid"][0], 1.0 - 1.0 / spec["grid"][0]
            for crack in spec["cracks"]:
                for x, y in crack["polyline"]:
                    assert lo - 1e-12 <= x <= hi + 1e-12 and lo - 1e-12 <= y <= hi + 1e-12
            harness.build_scenario(harness.scenario_from_dict(spec))


def test_traced_run_keeps_report_bytes_and_restores_the_program(tmp_path):
    scenario = harness.scenario_from_dict(dict(workloads.COMMON, **SMALL))
    original = harness.run_scenario
    harness.run_scenario(scenario, str(tmp_path / "plain"))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.run_scenario is not original
        harness.run_scenario(scenario, str(tmp_path / "traced"))
    assert harness.run_scenario is original
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert sorted(metrics) == sorted(name for name, _ in tracing.PER_LAYER)
    assert all(end >= start for _, start, end, _ in tracer.spans)
    for name in ("fem.solve_neumann.calls", "fem.solve_source.calls",
                 "reconstruct.upper_bound_tests.calls", "ndmap.psd_test.calls"):
        assert metrics[name] > 0
    # self time never exceeds the span's own duration
    assert 0 <= metrics["ndmap.nd_matrix.self_s"] <= metrics["ndmap.nd_matrix.s"]


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == dict(tracing.PER_LAYER, **{"trace.overhead_s": "s"})
    with open(os.path.join(run.HERE, "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["blas_threads"] == run.BLAS_THREADS
    # every per-layer metric has a recorded prediction
    predicted = [name for p in meta["predictions"] for name in p["metrics"]]
    assert sorted(predicted) == sorted(per_layer)


def test_times_are_scaled_by_the_probe_run_after_them():
    ref = probe.REFERENCE_S
    assert run.scaled_median([1.0, 2.0, 9.0], [ref, 2 * ref, ref]) == 1.0


def test_probe_does_not_use_crackfind():
    # a change to crackfind must not move the probe that scales its times
    code = "import probe, sys; probe.measure(); print('crackfind' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "upper-peel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_invariants_fail_a_missing_method_and_a_failed_check():
    ref = _reference("locpot-contrast")
    results = {"chain": {"tests": [dict(t, min_eig=c["min_eig"], tau=c["tau"])
                                   for t in ref["chain"] for c in t["certificates"]]}}
    got = verdicts.extract(results)
    n = verdicts.n_verdicts(ref)
    # locpot is missing from the run: both variants fail, the chain passes
    assert verdicts.invariant_failures(ref, results, got) == (n, 2)
    results["chain"]["tests"][0]["passed"] = False
    got = verdicts.extract(results)
    assert verdicts.invariant_failures(ref, results, got) == (n, 3)
