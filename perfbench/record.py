"""Record the benchmark's committed reference files.

    python3 perfbench/record.py references        # reference/<workload>.json
    python3 perfbench/record.py baseline          # baseline_trace.json

``references`` runs every workload once at seed 0 and stores its verdicts
with their certificates; the benchmark compares every seed-0 run with them.
Re-record only when a change is meant to alter verdicts, and say so.
``baseline`` runs ``run.py --trace 1`` on every workload at seed 0 and
stores the printed per-layer metrics as the baseline later changes cite.
"""

import json
import os
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy loads
import verdicts
import workloads

BASELINE_SECONDS = 40


def record_references():
    harness = run.import_harness()
    for name in sorted(workloads.WORKLOADS):
        spec = workloads.scenario_dict(name, 0)
        out_dir = os.path.join(run.OUT, "record-%s" % name)
        try:
            report = harness.run_scenario(harness.scenario_from_dict(spec), out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        ref = {"workload": name, "seed": 0, "scenario": spec,
               "verdicts": verdicts.extract(report.results)}
        path = os.path.join(run.HERE, "reference", name + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            # one verdict per line; the breaks fall between list items only
            fh.write(json.dumps(ref, sort_keys=True).replace('}, {"', '},\n{"') + "\n")
        print("wrote %s (%d verdicts)" % (path, verdicts.n_verdicts(ref["verdicts"])))


def record_baseline():
    out = {}
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
               "--seed", "0", "--seconds", str(BASELINE_SECONDS), "--trace", "1"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        out[name] = {"info": lines[-2], **json.loads(lines[-1])}
    path = os.path.join(run.HERE, "baseline_trace.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    what = sys.argv[1:] or ["references"]
    if what not in (["references"], ["baseline"]):
        sys.exit(__doc__)
    record_references() if what == ["references"] else record_baseline()
