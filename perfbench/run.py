"""crackfind benchmark: run one workload closed-loop and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload upper-peel --seed 0 --seconds 40 --trace 0

The scenario of the workload (see ``workloads.py``) is built from the seed and
run through ``harness.scenario_from_dict`` and ``harness.run_scenario`` with
an output directory, one run after another in this process, until the next
run would end after ``--seconds``. The first run is a warm-up whose times are
not kept. Every run's verdicts are checked: at seed 0 against the committed
reference in ``reference/``, at other seeds against the invariants that need
no reference.

With ``--trace 0`` nothing is wrapped, and the metrics are the end-to-end
ones: median set-up time (``build_scenario`` plus ``generate_data``, as the
run's own timings report them), median solve time (the rest of
``run_scenario``) and the process's peak resident memory. Each run is
followed by the host speed probe of ``probe.py``, and both times are scaled
by it to seconds at the probe's reference speed; the raw medians and the
median probe time are printed on the line before the result. With
``--trace 1`` untraced and traced runs alternate; the traced ones wrap the
layers (see ``tracing.py``), their ``report.json`` must be byte-identical to
the untraced one, and the metrics are the per-layer medians plus the tracing
overhead.
Spans are written to ``.perfbench_out/`` when the measurement ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (verdicts) and ``metrics``.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# pinned before numpy loads (in import_harness); a single BLAS thread keeps
# runs comparable on a shared two-core machine, and the dense work is small
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

import probe  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


def import_harness():
    """The checkout's own crackfind harness; exits nonzero when the source is absent."""
    if not os.path.isfile(os.path.join(SRC, "crackfind", "__init__.py")):
        sys.exit("perfbench: no crackfind source under %s" % SRC)
    sys.path.insert(0, SRC)
    import crackfind.harness

    if not os.path.abspath(crackfind.harness.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: crackfind was imported from outside %s" % SRC)
    return crackfind.harness


def load_reference(workload):
    with open(os.path.join(HERE, "reference", workload + ".json")) as fh:
        ref = json.load(fh)
    if ref["scenario"] != workloads.scenario_dict(workload, 0):
        sys.exit("perfbench: reference/%s.json was recorded for another scenario" % workload)
    return ref


def peak_rss_mb():
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(harness, scenario, out_dir):
    """One closed-loop run: (report, wall seconds, set-up seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    report = harness.run_scenario(scenario, out_dir)
    wall = time.perf_counter() - t0
    return report, wall, report.timings["build"] + report.timings["data"]


def scaled_median(samples, probes):
    """Median of the samples, each scaled to the host speed of ``probe.REFERENCE_S``."""
    return statistics.median(x * probe.REFERENCE_S / p for x, p in zip(samples, probes))


def measure(harness, scenario, seconds, traced_runs, reference, at_reference, out_dir):
    """Run until the budget is spent; returns the result line, spans and run info.

    ``reference`` holds the workload's seed-0 verdicts. Runs are compared
    with it when ``at_reference``; otherwise the cracks sit elsewhere and
    only the invariants apply.
    """
    expected = verdicts.n_verdicts(reference)
    setup, solve, probes, walls = [], [], [], {False: [], True: []}
    layers, spans = [], []
    attempted = failed = 0
    plain_report = None
    start = time.perf_counter()
    i = 0
    while True:
        # the first run warms caches and lazy imports; its verdicts count,
        # its times do not
        warm_up = i == 0
        traced = traced_runs and i % 2 == 1
        tracer = tracing.Tracer()
        run_dir = os.path.join(out_dir, "traced" if traced else "plain")
        began = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                report, wall, set_up = run_once(harness, scenario, run_dir)
        except Exception:
            # a run that raises fails every verdict it would have made; it has
            # no set-up split, so its wall time stands in for missing samples
            traceback.print_exc()
            attempted, failed = attempted + expected, failed + expected
            wall = time.perf_counter() - began
            if not solve:
                setup, solve, probes = [wall], [wall], [probe.REFERENCE_S]
            break
        got = verdicts.extract(report.results)
        if at_reference:
            a, f = verdicts.compare(reference, got)
        else:
            a, f = verdicts.invariant_failures(reference, report.results, got)
        with open(os.path.join(run_dir, "report.json"), "rb") as fh:
            blob = fh.read()
        if traced and blob != plain_report:
            print("perfbench: traced report.json differs from the untraced one", file=sys.stderr)
            f = a
        plain_report = plain_report if traced else blob
        attempted, failed = attempted + a, failed + f
        print("# run %d%s traced=%d wall=%.4f setup=%.4f failed=%d/%d rss_mb=%.1f"
              % (i, " warm-up" if warm_up else "", traced, wall, set_up, f, a, peak_rss_mb()),
              file=sys.stderr)
        if not warm_up:
            walls[traced].append(wall)
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
                spans.append(tracer.spans)
            else:
                setup.append(set_up)
                solve.append(wall - set_up)
                if not traced_runs:
                    probes.append(probe.measure())
        i += 1
        done = walls[False] and (walls[True] or not traced_runs)
        now = time.perf_counter()
        if done and now - start + (now - began) > seconds:
            break

    if traced_runs:
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers) if layers else 0.0,
                   "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
        overhead = (
            statistics.median(walls[True]) - statistics.median(walls[False])
            if walls[True] and walls[False] else 0.0
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": scaled_median(setup, probes), "unit": "s"},
            "solve_s": {"value": scaled_median(solve, probes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    info = {"runs": i}
    if probes:
        info.update(probe_s=statistics.median(probes), raw_setup_s=statistics.median(setup),
                    raw_solve_s=statistics.median(solve))
    return result, spans, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = import_harness()
    reference = load_reference(args.workload)["verdicts"]
    scenario = harness.scenario_from_dict(workloads.scenario_dict(args.workload, args.seed))
    out_dir = os.path.join(OUT, "run-%d" % os.getpid())
    try:
        result, spans, info = measure(
            harness, scenario, args.seconds, bool(args.trace),
            reference, args.seed == 0, out_dir,
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if spans:
        path = os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "runs": spans}, fh)
    print(
        "# workload=%s seed=%d shifts=%s %s blas_threads=%d python=%s numpy=%s scipy=%s"
        % (args.workload, args.seed, list(workloads.crack_shifts(args.workload, args.seed)),
           " ".join("%s=%.6g" % kv for kv in info.items()), BLAS_THREADS,
           platform.python_version(),
           sys.modules["numpy"].__version__, sys.modules["scipy"].__version__)
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
