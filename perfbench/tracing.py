"""Per-layer spans and counts, recorded from outside the program.

The traced run replaces public functions and methods of the crackfind
modules with pass-through wrappers. Every internal call in crackfind goes
through a module attribute or a module global, so setting the attribute
reaches it. Each wrapper records a span (name, start, end, parent span) and
counts taken from return values. Spans stay in memory until
the run ends; ``layer_metrics`` then turns one iteration's spans into the
per-layer metrics. The untraced run installs nothing.
"""

import contextlib
import importlib
import time


# (module, attribute path, None or (count key, value taken from the result));
# the layers are the crackfind modules, the traced names their public entry
# points, and a span is named "module.path" (a constructor by its class)
TRACED = [
    ("geometry", "pixelset_is_admissible",
     ("geometry.admissible", lambda r: int(bool(r)))),
    ("geometry", "peel_candidates", None),
    ("geometry", "CrackSet.validate", None),
    ("geometry", "embed_crack", None),
    ("geometry", "refine_mesh", None),
    ("fem", "build_dofmap", ("fem.dofs", lambda r: r.n_dofs)),
    ("fem", "assemble_stiffness", ("fem.stiffness_nnz", lambda r: r.nnz)),
    ("fem", "Factorization.__init__", None),
    ("fem", "solve_neumann", None),
    ("fem", "solve_source", None),
    ("ndmap", "nd_matrix", None),
    ("ndmap", "psd_test", ("ndmap.passed", lambda r: int(bool(r[0])))),
    ("ndmap", "default_tau", None),
    ("ndmap", "build_basis", None),
    ("reconstruct", "upper_bound_tests", None),
    ("reconstruct", "reconstruct_upper", None),
    ("reconstruct", "reconstruct_inner", None),
    ("reconstruct", "axis_chain_candidates",
     ("reconstruct.candidates", lambda r: len(r))),
    ("reconstruct", "score", None),
    ("locpot", "build_source_operator",
     ("locpot.build_source_operator.columns", lambda r: r.matrix.shape[1])),
    ("locpot", "pick_y0", None),
    ("locpot", "localized_sequence", None),
    ("harness", "build_scenario", None),
    ("harness", "generate_data", None),
    ("harness", "run_scenario", None),
]

# per-layer metrics of one traced run, each with its unit; the benchmark
# adds trace.overhead_s, the traced minus the untraced wall time
CALLS_AND_TIME = [
    "geometry.pixelset_is_admissible", "geometry.CrackSet.validate",
    "fem.build_dofmap", "fem.assemble_stiffness", "fem.Factorization",
    "fem.solve_neumann", "fem.solve_source", "ndmap.nd_matrix", "ndmap.psd_test",
    "ndmap.default_tau", "reconstruct.upper_bound_tests",
    "locpot.build_source_operator",
]
TIME_ONLY = [
    "geometry.peel_candidates", "geometry.embed_crack", "geometry.refine_mesh",
    "ndmap.build_basis", "reconstruct.axis_chain_candidates", "reconstruct.score",
    "locpot.pick_y0", "locpot.localized_sequence", "harness.build_scenario",
    "harness.generate_data",
]
SELF_TIME = [
    "ndmap.nd_matrix", "reconstruct.reconstruct_upper",
    "reconstruct.reconstruct_inner", "harness.run_scenario",
]
PER_LAYER = (
    [(n + ".calls", "count") for n in CALLS_AND_TIME]
    + [(n + ".s", "s") for n in CALLS_AND_TIME + TIME_ONLY]
    + [(n + ".self_s", "s") for n in SELF_TIME]
    + [
        ("geometry.admissible_ratio", "ratio"),
        ("fem.dofs_mean", "count"),
        ("fem.stiffness_nnz_mean", "count"),
        ("ndmap.pass_ratio", "ratio"),
        ("reconstruct.candidates", "count"),
        ("locpot.build_source_operator.columns", "count"),
    ]
)


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counts of one iteration."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                key, value = count
                self.counts[key] = self.counts.get(key, 0) + value(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        saved = []
        try:
            for module, path, count in TRACED:
                owner = importlib.import_module("crackfind." + module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                name = "%s.%s" % (module, path.removesuffix(".__init__"))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans, counts):
    """Per-layer metric values from one iteration's spans and counts."""
    total, calls, child = {}, {}, [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    for (name, start, end, _), inner in zip(spans, child):
        self_time[name] = self_time.get(name, 0.0) + (end - start - inner)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for n in CALLS_AND_TIME:
        out[n + ".calls"] = calls.get(n, 0)
    for n in CALLS_AND_TIME + TIME_ONLY:
        out[n + ".s"] = total.get(n, 0.0)
    for n in SELF_TIME:
        out[n + ".self_s"] = self_time.get(n, 0.0)
    out["geometry.admissible_ratio"] = ratio(
        counts.get("geometry.admissible", 0), calls.get("geometry.pixelset_is_admissible", 0)
    )
    out["fem.dofs_mean"] = ratio(counts.get("fem.dofs", 0), calls.get("fem.build_dofmap", 0))
    out["fem.stiffness_nnz_mean"] = ratio(
        counts.get("fem.stiffness_nnz", 0), calls.get("fem.assemble_stiffness", 0)
    )
    out["ndmap.pass_ratio"] = ratio(counts.get("ndmap.passed", 0), calls.get("ndmap.psd_test", 0))
    out["reconstruct.candidates"] = counts.get("reconstruct.candidates", 0)
    out["locpot.build_source_operator.columns"] = counts.get(
        "locpot.build_source_operator.columns", 0
    )
    return out
