"""Scenario configuration and experiment orchestration.

A scenario file describes one synthetic experiment: the domain and its
measurement arc, the background conductivity, the cracks, the pixel grid,
the current basis size, and the methods to run on the simulated data.
``run_scenario`` builds everything, generates the measured matrix, runs the
selected methods, and returns a report in which every verdict carries a
stored eigenvalue certificate.

Data generation supports two safeguards against self-confirming synthetic
experiments. With ``anti_crime`` the crack signature is computed on a once
refined mesh (with the coarse current basis carried over by trace
interpolation, which is exact for piecewise-linear currents) and
transplanted onto the inversion mesh's crack-free response, so the data no
longer comes from the same discrete operator the inversion inverts. With
``noise > 0`` a seeded symmetric perturbation of relative spectral norm
``noise`` is added.

Reports are deterministic: timings are kept out of ``report.json`` and go
to a separate volatile file, so identical configs and seeds reproduce
identical report bytes.
"""

import dataclasses
import hashlib
import json
import os
import time

import numpy as np

from . import fem, geometry, locpot, ndmap, reconstruct

SHAPES = ("rect", "disk")
METHODS = ("upper", "inner", "chain", "locpot")
KIND_NAMES = {"insulating": geometry.INSULATING, "conducting": geometry.CONDUCTING}


class ScenarioError(ValueError):
    """Scenario rejected; ``problems`` itemizes every violation found."""

    def __init__(self, problems):
        problems = [str(p) for p in problems]
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One synthetic experiment, fully determined by its fields and seed."""

    name: str = "scenario"
    shape: str = "rect"
    size: tuple = (1.0, 1.0)
    h: float = 1.0 / 32
    gamma: object = "all"
    gamma0: object = 1.0
    cracks: tuple = ()
    grid: tuple = (8, 8)
    M: int = 32
    tau: object = None
    methods: tuple = ("upper",)
    mode: str = "both"
    inner_lengths: tuple = (1, 2, 4)
    locpot_n: tuple = ()
    noise: float = 0.0
    anti_crime: bool = False
    seed: int = 0

    def to_json(self):
        out = dataclasses.asdict(self)
        out["size"] = list(self.size)
        out["grid"] = list(self.grid)
        out["methods"] = list(self.methods)
        out["inner_lengths"] = list(self.inner_lengths)
        out["locpot_n"] = list(self.locpot_n)
        out["cracks"] = [
            {"kind": kind, "polyline": [list(p) for p in poly]}
            for kind, poly in self.cracks
        ]
        return out

    def crack_set_kinds(self):
        return {kind for kind, _ in self.cracks}


def _real(x):
    # a number proper: no bool, no string (true and "1e-3" must not convert
    # quietly)
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x):
    # a finite number above zero
    return _real(x) and bool(np.isfinite(x)) and x > 0


def _integer(x):
    # an int proper: no bool, no float (32.7 or 1.9 must not round quietly)
    return isinstance(x, int) and not isinstance(x, bool)


def _numbers(val, n):
    # whether val is a list of n numbers
    return (
        isinstance(val, (list, tuple))
        and len(val) == n
        and all(_real(x) for x in val)
    )


def _check_keys(obj, allowed, what, problems):
    # a misspelt optional key would otherwise be ignored without a word
    unknown = sorted(str(k) for k in set(obj) - set(allowed))
    if unknown:
        problems.append("%s has unknown keys: %s" % (what, ", ".join(unknown)))


def _check_gamma(gamma, problems):
    if gamma == "all":
        return
    if not isinstance(gamma, dict) or len(gamma) != 1:
        problems.append("gamma must be 'all' or a one-key selector dict")
        return
    key, val = next(iter(gamma.items()))
    if key == "side":
        if val not in ("left", "right", "bottom", "top"):
            problems.append("gamma side must be left/right/bottom/top")
    elif key == "box":
        if not _numbers(val, 4):
            problems.append("gamma box needs [xmin, ymin, xmax, ymax]")
    elif key == "angle":
        if not _numbers(val, 2):
            problems.append("gamma angle needs [a0, a1]")
    else:
        problems.append("unknown gamma selector %r" % key)


def _check_gamma0(gamma0, problems):
    if isinstance(gamma0, (int, float)):
        if not _positive(gamma0):
            problems.append("gamma0 must be a positive finite number")
        return
    if not isinstance(gamma0, dict):
        problems.append("gamma0 must be a number or a {default, boxes} map")
        return
    _check_keys(gamma0, ("default", "boxes"), "gamma0", problems)
    default = gamma0.get("default", 1.0)
    if not _positive(default):
        problems.append("gamma0 default must be a positive finite number")
    boxes = gamma0.get("boxes", ())
    if not isinstance(boxes, (list, tuple)):
        problems.append("gamma0 boxes must be a list")
        return
    for i, rule in enumerate(boxes):
        if not isinstance(rule, dict):
            problems.append("gamma0 box %d must be a {box, value} map" % i)
            continue
        _check_keys(rule, ("box", "value"), "gamma0 box %d" % i, problems)
        if not _numbers(rule.get("box"), 4):
            problems.append("gamma0 box %d needs [xmin, ymin, xmax, ymax]" % i)
        value = rule.get("value", 0.0)
        if not _positive(value):
            problems.append("gamma0 box %d value must be a positive finite number" % i)


def _point_inside(shape, size, p):
    x, y = p
    if shape == "rect":
        return 0 < x < size[0] and 0 < y < size[1]
    return x * x + y * y < size[0] ** 2


def validate_scenario(s):
    """Static consistency checks; returns a list of problems (empty = ok)."""
    problems = []
    if not s.name or not isinstance(s.name, str):
        problems.append("name must be a nonempty string")
    if s.shape not in SHAPES:
        problems.append("shape must be one of %s" % (SHAPES,))
        return problems
    want = 2 if s.shape == "rect" else 1
    if len(s.size) != want or not all(_positive(x) for x in s.size):
        problems.append("size needs %d positive finite number(s) for %s" % (want, s.shape))
        return problems
    extent = min(s.size) if s.shape == "rect" else 2 * s.size[0]
    if not (_real(s.h) and 0 < s.h <= extent / 4):
        problems.append("h must be positive and at most a quarter of the domain")
    _check_gamma(s.gamma, problems)
    _check_gamma0(s.gamma0, problems)
    for i, (kind, poly) in enumerate(s.cracks):
        if not isinstance(kind, str) or kind not in KIND_NAMES:
            problems.append("crack %d: kind must be insulating or conducting" % i)
        if len(poly) < 2:
            problems.append("crack %d: polyline needs at least two points" % i)
        for p in poly:
            if len(p) != 2:
                problems.append("crack %d: points must be 2D" % i)
                break
            if not all(_real(x) for x in p):
                problems.append("crack %d: point coordinates must be numbers" % i)
                break
            if not _point_inside(s.shape, s.size, p):
                problems.append("crack %d: point %s is not inside the domain" % (i, list(p)))
                break
    if len(s.grid) != 2 or not all(_integer(n) and n >= 3 for n in s.grid):
        problems.append("grid needs integers nx, ny >= 3 (a margin ring plus an interior)")
    if not (_integer(s.M) and s.M >= 1):
        problems.append("M must be an integer of at least 1")
    if s.tau is not None and not _positive(s.tau):
        problems.append("tau must be a positive finite number when given")
    if any(m not in METHODS for m in s.methods):
        problems.append("methods must be a subset of %s" % (METHODS,))
    elif len(set(s.methods)) != len(s.methods):
        problems.append("methods must not repeat")
    if s.mode not in ndmap.MODES:
        problems.append("mode must be one of %s" % (ndmap.MODES,))
    if not all(_integer(k) and k >= 1 for k in s.inner_lengths):
        problems.append("inner_lengths must be positive integers")
    elif len(set(s.inner_lengths)) != len(s.inner_lengths):
        problems.append("inner_lengths must not repeat")
    if not all(_positive(n) and n >= 1 for n in s.locpot_n):
        problems.append("locpot_n values must be positive numbers")
    elif any(a >= b for a, b in zip(s.locpot_n, s.locpot_n[1:])):
        problems.append("locpot_n must be strictly increasing")
    elif 0 < len(s.locpot_n) < 3:
        # the monotone flags compare the steps after the first value
        problems.append("locpot_n needs at least three values when given")
    if not (_real(s.noise) and np.isfinite(s.noise) and s.noise >= 0):
        problems.append("noise must be a nonnegative finite number")
    if not (_integer(s.seed) and s.seed >= 0):
        problems.append("seed must be a nonnegative integer")
    if not isinstance(s.anti_crime, bool):
        problems.append("anti_crime must be true or false")
    kinds = {kind for kind, _ in s.cracks if isinstance(kind, str)}
    if "inner" in s.methods and len(kinds) != 1:
        problems.append("the inner method needs cracks of exactly one kind")
    elif "inner" in s.methods and kinds == {"insulating"} and not any(
        isinstance(k, int) and k >= 2 for k in s.inner_lengths
    ):
        # a one-edge chain has no interior vertex to slit
        problems.append("insulating inner tests need an inner_lengths value of at least 2")
    if "locpot" in s.methods and kinds != set(KIND_NAMES):
        problems.append("locpot needs one insulating and one conducting crack region")
    return problems


def scenario_from_dict(obj):
    """Build a validated Scenario from a parsed config mapping."""
    if not isinstance(obj, dict):
        raise ScenarioError(["config must be a JSON object"])
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ScenarioError(["unknown fields: %s" % ", ".join(unknown)])
    problems = []
    cracks = obj.get("cracks", ())
    for i, c in enumerate(cracks if isinstance(cracks, (list, tuple)) else ()):
        if isinstance(c, dict):
            _check_keys(c, ("kind", "polyline"), "crack %d" % i, problems)
    kw = dict(obj)

    def real(x):
        # numbers become floats; anything else stays for validate_scenario
        return float(x) if _real(x) else x

    try:
        if "size" in kw:
            kw["size"] = tuple(real(x) for x in kw["size"])
        for key in ("grid", "methods", "inner_lengths", "locpot_n"):
            if key in kw:
                kw[key] = tuple(kw[key])
        if "cracks" in kw:
            kw["cracks"] = tuple(
                (c["kind"], tuple(tuple(real(x) for x in p) for p in c["polyline"]))
                for c in kw["cracks"]
            )
        for key in ("h", "noise", "tau"):
            if kw.get(key) is not None:
                kw[key] = real(kw[key])
        s = Scenario(**kw)
    except (TypeError, KeyError, ValueError, IndexError) as exc:
        raise ScenarioError(problems + ["malformed field: %s" % exc]) from exc
    problems += validate_scenario(s)
    if problems:
        raise ScenarioError(problems)
    return s


def load_scenario(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(["config is not valid JSON: %s" % exc]) from exc
    return scenario_from_dict(obj)


@dataclasses.dataclass
class Built:
    """Meshed realization of a scenario on the inversion mesh."""

    mesh: object
    cracks: object
    grid: object
    gamma0: object
    basis: object
    V: object
    W: object
    table: object


def _crack_region(grid, cracks, kind):
    # pixels meeting the cracks of one kind; both wings of every crack edge
    # lie inside, so the slit space nests in the region's excluded space
    touch = grid.crack_pixels(cracks.of_kind(kind))
    return geometry.PixelSet(grid, touch & geometry.interior_pixel_set(grid).members)


def build_scenario(s):
    """Mesh the scenario; raises ScenarioError with every build failure."""
    problems = validate_scenario(s)
    if problems:
        raise ScenarioError(problems)
    if s.shape == "rect":
        mesh = geometry.build_rect_mesh(s.size[0], s.size[1], s.h)
    else:
        mesh = geometry.build_disk_mesh(s.size[0], s.h)
    if s.gamma != "all":
        try:
            mesh = geometry.mark_gamma(mesh, s.gamma)
        except ValueError as exc:
            raise ScenarioError(["gamma selector: %s" % exc]) from exc
    cracks = None
    for i, (kind, poly) in enumerate(s.cracks):
        try:
            mesh, cracks = geometry.embed_crack(mesh, poly, KIND_NAMES[kind], cracks=cracks)
        except ValueError as exc:
            problems.append("crack %d: %s" % (i, exc))
    if problems:
        raise ScenarioError(problems)
    if cracks is None:
        cracks = geometry.CrackSet([])
    try:
        grid = geometry.PixelGrid(mesh, s.grid[0], s.grid[1])
    except ValueError as exc:
        raise ScenarioError(["grid: %s" % exc]) from exc
    try:
        basis = ndmap.build_basis(mesh, s.M)
    except ValueError as exc:
        raise ScenarioError(["basis: %s" % exc]) from exc
    gamma0 = fem.Conductivity.from_spec(mesh, s.gamma0)
    V = _crack_region(grid, cracks, geometry.INSULATING)
    W = _crack_region(grid, cracks, geometry.CONDUCTING)
    if {"chain", "locpot"} & set(s.methods):
        if V.members & W.members:
            raise ScenarioError(
                ["insulating and conducting crack regions overlap; separate the cracks"]
            )
        # the bracket regions live in the interior pixel ring, so a crack
        # poking into a boundary pixel would escape every frozen/excluded set
        lo = grid.origin + grid.h
        hi = grid.origin + np.array([grid.nx - 1, grid.ny - 1]) * grid.h
        for i, comp in enumerate(cracks.components):
            pts = mesh.vertices[list(comp.chain)]
            if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
                problems.append(
                    "crack %d reaches into the boundary pixel ring; the chain and "
                    "localized-potential methods need cracks inside the interior pixels" % i
                )
        if problems:
            raise ScenarioError(problems)
    table = ndmap.Configurations(mesh, gamma0, basis, cracks, V, W)
    return Built(mesh, cracks, grid, gamma0, basis, V, W, table)


def carry_basis(basis, fine_mesh):
    """Re-express a current basis on a refinement of its mesh.

    A refinement splits each coarse arc edge a -> b into a -> m -> b at its
    midpoint m. So along the fine arc every node that is not a coarse arc
    node sits between the two ends of its coarse edge, wrapping around on a
    closed arc, and takes the mean of their values. The piecewise-linear
    basis functions interpolate exactly and the result spans the same
    currents; orthonormality carries over because the arc and its measure
    are unchanged.
    """
    cm = basis.mesh
    pos = np.full(len(fine_mesh.vertices), -1)
    pos[cm.gamma_vertices()] = np.arange(len(cm.gamma_vertices()))
    # the coarse arc position each coarse arc edge leads to
    succ = np.full(len(cm.gamma_vertices()), -1)
    succ[pos[cm.gamma_edges[:, 0]]] = pos[cm.gamma_edges[:, 1]]
    order = fine_mesh.gamma_vertices()
    at = pos[order]
    new = np.flatnonzero(at < 0)
    # a new node's neighbours along the fine arc must be the ends a -> b of
    # one coarse arc edge, with the node at its midpoint
    a, b = pos[np.roll(order, 1)[new]], pos[np.roll(order, -1)[new]]
    ends = cm.vertices[cm.gamma_vertices()]
    A, B = ends[a], ends[b]
    off = (a < 0) | (b < 0) | (succ[a] != b) | (
        np.linalg.norm(fine_mesh.vertices[order[new]] - 0.5 * (A + B), axis=1)
        > 1e-9 * np.linalg.norm(B - A, axis=1)
    )
    if off.any():
        raise ValueError("arc node %d is not on a coarse arc edge" % order[new[np.argmax(off)]])
    vals = np.empty((len(order), basis.M))
    vals[at >= 0] = basis.vectors[at[at >= 0]]
    vals[new] = 0.5 * (basis.vectors[a] + basis.vectors[b])
    return ndmap.CurrentBasis(fine_mesh, vals)


def generate_data(s, built):
    """Measured matrix for the scenario, with a provenance record.

    Plain data is the ``"all"`` matrix of the run's configuration table.
    Anti-crime data keeps the table's crack-free (``"none"``) matrix on the
    inversion mesh and adds the crack signature computed on a once refined
    mesh, so the systematic part of the discretization error stays matched
    while the crack part comes from a different discrete operator.
    """
    provenance = {"seed": s.seed, "anti_crime": bool(s.anti_crime), "noise": float(s.noise)}
    if s.anti_crime:
        fine, fine_cracks = geometry.refine_mesh(built.mesh, built.cracks)
        fine_basis = carry_basis(built.basis, fine)
        fine_gamma0 = fem.Conductivity.from_spec(fine, s.gamma0)
        N_empty = built.table.nd("none")
        Nf_crack = ndmap.nd_matrix(fem.factorize(fine, fine_gamma0, fine_cracks), fine_basis)
        Nf_empty = ndmap.nd_matrix(fem.factorize(fine, fine_gamma0), fine_basis)
        entries = N_empty.entries + (Nf_crack.entries - Nf_empty.entries)
        entries = 0.5 * (entries + entries.T)
        data = ndmap.NdMatrix(entries, "anti-crime:" + Nf_crack.config_label, Nf_crack.kinds)
        provenance["fine_triangles"] = int(len(fine.triangles))
        provenance["signature_norm"] = float(
            np.linalg.norm(Nf_crack.entries - Nf_empty.entries, 2)
        )
    else:
        data = built.table.nd("all")
    if s.noise > 0:
        rng = np.random.default_rng(s.seed)
        noisy = ndmap.symmetric_noise(data, s.noise, rng)
        provenance["noise_norm"] = float(
            np.linalg.norm(noisy.entries - data.entries, 2)
        )
        data = noisy
    return data, provenance


def _chain_report(built, data, tau):
    """The five-configuration comparison chain around the crack-free map.

    The five matrices come from the run's configuration table, so a
    configuration the data or the localized potentials solved is not solved
    again. Every test entry is an ``ndmap.certificate`` record.
    """
    names = ("excluded V", "insulating", "none", "conducting", "frozen W")
    named = [(m.config_label, m) for m in map(built.table.nd, names)]
    # the measured matrix must also sit inside the bracket around its crack set
    pairs = list(zip(named, named[1:])) + [
        (named[0], ("data", data)),
        (("data", data), named[-1]),
    ]
    tests = [
        ndmap.certificate("%s >= %s" % (a, b), hi.entries - lo.entries, hi, tau)
        for (a, hi), (b, lo) in pairs
    ]
    return {"tests": tests, "passed": all(e["passed"] for e in tests)}


def run_scenario(s, out_dir=None):
    """Execute a scenario end to end; optionally write the artifact set.

    The inner candidates need only the mesh, the grid and the lengths, so a
    run whose lengths give no candidate chain raises ``ScenarioError``
    before the data is computed.
    """
    timings = {}
    t0 = time.perf_counter()
    built = build_scenario(s)
    timings["build"] = time.perf_counter() - t0

    if "inner" in s.methods:
        t0 = time.perf_counter()
        kind = KIND_NAMES[next(iter(s.crack_set_kinds()))]
        lengths = tuple(
            k for k in s.inner_lengths if kind != geometry.INSULATING or k >= 2
        )
        region = geometry.interior_pixel_set(built.grid)
        cands = reconstruct.axis_chain_candidates(built.mesh, region, lengths)
        if not cands:
            # nothing tested is no reconstruction and gets no score
            raise ScenarioError(
                ["inner_lengths %s give no candidate chain in the interior pixels"
                 % list(lengths)]
            )
        timings["inner"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    data, provenance = generate_data(s, built)
    timings["data"] = time.perf_counter() - t0

    results = {}
    # every artifact as text, keyed by file name
    artifacts = {"data_matrix.json": _dump_json(data.to_json())}
    if s.noise > 0:
        scale = ndmap.tau_for(data, s.tau)
        results["noise_check"] = {
            "noise_norm": provenance["noise_norm"],
            "tau": scale,
            "exceeds_tau": bool(provenance["noise_norm"] > scale),
        }

    for method in s.methods:
        t0 = time.perf_counter()
        if method == "upper":
            res = reconstruct.reconstruct_upper(
                data, built.mesh, built.gamma0, built.basis, built.grid,
                mode=s.mode, tau=s.tau,
            )
            # a failed initial bracket leaves the start region untouched,
            # which is no reconstruction and gets no score
            score = reconstruct.score(res, built.cracks, built.grid) if res.initial_ok else None
            results["upper"] = {"report": res.to_json(), "score": score}
            artifacts["upper_raster.csv"] = reconstruct.raster_csv(res.final_set)
        elif method == "inner":
            res = reconstruct.reconstruct_inner(
                data, built.mesh, built.gamma0, built.basis, cands, kind, tau=s.tau
            )
            results["inner"] = {
                "report": res.to_json(),
                "score": reconstruct.score(res, built.cracks, built.grid),
            }
        elif method == "chain":
            results["chain"] = _chain_report(built, data, s.tau)
        elif method == "locpot":
            runs = locpot.run_localized_demo(built.table, n_values=list(s.locpot_n) or None)
            results["locpot"] = {variant: rep for variant, (_, rep) in runs.items()}
            for variant, (seq, rep) in runs.items():
                artifacts["locpot_%s.csv" % variant] = locpot.sequence_to_csv(seq, rep)
        # the inner time also holds its candidate step
        timings[method] = timings.get(method, 0.0) + time.perf_counter() - t0

    report = RunReport(
        scenario=s.to_json(),
        provenance=provenance,
        results=results,
        manifest={},
        timings=timings,
    )
    if out_dir is not None:
        _write_artifacts(report, artifacts, out_dir)
    return report


@dataclasses.dataclass
class RunReport:
    """Everything a scenario run produced.

    ``to_json`` is ``report.json``, the one record of a run; the volatile
    timings and the manifest of file hashes are kept out of it.
    """

    scenario: dict
    provenance: dict
    results: dict
    manifest: dict
    timings: dict

    def to_json(self):
        return {
            "scenario": self.scenario,
            "data_provenance": self.provenance,
            "results": self.results,
        }


def _dump_json(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _write_artifacts(report, artifacts, out_dir):
    """Write ``report.json`` and the artifacts, then the hashes of them all."""
    os.makedirs(out_dir, exist_ok=True)
    texts = {"report.json": _dump_json(report.to_json()), **artifacts}
    report.manifest = {}
    for name in sorted(texts):
        blob = texts[name].encode()
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(blob)
        report.manifest[name] = hashlib.sha256(blob).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_dump_json({"files": report.manifest, "volatile": ["timings.json"]}))
    with open(os.path.join(out_dir, "timings.json"), "w") as fh:
        fh.write(_dump_json({k: round(v, 6) for k, v in report.timings.items()}))
