"""Command line front end.

Every subcommand reads a scenario config (JSON) and writes its artifacts to
an output directory. Scenario fields can be overridden from the command
line without editing the config. Errors are reported as a single JSON
object on stdout; exit code 2 means the config itself was rejected, 1 means
the run failed, a verification verdict was negative, or the upper method's
initial bracket failed (its result then carries no score).
"""

import argparse
import dataclasses
import json
import sys

from . import harness

COMMANDS = (
    "simulate",
    "ndmatrix",
    "reconstruct-upper",
    "reconstruct-inner",
    "locpot-demo",
    "verify-monotonicity",
)

# a subcommand pins the method set; the config's own list is used by none
FORCED_METHODS = {
    "reconstruct-upper": ("upper",),
    "reconstruct-inner": ("inner",),
    "locpot-demo": ("locpot",),
    "verify-monotonicity": ("chain",),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crackfind",
        description="Simulate boundary measurements on cracked domains and "
        "reconstruct the cracks by operator monotonicity tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--modes", type=int, default=None, help="current basis size M")
        p.add_argument("--anti-crime", choices=("on", "off"), default=None)
        p.add_argument("--noise", type=float, default=None)
    return parser


def _apply_overrides(s, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.tau is not None:
        updates["tau"] = args.tau
    if args.modes is not None:
        updates["M"] = args.modes
    if args.anti_crime is not None:
        updates["anti_crime"] = args.anti_crime == "on"
    if args.noise is not None:
        updates["noise"] = args.noise
    forced = FORCED_METHODS.get(args.command)
    if forced:
        updates["methods"] = forced
    if args.command in ("simulate", "ndmatrix"):
        updates["methods"] = ()
    s = dataclasses.replace(s, **updates)
    if args.command == "ndmatrix":
        # the plain operator on the inversion mesh, no measurement effects
        s = dataclasses.replace(s, noise=0.0, anti_crime=False)
    return s


def _fail(kind, payload, code):
    out = {"error": kind}
    out.update(payload)
    print(json.dumps(out, sort_keys=True))
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        scenario = harness.load_scenario(args.config)
    except harness.ScenarioError as exc:
        return _fail("invalid config", {"problems": exc.problems}, 2)
    except OSError as exc:
        return _fail("unreadable config", {"detail": str(exc)}, 2)

    scenario = _apply_overrides(scenario, args)
    try:
        # the run validates the scenario, overrides included, before it
        # writes anything
        report = harness.run_scenario(scenario, out_dir=args.out)
    except harness.ScenarioError as exc:
        return _fail("invalid config", {"problems": exc.problems}, 2)
    except Exception as exc:  # noqa: BLE001 - surface any run failure as JSON
        return _fail("run failed", {"detail": "%s: %s" % (type(exc).__name__, exc)}, 1)

    summary = {"command": args.command, "out": args.out, "artifacts": sorted(report.manifest)}
    ok = True
    if args.command == "verify-monotonicity":
        ok = summary["passed"] = report.results["chain"]["passed"]
    if "upper" in report.results:
        ok = summary["initial_ok"] = report.results["upper"]["report"]["initial_ok"]
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
