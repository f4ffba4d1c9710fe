"""Verdicts of a scenario run, checked against a reference or against invariants.

A verdict is one decision the run makes:

- upper: the initial bracket test or one peel attempt;
- inner: one candidate chain;
- chain: one test of the monotonicity chain;
- locpot: one variant, which must be visible and pass both monotone flags.

``extract`` reduces a report's results to these verdicts with their
certificates. At seed 0 a run is compared with the committed reference of
its workload; at any other seed the crack positions differ from the
reference, so only the invariants that need no reference are checked. Both
checks return ``(attempted, failed)`` counts, from which the benchmark takes
its failure fraction.
"""

# certificates agree when their smallest eigenvalues differ by at most this
# share of the reference threshold; with the default tau (1e-8 times the
# minuend's norm) that is 1e-10 times the norm
MIN_EIG_TAU_SHARE = 1e-2


def _cert(c):
    return {"min_eig": c["min_eig"], "tau": c["tau"]}


def extract(results):
    """Verdicts of one run, in the order the run made them."""
    out = {}
    if "upper" in results:
        rep = results["upper"]["report"]
        out["upper"] = {
            "initial_ok": rep["initial_ok"],
            "final_members": rep["final_members"],
            "trace": [
                {
                    "pixel": e.get("pixel"),
                    "passed": e["passed"],
                    "certificates": [_cert(c) for c in e["certificates"]],
                }
                for e in rep["peel_trace"]
            ],
        }
    if "inner" in results:
        rep = results["inner"]["report"]
        out["inner"] = [
            {"chain": e["chain"], "passed": passed, "certificates": [_cert(e)]}
            for passed, key in ((True, "accepted"), (False, "rejected"))
            for e in rep[key]
        ]
    if "chain" in results:
        out["chain"] = [
            {"test": t["test"], "passed": t["passed"], "certificates": [_cert(t)]}
            for t in results["chain"]["tests"]
        ]
    if "locpot" in results:
        out["locpot"] = {
            variant: {"visible": True, "monotone": rep["monotone"]}
            for variant, rep in results["locpot"].items()
        }
    return out


def n_verdicts(verdicts):
    """How many verdicts a run with these verdicts attempts."""
    n = 0
    for method, v in verdicts.items():
        n += len(v["trace"]) if method == "upper" else len(v)
    return n


def _certs_agree(ref, got):
    if len(ref) != len(got):
        return False
    return all(
        abs(r["min_eig"] - g["min_eig"]) <= MIN_EIG_TAU_SHARE * r["tau"]
        for r, g in zip(ref, got)
    )


def _same(ref, got, keys):
    if got is None or any(ref[k] != got[k] for k in keys):
        return False
    return _certs_agree(ref["certificates"], got["certificates"])


def compare(reference, got):
    """(attempted, failed): verdicts that differ from or are missing in ``got``."""
    attempted = failed = 0
    if "upper" in reference:
        ref = reference["upper"]
        run = got.get("upper", {"trace": [], "final_members": None, "initial_ok": False})
        n = max(len(ref["trace"]), len(run["trace"]))
        bad = sum(
            1
            for i in range(n)
            if i >= len(ref["trace"])
            or i >= len(run["trace"])
            or not _same(ref["trace"][i], run["trace"][i], ("pixel", "passed"))
        )
        if not bad and run["final_members"] != ref["final_members"]:
            bad = 1
        if not run["initial_ok"]:
            bad = n
        attempted += n
        failed += bad
    for method, ident in (("inner", lambda e: tuple(e["chain"])), ("chain", lambda e: e["test"])):
        if method not in reference:
            continue
        ref = {ident(e): e for e in reference[method]}
        run = {ident(e): e for e in got.get(method, [])}
        keys = set(ref) | set(run)
        attempted += len(keys)
        failed += sum(
            1 for k in keys if k not in ref or not _same(ref[k], run.get(k), ("passed",))
        )
    if "locpot" in reference:
        run = got.get("locpot", {})
        for variant, ref in reference["locpot"].items():
            attempted += 1
            failed += int(run.get(variant) != ref or not _locpot_ok(ref))
    return attempted, failed


def _locpot_ok(v):
    return v["visible"] and all(v["monotone"].values())


def invariant_failures(reference, results, got):
    """(attempted, failed) by the checks that hold for every crack position.

    Upper must pass its initial bracket and reach recall 1.0, inner must
    cover some crack edge, every chain test must pass, and both locpot
    variants must be visible with both monotone flags set. A failed
    run-level check, or a method of the reference missing from the run,
    fails every verdict of that method.
    """
    attempted = failed = 0
    for method, ref in reference.items():
        mine = got.get(method)
        if method == "upper":
            n = len((mine or ref)["trace"])
            ok = mine is not None and mine["initial_ok"] and results["upper"]["score"]["recall"] == 1.0
            bad = 0 if ok else n
        elif method == "inner":
            n = len(mine or ref)
            ok = mine is not None and results["inner"]["score"]["edge_coverage"] > 0
            bad = 0 if ok else n
        elif method == "chain":
            n = len(mine or ref)
            bad = n if mine is None else sum(1 for t in mine if not t["passed"])
        else:
            n = len(ref)
            bad = sum(1 for v in ref if mine is None or v not in mine or not _locpot_ok(mine[v]))
        attempted += n
        failed += bad
    return attempted, failed
