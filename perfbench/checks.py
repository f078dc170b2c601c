"""Reference checks and failure accounting for one pass's outputs.

Every check compares an output with something that does not come from the
solver under test: the registry's published verdicts, the paper's bean
bounds, the nesting P_{k+1} in P_k, and a sampled hull of the curve
(`reference.SampledHull`). Reference data is built here, after the timed
passes have ended.

An operation fails when it raises IndeterminateResult, returns the verdict
Inconclusive, returns a bound that is missing or not Optimal, or returns a
boundary row whose status is not ok. A contradicted check is "wrong"; it is
also marked `on_failed` when the output it contradicts came from a failed
operation, which the program itself does not claim.
"""

import functools
import math

from quartichull import curves

import reference

WITNESS_CURVES = ("bean", "smoothconvex")
PAPER_BEAN_BOUNDS = {2: -0.1315, 3: -0.02915, 4: -0.009705}
PAPER_TOL = 5e-3
HIGH_ORDER_RANGE = (-0.02, 0.0)
DECREASE_TOL = 1e-5
MEMBERSHIP_SKIP = 1e-5
RATIONAL_SKIP = 1e-3
RESIDUAL_TOL = 1e-6


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # {"check", "detail", "on_failed"}

    def op(self, failed):
        self.attempted += 1
        self.failed += bool(failed)

    def check(self, ok, name, detail, on_failed=False):
        if not ok:
            self.wrong.append({"check": name, "detail": detail, "on_failed": bool(on_failed)})


def parse_bounds(stdout):
    """Rows (k, bound or None, status) of `quartichull minimize` output."""
    rows = []
    for line in stdout.splitlines()[1:]:
        k, bound, status = line.split(";")
        rows.append((int(k), float(bound) if bound else None, status))
    return rows


def parse_boundary_statuses(stdout):
    return [line.rsplit(";", 1)[1] for line in stdout.splitlines()
            if line and not line.startswith(("#", "angle"))]


def check_sweeps(outputs, ledger):
    for name, out in outputs.items():
        verdict = out["verdict"]
        ledger.op(failed=verdict == "Inconclusive")
        if verdict == "Inconclusive":
            continue
        expected = curves.lookup(name).expected_verdict
        ledger.check(verdict == expected, "verdict", f"{name}: {verdict} != {expected}")
        if name in WITNESS_CURVES and verdict == "NotExact":
            w = out["witness"]
            n = math.hypot(w[1], w[2]) if w else 0.0
            ok = n > 0 and math.hypot(w[1] / n - 1.0, w[2] / n) <= 1e-6
            ledger.check(ok, "witness", f"{name}: witness {w} not along (1, 0)")
        if name == "lemniscate":
            affine = [s for s in out["singular_points"] if not s["at_infinity"]]
            ok = bool(affine) and all(s["classification"] == "interior" for s in affine)
            ledger.check(ok, "node", f"lemniscate node classified "
                                     f"{[s['classification'] for s in affine]}")


def check_bounds(run, ledger):
    if run["rc"] != 0:
        for _ in range(7):
            ledger.op(failed=True)
        return []
    rows = parse_bounds(run["stdout"])
    bad = {}
    for k, b, status in rows:
        bad[k] = b is None or status != "Optimal"
        ledger.op(failed=bad[k])
    by_k = {k: b for k, b, _ in rows}
    for k, b in by_k.items():
        if b is None:
            continue
        if k in PAPER_BEAN_BOUNDS:
            ledger.check(abs(b - PAPER_BEAN_BOUNDS[k]) <= PAPER_TOL, "bean_bound",
                         f"k={k}: {b} vs paper {PAPER_BEAN_BOUNDS[k]}", bad[k])
        else:
            lo, hi = HIGH_ORDER_RANGE
            ledger.check(lo <= b <= hi, "bean_bound_range", f"k={k}: {b}", bad[k])
        prev = by_k.get(k - 1)
        if k >= 5 and prev is not None:
            ledger.check(b >= prev - DECREASE_TOL, "bean_bound_decrease",
                         f"k={k}: {b} below k={k - 1}: {prev}", bad[k] or bad[k - 1])
    return rows


@functools.lru_cache(maxsize=None)
def sampled_hull(name):
    return reference.SampledHull(curves.lookup(name).implicit)


def check_pass(workload, outputs):
    """Return (ledger, outcome summary) for one pass."""
    ledger = Ledger()
    outcome = {}
    if workload != "hierarchy":
        check_sweeps(outputs, ledger)
        outcome["verdicts"] = {n: o["verdict"] for n, o in outputs.items()}
        outcome["witnesses"] = {n: o["witness"] for n, o in outputs.items()}
        return ledger, outcome

    points = outputs["points"]
    hulls = {c: sampled_hull(c) for c in set(points["membership"]) | set(points["rational"])}

    member = {}
    for r in outputs["membership"]:
        ledger.op(failed="error" in r)
        if "error" not in r:
            member[(r["curve"], r["k"], r["i"])] = r
    for (c, k, i), r in member.items():
        small = abs(r["margin"]) < MEMBERSHIP_SKIP
        nxt = member.get((c, k + 1, i))
        if nxt is not None and nxt["inside"] and not small \
                and abs(nxt["margin"]) >= MEMBERSHIP_SKIP:
            ledger.check(r["inside"], "nesting",
                         f"{c} point {i}: inside P_{k + 1} (margin {nxt['margin']:.3g}) "
                         f"but outside P_{k} (margin {r['margin']:.3g})")
        hm = hulls[c].margin(points["membership"][c][i])
        if hm >= MEMBERSHIP_SKIP and not small:
            ledger.check(r["inside"], "hull_in_pk",
                         f"{c} point {i}: inside the sampled hull by {hm:.3g} "
                         f"but outside P_{k} (margin {r['margin']:.3g})")

    for r in outputs["rational"]:
        ledger.op(failed="error" in r)
        if r.get("hankel") or "error" in r:
            continue
        hm = hulls[r["curve"]].margin(points["rational"][r["curve"]][r["i"]])
        if abs(hm) > RATIONAL_SKIP:
            ledger.check(r["inside"] == (hm > 0), "rational_vs_hull",
                         f"{r['curve']} point {r['i']}: inside={r['inside']} "
                         f"but sampled-hull margin {hm:.3g}")

    rows = check_bounds(outputs["bounds"], ledger)

    statuses = parse_boundary_statuses(outputs["boundary"]["stdout"])
    if outputs["boundary"]["rc"] != 0:
        statuses += ["error"] * (180 - len(statuses))
    for s in statuses:
        ledger.op(failed=s != "ok")

    for r in outputs["certify"]:
        ledger.op(failed="error" in r)
        if "error" in r:
            continue
        ledger.check(r["found"], "certificate",
                     f"egg k={r['k']}: no certificate for the supporting line 2 - 2 x2")
        if r["found"]:
            ledger.check(r["residual"] < RESIDUAL_TOL, "certificate_residual",
                         f"egg k={r['k']}: residual {r['residual']:.3g}")

    outcome["bounds"] = [{"k": k, "bound": b, "status": s} for k, b, s in rows]
    outcome["bounds_sha256"] = outputs["bounds"]["sha256"]
    outcome["boundary_sha256"] = outputs["boundary"]["sha256"]
    outcome["boundary_statuses"] = {s: statuses.count(s) for s in sorted(set(statuses))}
    ok_rows = [r for r in outputs["membership"] if "error" not in r]
    outcome["membership_iters"] = sum(r["iters"] for r in ok_rows)
    outcome["membership_inside"] = sum(r["inside"] for r in ok_rows)
    outcome["membership_errors"] = len(outputs["membership"]) - len(ok_rows)
    outcome["rational_inside"] = sum(r.get("inside", False) for r in outputs["rational"])
    outcome["certify"] = outputs["certify"]
    return ledger, outcome
