#!/usr/bin/env python3
"""Record the n=360 exactness sweeps of the registry curves, and compare
them with a record of another tree within a tolerance.

Usage: python3 scripts/sweep_compare.py --out NEW.json [--against OLD.json] [curve ...]

Runs `exactness.sweep_exactness(p, n=360)` with one BLAS thread on every
registry curve (or the named ones) and writes, per curve, the verdict, the
witness, the singular points, the evidence and the sweep rows as JSON.
With --against, prints per curve the largest difference of the sweep's
margin column, of its min p_f column, of the witness and of the other
numbers, and exits 1 when a verdict, a string or flag (classification,
evidence reason, ...) or the shape of a record differs, or when any two
numbers differ by more than 1e-9.
`scripts/solve_digest.py` checks bit-identity; this script checks changes
that move the solves in their last digits.
"""

import os

for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quartichull import curves, exactness  # noqa: E402

TOL = 1e-9
# the parts of a record whose largest differences are printed: the sweep's
# margin and min p_f columns, the witness, and every other number (the sweep
# angles among them)
PARTS = ("margin", "min_pf", "witness", "other")


def record(names):
    return {name: json.loads(exactness.sweep_exactness(
        curves.lookup(name).implicit, n=360).to_json()) for name in names}


def _walk(old, new, path, diffs, mismatches):
    """Collect the absolute differences of matching numbers per part of the
    record (the first key of the path), and every mismatch that is not a
    numeric difference."""
    number = (int, float)
    if isinstance(old, bool) or isinstance(new, bool) or not (
            isinstance(old, number) and isinstance(new, number)):
        if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
            for k in old:
                _walk(old[k], new[k], path + (k,), diffs, mismatches)
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (a, b) in enumerate(zip(old, new)):
                _walk(a, b, path + (i,), diffs, mismatches)
        elif old != new:
            mismatches.append(f"{'/'.join(map(str, path))}: {old!r} != {new!r}")
        return
    part = "witness" if path[0] == "witness" else "other"
    if path[0] == "sweep" and path[2] > 0:
        part = ("margin", "min_pf")[path[2] - 1]  # the columns after the angle
    diffs[part] = max(diffs.get(part, 0.0), abs(float(old) - float(new)))


def compare(old, new):
    """Print the differences per curve; return whether the records agree."""
    ok = old.keys() == new.keys()
    if not ok:
        print(f"curves differ: {sorted(old)} != {sorted(new)}")
    for name in sorted(old.keys() & new.keys()):
        diffs, mismatches = {}, []
        _walk(old[name], new[name], (), diffs, mismatches)
        bad = mismatches or any(d > TOL for d in diffs.values())
        ok = ok and not bad
        parts = ", ".join(f"{k} {diffs.get(k, 0.0):.3g}" for k in PARTS)
        print(f"{name:14s} {'DIFFERS' if bad else 'ok':8s} max |diff|: {parts}")
        for m in mismatches[:10]:
            print(f"{'':14s} {m}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="write the sweep record here")
    ap.add_argument("--against", help="a record written by another tree")
    ap.add_argument("curves", nargs="*", help="registry curves (default: all)")
    args = ap.parse_args()
    rec = record(args.curves or curves.curve_names())
    with open(args.out, "w") as fh:
        json.dump(rec, fh, indent=1)
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        if not compare(old, rec):
            sys.exit(1)


if __name__ == "__main__":
    main()
