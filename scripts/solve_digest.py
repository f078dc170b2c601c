#!/usr/bin/env python3
"""Digest every SDP solve of one benchmark workload, to check that a
refactor leaves each solve bit-identical, and tally the solve statuses, to
check that a refactor which moves the last digits leaves them unchanged.

Usage: python3 scripts/solve_digest.py [--list] sweep-smooth|sweep-singular|hierarchy

Runs the workload once through perfbench/one_pass.py (seed 1, one BLAS
thread) with quartichull.sdp.solve_stack, the entry that every solve goes
through (solve is its one-member case), rebound to a recording wrapper, as
perfbench/layertrace.py rebinds its targets. Prints three lines: the solve
count, a SHA-256 over (c, F0, F, eq_A, eq_b, status, message, iteration
count, z, violation) of every solve in call order, a stack contributing one
solve per member with its own row of each stacked argument, with F and eq_A
read from the compiled SdpProblem, and a SHA-256 of the workload's outputs
with the timing fields removed. Two trees whose three lines agree ran the same
problems to the same answers. Then prints one line per (status, message up
to its first "(", PSD block size) with its solve count, and the total
number of interior-point iterations.

With --list, first prints one line per solve, in call order: its index, its
PSD block size, SHA-256 prefixes of its inputs and of its outputs (the two
parts of what the solve digest hashes per solve) and the size of its stack.
Diff two trees' lists with the stack sizes cut off (`sed 's/ *stack .*//'`)
to find the solves that changed.
"""

import os

for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import one_pass  # noqa: E402
from quartichull import sdp  # noqa: E402

SEED = 1
TIMING_KEYS = ("ms", "seconds")


def _array(a):
    """The bytes that the digest reads of an array: its shape, then its data."""
    if a is None:
        return b"None"
    a = np.ascontiguousarray(a, dtype=float)
    return repr(a.shape).encode() + a.tobytes()


def _short(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _install(h, count, tally, listing):
    """Rebind sdp.solve_stack in every package module that holds it; append
    the line of each solve to listing when it is a list."""
    solve_stack = sdp.solve_stack

    def recorded(prob, c, F0, eq_b):
        sols = solve_stack(prob, c, F0, eq_b)
        n = prob.F.shape[1]
        member = [np.broadcast_to(a, (len(sols),) + a.shape[a.ndim - nd:])
                  for a, nd in ((np.asarray(c), 1), (np.asarray(F0), 2),
                                (np.asarray(eq_b), 1))]
        for sol, c1, F1, b1 in zip(sols, *member):
            count[0] += 1
            count[1] += len(sol.iterates)
            tally[(sol.status, sol.message.split("(")[0].strip(), n)] += 1
            given = b"".join(_array(a) for a in (c1, F1, prob.F, prob.eq_A, b1))
            got = (f"{sol.status}|{sol.message}|{len(sol.iterates)}".encode()
                   + _array(sol.z) + repr(float(sol.violation)).encode())
            h.update(given + got)
            if listing is not None:
                listing.append(f"{count[0] - 1:5d}  block {n:3d}  in {_short(given)}  "
                               f"out {_short(got)}  stack {len(sols):4d}")
        return sols

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("quartichull"):
            for attr, val in list(vars(mod).items()):
                if val is solve_stack:
                    setattr(mod, attr, recorded)


def _untimed(obj):
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def main():
    args = sys.argv[1:]
    listing = [] if args[:1] == ["--list"] else None
    args = args[1:] if listing is not None else args
    if len(args) != 1 or args[0] not in ("sweep-smooth", "sweep-singular", "hierarchy"):
        raise SystemExit(__doc__)
    workload = args[0]
    inputs = one_pass.make_inputs(workload, SEED)
    h, count, tally = hashlib.sha256(), [0, 0], Counter()
    _install(h, count, tally, listing)
    run = one_pass.run_hierarchy if workload == "hierarchy" else one_pass.run_sweeps
    _, outputs = run(inputs)
    text = json.dumps(_untimed(outputs), sort_keys=True, default=str)
    for line in listing or ():
        print(line)
    print(f"solves: {count[0]}")
    print(f"solve digest: {h.hexdigest()}")
    print(f"output digest: {hashlib.sha256(text.encode()).hexdigest()}")
    for (status, message, size), k in sorted(tally.items()):
        print(f"{k:5d}  {status}  block {size}  {message}")
    print(f"iterations: {count[1]}")


if __name__ == "__main__":
    main()
