#!/usr/bin/env python3
"""Write a BENCH file: perfbench/run.py records of a parent tree and of this
tree, run in alternating pairs, with per-pair metrics, medians and quartiles.

Usage:
    python3 scripts/bench_file.py --parent DIR --out BENCH_N.json
        --parent-label HASH [--claim WORKLOAD:METRIC]
        --pairs WORKLOAD=COUNT [--pairs ...]

DIR is a source checkout of the parent commit (`git archive` or `git clone`
of it) and HASH that commit's hash. For every --pairs entry the script runs
`perfbench/run.py --workload W --seed 1 --seconds T --trace 0` COUNT times in
each tree, T being BENCHMARK.json's `run_seconds`, one run at a time, the
parent first in even-numbered pairs, and reads the record that run.py writes
to perfbench/results/. Each record's `environment.commit` is set to its
side: HASH for the parent, "change" for this tree, which may be uncommitted.
The file is rewritten after every pair, so an interrupted run keeps the pairs
it made.

The layout: `about`; `claim` (workload and metric, or null for a change
that claims no gain); then per workload and seed `summary` (median,
quartiles and count per side for every end-to-end metric of BENCHMARK.json,
and, with a claim, how many pairs the change wins on the claimed metric),
`pairs` (the end-to-end metrics and failed operations of each pair, and the
win on the claimed metric) and `records` (the JSON of every run, per side).
Quartiles are statistics.quantiles(method="inclusive").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def _run(tree, workload, seconds, label):
    """One perfbench run in `tree`; returns the record it wrote, its commit
    set to `label`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(tree, "perfbench", "results", f"{workload}-seed{SEED}-trace0.json")
    with open(path) as f:
        record = json.load(f)
    record["environment"]["commit"] = label
    return record


def _about(parent_label, seconds):
    """The `about` text of a BENCH file."""
    return (f"Parent ({parent_label}) and change records of perfbench/run.py "
            f"--workload W --seed {SEED} --seconds {seconds:g} --trace 0, "
            "run in alternating pairs on one machine (the parent first in "
            "even-numbered pairs), written by scripts/bench_file.py. `records` hold "
            "the JSON that run.py writes to perfbench/results/, with "
            "`environment.commit` set to the side: the parent's hash, or \"change\" "
            "for the tree under test; `pairs` list the end-to-end metrics of each "
            "pair; `summary` gives the median and quartiles per side.")


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _entry(records, metrics, claim_metric, better_lower):
    """summary, pairs and records of one workload and seed; no wins are
    counted when claim_metric is None."""
    pairs, wins = [], 0
    for i, (par, chg) in enumerate(zip(records["parent"], records["change"])):
        pair = {"index": i, "first": "parent" if i % 2 == 0 else "change"}
        for m in metrics:
            pair[m] = {"parent": par["end_to_end"][m], "change": chg["end_to_end"][m]}
        pair["failed"] = {"parent": par["failed"], "change": chg["failed"]}
        if claim_metric:
            p, c = pair[claim_metric]["parent"], pair[claim_metric]["change"]
            win = c < p if better_lower else c > p
            pair[f"change_wins_{claim_metric}"] = win
            wins += win
        pairs.append(pair)
    summary = {m: {side: _stats([pair[m][side] for pair in pairs])
                   for side in ("parent", "change")} for m in metrics} if len(pairs) > 1 else {}
    if claim_metric:
        summary[f"change_wins_{claim_metric}"] = f"{wins}/{len(pairs)}"
    return {"summary": summary, "pairs": pairs, "records": records}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="source checkout of the parent commit")
    ap.add_argument("--parent-label", required=True, help="the parent's commit hash")
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain; none by default")
    ap.add_argument("--pairs", action="append", required=True, help="WORKLOAD=COUNT")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    claim_workload, claim_metric = args.claim.split(":") if args.claim else (None, None)
    better_lower = claim_metric and {m["name"]: m["better"] == "lower"
                                     for m in bench["end_to_end"]}[claim_metric]
    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    labels = {"parent": args.parent_label, "change": "change"}
    out = {
        "about": _about(args.parent_label, seconds),
        "claim": {"workload": claim_workload, "metric": claim_metric} if args.claim else None,
        "workloads": {},
    }
    for workload, count in plan:
        records = {"parent": [], "change": []}
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                records[side].append(_run(trees[side], workload, seconds, labels[side]))
            entry = _entry(records, metrics, claim_metric, better_lower)
            out["workloads"].setdefault(workload, {})[f"seed{SEED}"] = entry
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)
                f.write("\n")
            pair = entry["pairs"][-1]
            print(f"{workload} pair {i}: " + ", ".join(
                f"{m} {pair[m]['parent']:.4g} -> {pair[m]['change']:.4g}" for m in metrics),
                flush=True)


if __name__ == "__main__":
    main()
