"""quartichull benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is read from ./src).
Each pass of a workload runs in a fresh interpreter, one at a time, with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1.

--trace 0 runs untraced passes while the next one still ends within S
seconds (at least one) and reports the end-to-end metrics as medians.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass and the tracing overhead.

Times are scaled to a reference machine speed that each process measures
while it runs (one_pass.SpeedSampler), because the speed of a shared
machine drifts by tens of percent; the unscaled seconds are recorded too.

Every pass's outputs are checked against references that do not come from
the solver (see checks.py). The report names every metric; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}. The full
record (environment, load, outcomes, contradicted checks, layers) is
written to perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ONE_PASS = os.path.join(HERE, "one_pass.py")
RESULTS = os.path.join(HERE, "results")
sys.path[:0] = [HERE, SRC]

from layertrace import metric_names  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _v in THREAD_VARS:  # the benchmark process itself stays single-threaded
    os.environ[_v] = "1"

WORKLOADS = ("sweep-smooth", "sweep-singular", "hierarchy")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
# a 1-minute load above this means something besides the benchmark's own
# single process was running when a pass started
BUSY_LOAD = 1.5

# per-operation metrics of each workload; they are printed and recorded, and
# BENCHMARK.json gates only the metrics that every workload shares
COMPONENTS = {
    "sweep-smooth": ["check_s.egg", "check_s.smoothconvex", "check_s.fermat"],
    "sweep-singular": ["check_s.lemniscate", "check_s.bean"],
    "hierarchy": ["membership_ms.p50", "membership_ms.p90", "rational_ms.p50",
                  "rational_ms.p90", "bounds_s", "boundary_s", "certify_s"],
}
UNITS = {"peak_rss_mb": "MB", "speed": "ratio",
         "fail_frac": "share", "wrong_count": "count", "trace.overhead": "ratio",
         "outcome.wrong_count": "count", "outcome.fail_frac": "share"}


class BenchError(RuntimeError):
    pass


STAT_UNITS = {"self_s": "s", "ms_p50": "ms", "ms_per_iter": "ms", "p50": "ms", "p90": "ms",
              "iters_per_call": "iters", "distinct_frac": "share"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("check_s.") or name.endswith("_s"):
        return "s"
    return STAT_UNITS.get(name.rsplit(".", 1)[-1], "count")


def child_env(pinned=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for v in THREAD_VARS:
        if pinned:
            env[v] = "1"
        else:
            env.pop(v, None)
    return env


def spawn(args, deadline, pinned=True):
    """Run one_pass.py in a fresh interpreter; return (spawn time, result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a pass")
    t = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, ONE_PASS, *args], cwd=ROOT,
                              env=child_env(pinned), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} ran past the {RUN_LIMIT_S:.0f} s run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t, json.loads(lines[-1])


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "threads": {v: "1" for v in THREAD_VARS},
        "pythonhashseed": "0",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def _median(values):
    return float(statistics.median(values))


def thread_drift(bounds_stdout, deadline):
    """Largest difference between the pinned bean bounds and one untimed run
    of the chain with default BLAS threads (None when a side has no value)."""
    import checks
    _, res = spawn(["--bounds-only"], deadline, pinned=False)
    pinned = {k: b for k, b, _ in checks.parse_bounds(bounds_stdout)}
    default = {k: b for k, b, _ in checks.parse_bounds(res["bounds"]["stdout"])}
    diffs = [abs(pinned[k] - default[k]) for k in pinned
             if pinned[k] is not None and default.get(k) is not None]
    complete = len(diffs) == len(pinned) == len(default)
    return {"max_abs_diff": max(diffs) if diffs and complete else None,
            "default_sha256": res["bounds"]["sha256"]}


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    seed_args = ["--workload", workload, "--seed", str(seed)]

    setup = []  # (raw seconds, speed) of set-up-only interpreters
    for _ in range(SETUP_PROBES):
        t, res = spawn(seed_args + ["--setup-only"], deadline)
        setup.append((res["ready"] - t, res["speed"]))

    # untraced passes while the next one, at the median pass time so far, fits
    # in `seconds`; a traced run makes one untraced and one traced pass
    passes = []
    measured = time.monotonic()
    while not passes or (trace and len(passes) < 2) or (not trace and (
            time.monotonic() - measured + _median([p["wall_s"] for p in passes]) <= seconds)):
        traced = trace and len(passes) == 1
        t, res = spawn(seed_args + (["--trace"] if traced else []), deadline)
        res["setup_s"] = res["ready"] - t
        res["traced"] = traced
        res["pass_s"] = res["wall_s"] * res["speed"]
        passes.append(res)
    untraced = [p for p in passes if not p["traced"]]

    import checks
    ledgers = []
    for p in passes:
        ledger, outcome = checks.check_pass(workload, p["outputs"])
        ledgers.append(ledger)
        p["outcome"] = outcome
    wrong = []  # contradicted checks, each listed once however many passes saw it
    for w in (w for lg in ledgers for w in lg.wrong):
        if w not in wrong:
            wrong.append(w)
    attempted = sum(lg.attempted for lg in ledgers)
    failed = sum(lg.failed for lg in ledgers)
    wrong_count = max(len(lg.wrong) for lg in ledgers)

    # times are scaled to the reference speed; raw seconds are in the record
    e2e = {
        "setup_s": _median([raw * speed for raw, speed in setup]),
        "pass_s": _median([p["pass_s"] for p in untraced]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        "fail_frac": failed / attempted,
        "wrong_count": wrong_count,
    }
    for name in COMPONENTS[workload]:
        e2e[name] = _median([p["times"][name] * p["speed"] for p in untraced])
    raw = {
        "setup_s": _median([r for r, _ in setup]),
        "wall_s": _median([p["wall_s"] for p in untraced]),
        "cpu_s": _median([p["cpu_s"] for p in untraced]),
        "speed": _median([p["speed"] for p in untraced]),
    }

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "end_to_end": e2e,
        "raw": raw,
        "setup_samples": setup,
        "passes": [{
            "traced": p["traced"], "pass_s": p["pass_s"], "speed": p["speed"],
            "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
            "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
            "loadavg_start": p["loadavg_start"], "loadavg_end": p["loadavg_end"],
            "busy": bool(p["loadavg_start"]) and p["loadavg_start"]["load1"] > BUSY_LOAD,
            "times": p["times"],
            "outcome": p["outcome"],
        } for p in passes],
        "wrong": wrong,
        "attempted": attempted,
        "failed": failed,
    }
    if trace and workload == "hierarchy":
        record["thread_drift"] = thread_drift(untraced[0]["outputs"]["bounds"]["stdout"],
                                              deadline)

    if trace:
        tp = next(p for p in passes if p["traced"])
        layers = {n: v * tp["speed"] if _unit(n) in ("s", "ms") else v
                  for n, v in tp["layers"].items()}
        record["layers"] = layers
        record["absent"] = tp["absent"]
        record["spans"] = tp["spans"]
        metrics = {n: layers[n] for n in metric_names() if n in layers}
        metrics["trace.overhead"] = tp["pass_s"] / untraced[0]["pass_s"]
        metrics["outcome.wrong_count"] = wrong_count
        metrics["outcome.fail_frac"] = e2e["fail_frac"]
    else:
        metrics = {n: e2e[n] for n in ("setup_s", "pass_s", "peak_rss_mb")}
    record["metrics"] = metrics

    result = {
        "correct": not any(not w["on_failed"] for w in wrong),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, result, path)
    return result


def report(record, result, path):
    w = record["workload"]
    print(f"== {w} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])}")
    for name, v in record["end_to_end"].items():
        print(f"  {name} = {v:.6g} {_unit(name)}")
    print("  unscaled: " + ", ".join(f"{n} = {v:.6g}" for n, v in record["raw"].items()))
    if record["trace"]:
        for name, v in record["metrics"].items():
            if name not in record["end_to_end"]:
                print(f"  {name} = {v:.6g} {_unit(name)}")
        if record["absent"]:
            print(f"  absent: {', '.join(record['absent'])}")
    busy = sum(p["busy"] for p in record["passes"])
    if busy:
        print(f"  WARNING: {busy} pass(es) started on a busy machine (load1 > {BUSY_LOAD})")
    if "thread_drift" in record:
        print(f"  bean bounds, pinned vs default threads: max |diff| = "
              f"{record['thread_drift']['max_abs_diff']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for item in record["wrong"]:
        tag = " (on a failed operation)" if item["on_failed"] else ""
        print(f"  wrong: {item['check']}: {item['detail']}{tag}")
    print(f"  record: {os.path.relpath(path, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quartichull", "__init__.py")):
        print(f"error: no quartichull sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            out = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in WORKLOADS}
        else:
            out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
