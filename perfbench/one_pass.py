"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N [--setup-only] [--trace]
    python3 perfbench/one_pass.py --bounds-only

The package is read only through its public modules. Set-up (imports, the
curve registry, seeded points) ends at `ready`, a CLOCK_MONOTONIC reading
the parent compares with its own spawn time. Inputs are built with the
benchmark's own code, so no cached function of the package runs before the
timed calls. Every process also reports `speed`, the machine speed it ran
at relative to REF_RATE (see SpeedSampler). The last line of stdout is one
JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from quartichull import cli, curves, exactness, rational, relaxation, sos  # noqa: E402
from quartichull.sos import IndeterminateResult  # noqa: E402

import reference  # noqa: E402

SWEEP_CURVES = {"sweep-smooth": ("egg", "smoothconvex", "fermat"),
                "sweep-singular": ("lemniscate", "bean")}
MEMBERSHIP_CURVES = ("egg", "bean")
MEMBERSHIP_ORDERS = (2, 3, 4, 5)
MEMBERSHIP_GRID = (4, 5)  # 20 points, one per cell of the grown box
RATIONAL_CURVES = ("bean", "folium")
RATIONAL_GRID = (10, 20)  # 200 points
BOX_GROWTH = 0.3
BOUNDS_ARGV = ["minimize", "x1", "--curve", "bean", "-k", "2..8"]
BOUNDARY_ARGV = ["boundary", "--curve", "bean", "-k", "2..3", "-n", "90"]
CERTIFY_LINE = (2.0, 0.0, -2.0)
CERTIFY_ORDERS = (2, 3, 4)

# Kernel units per second that define the reference machine speed; times
# multiplied by `speed` read as seconds on a machine running at this rate.
REF_RATE = 25000.0
_KA = np.eye(6) * 3.0 + np.ones((6, 6))
_KB = np.arange(6.0)


def _kernel_unit():
    """Fixed work shaped like the package's inner loops: small dense linear
    algebra and interpreter arithmetic."""
    w = np.linalg.eigvalsh(_KA)
    x = np.linalg.solve(_KA, _KB)
    s = 0.0
    for i in range(300):
        s += i * 0.5
    return s + w[0] + x[0]


def kernel_speed(seconds):
    """Speed relative to REF_RATE from running the kernel for `seconds`."""
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        _kernel_unit()
        n += 1
    return n / (time.perf_counter() - t0) / REF_RATE


class SpeedSampler:
    """Machine speed during a pass. The shared machine's speed drifts by tens
    of percent within seconds and minutes, so a SIGALRM handler times a few
    kernel units every INTERVAL seconds of the pass; the median rate over
    the pass is its speed. The samples cost about 0.5% of the pass."""

    INTERVAL = 0.05
    UNITS = 5

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        for _ in range(self.UNITS):
            _kernel_unit()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        if len(self.samples) < 5:
            return kernel_speed(0.2)
        return self.UNITS / statistics.median(self.samples) / REF_RATE


def _box_points(rng, p, grid):
    """One uniform point per cell of a grid over the curve's bounding box
    grown by BOX_GROWTH. Stratifying keeps the mix of inside, outside and
    near-boundary points, and so the cost of a pass, similar across seeds."""
    lo1, hi1, lo2, hi2 = reference.bounding_box(p)
    g = BOX_GROWTH
    n1, n2 = grid
    i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    u = (i.ravel() + rng.uniform(size=i.size)) / n1
    v = (j.ravel() + rng.uniform(size=j.size)) / n2
    return np.column_stack([lo1 - g + u * (hi1 - lo1 + 2 * g),
                            lo2 - g + v * (hi2 - lo2 + 2 * g)])


def make_inputs(workload, seed):
    """Seeded inputs. The sweeps take the registry curves and the paper's
    360 directions, so their inputs do not depend on the seed."""
    if workload in SWEEP_CURVES:
        return {name: curves.lookup(name).implicit for name in SWEEP_CURVES[workload]}
    if workload != "hierarchy":
        raise SystemExit(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    return {
        "membership": {c: _box_points(rng, curves.lookup(c).implicit, MEMBERSHIP_GRID)
                       for c in MEMBERSHIP_CURVES},
        "rational": {c: _box_points(rng, curves.lookup(c).implicit, RATIONAL_GRID)
                     for c in RATIONAL_CURVES},
        "certify": curves.lookup("egg").implicit,
    }


def _run_cli(argv):
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    dt = time.perf_counter() - t
    text = buf.getvalue()
    return {"argv": argv, "rc": rc, "seconds": dt, "stdout": text,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_sweeps(inputs):
    times, out = {}, {}
    for name, p in inputs.items():
        t = time.perf_counter()
        v = exactness.sweep_exactness(p, n=360)
        times[f"check_s.{name}"] = time.perf_counter() - t
        out[name] = {
            "verdict": v.verdict,
            "witness": None if v.witness is None else [float(c) for c in v.witness.coeffs],
            "singular_points": [
                {"location": [float(c) for c in s.location.normalized().coords],
                 "at_infinity": s.at_infinity, "classification": s.classification}
                for s in v.singular_points],
            "evidence": json.loads(json.dumps(v.evidence, default=str)),
        }
    return times, out


def run_hierarchy(inputs):
    times = {}
    out = {"points": {part: {c: pts.tolist() for c, pts in inputs[part].items()}
                      for part in ("membership", "rational")}}
    rows = []
    for c, pts in inputs["membership"].items():
        p = curves.lookup(c).implicit
        for k in MEMBERSHIP_ORDERS:
            for i, x in enumerate(pts):
                t = time.perf_counter()
                try:
                    r = relaxation.membership(p, k, x)
                    row = {"inside": bool(r.inside), "margin": float(r.margin),
                           "iters": len(r.solution.iterates)}
                except IndeterminateResult as exc:
                    row = {"error": str(exc)}
                row.update(curve=c, k=k, i=i, ms=1e3 * (time.perf_counter() - t))
                rows.append(row)
    out["membership"] = rows

    rows = []
    for c, pts in inputs["rational"].items():
        t = time.perf_counter()
        try:
            rep = rational.hankel_representation(curves.lookup(c).param)
            rows.append({"curve": c, "hankel": True, "ms": 1e3 * (time.perf_counter() - t)})
        except ValueError as exc:
            rows.append({"curve": c, "hankel": True, "error": str(exc)})
            continue
        for i, x in enumerate(pts):
            t = time.perf_counter()
            try:
                r = rational.rational_membership(rep, x)
                row = {"inside": bool(r.inside), "margin": float(r.margin)}
            except IndeterminateResult as exc:
                row = {"error": str(exc)}
            row.update(curve=c, i=i, ms=1e3 * (time.perf_counter() - t))
            rows.append(row)
    out["rational"] = rows

    out["bounds"] = _run_cli(BOUNDS_ARGV)
    times["bounds_s"] = out["bounds"]["seconds"]
    out["boundary"] = _run_cli(BOUNDARY_ARGV)
    times["boundary_s"] = out["boundary"]["seconds"]

    rows = []
    t0 = time.perf_counter()
    for k in CERTIFY_ORDERS:
        try:
            cert = sos.certify_in_fk(CERTIFY_LINE, inputs["certify"], k)
            rows.append({"k": k, "found": cert is not None,
                         "residual": None if cert is None else float(cert.residual)})
        except IndeterminateResult as exc:
            rows.append({"k": k, "error": str(exc)})
    times["certify_s"] = time.perf_counter() - t0
    out["certify"] = rows

    for c in inputs["membership"]:
        for k in MEMBERSHIP_ORDERS:
            times[f"membership_ms.mean.{c}.k{k}"] = float(np.mean(
                [r["ms"] for r in out["membership"] if r["curve"] == c and r["k"] == k]))
    member_ms = [r["ms"] for r in out["membership"]]
    rational_ms = [r["ms"] for r in out["rational"] if not r.get("hankel")]
    for name, ms in (("membership_ms", member_ms), ("rational_ms", rational_ms)):
        times[f"{name}.p50"] = float(np.percentile(ms, 50))
        times[f"{name}.p90"] = float(np.percentile(ms, 90))
    return times, out


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            f = fh.read().split()
        return {"load1": float(f[0]), "running": int(f[3].split("/")[0])}
    except (OSError, ValueError, IndexError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--bounds-only", action="store_true")
    args = ap.parse_args()

    if args.bounds_only:
        print(json.dumps({"bounds": _run_cli(BOUNDS_ARGV)}))
        return
    inputs = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": kernel_speed(0.2)}))
        return

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    load_start = _loadavg()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        if args.workload == "hierarchy":
            times, outputs = run_hierarchy(inputs)
        else:
            times, outputs = run_sweeps(inputs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    load_end = _loadavg()
    result = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "speed": sampler.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "times": times, "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
