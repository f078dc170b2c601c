"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each layer by rebinding module
attributes, including names that other modules imported with
`from .x import y`. No package source changes. Each call records a span
(name, start, end, parent span, info); spans stay in memory until the pass
ends and are summarised into per-layer counts and self times.

A target that the package no longer has is reported as absent instead of
failing the run, so a refactor that removes a private helper does not break
the benchmark.
"""

import collections
import functools
import importlib
import pkgutil
import sys
import time

import numpy as np


def _direction(args, kwargs, out):
    p, f = args[0], kwargs.get("f", args[1] if len(args) > 1 else None)
    u = np.asarray(f, dtype=float)
    u = u / np.linalg.norm(u)
    return (p, round(float(u[0]), 12), round(float(u[1]), 12))


def _order(args, kwargs, out):
    return kwargs.get("k", args[0] if args else None)


def _curve_and_order(args, kwargs, out):
    return (args[0], kwargs.get("k", args[1] if len(args) > 1 else None))


_FALLBACK_PREFIXES = ("converged to reduced accuracy",
                      "converged on the feasible side only")


def _solve_record(args, kwargs, sol):
    fallback = sol.status == "Optimal" and sol.message.startswith(_FALLBACK_PREFIXES)
    return (len(sol.iterates), sol.status, fallback)


# Wrapped functions, named by the module that defines them; every alias in
# the package that is the same object is rebound too.
TARGETS = [
    "sdp.solve",
    "sos.sos_margin", "sos.nonneg_quartic", "sos.certify_in_fk",
    "relaxation.membership", "relaxation.support", "relaxation.minimize_linear",
    "relaxation.boundary_points",
    "moments.build_moment_matrix", "moments.localizing_constraints",
    "exactness.tangent_support", "exactness.classify_boundary",
    "exactness.find_singularities", "exactness.check_concave",
    "exactness.curve_is_bounded", "exactness.quartic_minimizer",
    "exactness.sweep_exactness", "exactness._newton_polish",
    "poly.resultant", "poly.real_roots",
    "rational.hankel_representation", "rational.rational_membership",
    "cli.main",
]
# per-call data kept on the span: a key whose distinct share over calls is
# reported as `distinct_frac`, or the solver record
KEYS = {"moments.build_moment_matrix": _order,
        "moments.localizing_constraints": _curve_and_order,
        "exactness.tangent_support": _direction}
INFO = dict(KEYS, **{"sdp.solve": _solve_record})
SDP_STATS = ["ms_p50", "iters", "iters_per_call", "ms_per_iter", "not_optimal", "fallback"]


def metric_names():
    """Every per-layer metric the summary can report, in a fixed order."""
    names = [f"{n}.{stat}" for n in TARGETS for stat in ("calls", "self_s")]
    names += [f"sdp.solve.{s}" for s in SDP_STATS]
    names += [f"{n}.distinct_frac" for n in KEYS]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self.absent = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self, package="quartichull"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [mod for n, mod in sys.modules.items()
                   if mod is not None and (n == package or n.startswith(package + "."))]
        for name in TARGETS:
            m, a = name.split(".")
            fn = getattr(sys.modules.get(f"{package}.{m}"), a, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn, INFO.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)

    def summary(self):
        """Per-layer counts, self times and solver statistics. Metrics of an
        absent target are left out and its name is listed in `absent`."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
        by_name = {}
        for i, s in enumerate(spans):
            e = by_name.setdefault(s[0], {"calls": 0, "self_s": 0.0, "dur": [], "info": []})
            e["calls"] += 1
            e["self_s"] += (s[2] - s[1]) - child_s[i]
            e["dur"].append(s[2] - s[1])
            e["info"].append(s[4])
        empty = {"calls": 0, "self_s": 0.0, "dur": [], "info": []}
        out = {}
        for n in TARGETS:
            if n in self.absent:
                continue
            e = by_name.get(n, empty)
            out[f"{n}.calls"] = e["calls"]
            out[f"{n}.self_s"] = e["self_s"]
            if n in KEYS:
                out[f"{n}.distinct_frac"] = len(set(e["info"])) / e["calls"] if e["calls"] else 0.0
        if "sdp.solve" not in self.absent:
            e = by_name.get("sdp.solve", empty)
            calls = e["calls"]
            recs = [i for i in e["info"] if i is not None]  # None: the call raised
            iters = sum(r[0] for r in recs)
            out["sdp.solve.ms_p50"] = float(np.median(e["dur"]) * 1e3) if calls else 0.0
            out["sdp.solve.iters"] = iters
            out["sdp.solve.iters_per_call"] = iters / calls if calls else 0.0
            out["sdp.solve.ms_per_iter"] = 1e3 * sum(e["dur"]) / iters if iters else 0.0
            out["sdp.solve.not_optimal"] = sum(r[1] != "Optimal" for r in recs)
            out["sdp.solve.fallback"] = sum(r[2] for r in recs)
            out["sdp.solve.statuses"] = dict(collections.Counter(r[1] for r in recs))
        return out
