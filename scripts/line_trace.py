#!/usr/bin/env python3
"""List the statements of src/quartichull that neither tier-1 nor one pass
of the benchmark's workloads runs.

Usage: python3 scripts/line_trace.py

Runs tier-1 (`pytest -q --continue-on-collection-errors`) in this
interpreter under a line tracer, then one seed-1 pass of each benchmark
workload through perfbench/one_pass.py, read-only, as
scripts/solve_digest.py does, with one BLAS thread. Prints, per module,
the first line of each statement that no line event reached, then the
totals. A statement is one of the module's ast statements whose header
lines hold bytecode (a docstring, `global` or `nonlocal` holds none); it
ran when a line event reached one of those lines.

The tracer is armed before the package is imported, so module-level code
counts, and re-armed before each test's setup, call and teardown: one
installed once stops seeing the package partway through the suite. Tier-1
under the tracer takes about three times as long as without it.
"""

import os

for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import ast  # noqa: E402
import collections  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "quartichull")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

WORKLOADS = ("sweep-smooth", "sweep-singular", "hierarchy")
SEED = 1
HITS = collections.defaultdict(set)  # file -> lines that a line event reached


def _local(frame, event, arg):
    if event == "line":
        HITS[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PKG) else None


class _Rearm:
    """pytest plugin: arm the tracer before each phase of each test."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_global)

    def pytest_runtest_call(self, item):
        sys.settrace(_global)

    def pytest_runtest_teardown(self, item):
        sys.settrace(_global)


def _code_lines(code):
    """Every line that holds bytecode in code and the code objects in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path):
    """(first line, header lines with bytecode) of each statement of the
    module at path. A compound statement's header runs up to its body."""
    with open(path) as fh:
        source = fh.read()
    code = _code_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        header = set(range(first, last + 1)) & code
        if header:
            out.append((node.lineno, header))
    return sorted(out, key=lambda s: s[0])


def main():
    import pytest

    os.chdir(ROOT)
    sys.settrace(_global)
    rc = pytest.main(["-q", "--continue-on-collection-errors"], plugins=[_Rearm()])
    print(f"pytest exit code: {rc}")

    sys.settrace(_global)
    import one_pass

    for workload in WORKLOADS:
        run = one_pass.run_hierarchy if workload == "hierarchy" else one_pass.run_sweeps
        run(one_pass.make_inputs(workload, SEED))
    sys.settrace(None)

    total = unrun = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        stmts = statements(path)
        missed = [first for first, header in stmts if not header & HITS[path]]
        total += len(stmts)
        unrun += len(missed)
        print(f"{name[:-3]}: {len(missed)} of {len(stmts)}"
              + (f": {' '.join(map(str, missed))}" if missed else ""))
    print(f"unrun: {unrun} of {total} statements")


if __name__ == "__main__":
    main()
