#!/usr/bin/env python3
"""Run a fixed set of CLI invocations and print, for each, its exit code,
the SHA-256 of its stdout and its argv, one line per invocation.

Usage: python3 scripts/cli_digest.py [--rss] > OUT.txt

The invocations: `check` (text and json) and `singularities` for the seven
registry curves, `check --poly` on four polynomials (the Fermat quartic, a
parabola, a non-reduced circle and an isolated point outside a circle, whose
verdict reads the lines from the point that touch the circle), `check --poly
--format json` and `singularities --poly` on the non-reduced circle (its
singular locus is a whole curve, listed as one record), `check --poly`
and `singularities --poly` for the bean moved so that its triple point lies
at (0.25, 0.5) and for the lemniscate moved so that its node does (off the
origin, the tangency polish sets its seeds onto a node that elimination
solved in rounded arithmetic), `sos --curve egg --line 2,0,-2` at the
default order and at k=4 (a certificate on the boundary of the Gram cone,
of rank 2), `sos --curve bean --line 3,1,0 -k 4` (one in its interior),
`rational` on folium (text) and bean (text and json), `minimize x1
--curve bean -k 2..8`, `boundary --curve bean -k 2..3 -n 90`, `minimize x2
--curve egg -k 2..4`, `minimize x1 --curve egg -k 2..8` (the egg's
high-order compiles) and `boundary --curve egg -k 2..3 -n 24`, which read
the one registry relaxation that the facial reduction at infinity changes
(the egg's), and `check --poly` on x1 inside 1000 parentheses, a parse
error (exit 64). Each runs the CLI of this tree's src/ in a fresh interpreter
with one BLAS thread. Two trees print the same bytes for these invocations
exactly when their outputs diff clean.

With --rss, each line ends with the peak resident set size of its
interpreter (its ru_maxrss, read with os.wait4), in MB.
"""

import hashlib
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CURVES = ("egg", "bean", "waterdrop", "lemniscate", "folium", "smoothconvex", "fermat")
POLYS = ("1 - x1^4 - x2^4", "x2 - x1^2", "-(x1^2 + x2^2 - 1)^2",
         "-(x1^2 + x2^2)*((x1 - 2)^2 + x2^2 - 1)")
MOVED_BEAN = ("(x1 - 0.25)*((x1 - 0.25)^2 + (x2 - 0.5)^2) - (x1 - 0.25)^4"
              " - (x1 - 0.25)^2*(x2 - 0.5)^2 - (x2 - 0.5)^4")
MOVED_LEMNISCATE = "(x1 - 0.25)^2 - (x2 - 0.5)^2 - ((x1 - 0.25)^2 + (x2 - 0.5)^2)^2"


def invocations():
    for name in CURVES:
        yield ["check", "--curve", name]
        yield ["check", "--curve", name, "--format", "json"]
        yield ["singularities", "--curve", name]
    for text in POLYS:
        yield ["check", f"--poly={text}"]  # '=' keeps a leading '-' a value
    yield ["check", f"--poly={POLYS[2]}", "--format", "json"]
    yield ["singularities", f"--poly={POLYS[2]}"]
    for text in (MOVED_BEAN, MOVED_LEMNISCATE):
        yield ["check", f"--poly={text}"]
        yield ["singularities", f"--poly={text}"]
    yield ["sos", "--curve", "egg", "--line", "2,0,-2"]
    yield ["sos", "--curve", "egg", "--line", "2,0,-2", "-k", "4"]
    yield ["sos", "--curve", "bean", "--line", "3,1,0", "-k", "4"]
    yield ["rational", "--curve", "folium"]
    yield ["rational", "--curve", "bean", "--format", "json"]
    yield ["rational", "--curve", "bean"]
    yield ["minimize", "x1", "--curve", "bean", "-k", "2..8"]
    yield ["boundary", "--curve", "bean", "-k", "2..3", "-n", "90"]
    yield ["minimize", "x2", "--curve", "egg", "-k", "2..4"]
    yield ["minimize", "x1", "--curve", "egg", "-k", "2..8"]
    yield ["boundary", "--curve", "egg", "-k", "2..3", "-n", "24"]
    yield ["check", "--poly=" + "(" * 1000 + "x1" + ")" * 1000]


def run(argv, env):
    """The exit code, the stdout and the peak RSS in MB of one invocation."""
    proc = subprocess.Popen([sys.executable, "-m", "quartichull.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by proc
    return proc.returncode, out, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def main():
    if sys.argv[1:] not in ([], ["--rss"]):
        raise SystemExit(__doc__)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for argv in invocations():
        code, out, rss = run(argv, env)
        line = f"{code:3d}  {hashlib.sha256(out).hexdigest()}  {shlex.join(argv)}"
        print(line + (f"  {rss:.1f} MB" if sys.argv[1:] else ""), flush=True)


if __name__ == "__main__":
    main()
