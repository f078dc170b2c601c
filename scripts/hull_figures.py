#!/usr/bin/env python3
"""Render the relaxed-hull boundary figures for every bounded example curve.

Writes one SVG per curve into the output directory (default: figures/),
layering the order-2 and order-3 boundary polygons over the curve samples.

Usage: python3 scripts/hull_figures.py [outdir] [n_angles]
"""

import pathlib
import sys

from quartichull.cli import main as cli_main

BOUNDED = ("egg", "bean", "waterdrop", "lemniscate", "folium",
           "smoothconvex", "fermat")


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("figures")
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 90
    outdir.mkdir(parents=True, exist_ok=True)
    for name in BOUNDED:
        out = outdir / f"{name}.svg"
        code = cli_main(["boundary", "--curve", name, "-k", "2..3",
                         "-n", str(n), "--format", "svg",
                         "--out", str(out)])
        print(f"{name}: {'ok' if code == 0 else f'exit {code}'} -> {out}")


if __name__ == "__main__":
    main()
