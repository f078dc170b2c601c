"""Command-line front end: exactness checks, boundary sweeps, linear bounds,
rational representations, SOS certificates and singularity reports.

Exit codes: 0 Exact / success, 1 NotExact, 2 Inconclusive or solver failure,
64 bad input. Floating-point output is printed at 12 significant digits so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import curves as curves_mod
from . import exactness as exactness_mod
from . import rational as rational_mod
from . import relaxation as relaxation_mod
from .poly import SupportLine, format_poly, parse_poly
from .relaxation import _fmt
from .sos import IndeterminateResult, certify_in_fk

__all__ = ["main"]

EXIT_EXACT = 0
EXIT_NOT_EXACT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _round12(obj):
    """Recursively round floats to 12 significant digits for stable JSON."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return str(obj)
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_poly(args):
    given = [bool(args.curve), bool(args.poly), bool(args.poly_file)]
    if sum(given) != 1:
        raise UsageError("exactly one of --curve, --poly, --poly-file required")
    record = None
    if args.curve:
        try:
            record = curves_mod.lookup(args.curve)
        except KeyError as exc:
            raise UsageError(exc.args[0])
        return record.implicit, record
    text = args.poly
    if args.poly_file:
        try:
            with open(args.poly_file) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise UsageError(f"cannot read polynomial file: {exc}")
    try:
        p = parse_poly(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse polynomial: {exc}")
    if p.is_zero():
        raise UsageError("the zero polynomial defines no curve")
    if p.degree > 4:
        raise UsageError(f"curve polynomial has degree {p.degree}; at most 4 is supported")
    return p, None


def _parse_orders(text):
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
            orders = list(range(lo, hi + 1))
        else:
            orders = [int(text)]
    except ValueError:
        raise UsageError(f"bad order specification {text!r}")
    if not orders:
        raise UsageError("empty order range")
    if any(k < 2 for k in orders):
        raise UsageError("relaxation order must be >= 2")
    return orders


def _add_flags(sub, order=False, samples=False, formats=()):
    """The curve source and --out, plus the flags the command reads."""
    sub.add_argument("--curve", help="registry curve name")
    sub.add_argument("--poly", help="curve polynomial text, e.g. '1 - x1^4 - x2^4'")
    sub.add_argument("--poly-file", help="file containing the curve polynomial")
    if order:
        sub.add_argument("-k", "--order", default="2",
                         help="relaxation order, single ('3') or range ('2..5')")
    if samples:
        sub.add_argument("-n", "--samples", type=int, default=360,
                         help="number of angles")
    if formats:
        sub.add_argument("--format", choices=formats, default="csv")
    sub.add_argument("--out", help="output path (default stdout)")


def _build_parser():
    parser = _Parser(prog="quartichull",
                     description="Semidefinite representations of convex "
                                 "hulls of plane quartic curves")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check", help="decide exactness of the first relaxation")
    _add_flags(s, samples=True, formats=("csv", "json"))

    s = subs.add_parser("boundary", help="boundary sweep of the relaxed hulls")
    _add_flags(s, order=True, samples=True, formats=("csv", "json", "svg"))

    s = subs.add_parser("minimize", help="lower bounds on a linear objective")
    s.add_argument("objective", help="linear objective, e.g. 'x1' or 'x1 + 2*x2'")
    _add_flags(s, order=True, formats=("csv", "json"))

    s = subs.add_parser("rational", help="two-lifting Hankel representation")
    _add_flags(s, formats=("csv", "json"))

    s = subs.add_parser("sos", help="SOS membership certificate for a line")
    s.add_argument("--line", required=True,
                   help="line coefficients f0,f1,f2 (e.g. '2,0,-2')")
    _add_flags(s, order=True)

    s = subs.add_parser("singularities", help="real singular points of the curve")
    _add_flags(s)
    return parser


def cmd_check(args):
    p, record = _load_poly(args)
    verdict = exactness_mod.sweep_exactness(p, n=args.samples)
    if args.format == "json":
        _emit(json.dumps(_round12(json.loads(verdict.to_json())), indent=2), args.out)
    else:
        lines = [f"verdict: {verdict.verdict}"]
        if verdict.witness is not None:
            w = verdict.witness.normalized()
            lines.append(f"witness: {format_poly(w.affine_poly())}")
        for s in verdict.singular_points:
            if not s.certified:  # a curve of singular points (SingularPoint.to_dict)
                lines.append("singular locus (affine): not isolated "
                             "(grid-fallback samples, not certified)")
                continue
            loc = s.location.normalized().coords
            where = "infinity" if s.at_infinity else "affine"
            lines.append(
                f"singular point ({where}): ({_fmt(loc[0])}, {_fmt(loc[1])}, "
                f"{_fmt(loc[2])}) [{s.classification}]")
        _emit("\n".join(lines) + "\n", args.out)
    if verdict.verdict == "Exact":
        return EXIT_EXACT
    if verdict.verdict == "NotExact":
        return EXIT_NOT_EXACT
    return EXIT_INCONCLUSIVE


def _svg_document(layers, curve_pts, width=640):
    """Layers: list of (label, [(x1, x2), ...]) polygons, outermost first."""
    pts = [pt for _, ring in layers for pt in ring if all(map(math.isfinite, pt))]
    pts += [tuple(q) for q in curve_pts]
    if not pts:
        raise UsageError("nothing to draw")
    xs = [q[0] for q in pts]
    ys = [q[1] for q in pts]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    sc = width / (x1 - x0)
    height = (y1 - y0) * sc

    def X(a):
        return (a - x0) * sc

    def Y(b):
        return height - (b - y0) * sc  # svg y axis points down

    shades = ["#c6dbef", "#9ecae1", "#6baed6", "#4292c6", "#2171b5", "#084594"]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for i, (label, ring) in enumerate(layers):
        ring = [pt for pt in ring if all(map(math.isfinite, pt))]
        if len(ring) < 3:
            continue
        d = "M " + " L ".join(f"{X(a):.2f} {Y(b):.2f}" for a, b in ring) + " Z"
        fill = shades[min(i, len(shades) - 1)]
        out.append(f'<path d="{d}" fill="{fill}" fill-opacity="0.55" '
                   f'stroke="#333333" stroke-width="1"><title>{label}</title></path>')
    step = max(1, len(curve_pts) // 1500)
    for q in curve_pts[::step]:
        out.append(f'<circle cx="{X(q[0]):.2f}" cy="{Y(q[1]):.2f}" r="1.5" '
                   f'fill="#000000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_boundary(args):
    p, record = _load_poly(args)
    orders = _parse_orders(args.order)
    results = {k: relaxation_mod.boundary_points(p, k, args.samples) for k in orders}

    if args.format == "csv":
        chunks = []
        for k in orders:
            chunks.append(f"# order k={k}")
            chunks.append(relaxation_mod.boundary_csv(results[k]).rstrip("\n"))
        _emit("\n".join(chunks) + "\n", args.out)
    elif args.format == "json":
        payload = {"orders": {str(k): [dataclasses.asdict(r) for r in results[k]]
                              for k in orders}}
        _emit(json.dumps(_round12(payload), indent=2), args.out)
    else:
        layers = [(f"k={k}", [(r.x1, r.x2) for r in results[k]])
                  for k in orders]
        box = 2.0 * max(
            (abs(v) for k in orders for r in results[k]
             for v in (r.x1, r.x2) if math.isfinite(v)), default=2.0)
        cloud = exactness_mod.curve_points(p)
        cloud = cloud[np.max(np.abs(cloud), axis=1) <= box]
        _emit(_svg_document(layers, cloud.tolist()), args.out)
    return 0


def cmd_minimize(args):
    p, record = _load_poly(args)
    orders = _parse_orders(args.order)
    try:
        obj = parse_poly(args.objective)
    except ValueError as exc:
        raise UsageError(f"cannot parse objective: {exc}")
    if obj.degree > 1:
        raise UsageError("objective must be linear in x1, x2")
    const = obj.coeff(0, 0)
    f = (obj.coeff(1, 0), obj.coeff(0, 1))
    rows = relaxation_mod.minimize_linear(p, f, orders)
    lines = ["k;bound;status"]
    payload = []
    for k, bound, status in rows:
        shown = None if bound is None else bound + const
        # ';' separates the fields; a solver message must not add one
        status = status.replace(";", ",")
        lines.append(f"{k};{'' if shown is None else _fmt(shown)};{status}")
        payload.append({"k": k, "bound": shown, "status": status})
    if args.format == "json":
        _emit(json.dumps(_round12({"objective": args.objective,
                                   "bounds": payload}), indent=2), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rational(args):
    p, record = _load_poly(args)
    if record is None or record.param is None:
        raise UsageError("no parametrization on record for this curve")
    if not rational_mod.validate_param(record.param, record.implicit):
        print("parametrization does not satisfy the implicit equation",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    rep = rational_mod.hankel_representation(record.param)
    # spot agreement between the Hankel test and the sampled-hull oracle
    ts = np.linspace(-40.0, 40.0, 2001)
    pts = np.array([record.param.point(t) for t in ts])
    rng = np.random.default_rng(7)
    agree = checked = 0
    lo = pts.min(axis=0) - 0.2
    hi = pts.max(axis=0) + 0.2
    for _ in range(200):
        x = rng.uniform(lo, hi)
        # x is in the hull of the samples iff no line through x has them all
        # strictly on one side: their directions from x leave no gap over pi
        ang = np.sort(np.arctan2(pts[:, 1] - x[1], pts[:, 0] - x[0]))
        inside_hull = np.diff(ang, append=ang[0] + 2 * np.pi).max() <= np.pi
        m = rational_mod.rational_membership(rep, x)
        if abs(m.margin) <= 1e-3:
            continue  # too close to the boundary to compare fairly
        checked += 1
        agree += int(m.inside == inside_hull)
    if args.format == "json":
        payload = rep.to_dict()
        payload["agreement"] = {"checked": checked, "agree": agree}
        _emit(json.dumps(_round12(payload), indent=2), args.out)
    else:
        text = rep.format_matrix()
        summary = (f"\nliftings: {', '.join(rep.retained)} (scale {rep.scale})\n"
                   f"hull agreement: {agree}/{checked} sampled points\n")
        _emit(text + summary, args.out)
    return 0 if agree == checked else EXIT_INCONCLUSIVE


def cmd_sos(args):
    p, record = _load_poly(args)
    orders = _parse_orders(args.order)
    if len(orders) != 1:
        raise UsageError("sos takes a single relaxation order, not a range")
    try:
        coeffs = tuple(float(v) for v in args.line.split(","))
        line = SupportLine(coeffs)
    except ValueError as exc:
        raise UsageError(f"bad line coefficients: {exc}")
    cert = certify_in_fk(line, p, orders[0])
    if cert is None:
        _emit(json.dumps({"feasible": False,
                          "line": list(line.coeffs)}, indent=2), args.out)
        return EXIT_NOT_EXACT
    _emit(json.dumps(_round12(json.loads(cert.to_json())), indent=2), args.out)
    return 0


def cmd_singularities(args):
    p, record = _load_poly(args)
    payload = [s.to_dict() for s in exactness_mod.find_singularities(p)]
    _emit(json.dumps(_round12(payload), indent=2), args.out)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "boundary": cmd_boundary,
    "minimize": cmd_minimize,
    "rational": cmd_rational,
    "sos": cmd_sos,
    "singularities": cmd_singularities,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "samples", 8) < 8:
            raise UsageError("need at least 8 sample angles")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndeterminateResult as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
