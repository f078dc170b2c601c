"""Hankel-based semidefinite representations of convex hulls of rationally
parametrized quartics, reduced to two lifting variables.

A degree-4 parametrization x_i = p_i(t) couples the point coordinates to the
univariate moments y_0..y_4 through x_i = sum_a c_{i,a} y_a. Three moments
are eliminated against the point coordinates; the remaining two enter a 3x3
Hankel matrix whose positive semidefiniteness cuts out the convex hull.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sdp import SdpProblem, min_eig, solve
from .sos import FEAS_MARGIN, IndeterminateResult

__all__ = [
    "RationalParam",
    "HankelRepresentation",
    "RationalMembership",
    "validate_param",
    "hankel_representation",
    "rational_membership",
    "fermat_block_membership",
    "point_mass_moments",
]

_SYMS = ("x0", "x1", "x2", "y0", "y1", "y2", "y3", "y4")


@dataclass(frozen=True)
class RationalParam:
    """Three univariate degree-<=4 polynomials (p0, p1, p2), each stored as
    5 coefficients in ascending powers of t; these double as the coefficient
    rows of the homogeneous degree-4 forms."""

    p0: tuple
    p1: tuple
    p2: tuple

    def __post_init__(self):
        for name in ("p0", "p1", "p2"):
            c = tuple(Fraction(v) for v in getattr(self, name))
            if len(c) > 5:
                raise ValueError("parametrization degree must be <= 4")
            c = c + (Fraction(0),) * (5 - len(c))
            object.__setattr__(self, name, c)
        if all(v == 0 for v in self.p0):
            raise ValueError("p0 must be nonzero")
        if all(v == 0 for row in (self.p0, self.p1, self.p2) for v in row):
            raise ValueError("parametrization must be nonzero")

    @property
    def rows(self):
        return (self.p0, self.p1, self.p2)

    def point(self, t):
        """Affine curve point (p1(t)/p0(t), p2(t)/p0(t))."""
        vals = [float(sum(float(c) * t**a for a, c in enumerate(row)))
                for row in self.rows]
        if vals[0] == 0:
            raise ZeroDivisionError("p0 vanishes at this parameter value")
        return (vals[1] / vals[0], vals[2] / vals[0])

    def to_dict(self):
        return {name: [str(c) for c in getattr(self, name)]
                for name in ("p0", "p1", "p2")}


def point_mass_moments(t):
    """Moments (1, t, t^2, t^3, t^4) of the unit point mass at parameter t."""
    return np.array([t**a for a in range(5)], dtype=float)


def validate_param(param, p):
    """True iff substituting the parametrization into the homogenized curve
    polynomial gives the zero polynomial in t (symbolic expansion)."""
    if p.degree != 4:
        raise ValueError("curve polynomial must have degree 4")
    comps = [np.array([float(c) for c in row]) for row in param.rows]
    total = np.zeros(17)
    scale = 0.0
    for (a1, a2), c in p.terms.items():
        a0 = 4 - a1 - a2  # exponent of x0 in the homogenized term
        term = np.array([c])
        for comp, e in ((comps[0], a0), (comps[1], a1), (comps[2], a2)):
            for _ in range(e):
                term = np.polynomial.polynomial.polymul(term, comp)
        scale = max(scale, np.max(np.abs(term)))
        total[: len(term)] += term
    return bool(np.max(np.abs(total)) <= 1e-9 * max(1.0, scale))


def _fmt_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_affine(entry):
    """Render an affine combination {symbol: Fraction} in the polynomial
    text format, symbols ordered x0, x1, x2, y0..y4."""
    parts = []
    for s in _SYMS:
        c = entry.get(s, Fraction(0))
        if c == 0:
            continue
        mag = abs(c)
        body = s if mag == 1 else f"{_fmt_coeff(mag)}*{s}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


@dataclass
class RationalMembership:
    inside: bool
    margin: float
    liftings: np.ndarray | None


@dataclass(frozen=True)
class HankelRepresentation:
    """3x3 Hankel matrix in (x0, x1, x2) and two retained lifting moments."""

    param: RationalParam
    retained: tuple  # symbols of the two surviving moments, e.g. ("y0", "y1")
    entries: tuple  # 3x3 of affine dicts {symbol: Fraction}
    scale: int  # common integer factor applied to scaled_entries

    @property
    def scaled_entries(self):
        return tuple(
            tuple({s: c * self.scale for s, c in e.items()} for e in row)
            for row in self.entries
        )

    def matrix_at(self, x, y):
        """Numeric 3x3 matrix at affine point x = (x1, x2) and retained
        lifting values y (in the order of self.retained)."""
        vals = {"x0": 1.0, "x1": float(x[0]), "x2": float(x[1])}
        for s, v in zip(self.retained, y):
            vals[s] = float(v)
        M = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                M[i, j] = sum(float(c) * vals[s]
                              for s, c in self.entries[i][j].items())
        return M

    @functools.cached_property
    def _program(self):
        """The margin program of rational_membership over (retained
        liftings, t), compiled once: max t s.t. H(x, y) - t I >= 0. A point
        enters only through the constant matrix F0."""
        F = np.zeros((len(self.retained) + 1, 3, 3))
        for i in range(3):
            for j in range(3):
                for s, c in self.entries[i][j].items():
                    if s not in ("x0", "x1", "x2"):
                        F[self.retained.index(s), i, j] += float(c)
        F[-1] = -np.eye(3)
        return SdpProblem(F, np.zeros((0, len(F))))

    def format_matrix(self, scaled=True):
        rows = self.scaled_entries if scaled else self.entries
        out = []
        for row in rows:
            out.append("[" + ", ".join(format_affine(e) for e in row) + "]")
        return "[" + ",\n ".join(out) + "]"

    def to_dict(self):
        return {
            "param": self.param.to_dict(),
            "retained": list(self.retained),
            "scale": self.scale,
            "matrix": [[format_affine(e) for e in row]
                       for row in self.scaled_entries],
        }


def hankel_representation(param):
    """Eliminate three moments from x_i = sum_a c_{i,a} y_a against the point
    coordinates and substitute into the 3x3 Hankel matrix of y_0..y_4.

    Pivots run from the highest moment index down, so y0 and y1 survive
    whenever the coefficient pattern allows; the whole matrix is scaled by
    the least common denominator for an integer display.
    """
    rows = [
        {"coeffs": list(row), "rhs": {_SYMS[i]: Fraction(1)}}
        for i, row in enumerate(param.rows)
    ]
    subs = {}  # moment symbol -> affine dict over x's and retained y's
    pivoted_rows = set()
    pivot_cols = []
    for col in range(4, -1, -1):
        pr = None
        for r in range(3):
            if r not in pivoted_rows and rows[r]["coeffs"][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        piv = rows[pr]["coeffs"][col]
        for r in range(3):
            if r == pr:
                continue
            f = rows[r]["coeffs"][col] / piv
            if f == 0:
                continue
            for a in range(5):
                rows[r]["coeffs"][a] -= f * rows[pr]["coeffs"][a]
            for s, c in rows[pr]["rhs"].items():
                rows[r]["rhs"][s] = rows[r]["rhs"].get(s, Fraction(0)) - f * c
        pivoted_rows.add(pr)
        pivot_cols.append((col, pr))
        if len(pivoted_rows) == 3:
            break
    if len(pivoted_rows) < 3:
        raise ValueError("degenerate parametrization: moment relations have "
                         "rank below 3, cannot eliminate to 2 liftings")

    retained = tuple(f"y{a}" for a in range(5)
                     if a not in {c for c, _ in pivot_cols})
    # back-substitute, highest pivot column last so its row is fully reduced
    for col, r in sorted(pivot_cols):
        piv = rows[r]["coeffs"][col]
        expr = {}
        for s, c in rows[r]["rhs"].items():
            expr[s] = expr.get(s, Fraction(0)) + c / piv
        for a in range(5):
            if a == col:
                continue
            c = rows[r]["coeffs"][a]
            if c == 0:
                continue
            sym = f"y{a}"
            sub = subs.get(sym, {sym: Fraction(1)})
            for s, cc in sub.items():
                expr[s] = expr.get(s, Fraction(0)) - (c / piv) * cc
        subs[f"y{col}"] = {s: c for s, c in expr.items() if c != 0}

    def affine_of(a):
        sym = f"y{a}"
        return dict(subs.get(sym, {sym: Fraction(1)}))

    entries = tuple(
        tuple(affine_of(i + j) for j in range(3)) for i in range(3)
    )
    denoms = [c.denominator for row in entries for e in row for c in e.values()]
    scale = 1
    for d in denoms:
        scale = scale * d // math.gcd(scale, d)
    return HankelRepresentation(
        param=param,
        retained=retained,
        entries=entries,
        scale=scale,
    )


def rational_membership(rep, point):
    """Inside/outside test against the two-lifting Hankel representation,
    margin through the max-min-eigenvalue program over the liftings."""
    x1, x2 = float(point[0]), float(point[1])
    vals = {"x0": 1.0, "x1": x1, "x2": x2}
    F0 = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for s, c in rep.entries[i][j].items():
                if s in vals:
                    F0[i, j] += float(c) * vals[s]
    prob = rep._program
    c = np.zeros(len(prob.F))
    c[-1] = -1.0
    sol = solve(prob, c, F0, np.zeros(0))
    if sol.status == "Unbounded":
        # the margin program is bounded above whenever the Hankel form is
        # nondegenerate; treat runaway as inside with an infinite margin
        return RationalMembership(inside=True, margin=math.inf, liftings=None)
    if sol.status != "Optimal":
        raise IndeterminateResult(
            f"membership solve returned {sol.status}: {sol.message}")
    t = float(sol.z[-1])
    return RationalMembership(inside=t >= -FEAS_MARGIN, margin=t,
                              liftings=sol.z[:-1].copy())


def fermat_block_membership(point):
    """Membership in the two-lifting block representation of the region
    x1^4 + x2^4 <= 1: blocks [[1+y0, y1], [y1, 1-y0]], [[1, x1], [x1, y0]],
    [[1, x2], [x2, y1]] over (y0, y1).

    The last two blocks force y0 >= x1^2 and y1 >= x2^2, and shrinking the
    liftings onto those bounds only helps the first block, so y = (x1^2,
    x2^2) is an optimal witness and the feasibility test is closed-form.
    """
    x1, x2 = float(point[0]), float(point[1])
    y0, y1 = x1 * x1, x2 * x2
    margin = 1.0 - math.hypot(y0, y1)
    blocks = [
        np.array([[1 + y0, y1], [y1, 1 - y0]]),
        np.array([[1.0, x1], [x1, y0]]),
        np.array([[1.0, x2], [x2, y1]]),
    ]
    feasible = min(min_eig(B) for B in blocks) >= -1e-12
    return RationalMembership(inside=feasible and margin >= 0,
                              margin=margin, liftings=np.array([y0, y1]))
