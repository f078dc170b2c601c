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

from .moments import LinearMatrixForm
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
    polynomial gives the zero polynomial in t, expanded exactly: the
    Fractions of the parametrization against the Fractions of p's floats."""
    if p.degree != 4:
        raise ValueError("curve polynomial must have degree 4")
    comps = [np.array(row, dtype=object) for row in param.rows]
    total = np.zeros(17, dtype=object)
    for (a1, a2), c in p.terms.items():
        term = np.array([Fraction(c)], dtype=object)
        # x0 carries the exponent that homogenizes the term to degree 4
        for comp, e in zip(comps, (4 - a1 - a2, a1, a2)):
            for _ in range(e):
                term = np.polynomial.polynomial.polymul(term, comp)
        total[: len(term)] += term
    return not total.any()


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

    @functools.cached_property
    def _form(self):
        """The matrix as a LinearMatrixForm over (x0, x1, x2, retained...):
        entry (i, j) is the affine moment y_{i+j}, one float row per moment."""
        syms = _SYMS[:3] + self.retained
        moment = {i + j: e for i, row in enumerate(self.entries)
                  for j, e in enumerate(row)}
        rows = np.array([[float(moment[a].get(s, 0)) for s in syms] for a in range(5)])
        return LinearMatrixForm(np.add.outer(np.arange(3), np.arange(3)), rows)

    def matrix_at(self, x, y):
        """Numeric 3x3 matrix at affine point x = (x1, x2) and retained
        lifting values y (in the order of self.retained)."""
        return self._form.evaluate([1.0, float(x[0]), float(x[1]), *map(float, y)])

    @functools.cached_property
    def _program(self):
        """The margin program of rational_membership over (retained
        liftings, t), compiled once: max t s.t. H(x, y) - t I >= 0, beside
        the coefficient matrices of x0, x1 and x2, from which a point's
        constant matrix F0 is formed: (those three, program)."""
        T = self._form.coefficients()
        F = np.concatenate([T[3:], -np.eye(3)[None]])
        return T[:3], SdpProblem(F, np.zeros((0, len(F))))

    def format_matrix(self):
        out = []
        for row in self.scaled_entries:
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
    """Eliminate three moments from x_r = sum_a c_{r,a} y_a against the point
    coordinates and substitute into the 3x3 Hankel matrix of y_0..y_4.

    Exact Gauss-Jordan on the rows [c_r | e_r] over (y0..y4 | x0, x1, x2).
    Pivot columns run from y4 down, each on the first unpivoted row with a
    nonzero entry, so y0 and y1 survive whenever the coefficient pattern
    allows. A pivot row, normalized to 1, reads y_a = sum_s e_s x_s minus its
    retained moments. The whole matrix is scaled by the least common
    denominator for an integer display.
    """
    rows = [list(c) + [Fraction(int(r == s)) for s in range(3)]
            for r, c in enumerate(param.rows)]
    pivots = {}  # moment index -> its row
    for col in range(4, -1, -1):
        r = next((r for r in range(3)
                  if r not in pivots.values() and rows[r][col] != 0), None)
        if r is None:
            continue
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for o in range(3):
            if o != r and rows[o][col] != 0:
                rows[o] = [v - rows[o][col] * w for v, w in zip(rows[o], rows[r])]
        pivots[col] = r
    if len(pivots) < 3:
        raise ValueError("degenerate parametrization: moment relations have "
                         "rank below 3, cannot eliminate to 2 liftings")

    def moment(a):
        if a not in pivots:
            return {f"y{a}": Fraction(1)}
        row = rows[pivots[a]]
        affine = {**{_SYMS[s]: row[5 + s] for s in range(3)},
                  **{f"y{b}": -row[b] for b in range(5) if b != a}}
        return {s: c for s, c in affine.items() if c != 0}

    entries = tuple(tuple(moment(i + j) for j in range(3)) for i in range(3))
    return HankelRepresentation(
        param=param,
        retained=tuple(f"y{a}" for a in range(5) if a not in pivots),
        entries=entries,
        scale=math.lcm(*(c.denominator for row in entries for e in row
                         for c in e.values())),
    )


def rational_membership(rep, point):
    """Inside/outside test against the two-lifting Hankel representation,
    margin through the max-min-eigenvalue program over the liftings."""
    x1, x2 = float(point[0]), float(point[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        # checked here: inf * 0 in the sum below would give nan
        raise ValueError("point coordinates must be finite")
    T, prob = rep._program
    F0 = T[0] + x1 * T[1] + x2 * T[2]
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
