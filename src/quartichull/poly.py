"""Bivariate polynomial algebra, projective points and supporting lines.

Everything here works with sparse exponent->coefficient maps over floats.
Monomial order is graded lexicographic with x1 > x2 throughout, matching
the ordering used for moment vectors elsewhere in the package.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "BivarPoly",
    "ProjPoint",
    "SupportLine",
    "PolyParseError",
    "gradient",
    "hessian",
    "comparison_quartic",
    "resultant",
    "real_roots",
    "parse_poly",
    "monomials_upto",
]

_ZERO_TOL = 1e-14


def monomials_upto(d):
    """Exponent pairs (a, b) with a + b <= d in graded lex order, x1 > x2."""
    out = []
    for t in range(d + 1):
        for b in range(t + 1):
            out.append((t - b, b))
    return out


def _clean_terms(terms):
    return {e: float(c) for e, c in terms.items() if abs(c) > _ZERO_TOL}


# Arithmetic on term maps {(a1, a2): coefficient}, for BivarPoly and the parser.


def _tadd(a, b):
    t = dict(a)
    for e, c in b.items():
        t[e] = t.get(e, 0.0) + c
    return t


def _tmul_const(a, c):
    return {e: v * c for e, v in a.items()}


def _tmul(a, b):
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            t[e] = t.get(e, 0.0) + c1 * c2
    return t


def _tpow(a, n):
    out = {(0, 0): 1.0}
    for _ in range(n):
        out = _tmul(out, a)
    return out


class BivarPoly:
    """Sparse real polynomial in x1, x2.

    Immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", _clean_terms(terms or {}))

    def __setattr__(self, *a):
        raise AttributeError("BivarPoly is immutable")

    @staticmethod
    def const(c):
        return BivarPoly({(0, 0): c})

    @staticmethod
    def var(i):
        if i == 1:
            return BivarPoly({(1, 0): 1.0})
        if i == 2:
            return BivarPoly({(0, 1): 1.0})
        raise ValueError("variable index must be 1 or 2")

    @property
    def degree(self):
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def is_zero(self):
        return not self.terms

    def coeff(self, a, b):
        return self.terms.get((a, b), 0.0)

    def __call__(self, x1, x2):
        return sum(c * x1**a * x2**b for (a, b), c in self.terms.items())

    def eval_many(self, x1, x2):
        """Vectorized evaluation on numpy arrays."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros(np.broadcast(x1, x2).shape)
        for (a, b), c in self.terms.items():
            out += c * x1**a * x2**b
        return out

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = BivarPoly.const(other)
        return BivarPoly(_tadd(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly(_tmul_const(self.terms, -1.0))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = BivarPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return BivarPoly(_tmul_const(self.terms, other))
        return BivarPoly(_tmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = BivarPoly.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, i):
        """Partial derivative with respect to x1 (i=1) or x2 (i=2)."""
        t = {}
        for (a, b), c in self.terms.items():
            if i == 1 and a > 0:
                t[(a - 1, b)] = t.get((a - 1, b), 0.0) + a * c
            elif i == 2 and b > 0:
                t[(a, b - 1)] = t.get((a, b - 1), 0.0) + b * c
        return BivarPoly(t)

    def coeff_norm(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def univariate_in(self, axis, value):
        """Substitute a numeric value for the *other* variable; return coeff array
        (low-to-high) of the resulting univariate polynomial in `axis`."""
        d = self.degree
        if d < 0:
            return np.zeros(1)
        coeffs = np.zeros(d + 1)
        for (a, b), c in self.terms.items():
            if axis == 1:
                coeffs[a] += c * value**b
            else:
                coeffs[b] += c * value**a
        return coeffs

    def graded_part(self, d):
        return BivarPoly({e: c for e, c in self.terms.items() if sum(e) == d})

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def allclose(self, other, tol=1e-9):
        keys = set(self.terms) | set(other.terms)
        scale = max(self.coeff_norm(), other.coeff_norm(), 1.0)
        return all(abs(self.coeff(*k) - other.coeff(*k)) <= tol * scale for k in keys)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"BivarPoly({format_poly(self)!r})"


def gradient(p):
    return (p.diff(1), p.diff(2))


def hessian(p):
    p1, p2 = gradient(p)
    h11 = p1.diff(1)
    h12 = p1.diff(2)
    h22 = p2.diff(2)
    return [[h11, h12], [h12, h22]]


@dataclass(frozen=True)
class ProjPoint:
    """Point of the real projective plane, coordinates (x0, x1, x2)."""

    coords: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coords)
        if len(c) != 3 or all(abs(v) < _ZERO_TOL for v in c):
            raise ValueError("projective point needs a nonzero real triple")
        object.__setattr__(self, "coords", c)

    def normalized(self):
        """Scale the first nonzero coordinate to 1."""
        for v in self.coords:
            if abs(v) > _ZERO_TOL:
                return ProjPoint(tuple(w / v for w in self.coords))
        raise ValueError("zero point")

    @property
    def at_infinity(self):
        return abs(self.coords[0]) < 1e-12 * max(abs(v) for v in self.coords)

    def to_affine(self):
        if self.at_infinity:
            raise ValueError("point at infinity has no affine coordinates")
        x0, x1, x2 = self.coords
        return (x1 / x0, x2 / x0)

    def close_to(self, other, tol=1e-8):
        a = np.array(self.normalized().coords)
        b = np.array(ProjPoint(tuple(other.coords) if isinstance(other, ProjPoint) else tuple(other)).normalized().coords)
        return bool(np.allclose(a, b, atol=tol))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.close_to(other, tol=1e-12)

    def __hash__(self):
        return 0  # equality is up to scaling; hashing by value is unsound


@dataclass(frozen=True)
class SupportLine:
    """Oriented line f0*x0 + f1*x1 + f2*x2 >= 0; equality up to positive scaling."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 3:
            raise ValueError("line needs 3 coefficients")
        if not all(map(math.isfinite, c)):
            raise ValueError("line coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def direction(self):
        return (self.coeffs[1], self.coeffs[2])

    def affine_poly(self):
        f0, f1, f2 = self.coeffs
        return BivarPoly({(0, 0): f0, (1, 0): f1, (0, 1): f2})

    def __call__(self, x1, x2):
        f0, f1, f2 = self.coeffs
        return f0 + f1 * x1 + f2 * x2

    def normalized(self):
        """Scale so the direction part has unit norm (positive scaling only)."""
        n = math.hypot(*self.direction)
        if n < _ZERO_TOL:
            n = max(abs(v) for v in self.coeffs)
        return SupportLine(tuple(v / n for v in self.coeffs))

    def close_to(self, other, tol=1e-6):
        a = np.array(self.normalized().coeffs)
        b = np.array(SupportLine(tuple(other)).normalized().coeffs if not isinstance(other, SupportLine) else other.normalized().coeffs)
        return bool(np.allclose(a, b, atol=tol))


def comparison_quartic(f, p):
    """The quartic f(x) - p(x) for a support line f and curve polynomial p."""
    if p.degree > 4:
        raise ValueError("curve polynomial must have degree <= 4")
    return f.affine_poly() - p


# ---------------------------------------------------------------------------
# resultants and univariate real roots


def _dense(p, d):
    """The coefficients of p in a (d + 1, d + 1) array, [a, b] for x1^a x2^b."""
    out = np.zeros((d + 1, d + 1))
    for (a, b), c in p.terms.items():
        out[a, b] = c
    return out


def _last_above(mag, tol, floor=0.0):
    """Per row of mag (..., L), the index of its last entry above tol times
    the larger of floor and the row's largest, or 0 when there is none."""
    keep = mag > tol * np.maximum(floor, mag.max(axis=-1, keepdims=True))
    return np.where(keep.any(-1), mag.shape[-1] - 1 - np.argmax(keep[..., ::-1], axis=-1), 0)


@functools.lru_cache(maxsize=None)
def _interpolation(bound):
    """The nodes of `resultant`, and its chebfit, cheb2poly and node scaling
    t -> t/2 in one matrix, from the values at the nodes to the monomial
    coefficients of the degree-`bound` interpolant."""
    cheb, k = np.polynomial.chebyshev, np.arange(bound + 1)
    x = np.cos(np.pi * (2 * k + 1) / (2 * (bound + 1)))
    fit = cheb.chebfit(x, np.eye(bound + 1), bound)
    mono = np.array([np.pad(c, (0, bound + 1 - len(c))) for c in map(cheb.cheb2poly, fit.T)])
    return x * 2.0, mono.T * 0.5 ** k[:, None]


def _resultant_stack(ca, cb):
    """`resultant` of each pair of a stack: ca[m, i, j] and cb[m, i, j] hold
    the coefficients of x^i y^j, x eliminated. An entry is the resultant in
    y, or the ValueError for a pair constant in x. Each pair is trimmed on
    its own; the pairs of one Sylvester shape share one stacked det."""
    ma, mb = np.abs(ca), np.abs(cb)
    da, db = _last_above(ma.max(axis=2), 1e-12), _last_above(mb.max(axis=2), 1e-12)
    # the Bezout bound on the degree in y: the product of the total degrees
    tot = np.add.outer(np.arange(ca.shape[1]), np.arange(ca.shape[2]))
    tota, totb = (np.where(m > 0, tot, 0).max(axis=(1, 2)) for m in (ma, mb))
    out, groups = [None] * len(ca), {}
    for m, (a, b) in enumerate(zip(da, db)):
        if a == 0 == b:
            out[m] = ValueError("both polynomials constant in the eliminated variable")
        elif a == 0 or b == 0:
            out[m] = np.polynomial.polynomial.polypow(ca[m, 0] if a == 0 else cb[m, 0], a + b)
        else:
            groups.setdefault((a, b, tota[m] * totb[m]), []).append(m)
    for (a, b, bound), idx in groups.items():
        nodes, to_monomial = _interpolation(bound)
        syl = np.zeros((len(idx), bound + 1, a + b, a + b))
        for c, rows, first, width in ((ca, b, 0, a), (cb, a, b, b)):
            vals = np.polynomial.polynomial.polyval(nodes, np.moveaxis(  # [pair, node, column]
                c[idx, width::-1, None, :], -1, 0), tensor=False).transpose(0, 2, 1)
            for i in range(rows):
                syl[:, :, first + i, i:i + width + 1] = vals
        coeffs = np.einsum("gk,mk->gm", np.linalg.det(syl), to_monomial)  # stack-independent
        small = np.abs(coeffs) <= 1e-11 * np.abs(coeffs).max(axis=1, keepdims=True)
        for m, c in zip(idx, np.where(small, 0.0, coeffs)):
            out[m] = c
    return out


def resultant(a, b, axis):
    """Sylvester resultant of a and b eliminating x1 (axis=1) or x2 (axis=2).

    Returns the coefficient array (low-to-high) of a univariate polynomial in
    the remaining variable, of the Bezout degree deg a * deg b at most.
    Computed by evaluating the Sylvester determinant at that many Chebyshev
    nodes plus one and interpolating. The one-pair case of the stacked form.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of zero polynomial")
    d = max(a.degree, b.degree)
    ca, cb = (_dense(q, d) if axis == 1 else _dense(q, d).T for q in (a, b))
    r = _resultant_stack(ca[None], cb[None])[0]
    if isinstance(r, ValueError):
        raise r
    return r


def _companion(c):
    """np.roots' companion matrices of the rows of c (high-to-low, c[:, 0]
    nonzero); their transposes are polyroots' ones."""
    n = c.shape[1] - 1
    A = np.zeros((len(c), n, n))
    A[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    A[:, 0, :] = -c[:, 1:] / c[:, :1]
    return A


def _slice_roots(c):
    """np.roots of each row of c (low-to-high), cut above its last entry
    beyond 1e-12 max(1, largest); none for a row constant after the cut.
    Returns the roots, row after row, and the row of each."""
    top = _last_above(np.abs(c), 1e-12, floor=1.0)
    low = np.argmax(c != 0, axis=1)
    z, row = [np.zeros(0, complex)], [np.zeros(0, int)]
    for n in set((top - low)[top > 0].tolist()):
        idx = np.flatnonzero((top > 0) & (top - low == n))
        if n:
            cut = c[idx[:, None], (low[idx] + n)[:, None] - np.arange(n + 1)]
            z.append(np.linalg.eigvals(_companion(cut)).ravel())
            row.append(np.repeat(idx, n))
        # the zero roots np.roots appends for the stripped low zeros
        row.append(np.repeat(idx, low[idx]))
        z.append(np.zeros(len(row[-1]), complex))
    z, row = np.concatenate(z), np.concatenate(row)
    order = np.argsort(row, kind="stable")
    return z[order], row[order]


def real_roots(q):
    """Real roots of a univariate polynomial (coeff array, low-to-high).

    Roots come from companion-matrix eigenvalues, are polished with Newton
    steps, each root with its own stop, filtered by residual, merged within
    a relative 1e-9 and sorted.
    """
    q = np.asarray(q, float)
    q = q[:_last_above(np.abs(q), 1e-12) + 1]
    if len(q) == 1 and q[0] == 0.0:
        raise ValueError("identically zero polynomial")
    n, polyval = len(q) - 1, np.polynomial.polynomial.polyval
    if n == 0:
        return []
    # np.polynomial.polynomial.polyroots, sorted
    r = np.sort(np.linalg.eigvals(_companion(q[None, ::-1]).swapaxes(1, 2))[0])
    x = r.real[np.abs(r.imag) <= 1e-7 * (1 + np.abs(r.real))]
    dq, live = q[1:] * np.arange(1, n + 1), np.arange(len(x))
    for _ in range(20):
        xl = x[live]
        fx, dfx = polyval(xl, q), polyval(xl, dq)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = fx / dfx
        go = (np.abs(dfx) >= 1e-300) & np.isfinite(step)
        x[live] = xl = xl - np.where(go, step, 0.0)
        live = live[go & ~(np.abs(step) < 1e-15 * (1 + np.abs(xl)))]
    bad = np.abs(polyval(x, q)) > 1e-8 * np.abs(q).max() * np.maximum(1.0, np.abs(x)) ** n
    out = []
    for v in sorted(x[~bad]):
        if not (out and abs(v - out[-1]) <= 1e-9 * max(1.0, abs(v))):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# exact univariate arithmetic: lists of Fractions, low-to-high, with no
# trailing zero (the zero polynomial is [])


def _q(coeffs):
    """The rational polynomial with the exact values of the float (or
    Fraction) coefficients, low-to-high."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _qdivmod(a, b):
    """Quotient and remainder of a by the nonzero b."""
    quot, a = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        quot[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _q(a[:-1])
    return quot, a


def _qderiv(a):
    return [i * c for i, c in enumerate(a)][1:]


def _qgcd(a, b):
    """Monic greatest common divisor; [] when both are zero."""
    while b:
        a, b = b, _qdivmod(a, b)[1]
    return [c / a[-1] for c in a]


def _squarefree(a):
    """a over gcd(a, a'): each root of the nonzero a once."""
    return _qdivmod(a, _qgcd(a, _qderiv(a)))[0]


def _real_root_count(a):
    """Number of distinct real roots of the nonzero a: the sign changes of
    its Sturm sequence at -inf less those at +inf."""
    seq = [a, _qderiv(a)]
    while seq[-1]:
        seq.append([-c for c in _qdivmod(seq[-2], seq[-1])[1]])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    lead = [(f[-1] > 0) - (f[-1] < 0) for f in seq[:-1]]
    return changes([s * (-1) ** (len(f) - 1) for s, f in zip(lead, seq)]) - changes(lead)


def _definite_sign(form):
    """+1 or -1 when the binary form is positive or negative definite, else
    0, decided exactly on its float coefficients: a definite form is a
    nonzero form of even degree d whose restriction to x1 = 1 has degree d
    and no real root."""
    d = form.degree
    t = _q([form.coeff(d - b, b) for b in range(d + 1)])  # form(1, t)
    if d < 2 or d % 2 or len(t) != d + 1 or _real_root_count(t):
        return 0
    return 1 if t[0] > 0 else -1


# ---------------------------------------------------------------------------
# text format: parse and print


class PolyParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)"
    r"|(?P<var>x[012])"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise PolyParseError(f"unexpected character at position {pos}: {text[pos:pos+10]!r}")
        if m.lastgroup == "num":
            s = m.group("num")
            try:
                v = float(Fraction(s)) if "/" in s else float(s)
            except OverflowError:
                v = math.inf
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator: {s[:20]}") from None
            if not math.isfinite(v):
                raise PolyParseError(f"number out of range: {s[:20]}")
            tokens.append(("num", v))
        elif m.lastgroup == "var":
            if m.group("var") == "x0":
                raise PolyParseError("polynomials are in x1 and x2; x0 is not allowed")
            tokens.append(("var", (1, 0) if m.group("var") == "x1" else (0, 1)))
        else:
            tokens.append((m.group("op"), None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


# The package reads curves of degree <= 4 and its tests parse up to degree 6.
# A product or power of higher degree, or a constant raised above this
# exponent, is refused before it is expanded: (x1 + x2 + 1)^400 alone takes
# seconds to expand, and the power loop runs once per unit of the exponent.
_MAX_PARSE_DEGREE = 32


def _degree(t):
    return max((a + b for a, b in t), default=0)


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses, on term maps
    keyed by the exponent pair (a1, a2).
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def parse(self):
        t = self.expr()
        if self.peek() != "end":
            raise PolyParseError(f"trailing input near token {self.i}")
        return t

    def expr(self):
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        t = _tmul_const(self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = 1.0
            while self.peek() in ("+", "-"):
                if self.next()[0] == "-":
                    sign = -sign
            t = _tadd(t, _tmul_const(self.term(), sign))
        return t

    def term(self):
        t = self.factor()
        while self.peek() == "*":
            self.next()
            u = self.factor()
            if _degree(t) + _degree(u) > _MAX_PARSE_DEGREE:
                raise PolyParseError(f"product above degree {_MAX_PARSE_DEGREE}")
            t = _tmul(t, u)
        return t

    def factor(self):
        t = self.atom()
        while self.peek() == "^":
            self.next()
            kind, val = self.next()
            if kind != "num" or val != int(val) or val < 0:
                raise PolyParseError("exponent must be a nonnegative integer")
            if max(1, _degree(t)) * val > _MAX_PARSE_DEGREE:
                raise PolyParseError(f"power above degree {_MAX_PARSE_DEGREE}")
            t = _tpow(t, int(val))
        return t

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return {(0, 0): val}
        if kind == "var":
            return {val: 1.0}
        if kind == "(":
            t = self.expr()
            if self.next()[0] != ")":
                raise PolyParseError("missing closing parenthesis")
            return t
        if kind == "-":
            return _tmul_const(self.factor(), -1.0)
        raise PolyParseError(f"unexpected token {kind!r}")


def parse_poly(text):
    """Parse polynomial text in x1, x2 into a BivarPoly. A coefficient that
    is not finite, as written or after expansion, is a PolyParseError, and
    so are nesting deeper than the interpreter's recursion limit and a
    product or power of degree above _MAX_PARSE_DEGREE."""
    try:
        terms = _Parser(_tokenize(text)).parse()
    except RecursionError:
        raise PolyParseError("expression nested too deeply") from None
    if not all(map(math.isfinite, terms.values())):
        raise PolyParseError("coefficient overflow")
    return BivarPoly(terms)


def _fmt_num(c):
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return f"{c:.12g}"


def _fmt_monomial(powers, names):
    parts = []
    for p, name in zip(powers, names):
        if p == 1:
            parts.append(name)
        elif p > 1:
            parts.append(f"{name}^{p}")
    return "*".join(parts)


def format_poly(p):
    """Canonical text form, graded lex order with x1 > x2."""
    keyed = sorted(p.terms.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
    if not keyed:
        return "0"
    out = []
    for e, c in keyed:
        m = _fmt_monomial(e, ("x1", "x2"))
        mag = _fmt_num(abs(c))
        if m and abs(c) == 1:
            piece = m
        elif m:
            piece = f"{mag}*{m}"
        else:
            piece = mag
        if not out:
            out.append(piece if c > 0 else f"-{piece}")
        else:
            out.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(out)
