"""Truncated bivariate moment indexing; moment, localizing and Hankel matrices.

Moment variables y_{ab} are ordered graded-lex (x1 > x2):
y00, y10, y01, y20, y11, y02, y30, ...  A matrix "form" is a symbolic linear
map from moment vectors to symmetric matrices, stored as one sparse symmetric
coefficient matrix per moment variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import monomials_upto

__all__ = [
    "MomentIndex",
    "MomentVector",
    "LinearMatrixForm",
    "build_moment_matrix",
    "build_localizing_matrix",
    "localizing_constraints",
    "point_moments",
    "monomial_vector",
    "hankel3",
]


@dataclass(frozen=True)
class MomentIndex:
    """Graded-lex index of moments y_{ab}, a + b <= 2k."""

    k: int
    pairs: tuple = field(init=False)
    position: dict = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("order must be >= 1")
        pairs = tuple(monomials_upto(2 * self.k))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "position", {e: i for i, e in enumerate(pairs)})

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class MomentVector:
    """Concrete moment values aligned with MomentIndex(k)."""

    k: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if len(v) != (self.k + 1) * (2 * self.k + 1):
            raise ValueError("moment vector length does not match order")
        object.__setattr__(self, "values", v)


class LinearMatrixForm:
    """Symmetric-matrix-valued linear form in the moment variables."""

    def __init__(self, size, nvars):
        self.size = size
        self.nvars = nvars
        self.coeff = {}  # moment position -> dense symmetric size x size array

    def add(self, pos, i, j, c):
        m = self.coeff.get(pos)
        if m is None:
            m = np.zeros((self.size, self.size))
            self.coeff[pos] = m
        m[i, j] += c
        if i != j:
            m[j, i] += c

    def evaluate(self, y):
        values = y.values if isinstance(y, MomentVector) else np.asarray(y, dtype=float)
        out = np.zeros((self.size, self.size))
        for pos, m in self.coeff.items():
            out += values[pos] * m
        return out


def monomial_vector(d, x1, x2):
    """Values of all monomials of degree <= d at a point, graded-lex order."""
    return np.array([x1**a * x2**b for a, b in monomials_upto(d)])


def point_moments(k, x1, x2):
    """Moments of the Dirac mass at (x1, x2), up to degree 2k."""
    idx = MomentIndex(k)
    return MomentVector(k, np.array([x1**a * x2**b for a, b in idx.pairs]))


def build_moment_matrix(k):
    """Moment matrix M_k(y): rows/cols indexed by monomials of degree <= k."""
    if k < 1:
        raise ValueError("order must be >= 1")
    idx = MomentIndex(k)
    rows = monomials_upto(k)
    form = LinearMatrixForm(len(rows), len(idx))
    for i, (a1, b1) in enumerate(rows):
        for j in range(i, len(rows)):
            a2, b2 = rows[j]
            form.add(idx.position[(a1 + a2, b1 + b2)], i, j, 1.0)
    return form


def build_localizing_matrix(p, k):
    """Localizing matrix M_{k-2}(p y) under the homogenized convention: the
    constant term of p contributes y_{u+v} directly."""
    if k < 2:
        raise ValueError("order below first relaxation")
    if p.degree > 4:
        raise ValueError("curve polynomial must have degree <= 4")
    idx = MomentIndex(k)
    rows = monomials_upto(k - 2)
    form = LinearMatrixForm(len(rows), len(idx))
    for i, (a1, b1) in enumerate(rows):
        for j in range(i, len(rows)):
            a2, b2 = rows[j]
            for (ga, gb), c in p.terms.items():
                form.add(idx.position[(a1 + a2 + ga, b1 + b2 + gb)], i, j, c)
    return form


def localizing_constraints(p, k):
    """Distinct linear constraints of M_{k-2}(p y) = 0.

    Entry (u, v) depends only on u + v, so the deduplicated system has one
    row per monomial sum of degree <= 2(k-2). Rows are dicts pos -> coeff.
    """
    if k < 2:
        raise ValueError("order below first relaxation")
    idx = MomentIndex(k)
    rows = []
    for s in monomials_upto(2 * (k - 2)):
        row = {}
        for (ga, gb), c in p.terms.items():
            pos = idx.position[(s[0] + ga, s[1] + gb)]
            row[pos] = row.get(pos, 0.0) + c
        rows.append(row)
    return rows


def hankel3(y):
    """3x3 Hankel matrix of 5 univariate moments y0..y4."""
    y = np.asarray(y, dtype=float)
    if y.shape != (5,):
        raise ValueError("expected exactly 5 moments")
    return np.array([[y[i + j] for j in range(3)] for i in range(3)])
