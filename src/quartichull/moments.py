"""Truncated bivariate moment indexing; moment and localizing matrices.

Moment variables y_{ab} are ordered graded-lex (x1 > x2):
y00, y10, y01, y20, y11, y02, y30, ...  A position does not depend on the
truncation degree, so the monomials of degree <= d take the first positions,
in the order of the rows of M_d.

This module owns the one monomial-product table that both sides of a
relaxation read. Entry (u, v) of M_k(y) is y_{u+v}, and entry (u, v) of the
localizing matrix M_{k-2}(p y) is the localizing row of the monomial sum
u + v applied to y. A matrix "form" is therefore a table of monomial-sum
positions plus one linear row per sum. Its coefficient tensor is M_k's 0/1
tensor or the localizing tensor; on the certificate side, the Gram
coefficient-matching rows and the s1*p columns are the transposes of the same
data.
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
]


def _position(a, b):
    """Graded-lex position of x1^a x2^b; works elementwise on arrays."""
    return (a + b) * (a + b + 1) // 2 + b


def _products(d):
    """Positions of u + v over the monomials u, v of degree <= d: an int
    array, indexed like the rows and columns of M_d."""
    e = np.array(monomials_upto(d))
    return _position(e[:, None, 0] + e[None, :, 0], e[:, None, 1] + e[None, :, 1])


def _diagonal_face(sums, free, needed=None):
    """The rows kept by the diagonal pass of facial reduction, on a block
    whose entry (u, v) reads position sums[u, v] of the product table: row u
    goes when the position of u + u is free and no other entry of the kept
    block reads it, one row at a time in order until none goes. A row also
    stays when its loss would leave a position of `needed` in no entry.

    On the moment side a free position is a moment in no constraint row;
    on the Gram side it is a coefficient that is zero in every target, and
    the nonzero ones are needed: a target coefficient that no kept entry
    reaches would make the coefficient matching inconsistent. Dropping a
    row never makes another one stay, so without `needed` the order does not
    change the result."""
    free = np.asarray(free, dtype=bool)
    needed = np.zeros_like(free) if needed is None else np.asarray(needed, dtype=bool)
    kept = np.arange(len(sums))
    while True:
        sub = sums[np.ix_(kept, kept)]
        count = np.bincount(sub[np.triu_indices(len(kept))], minlength=len(free))
        for i, w in enumerate(np.diag(sub)):
            own = np.bincount(sub[i], minlength=len(free))  # row i's entries
            if count[w] == 1 and free[w] and not np.any(needed & (own == count) & (own > 0)):
                kept = np.delete(kept, i)
                break
        else:
            return kept


@dataclass(frozen=True)
class MomentIndex:
    """Graded-lex index of moments y_{ab}, a + b <= 2k."""

    k: int
    pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("order must be >= 1")
        object.__setattr__(self, "pairs", tuple(monomials_upto(2 * self.k)))

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
    """Symmetric-matrix-valued linear form in the moment variables.

    Entry (i, j) is rows[sums[i, j]] applied to y: sums holds the position of
    the monomial sum of row i and column j, rows one linear row per sum.
    """

    def __init__(self, sums, rows):
        self.sums = sums  # (size, size) ints into rows
        self.rows = rows  # (number of sums, nvars)

    @property
    def size(self):
        return len(self.sums)

    @property
    def nvars(self):
        return self.rows.shape[1]

    def evaluate(self, y):
        values = y.values if isinstance(y, MomentVector) else np.asarray(y, dtype=float)
        return (self.rows @ values)[self.sums]

    def coefficients(self):
        """Coefficient tensor F, (nvars, size, size): the form is
        sum_m y_m F[m]."""
        return np.take(self.rows.T, self.sums, axis=1)


def monomial_vector(d, x1, x2):
    """Values of all monomials of degree <= d at a point, graded-lex order."""
    return np.array([x1**a * x2**b for a, b in monomials_upto(d)])


def point_moments(k, x1, x2):
    """Moments of the Dirac mass at (x1, x2), up to degree 2k."""
    return MomentVector(k, monomial_vector(2 * k, x1, x2))


def build_moment_matrix(k):
    """Moment matrix M_k(y): rows/cols indexed by monomials of degree <= k;
    its rows are the moments themselves, so its tensor is 0/1."""
    if k < 1:
        raise ValueError("order must be >= 1")
    return LinearMatrixForm(_products(k), np.eye((k + 1) * (2 * k + 1)))


def build_localizing_matrix(p, k):
    """Localizing matrix M_{k-2}(p y) under the homogenized convention: the
    constant term of p contributes y_{u+v} directly.

    Its rows are the localizing rows, one per monomial s of degree
    <= 2(k-2), holding the coefficients of x^s p over MomentIndex(k). The
    rows with deg s <= k-4 come first and are the coefficient vectors of
    x^s p over the monomials of degree <= k, the rows of M_k.
    """
    if k < 2:
        raise ValueError("order below first relaxation")
    if p.degree > 4:
        raise ValueError("curve polynomial must have degree <= 4")
    s = np.array(monomials_upto(2 * (k - 2)))
    rows = np.zeros((len(s), (k + 1) * (2 * k + 1)))
    for (a, b), c in p.terms.items():
        rows[np.arange(len(s)), _position(s[:, 0] + a, s[:, 1] + b)] = c
    return LinearMatrixForm(_products(k - 2), rows)


def localizing_constraints(p, k):
    """Distinct linear constraints of M_{k-2}(p y) = 0.

    Entry (u, v) depends only on u + v, so the deduplicated system has one
    row per monomial sum of degree <= 2(k-2). Rows are dicts pos -> coeff.
    """
    return [{int(pos): float(row[pos]) for pos in np.flatnonzero(row)}
            for row in build_localizing_matrix(p, k).rows]

