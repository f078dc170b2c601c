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
data. The module also reads, from the curve's forms at infinity, the kernel
vectors that facial reduction removes from a moment block (_forced_vectors).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .poly import _definite_sign, _q, _qgcd, _squarefree, monomials_upto

__all__ = [
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


def _outer_edges(p):
    """(w, h) for each edge of the Newton polygon of p along which a point
    (t^w1 a, t^w2 b) goes to infinity: w is the edge's primitive outer
    normal, with a positive entry, and h = w.e >= 0 its weighted degree."""
    exps = list(p.terms)
    out = set()
    for (a1, a2), (b1, b2) in itertools.combinations(exps, 2):
        g = math.gcd(b1 - a1, b2 - a2)
        for w in (((b2 - a2) // g, (a1 - b1) // g), ((a2 - b2) // g, (b1 - a1) // g)):
            h = w[0] * a1 + w[1] * a2
            if h >= 0 and max(w) > 0 and all(w[0] * e1 + w[1] * e2 <= h for e1, e2 in exps):
                out.add((w, h))
    return sorted(out)


def _forced_vectors(p, k, kept):
    """Kernel vectors that every Gram (dual) matrix of the order-k moment
    LMI has on the kept rows, in closed form from the forms of p at
    infinity: (d, v) pairs, in kept-row coordinates, each a moment
    direction d with d00 = d10 = d01 = 0 and zero localizing rows whose
    M_k(d), on the complement of the vectors before it, is v v^T. Then
    <X, M_k(d)> = 0 forces X v = 0 (partial facial reduction, Permenter &
    Parrilo 2018).

    (a) A definite degree-4 form p4 forces nothing. Such a d has d00 = 0,
    and a PSD matrix with a zero diagonal entry has a zero row, so applying
    this repeatedly gives d_a = 0 for every |a| <= 2k-1. The localizing rows
    with |s| = 2k-4 then read L_d(x^s p4) = 0. For small c > 0 the binary
    form -+p4 - c(x1^2 + x2^2)^2 is nonnegative, so it is a sum of squares
    g_i^2 (Hilbert), and for every form h of degree k-2,
    c L_d((x1^2 + x2^2)^2 h^2) = -sum_i L_d(g_i^2 h^2) <= 0. That zeroes
    L_d((x1^2 h)^2), L_d((x1 x2 h)^2) and L_d((x2^2 h)^2), every diagonal
    entry of the degree-k block, so d = 0.

    (b) Otherwise, per edge of p's Newton polygon facing away from the
    origin (_outer_edges), with weights w and edge form e_w: each real
    nonzero root c of e_w(1, c) (of e_w(c, 1) when w1 is even, so that
    every real point of the edge's branches has one representative) gives
    the weighted point z, (1, c) or (c, 1). The roots come from np.roots on
    the squarefree part of e_w over the Fractions of p's floats, so a
    multiple root is one root. Down the w-levels D of the kept rows, from
    the top, d_a = z^a on w.a = 2D and v_u = z^u on w.u = D: every entry of
    M_k(d) pairs a level above D with one below it, or is v v^T, so with
    the levels above projected out M_k(d) is v v^T. d is admissible when
    no pin (w-degree 0, w1 or w2) has w-degree 2D, and every localizing
    row, L_d(x^s p) = z^s p_[2D - w.s](z) with p_[m] the part of p of
    w-degree m, vanishes. That is decided exactly: the roots that pass
    are those of the gcd over the Rationals of e_w's squarefree part and
    every p_[m] read so far. The walk stops at the first level that fails.
    A zero root belongs to a coordinate row, which the diagonal pass
    (_diagonal_face) already drops."""
    if _definite_sign(p.graded_part(4)):
        return []
    rows = np.array(monomials_upto(k))[kept]
    sigma = np.array(monomials_upto(2 * k - 4))
    alphas = np.array(monomials_upto(2 * k))
    out = []
    for w, h in _outer_edges(p):
        j = 1 if w[0] % 2 else 0  # the coordinate of z that is the root
        parts = {}  # p_[m] along the free coordinate of z, low-to-high
        for e, c in p.terms.items():
            m = w[0] * e[0] + w[1] * e[1]
            parts.setdefault(m, [0.0] * 5)[e[j]] += c
        parts = {m: _q(c) for m, c in parts.items()}
        e_w = parts[h]
        g = _squarefree(e_w[next(i for i, c in enumerate(e_w) if c):])
        levels = rows @ w
        for D in sorted(set(levels.tolist()), reverse=True):
            if 2 * D in (0, w[0], w[1]):
                break
            for m in set((2 * D - sigma @ w).tolist()) & parts.keys():
                g = _qgcd(g, parts[m])
            roots = np.roots([float(c) for c in reversed(g)]) if len(g) > 1 else []
            roots = [z.real for z in roots if abs(z.imag) <= 1e-9 * (1 + abs(z))]
            if not roots:
                break
            for c in roots:
                z = np.array([1.0, c] if j else [c, 1.0])
                d = np.where(alphas @ w == 2 * D, np.prod(z ** alphas, axis=1), 0.0)
                v = np.where(levels == D, np.prod(z ** rows, axis=1), 0.0)
                out.append((d, v))
    return out


def _face_at_infinity(p, k, kept):
    """Basis (columns) of the kept rows' complement of the vectors
    _forced_vectors finds, or None when there is none."""
    V = [v / np.linalg.norm(v) for _, v in _forced_vectors(p, k, kept)]
    if not V:
        return None
    V = np.array(V).T
    w, Q = np.linalg.eigh(V @ V.T)
    return Q[:, w <= 1e-8 * w[-1]]


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
        return (self.rows @ np.asarray(y, dtype=float))[self.sums]

    def coefficients(self):
        """Coefficient tensor F, (nvars, size, size): the form is
        sum_m y_m F[m]."""
        return np.take(self.rows.T, self.sums, axis=1)

    def congruence(self, B):
        """B^T F[m] B for every m, (nvars, cols, cols), for a form whose rows
        are the identity (M_k, or M_k on some of its rows), without forming F.

        Its F is 0/1, and column r of F[m] holds at most one 1: at the row q
        with sums[q, r] = m. So H[m, p, r] = (B^T F[m])[p, r] = B[q, p] is a
        gather of the rows of B, exact, and one product with B finishes. Each
        entry is the dot product of the two vectors that np.einsum("pq,iqr,
        rs->ips", B.T, F, B, optimize=True) multiplies in its last step, and
        comes out bit for bit as that einsum's (the tests compare them). The
        result is C-contiguous, so the solver reads F as an (m, n*n) view."""
        q, r = np.indices(self.sums.shape)
        H = np.zeros((self.nvars, B.shape[1], self.size))
        H[self.sums, :, r] = B[q]
        return (H.reshape(-1, self.size) @ B).reshape(self.nvars, B.shape[1], B.shape[1])


def monomial_vector(d, x1, x2):
    """Values of all monomials of degree <= d at a point, graded-lex order."""
    return np.array([x1**a * x2**b for a, b in monomials_upto(d)])


def point_moments(k, x1, x2):
    """Moments of the Dirac mass at (x1, x2), up to degree 2k."""
    return monomial_vector(2 * k, x1, x2)


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
    <= 2(k-2), holding the coefficients of x^s p over the moments of
    degree <= 2k. The rows with deg s <= k-4 come first and are the
    coefficient vectors of x^s p over the monomials of degree <= k, the
    rows of M_k.
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

