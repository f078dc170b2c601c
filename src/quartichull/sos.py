"""Sum-of-squares certificates: Gram decompositions and membership in the
dual SOS cone of affine functions f = s0 + s1*p.

Gram matrices are indexed by monomials of degree <= k in graded-lex order.
Non-uniqueness is resolved by maximizing the minimum eigenvalue, so repeated
runs return the same certificate. Margins (sos_margins) are solved on the
face of the Gram rows that the targets' zero coefficients force to zero.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .moments import (LinearMatrixForm, _diagonal_face, build_localizing_matrix,
                      build_moment_matrix)
from .poly import BivarPoly, SupportLine, monomials_upto
from .sdp import SdpProblem, _stack_size, psd_truncate, solve_stack

__all__ = [
    "SosCertificate",
    "IndeterminateResult",
    "sos_decompose",
    "sos_margin",
    "sos_margins",
    "margins_per_stack",
    "certify_in_fk",
    "nonneg_quartic",
]

FEAS_MARGIN = 1e-7


class IndeterminateResult(RuntimeError):
    """The underlying SDP solve ended with a Numerical status."""


@dataclass
class SosCertificate:
    target: BivarPoly
    basis: list  # exponent pairs indexing the Gram matrix
    gram: np.ndarray
    multiplier: BivarPoly  # s1 with target = s0 + s1 * p (zero when plain SOS)
    squares: list  # list of BivarPoly, s0 = sum of squares
    residual: float
    margin: float  # optimal min-eigenvalue value of the Gram search

    def to_json(self):
        def poly_map(p):
            return {f"{a},{b}": c for (a, b), c in sorted(p.terms.items())}

        return json.dumps(
            {
                "target": poly_map(self.target),
                "multiplier": poly_map(self.multiplier),
                "squares": [poly_map(s) for s in self.squares],
                "gram": [[round(v, 12) for v in row] for row in self.gram.tolist()],
                "basis": [list(e) for e in self.basis],
                "residual": self.residual,
            },
            indent=2,
        )


def _refine_lowrank(G, s1_coeffs, p_shift, target_vec, sums):
    """Snap an interior-point Gram onto an exact certificate of the lowest
    rank that Gauss-Newton on the factor V of G = V V' reaches from it.

    The iterate carries O(sqrt(gap)) noise in the zero eigenvalues. A Gram
    inside the PSD cone (smallest eigenvalue above FEAS_MARGIN) is refined
    at full rank; one on its boundary from its leading eigenpairs at rank
    1, 2, ..., keeping the first rank whose Gauss-Newton converges.
    sums is the monomial-product table of M_k (build_moment_matrix); the
    coefficients of s0 are the Gram entries summed by it, and the Jacobian
    in the factor V scatters 2 V[j, l] to sums[i, j]. p_shift holds the
    s1 columns of the coefficient-matching rows of _gram_problem, transposed
    (the localizing rows), and target_vec their right-hand side.
    Returns (G, s1_coeffs) -- refined on success, the inputs otherwise.
    """
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    nm, nb = len(target_vec), len(sums)
    factor_rows = np.arange(nb)[:, None]

    def residual(Vf, s1):
        c = np.bincount(sums.ravel(), weights=(Vf @ Vf.T).ravel(), minlength=nm)
        return c + s1 @ p_shift - target_vec

    for rank in range(nb if w[0] > FEAS_MARGIN else 1, nb + 1):
        Vf = V[:, -rank:] * np.sqrt(np.maximum(w[-rank:], 0.0))
        s1 = s1_coeffs.copy()
        seen = []  # the largest residual entry of each step
        for _ in range(80):
            r = residual(Vf, s1)
            seen.append(np.max(np.abs(r)))
            # the residual is quadratic along flat directions of the
            # certificate manifold, so drive it to machine precision or the
            # parameters themselves are only sqrt-accurate
            if seen[-1] < 5e-15 * max(1.0, np.max(np.abs(target_vec))):
                return Vf @ Vf.T, s1
            if len(seen) > 10 and seen[-1] > 0.5 * seen[-11]:
                break  # not halved in 10 steps: levelled off above the target
            J = np.zeros((nm, nb, rank))
            np.add.at(J, (sums, factor_rows), 2 * Vf)
            J = np.hstack([J.reshape(nm, nb * rank), p_shift.T])
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            Vf = Vf + step[: nb * rank].reshape(nb, rank)
            s1 = s1 + step[nb * rank:]
    return G, s1_coeffs


@functools.lru_cache(maxsize=32)
def _gram_problem(k, p, rows=None):
    """max t s.t. target = s0 + s1*p with Gram(s0) - t*I PSD, compiled once
    per (k, p, rows): the target enters a solve only as eq_b (_gram_solve).

    Variables: upper-triangle Gram entries of s0 over the monomials of degree
    <= k (row-major), or over those of the positions in rows (see
    _gram_face), then, when p is not None, the coefficients of s1 over the
    monomials of degree <= 2(k-2), then t. With p None this is the plain
    SOS search for target. The optimal t is >= 0 exactly when such a
    certificate exists and is a continuous infeasibility margin otherwise.

    Coefficient matching, one row per moment position, is the adjoint of
    the moment side: the Gram columns are M_k's 0/1 coefficient tensor at
    the upper-triangle entries, doubled off the diagonal, gathered from the
    product table without forming the tensor, and the s1 columns
    are the transposed localizing rows; a position that no kept entry reads
    has a zero row. Returns (program, M_k form on the kept rows).
    """
    form = build_moment_matrix(k)
    if rows is not None:
        form = LinearMatrixForm(form.sums[np.ix_(rows, rows)], form.rows)
    nb = form.size
    iu, ju = np.triu_indices(nb)
    ng = len(iu)
    columns = [form.rows.T[:, form.sums[iu, ju]] * np.where(iu == ju, 1.0, 2.0)]
    if p is not None:
        columns.append(build_localizing_matrix(p, k).rows.T)
    columns.append(np.zeros((form.nvars, 1)))  # t
    A = np.hstack(columns)
    F = np.zeros((A.shape[1], nb, nb))
    F[np.arange(ng), iu, ju] = F[np.arange(ng), ju, iu] = 1.0
    F[-1] = -np.eye(nb)
    return SdpProblem(F, A), form


@functools.lru_cache(maxsize=32)
def _gram_face(k, support):
    """The Gram rows (positions among the monomials of degree <= k) that a
    stack of targets with nonzero coefficients at `support` (one flag per
    monomial of degree <= 2k) keeps: row u goes when the coefficient at 2u
    is zero in every target and only u + u reaches it among the kept rows,
    so every PSD Gram matrix vanishes on row u (Newton-polytope pruning,
    Reznick 1978), unless a nonzero coefficient would then be reached by
    no entry. Exact: a target is SOS iff its kept block has a PSD Gram.
    None, the full basis, when every row stays, or when none does (targets
    that are all zero, whose margin stays the full basis's 0)."""
    support, sums = np.array(support), build_moment_matrix(k).sums
    kept = _diagonal_face(sums, ~support, support)
    return tuple(kept.tolist()) if 0 < len(kept) < len(sums) else None


def _gram_solve(targets, k, p=None, face=False):
    """Solve the Gram program of _gram_problem for each of targets, as one
    stack, over every Gram row, or with face (p None: the pruning reads the
    target as s0 alone) over the rows that _gram_face keeps for the stack:
    (program, M_k form on the rows, eq_b with one row per target,
    solutions)."""
    monomials = monomials_upto(2 * k)
    b = np.array([[t.coeff(*s) for s in monomials] for t in targets],
                 dtype=float).reshape(len(targets), len(monomials))
    rows = _gram_face(k, tuple(np.any(b != 0, axis=0).tolist())) if face else None
    prob, form = _gram_problem(k, p, rows)
    c = np.zeros(len(prob.F))
    c[-1] = -1.0  # maximize t
    sols = solve_stack(prob, c, np.zeros(prob.F.shape[1:]), b)
    return prob, form, b, sols


def _certificate(target, k, p=None):
    """Solve the Gram program of _gram_problem and turn a feasible optimum
    into a SosCertificate, snapped onto an exact certificate of low rank by
    _refine_lowrank; None when target has no certificate. The solve stops
    at the solver's one duality gap, as every other solve does."""
    prob, form, [b], [sol] = _gram_solve([target], k, p)
    if sol.status in ("Numerical", "MaxIter"):
        raise IndeterminateResult(f"SDP solve returned {sol.status}: {sol.message}")
    if sol.status != "Optimal" or sol.z[-1] < -FEAS_MARGIN:
        return None
    t = sol.z[-1]
    nb = form.size
    iu, ju = np.triu_indices(nb)
    ng = len(iu)
    G = np.zeros((nb, nb))
    G[iu, ju] = G[ju, iu] = sol.z[:ng]
    s1_vec = sol.z[ng:-1].copy()
    p_shift = prob.eq_A[:, ng:-1].T.copy()
    G, s1_vec = _refine_lowrank(G, s1_vec, p_shift, b, form.sums)
    s1_basis = monomials_upto(2 * (k - 2)) if p is not None else ()
    s1 = BivarPoly({g: s1_vec[i] for i, g in enumerate(s1_basis)})
    basis = monomials_upto(k)
    squares = []
    for lam, v in psd_truncate(G, tol=max(1e-7, 2 * abs(min(t, 0.0)))):
        w = np.sqrt(lam) * v
        squares.append(BivarPoly({e: w[i] for i, e in enumerate(basis)}))
    recon = sum((s * s for s in squares), BivarPoly())
    if not s1.is_zero():
        recon = recon + s1 * p
    residual = max(
        abs(recon.coeff(*s) - target.coeff(*s)) for s in monomials_upto(2 * k)
    )
    return SosCertificate(
        target=target, basis=basis, gram=G, multiplier=s1,
        squares=squares, residual=residual, margin=float(t),
    )


def sos_margin(q, k=2):
    """Max-min-eigenvalue margin of the Gram search for q: nonnegative iff
    q is SOS at order k, continuously negative with the depth of failure.

    The Gram block is that of the face q's zero coefficients force
    (_gram_face): a q that vanishes to second order at the origin, as a
    comparison quartic moved to its contact does, loses the row of the
    monomial 1, on which every PSD Gram matrix of q vanishes, and the margin
    is the one on the rest."""
    [margin] = sos_margins([q], k)
    if isinstance(margin, IndeterminateResult):
        raise margin
    return margin


def sos_margins(qs, k=2):
    """sos_margin of each q in qs, solved as one stack (sweeps pass the
    angles of one chunk) over the face of the rows that _gram_face keeps
    for the whole stack: a list holding each margin, or the
    IndeterminateResult that sos_margin raises for that q."""
    if any(q.degree > 2 * k for q in qs):
        raise ValueError("degree of q exceeds 2k")
    return [float(sol.z[-1]) if sol.status == "Optimal" else
            IndeterminateResult(f"SDP solve returned {sol.status}: {sol.message}")
            for sol in _gram_solve(qs, k, face=True)[3]]


def margins_per_stack(k=2):
    """How many of its qs sos_margins solves as one stack of the SDP core
    when each q vanishes to second order at the origin: the stack size that
    the core's memory bound gives the Gram program of the largest such face,
    every row but the monomial 1's. Every smaller face stacks more."""
    rows = tuple(range(1, len(monomials_upto(k))))
    return _stack_size(_gram_problem(k, None, rows)[0])


def sos_decompose(q, k):
    """SOS decomposition of q over monomials of degree <= k.

    Returns an SosCertificate, or None when q is not a sum of squares.
    Raises IndeterminateResult if the SDP solve fails numerically.
    """
    if q.degree > 2 * k:
        raise ValueError("degree of q exceeds 2k")
    return _certificate(q, k)


def certify_in_fk(f, p, k):
    """Certificate that the affine function f lies in the order-k dual cone:
    f = s0 + s1*p with s0 SOS of degree <= 2k and deg s1 <= 2(k-2).

    Returns an SosCertificate (multiplier = s1) or None when infeasible.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    if not isinstance(f, SupportLine):
        f = SupportLine(tuple(f))
    return _certificate(f.affine_poly(), k, p)


def nonneg_quartic(q):
    """Nonnegativity of a bivariate polynomial of degree <= 4 (exact: such
    polynomials are nonnegative iff SOS)."""
    if q.degree > 4:
        raise ValueError("degree must be <= 4")
    return sos_decompose(q, 2) is not None
