"""Moment relaxations of the convex hull of a plane quartic: membership,
support functions, boundary sweeps and linear minimization.

The order-k relaxation constrains a truncated moment vector y by
M_k(y) >= 0 and M_{k-2}(p y) = 0, with y00, y10, y01 pinned to the
queried point. Membership margins come from maximizing t subject to
M_k(y) - t I >= 0, so the margin is a continuous proxy for signed
distance to the relaxed set. The LMI is facially reduced on both sides
before it is solved (see _reductions). Each (p, k) has two programs (see
_program): the margin program, compiled once and shared by every point,
and the support program, compiled once per sweep of directions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .moments import (LinearMatrixForm, _diagonal_face, _face_at_infinity,
                      build_localizing_matrix, build_moment_matrix)
from .poly import SupportLine, monomials_upto
from .sdp import SdpProblem, equality_multipliers, solve, solve_stack
from .sos import FEAS_MARGIN, IndeterminateResult

__all__ = [
    "MembershipResult",
    "SupportResult",
    "BoundaryRow",
    "membership",
    "separating_line",
    "support",
    "minimize_linear",
    "boundary_points",
    "boundary_csv",
    "BOUNDARY_CSV_HEADER",
]

BOUNDARY_CSV_HEADER = "angle,radians;f1;f2;support;x1;x2;status"


def _reductions(p, k):
    """Facial reduction of the order-k moment LMI: (kept rows, M_k on the
    kept rows, basis, zero rows).

    Everything is read from the one monomial-product table of
    build_moment_matrix and build_localizing_matrix. The reduced block's
    coefficient tensor, from which the zero rows are read, is gathered from
    that table in the basis (LinearMatrixForm.congruence): M_k's dense 0/1
    tensor is formed only for a block that keeps its coordinates.

    Dual side. A moment that is in no equality row (pin or localizing
    constraint), has no objective coefficient (objectives touch only y10,
    y01 and the margin t) and occurs in M_k only on the diagonal of row u
    forces the Gram (dual) matrix to vanish on row u: its dual constraint
    reads X_uu = 0, so the LMI has no strictly feasible dual point and the
    moment iterate drifts along an unbounded optimal face. Such rows are
    dropped, repeatedly, until none is left. This happens when the curve
    has a real point at infinity: for the egg (top form -x1^4) the rows
    x1*x2^(k-1) and x2^k go. More generally any moment direction d with
    d00 = d10 = d01 = 0, zero localizing rows and M_k(d) >= 0 on the block
    forces X M_k(d) = 0 (Permenter & Parrilo's partial facial reduction).
    After the diagonal pass, such directions are read in closed form from
    the forms of p at infinity, and their ranges are projected out; the
    rule and the proof that a definite top form admits none are in
    moments._forced_vectors.
    For the egg the one vector is x2^(k-1) + x1^2*x2^(k-2), at the root
    z = (1, 1) of its (1, 2)-weighted top form -(x2 - x1^2)^2: the curve's
    point at infinity along the parabola x2 = x1^2. d leaves every
    objective unchanged, so the optimal value is too: adding s*d with s
    large restores M_k on the removed part.

    Primal side, k >= 4. Once deg(x^s p) <= k, the localizing equalities
    force the coefficient vector of x^s p into the kernel of M_k(y) for
    every feasible y, so the LMI has no strictly feasible point and
    interior-point iterations lose primal feasibility. These vectors are
    the first localizing rows, read on the moments of the kept rows. The
    block is restricted to their orthogonal complement. They have no
    coefficient on a dropped row u (y_{2u} would then be in a localizing
    row) and are orthogonal to the range of every M_k(d).

    basis is None when the block keeps its coordinates, else the columns
    spanning the reduced block inside the kept rows. The zero rows are the
    equality rows with right-hand side 0: the localizing rows, then, when
    something was removed on the dual side, an orthonormal basis of the
    moment directions the reduced problem no longer sees; they are fixed
    at 0 so that they leave the solve (the relaxation leaves them free).
    """
    moment = build_moment_matrix(k)
    loc = build_localizing_matrix(p, k).rows
    nm = moment.nvars
    # pins and objectives (y00, y10, y01), then the localizing rows
    E = np.zeros((3 + len(loc), nm))
    E[[0, 1, 2], [0, 1, 2]] = 1.0
    E[3:] = loc
    # drop row u when y_{2u} is unconstrained and occurs nowhere else in the
    # kept block
    kept = _diagonal_face(moment.sums, ~np.any(E != 0, axis=0))
    form = LinearMatrixForm(moment.sums[np.ix_(kept, kept)], moment.rows)  # M_k on the kept rows
    W = _face_at_infinity(p, k, kept)

    basis = W
    if k >= 4 and not p.is_zero():
        K = np.ascontiguousarray(loc[:len(monomials_upto(k - 4)), kept]).T
        if W is not None:
            K = W.T @ K
        U, sig, _ = np.linalg.svd(K, full_matrices=True)
        r = int(np.sum(sig > 1e-12 * sig[0]))
        basis = U[:, r:] if W is None else W @ U[:, r:]

    fixed = np.zeros((0, nm))
    if len(kept) < moment.size or W is not None:
        G = form.coefficients() if basis is None else form.congruence(basis)
        S = np.vstack([E, G.reshape(nm, -1).T])
        # Vt is all that is read; U is (len(S), len(S)) in full, and full
        # Vt rows are needed only when S is wide
        _, sig, Vt = np.linalg.svd(S, full_matrices=len(S) < nm)
        r = int(np.sum(sig > 1e-9 * sig[0]))
        fixed = Vt[r:]
    return tuple(kept.tolist()), form, basis, np.vstack([loc, fixed])


def _program(p, k, margin):
    """The order-k program, compiled on every call: the margin program over
    z = (moments, t) when margin is true, with M_k(y) - t I >= 0, else the
    support program over z = moments, with M_k(y) >= 0. The block is
    facially reduced on both sides (see _reductions). Equality rows: the
    pins first (y00, y10, y01 for the margin program, y00 alone for the
    support program), then the localizing rows, then one row fixing at 0
    each moment direction that the reduced block no longer sees. The
    block's coefficients B^T F[m] B in the reduced basis B are gathered from
    the product table (LinearMatrixForm.congruence), with no dense F; t's
    coefficient is -I. _support_sweep compiles the support program once per
    call and lets it go with the call; _margin_program keeps the margin
    program."""
    _, form, basis, zero_rows = _reductions(p, k)
    F = form.coefficients() if basis is None else form.congruence(basis)
    if margin:
        F = np.concatenate([F, -np.eye(F.shape[1])[None]])
    pins = 3 if margin else 1  # graded-lex puts (0,0), (1,0), (0,1) first
    eq_A = np.zeros((pins + len(zero_rows), len(F)))
    eq_A[range(pins), range(pins)] = 1.0
    eq_A[pins:, :form.nvars] = zero_rows
    return SdpProblem(F, eq_A)


@functools.lru_cache(maxsize=64)
def _margin_program(p, k):
    """The margin program of (p, k), memoized: membership and
    separating_line arrive one point at a time."""
    return _program(p, k, True)


@dataclass
class MembershipResult:
    inside: bool
    margin: float
    moments: np.ndarray | None  # 0 along the directions _reductions fixes
    solution: object


@dataclass
class SupportResult:
    value: float  # +inf when unbounded in the direction
    maximizer: tuple | None
    status: str  # Optimal | Inaccurate | Unbounded
    message: str = ""  # solver status and message behind an Inaccurate value


@dataclass
class BoundaryRow:
    angle: float
    f1: float
    f2: float
    support: float
    x1: float
    x2: float
    status: str


def _margin_solve(p, k, point):
    """The membership margin solve at point: (program, c, result).
    Any status but Optimal raises IndeterminateResult."""
    prob = _margin_program(p, k)
    c = np.zeros(len(prob.F))
    c[-1] = -1.0
    b = np.zeros(len(prob.eq_A))
    b[:3] = [1.0, float(point[0]), float(point[1])]
    sol = solve(prob, c, np.zeros(prob.F.shape[1:]), b)
    if sol.status != "Optimal":
        raise IndeterminateResult(f"membership solve returned {sol.status}: {sol.message}")
    t = float(sol.z[-1])
    return prob, c, MembershipResult(inside=t >= -FEAS_MARGIN, margin=t,
                                     moments=sol.z[:-1].copy(), solution=sol)


def membership(p, k, point):
    """Inside/outside test of a point against the order-k relaxed hull."""
    return _margin_solve(p, k, point)[2]


def separating_line(p, k, point):
    """Supporting line separating an exterior point from the relaxed hull,
    read off the equality multipliers of the membership solve.

    Returns (line, result). line is None when the point is inside.
    """
    prob, c, res = _margin_solve(p, k, point)
    if res.inside:
        return None, res
    x1, x2 = float(point[0]), float(point[1])
    lam = equality_multipliers(prob, c, res.solution)
    f = np.array(lam[:3], dtype=float)  # pin rows come first
    if f[0] + f[1] * x1 + f[2] * x2 > 0:
        f = -f
    norm = math.hypot(f[1], f[2])
    if norm < 1e-14:
        return None, res
    return SupportLine(tuple(f / norm)), res


def _support_sweep(p, k, directions):
    """One support solve per direction (f1, f2) over the order-k support
    program, the directions solved as stacks (see sdp.solve_stack): a
    SupportResult per direction, with the statuses of support(). A failed
    solve keeps the solver's status, with value nan."""
    prob = _program(p, k, False)
    F0 = np.zeros(prob.F.shape[1:])
    b = np.zeros(len(prob.eq_A))
    b[0] = 1.0
    c = np.zeros((len(directions), len(prob.F)))
    c[:, 1:3] = -np.reshape(directions, (-1, 2))
    out = []
    for (f1, f2), sol in zip(directions, solve_stack(prob, c, F0, b)):
        message = f"{sol.status}: {sol.message}"
        # High orders are barely strictly feasible (the moment body of a
        # 1-dimensional curve thins out exponentially with the degree) and
        # the solver can stall with the certificate side adrift. The moment
        # iterate itself is still feasible, so its value is still a valid
        # inner estimate of the support: "Inaccurate".
        if sol.status == "Unbounded":
            out.append(SupportResult(value=math.inf, maximizer=None, status="Unbounded"))
        elif sol.status != "Optimal" and (sol.z is None or sol.violation > 1e-6):
            out.append(SupportResult(value=math.nan, maximizer=None,
                                     status=sol.status, message=message))
        else:
            optimal = sol.status == "Optimal"
            out.append(SupportResult(
                value=f1 * sol.z[1] + f2 * sol.z[2],
                maximizer=(float(sol.z[1]), float(sol.z[2])),
                status="Optimal" if optimal else "Inaccurate",
                message="" if optimal else message,
            ))
    return out


def support(p, k, direction):
    """max f.(x1,x2) over the order-k relaxed hull.

    status is "Optimal" when the solver reports Optimal; value is then the
    relaxation's support. "Inaccurate" means the solve stopped early but
    its moment iterate is feasible, so value is an inner estimate: a lower
    estimate of the maximum, not the maximum. "Unbounded" comes with
    value +inf. Any other outcome raises IndeterminateResult.
    """
    direction = (float(direction[0]), float(direction[1]))
    [res] = _support_sweep(p, k, [direction])
    if res.status not in ("Optimal", "Inaccurate", "Unbounded"):
        raise IndeterminateResult(f"support solve returned {res.message}")
    return res


def minimize_linear(p, objective, orders):
    """Lower bounds on min f.(x1,x2) over the relaxed hulls, one per order.

    objective is a 2-vector. Returns a list of (order, bound, status).
    A bound is reported only from a support solve with status "Optimal";
    it is -inf with status "Unbounded". For any other outcome, including an
    "Inaccurate" support (a feasible moment iterate, whose value bounds the
    minimum from above, not from below), bound is None and status carries
    the solver's status and message.
    """
    f1, f2 = float(objective[0]), float(objective[1])
    out = []
    for k in orders:
        [res] = _support_sweep(p, k, [(-f1, -f2)])
        if res.status == "Unbounded":
            out.append((k, -math.inf, "Unbounded"))
        elif res.status == "Optimal":
            out.append((k, -res.value, "Optimal"))
        else:
            out.append((k, None, f"support solve returned {res.message}"))
    return out


def boundary_points(p, k, n):
    """Support sweep at n equally spaced angles.

    Rows double as a supporting-line envelope (angle, support) and as a
    maximizer point cloud (x1, x2). Row status is "ok", "inaccurate" or
    "unbounded" for the statuses of support(), else the failed solve's
    status in lower case, with nan values.
    """
    if n < 3:
        raise ValueError("need at least 3 sample angles")
    angles = [2 * math.pi * j / n for j in range(n)]
    directions = [(math.cos(th), math.sin(th)) for th in angles]
    rows = []
    for th, (f1, f2), res in zip(angles, directions,
                                  _support_sweep(p, k, directions)):
        x1, x2 = res.maximizer or (math.nan, math.nan)
        status = "ok" if res.status == "Optimal" else res.status.lower()
        rows.append(BoundaryRow(th, f1, f2, res.value, x1, x2, status))
    return rows


def _fmt(v):
    """12 significant digits, so identical runs print identical bytes
    (nan, inf and -inf as such)."""
    return f"{float(v):.12g}"


def boundary_csv(rows):
    lines = [BOUNDARY_CSV_HEADER]
    for r in rows:
        lines.append(";".join([
            _fmt(r.angle), _fmt(r.f1), _fmt(r.f2), _fmt(r.support),
            _fmt(r.x1), _fmt(r.x2), r.status,
        ]))
    return "\n".join(lines) + "\n"
