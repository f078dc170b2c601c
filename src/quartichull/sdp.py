"""Dense small-scale semidefinite solver.

Problems are given in LMI form, with one PSD constraint:

    minimize    c' z
    subject to  F0 + sum_i z_i F[i] >= 0   (PSD)
                E z = d

An SdpProblem is the compiled structure (F, E): it is checked once, E is
eliminated by one SVD, which gives its null space N, and the
standard-form tensor is formed once. solve(prob, c, F0, d) then takes only
the data that varies between solves of one family (a point, a direction, a
target). It finds a particular solution z0 of E z = d, and a primal-dual
path-following method with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step solves the cone phase over z = z0 + N w.
Internally the LMI is treated as the dual side of a standard-form pair

    (P) min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0
    (D) max b' y    s.t.  C - sum_i y_i A_i = S >= 0

with C = F0 + z0.F, A = -N.F, b = -N'c and y = w.

Each iterate works in its NT frame, where X and S both become diag(lam), and
takes its step lengths from the directions scaled into that frame.

One interior-point core serves every solve. solve_stack(prob, c, F0, d)
takes a stack of B members of one compiled structure (c, F0 and d may each
carry a leading stack axis) and iterates them in lockstep: X, S and C are
(B, n, n) arrays, y and b are (B, m), and numpy's stacked cholesky, svd,
inv, eigvalsh and matmul do the linear algebra, so the per-call overhead is
paid once per stack and not once per member. Each member keeps its own NT
step lengths and its own stop tests; a member that stops is written out
and leaves the stack. The Schur complement is factored once per iteration,
and the inverse of its Cholesky factor serves both directions and every
refinement step. A stack holds as many members as keep the working set
of an iteration, about (3 m + 40) n^2 floats per member, within 2^19
floats; solve_stack splits longer stacks. solve(prob, c, F0, d) is the
one-member stack. All data is checked for finite entries on entry, the
structure in SdpProblem and the rest once per stack in solve_stack; inner
solves skip the check.

solve and solve_stack take no tolerance: the relative duality gap at which
a feasible iterate is Optimal, the iteration cap and the other tolerances
are module constants, each with the reason for its value.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "solve",
    "solve_stack",
    "min_eig",
    "psd_truncate",
    "NotPsdError",
]


class NotPsdError(ValueError):
    pass


class SdpProblem:
    """The compiled structure of

        minimize c'z  s.t.  F0 + sum_i z_i F[i] >= 0,  eq_A z = eq_b,

    with F of shape (m, n, n) and eq_A of shape (r, m), r >= 0. Built once
    per family of problems: it keeps F, eq_A, the null space N and the
    pseudo-inverse of eq_A (one SVD) and the standard-form tensor A = -N.F;
    solve takes c, F0 and eq_b."""

    def __init__(self, F, eq_A):
        F = np.asarray(F, dtype=float)
        eq_A = np.asarray(eq_A, dtype=float)
        if F.ndim != 3 or F.shape[1] != F.shape[2]:
            raise ValueError("F must be (m, n, n)")
        if F.shape[1] == 0:
            raise ValueError("empty PSD block")
        if eq_A.ndim != 2 or eq_A.shape[1] != len(F):
            raise ValueError("eq_A must have one column per variable")
        if not (np.isfinite(F).all() and np.isfinite(eq_A).all()):
            raise ValueError("problem data must be finite")
        if len(eq_A) == 0:
            N, pinv = np.eye(len(F)), np.zeros((len(F), 0))
        else:
            U, sig, Vt = np.linalg.svd(eq_A)
            rank = int(np.sum(sig > max(eq_A.shape) * np.finfo(float).eps * sig[0]))
            N = Vt[rank:].copy().T  # a copy, so the rows of the range are freed
            pinv = (Vt[:rank].T / sig[:rank]) @ U[:, :rank].T
        self.F, self.eq_A, self.N, self.pinv = F, eq_A, N, pinv
        self.A = -np.tensordot(N, F, axes=(0, 0))


# Relative primal and dual residual at which an iterate counts as feasible,
# and the equality residual above which E z = d is inconsistent: about the
# square root of machine precision, what a double-precision interior-point
# solve reaches reliably.
_FEAS_TOL = 1e-8
# Relative duality gap at which a feasible iterate is Optimal, for the same
# reason; Gram certificates too, which sos snaps onto exact ones afterwards.
_GAP_TOL = 1e-8
# Fraction of the step to the cone boundary that is taken: the iterates stay
# strictly interior, so the Cholesky factors of X and S exist next iteration.
_STEP_FRAC = 0.98
# An improving ray is declared once the objective grows this many times
# faster than the ray's residual, far above what a converging iterate shows.
_RAY_THRESHOLD = 1e6
# Fallback accuracy. Moment problems often have degenerate optimal faces on
# which the strict tolerances are out of reach; if some iterate reaches this
# merit it is returned as Optimal, and the message names the fallback.
_ACCEPT_TOL = 1e-6
# A member whose relative primal residual rises past this after it was below
# _FEAS_TOL stops as diverged: above it neither fallback can take an iterate
# (the merit of slot 0 is at least the residual, and slot 1 takes only
# iterates below it), and the solves seen to do this (the bean's supports
# at k = 5..8) never came back.
_DIVERGED = 1e-2
# Stagnation is declared when mu fails to halve over this many iterations;
# a shorter window stops solves that are slow but still converging.
_STALL_WINDOW = 80
# The iteration cap. A member whose barrier parameter stalls stops earlier,
# on the stall test; the cap bounds one that keeps creeping along.
_MAX_ITER = 200


@dataclass
class SdpSolution:
    status: str  # Optimal | Infeasible | Unbounded | MaxIter | Numerical
    z: np.ndarray | None
    duals: np.ndarray | None  # the primal matrix X of the standard form
    violation: float
    iterates: Sequence = field(default_factory=list)  # one record per iteration
    message: str = ""


def min_eig(M):
    """Smallest eigenvalue of a symmetric matrix, or of each matrix of a
    stack of shape (B, n, n)."""
    M = np.asarray(M, dtype=float)
    Mt = np.swapaxes(M, -1, -2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(M - Mt).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    low = np.linalg.eigvalsh(0.5 * (M + Mt))[..., 0]
    return float(low) if low.ndim == 0 else low


def psd_truncate(M, tol=1e-8):
    """Spectral split of a PSD-within-tolerance matrix into (weight, vector) pairs."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] < -tol:
        raise NotPsdError(f"not PSD within tolerance: min eigenvalue {w[0]:.3e}")
    return [(float(w[i]), V[:, i].copy()) for i in range(len(w)) if w[i] > tol]


# ---------------------------------------------------------------------------

# The stop of a member of a stack: (status, message) by stop code; 0 means
# the member iterates on.
_STOPS = (
    None,
    ("Numerical", "non-finite iterate"),
    ("Optimal", ""),
    ("Infeasible", "primal improving ray found"),
    ("Unbounded", "dual improving ray found"),
    ("Numerical", "primal residual diverged"),
    ("Numerical", "no progress on the barrier parameter"),
    ("Numerical", "iterate left the cone"),
    ("Numerical", "singular Schur complement"),
    ("Numerical", "step length collapsed"),
    ("MaxIter", ""),
)
_FALLBACKS = ("converged to reduced accuracy", "converged on the feasible side only")
_ITERATE_KEYS = ("pobj", "dobj", "gap", "mu", "rp", "rd")
# The one bound on the size of a stack: an iteration of _ipm holds at most
# this many floats at once (see _stack_size). It sets the hierarchy
# benchmark's peak RSS, whose largest working set is the boundary's k=3
# support stack of 50 members (the bean's order-8 bound, one member, traces
# 3.5 MB with its compile). 2^18 lowers that peak by only 0.8 MB (76.3 ->
# 75.5 MB) and slows that boundary sweep by 5% (k = 2, 3 at 90 angles, 0.35
# -> 0.37 s; 2 cores, one BLAS thread), so the bound stays at 2^19.
_STACK_FLOATS = 2 ** 19


class _IterateLog(Sequence):
    """The iterate log of one solve: an array with one row of _ITERATE_KEYS
    per iteration, each row read as the record {"iter": i, "pobj": ...}."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        row = dict(zip(_ITERATE_KEYS, self.rows[i].tolist()))
        return {"iter": range(len(self.rows))[i], **row}


def _step(s, Dh):
    """min(1, _STEP_FRAC * the largest alpha with diag(lam) + alpha*Dh psd),
    for a direction Dh in the NT frame and s = lam^(-1/2); s of shape
    (..., n) and Dh of shape (..., n, n), one step per leading index."""
    Dh = s[..., :, None] * Dh * s[..., None, :]
    low = np.linalg.eigvalsh(0.5 * (Dh + Dh.swapaxes(-1, -2)))[..., 0]
    return _STEP_FRAC / np.fmax(-low, _STEP_FRAC)


def _factor(M, retries=0):
    """Cholesky factors of a stack of matrices, and the mask of the members
    that have none. A member that fails is retried up to `retries` times
    with a growing diagonal jitter; a member that still fails gets the
    identity as a stand-in factor."""
    try:
        return np.linalg.cholesky(M), np.zeros(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L, bad = np.empty_like(M), np.zeros(len(M), dtype=bool)
    eye = np.eye(M.shape[-1])
    for j, Mj in enumerate(M):
        jitter = 0.0
        for attempt in range(retries + 1):
            try:
                L[j] = np.linalg.cholesky(Mj + jitter * eye)
                break
            except np.linalg.LinAlgError:
                jitter = max(1e-14 * (np.trace(Mj) / len(Mj)), 10 * jitter, 1e-300)
        else:
            L[j], bad[j] = eye, True
    return L, bad


def _ipm(C, A, b):
    """Core primal-dual IPM on a stack of standard-form pairs that share A:
    C of shape (B, n, n), n >= 1, A of shape (m, n, n), m >= 1, and b of
    shape (B, m). The members iterate in lockstep, each with its own step
    lengths and stop tests; a member that stops is written out and leaves
    the stack. Returns one dict per member; its iterate log is built from
    one (ids, rows) pair per iteration once the stack is done."""
    B, n = C.shape[:2]
    m = len(A)
    A2 = A.reshape(m, n * n)
    At = A.transpose(1, 0, 2).reshape(n, m * n)  # At[r, (i, q)] = A[i, r, q]
    diag = np.arange(n)

    scale = np.maximum(np.maximum(1.0, np.abs(A).max()),
                       np.maximum(np.abs(C).max(axis=(1, 2)), np.abs(b).max(axis=1)))
    X0 = scale[:, None, None] * np.eye(n)
    # st holds the members still iterating, each array with the member axis
    # first. best holds the merit, X and y of the most accurate iterate
    # seen (slot 0) and of the one judged on the y/S side only (slot 1):
    # S >= 0 holds throughout, so small rd and gap make y near-feasible and
    # near-optimal for the LMI even when the X side has drifted (degenerate
    # problems).
    st = SimpleNamespace(
        ids=np.arange(B), C=C, b=b, X=X0, S=X0.copy(), y=np.zeros((B, m)),
        bnorm=1 + np.sqrt((b * b).sum(axis=1)), Cnorm=1 + np.sqrt((C * C).sum(axis=(1, 2))),
        best=np.full((B, 2), np.inf), best_X=np.zeros((B, 2, n, n)),
        best_y=np.zeros((B, 2, m)), feasible=np.zeros(B, dtype=bool),
    )
    log = []  # per iteration: the live members and their rows of _ITERATE_KEYS
    out = [None] * B

    def keep(mask, *arrays):
        vars(st).update({k: v[mask] for k, v in vars(st).items()})
        return [a[mask] for a in arrays]

    def finish(codes):
        """Write out the members with a nonzero stop code."""
        for j in np.flatnonzero(codes):
            status, message = _STOPS[codes[j]]
            X, y = st.X[j], st.y[j]
            if status in ("Numerical", "MaxIter"):
                # strict tolerances unreachable (degenerate optimal face is
                # common for moment problems) but an iterate of acceptable
                # merit exists
                for slot, text in enumerate(_FALLBACKS):
                    if st.best[j, slot] < _ACCEPT_TOL:
                        status = "Optimal"
                        message = f"{text} (merit {st.best[j, slot]:.2e})"
                        X, y = st.best_X[j, slot], st.best_y[j, slot]
                        break
            i = st.ids[j]
            out[i] = dict(status=status, X=X.copy(), y=y.copy(), message=message)

    for it in range(_MAX_ITER):
        X, S, y, C, b = st.X, st.S, st.y, st.C, st.b
        ax = (A2 @ X.reshape(-1, n * n, 1))[..., 0]
        rp = b - ax
        yA = (y[:, None] @ A2).reshape(X.shape)
        Rd = C - S - yA
        gap = (X * S).sum(axis=(1, 2))
        mu = gap / n
        pobj = (C * X).sum(axis=(1, 2))
        dobj = (b * y).sum(axis=1)
        rp_norm = np.sqrt((rp * rp).sum(axis=1))
        rd_norm = np.sqrt((Rd * Rd).sum(axis=(1, 2)))
        log.append((st.ids, np.column_stack([pobj, dobj, gap, mu, rp_norm, rd_norm])))

        rp_rel, rd_rel = rp_norm / st.bnorm, rd_norm / st.Cnorm
        gap_rel = gap / (1 + np.abs(pobj) + np.abs(dobj))
        merit_lmi = np.maximum(rd_rel, gap_rel)
        merit = np.array([np.maximum(rp_rel, merit_lmi),
                          np.where(rp_rel < _DIVERGED, merit_lmi, np.inf)]).T
        better = merit < st.best
        np.copyto(st.best, merit, where=better)
        np.copyto(st.best_X, X[:, None], where=better[..., None, None])
        np.copyto(st.best_y, y[:, None], where=better[..., None])

        # divergence: improving-ray tests. X/|X| tends to a ray proving LMI
        # infeasibility, y/|y| to one proving unboundedness (both tests
        # multiplied through by the norm of the ray)
        ray = yA + S
        tests = [
            ~np.isfinite(log[-1][1]).all(axis=1),  # overflow, which no test below reads
            (rp_rel < _FEAS_TOL) & (rd_rel < _FEAS_TOL) & (gap_rel < _GAP_TOL),
            (pobj < 0) & (-pobj > _RAY_THRESHOLD * np.maximum(
                np.sqrt((ax * ax).sum(axis=1)), 1e-16 * np.sqrt((X * X).sum(axis=(1, 2))))),
            (dobj > 0) & (dobj > _RAY_THRESHOLD * np.maximum(
                np.sqrt((ray * ray).sum(axis=(1, 2))), 1e-16 * np.sqrt((y * y).sum(axis=1)))),
            st.feasible & (rp_rel > _DIVERGED),
        ]
        st.feasible |= rp_rel < _FEAS_TOL
        w = _STALL_WINDOW
        if it >= w:
            ids, rows = log[it + 1 - w]  # ids is sorted and holds every live member
            past = rows[np.searchsorted(ids, st.ids), 3]
            tests.append((mu > 0.5 * past) & (rp_rel < 1e2))
        stop = np.logical_or.reduce(tests)
        if stop.any():
            # the code of the first test that holds, in the order above
            stop = np.where(stop, np.argmax(tests, axis=0) + 1, 0)
            finish(stop)
            if stop.all():
                break
            rp, Rd, mu, gap = keep(stop == 0, rp, Rd, mu, gap)
            X, S, C = st.X, st.S, st.C

        # NT scaling: W = R R' with W S W = X; in the scaled space
        # R^{-1} X R^{-T} = R' S R = diag(lam). A member without Cholesky
        # factors has left the cone; it rides along on stand-in factors
        # until it is written out at the end of the iteration.
        Lx, bad_x = _factor(X)
        Ls, bad_s = _factor(S)
        _, lam, Vt = np.linalg.svd(Ls.transpose(0, 2, 1) @ Lx)
        root = np.sqrt(lam)
        R = Lx @ Vt.transpose(0, 2, 1) / root[:, None, :]
        Rinv = (root[:, :, None] * Vt) @ np.linalg.inv(Lx)
        RT, RinvT = R.transpose(0, 2, 1), Rinv.transpose(0, 2, 1)
        s = lam ** -0.5
        W = R @ RT
        WRdW = W @ Rd @ W

        # Schur complement M_ij = tr(A_i W A_j W), factored once; the inverse
        # of its factor serves both directions and every refinement step
        WA = (W @ At).reshape(-1, n, m, n).transpose(0, 2, 1, 3).reshape(-1, m * n, n)
        M = A2 @ (WA @ W).reshape(-1, m, n * n).transpose(0, 2, 1)
        del WA  # the largest array of an iteration; only M reads it
        M = 0.5 * (M + M.transpose(0, 2, 1))
        Lm, bad_m = _factor(M, retries=4)
        Li = np.linalg.inv(Lm)
        LiT = Li.transpose(0, 2, 1)

        def solve_direction(Rc):
            rhs = rp - (A2 @ (Rc - WRdW).reshape(-1, n * n, 1))[..., 0]
            dy = (LiT @ (Li @ rhs[..., None]))[..., 0]
            # iterative refinement: the Schur complement is increasingly
            # ill-conditioned as mu -> 0 and lost digits show up directly
            # as primal infeasibility; each member stops on its own
            tol = 1e-14 * np.maximum(1.0, np.sqrt((rhs * rhs).sum(axis=1)))
            for _ in range(3):
                r = rhs - (M @ dy[..., None])[..., 0]
                more = np.sqrt((r * r).sum(axis=1)) >= tol
                if not more.any():
                    break
                dy = np.where(more[:, None], dy + (LiT @ (Li @ r[..., None]))[..., 0], dy)
            dS = Rd - (dy[:, None] @ A2).reshape(Rd.shape)
            d = Rc - W @ dS @ W
            return 0.5 * (d + d.transpose(0, 2, 1)), dy, dS

        # predictor: target X S -> 0; scaled rhs is -lam^2 (gives Rc = -X)
        dXa, _, dSa = solve_direction(-X)
        dXh, dSh = Rinv @ dXa @ RinvT, RT @ dSa @ R
        ap, ad = _step(s, dXh), _step(s, dSh)
        gap_aff = ((X + ap[:, None, None] * dXa) * (S + ad[:, None, None] * dSa)).sum(axis=(1, 2))
        ratio = np.maximum(gap_aff, 0.0) / np.where(gap > 0, gap, np.inf)
        sigma = np.minimum(1.0, ratio ** 3)

        # corrector with the Mehrotra second-order term in scaled space; the
        # scaled rhs maps back to Rc with dX + W dS W = Rc through the
        # Lyapunov scaling (lam_i + lam_j)/2
        rhs = -0.5 * (dXh @ dSh + dSh @ dXh)
        rhs[:, diag, diag] += (sigma * mu)[:, None] - lam ** 2
        denom = 0.5 * (lam[:, :, None] + lam[:, None, :])
        dX, dy, dS = solve_direction(R @ (rhs / denom) @ RT)
        ap, ad = _step(s, Rinv @ dX @ RinvT), _step(s, RT @ dS @ R)

        stop = np.where(np.minimum(ap, ad) < 1e-10, 9, 0)
        stop[bad_m] = 8
        stop[bad_x | bad_s] = 7
        if stop.any():
            finish(stop)
            if stop.all():
                break
            ap, ad, dX, dy, dS = keep(stop == 0, ap, ad, dX, dy, dS)
        st.X = st.X + ap[:, None, None] * dX
        st.y = st.y + ad[:, None] * dy
        st.S = st.S + ad[:, None, None] * dS
    else:
        finish(np.full(len(st.ids), 10))
    # a member iterates from the first iteration until it stops, so its rows
    # in iteration order are its log
    ids = np.concatenate([i for i, _ in log])
    order = np.argsort(ids, kind="stable")
    rows = np.split(np.concatenate([r for _, r in log])[order],
                    np.cumsum(np.bincount(ids, minlength=B))[:-1])
    for r, member in zip(out, rows):
        r["iterates"] = _IterateLog(member)
    return out


def _stack_size(prob):
    """Members per stack of the compiled structure prob: as many as keep an
    iteration's working set within _STACK_FLOATS floats; at least one. A
    member holds about (3 m + 40) n^2 floats at once, m the free variables
    and n the block size: the (m, n, n) intermediates of the Schur
    complement and some 40 (n, n) iterates, steps and factors (traced peaks
    for m = 7..61 and n = 6..30 are within 10% of it)."""
    m, n = prob.N.shape[1], prob.F.shape[1]
    return max(1, _STACK_FLOATS // ((3 * m + 40) * n * n))


def solve_stack(prob, c, F0, eq_b):
    """Solve a stack of SDPs of the compiled structure prob in lockstep.

    c is of shape (m,), F0 of shape (n, n) and eq_b has one entry per row of
    prob.eq_A; each may carry a leading stack axis of B members, and an
    argument without one is shared by every member. Returns one SdpSolution
    per member, each as solve would return it; a feasible member is Optimal
    once its relative duality gap is below _GAP_TOL. Shapes and finiteness
    are checked once per stack; the members run in stacks of _stack_size."""
    c, F0, eq_b = (np.asarray(a, dtype=float) for a in (c, F0, eq_b))
    m, n = prob.F.shape[:2]
    E, N = prob.eq_A, prob.N
    if c.shape[-1:] != (m,) or c.ndim > 2 or F0.shape[-2:] != (n, n) or F0.ndim > 3:
        raise ValueError("c must be (m,) and F0 (n, n) for F of shape (m, n, n)")
    if eq_b.shape[-1:] != (len(E),) or eq_b.ndim > 2:
        raise ValueError("eq_b must have one entry per row of eq_A")
    sizes = {a.shape[0] for a, nd in ((c, 2), (F0, 3), (eq_b, 2)) if a.ndim == nd}
    if len(sizes) > 1:
        raise ValueError("stacked arguments must have the same number of members")
    if not all(np.isfinite(a).all() for a in (c, F0, eq_b)):
        raise ValueError("problem data must be finite")
    B = sizes.pop() if sizes else 1
    if B == 0:
        return []
    # every product below is a stack of one product per member, so that a
    # member's numbers do not depend on the other members of its stack
    c = np.broadcast_to(c[..., None, :], (B, 1, m))
    F0 = np.broadcast_to(F0, (B, n, n))
    eq_b = np.broadcast_to(eq_b[..., None, :], (B, 1, len(E)))
    F2 = prob.F.reshape(m, n * n)

    z0 = eq_b @ prob.pinv.T  # (B, 1, m): the minimum-norm solutions
    consistent = (np.linalg.norm(z0 @ E.T - eq_b, axis=(1, 2))
                  <= _FEAS_TOL * (1 + np.linalg.norm(eq_b, axis=(1, 2))))
    C = F0 + (z0 @ F2).reshape(B, n, n)
    out = [None if ok else SdpSolution(status="Infeasible", z=None, duals=None,
                                       violation=float("inf"),
                                       message="inconsistent equality system")
           for ok in consistent]
    live = np.flatnonzero(consistent)
    if N.shape[1] == 0:
        for j, lam in zip(live, min_eig(C[live])):
            ok = lam >= -_FEAS_TOL
            out[j] = SdpSolution(
                status="Optimal" if ok else "Infeasible",
                z=z0[j, 0] if ok else None,
                duals=None,
                violation=max(0.0, -lam),
                message="fully determined by equalities",
            )
        return out

    b = -(c @ N)[:, 0]
    size = _stack_size(prob)
    res = []
    for lo in range(0, len(live), size):
        part = live[lo:lo + size]
        res += _ipm(C[part], prob.A, b[part])
    if not res:
        return out
    z = z0[live] + np.array([r["y"] for r in res])[:, None] @ N.T
    violation = np.maximum(0.0, -min_eig(F0[live] + (z @ F2).reshape(-1, n, n)))
    if len(E):
        violation = np.maximum(violation, np.abs(z @ E.T - eq_b[live]).max(axis=(1, 2)))
    for j, r, zj, v in zip(live, res, z[:, 0], violation):
        status = r["status"]
        out[j] = SdpSolution(
            status=status,
            z=zj if status in ("Optimal", "MaxIter", "Numerical") else None,
            duals=r["X"],
            violation=float(v),
            iterates=r["iterates"],
            message=r["message"],
        )
    return out


def solve(prob, c, F0, eq_b):
    """Solve the SDP of the compiled structure prob with objective c, of
    shape (m,), constant matrix F0, of shape (n, n), and right-hand side
    eq_b, one entry per row of prob.eq_A: the one-member stack of
    solve_stack. See the module docstring."""
    if np.ndim(c) != 1 or np.ndim(F0) != 2 or np.ndim(eq_b) != 1:
        raise ValueError("solve takes one problem; solve_stack takes a stack")
    [sol] = solve_stack(prob, c, F0, eq_b)
    return sol


def equality_multipliers(prob, c, sol):
    """Recover multipliers for E z = d from stationarity:
    c_i - tr(F_i X) + (E' lam)_i = 0."""
    if sol.duals is None:
        raise ValueError("no dual matrix")
    g = np.asarray(c, dtype=float) - np.tensordot(prob.F, sol.duals, axes=([1, 2], [0, 1]))
    lam, *_ = np.linalg.lstsq(prob.eq_A.T, -g, rcond=None)
    return lam
