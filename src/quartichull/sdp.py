"""Dense small-scale semidefinite solver.

Problems are given in LMI form:

    minimize    c' z
    subject to  F0_b + sum_i z_i Fi_b  >= 0   (PSD, one constraint per block b)
                E z = d

Equalities are eliminated up front by projection onto their affine solution
space (SVD), then a primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step solves the cone phase.
Internally the LMI is treated as the dual side of a standard-form pair

    (P) min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0
    (D) max b' y    s.t.  C - sum_i y_i A_i = S >= 0

with C = F0, A_i = -F_i, b = -c, y = z.

SdpSettings has two fields: gap_tol, which Gram solves tighten, and
max_iter. The other tolerances are module constants, each with the reason
for its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "SdpBlock",
    "SdpProblem",
    "SdpSettings",
    "SdpSolution",
    "solve",
    "min_eig",
    "psd_truncate",
    "NotPsdError",
]


class NotPsdError(ValueError):
    pass


@dataclass
class SdpBlock:
    """One PSD constraint F0 + sum_i z_i F[i] >= 0."""

    F0: np.ndarray
    F: np.ndarray  # shape (m, n, n)

    def __post_init__(self):
        self.F0 = np.asarray(self.F0, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        n = self.F0.shape[0]
        if self.F0.shape != (n, n) or self.F.shape[1:] != (n, n):
            raise ValueError("inconsistent block shapes")
        if n == 0:
            raise ValueError("empty block")

    @property
    def size(self):
        return self.F0.shape[0]

    def at(self, z):
        return self.F0 + np.tensordot(z, self.F, axes=(0, 0))


@dataclass
class SdpProblem:
    c: np.ndarray
    blocks: list
    eq_A: np.ndarray | None = None
    eq_b: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        m = len(self.c)
        if not self.blocks:
            raise ValueError("no PSD block")
        for blk in self.blocks:
            if blk.F.shape[0] != m:
                raise ValueError("block variable count mismatch")
        if self.eq_A is not None:
            self.eq_A = np.atleast_2d(np.asarray(self.eq_A, dtype=float))
            self.eq_b = np.atleast_1d(np.asarray(self.eq_b, dtype=float))

    @property
    def nvars(self):
        return len(self.c)


# Relative primal and dual residual at which an iterate counts as feasible,
# and the equality residual above which E z = d is inconsistent: about the
# square root of machine precision, what a double-precision interior-point
# solve reaches reliably.
_FEAS_TOL = 1e-8
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
# Stagnation is declared when mu fails to halve over this many iterations;
# a shorter window stops solves that are slow but still converging.
_STALL_WINDOW = 80


@dataclass
class SdpSettings:
    """The two settable knobs. gap_tol is the relative duality gap at which
    a feasible iterate is Optimal; Gram solves tighten it so that low-rank
    refinement starts close to the exact certificate. max_iter caps the
    interior-point iterations; tests lower it to force an unfinished solve."""

    gap_tol: float = 1e-8
    max_iter: int = 200


@dataclass
class SdpSolution:
    status: str  # Optimal | Infeasible | Unbounded | MaxIter | Numerical
    z: np.ndarray | None
    duals: list | None
    violation: float
    iterates: list = field(default_factory=list)
    message: str = ""


def min_eig(M, sym_tol=1e-12):
    """Smallest eigenvalue of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if np.max(np.abs(M - M.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def psd_truncate(M, tol=1e-8):
    """Spectral split of a PSD-within-tolerance matrix into (weight, vector) pairs."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] < -tol:
        raise NotPsdError(f"not PSD within tolerance: min eigenvalue {w[0]:.3e}")
    return [(float(w[i]), V[:, i].copy()) for i in range(len(w)) if w[i] > tol]


# ---------------------------------------------------------------------------


def _eliminate_equalities(prob):
    """Reduce E z = d to z = z0 + N w, with the rank and the null space N of E
    from one SVD. Returns (z0, N), or None when the system is inconsistent."""
    E, d = prob.eq_A, prob.eq_b
    m = prob.nvars
    if E is None or E.shape[0] == 0:
        return np.zeros(m), np.eye(m)
    z0 = np.linalg.lstsq(E, d, rcond=None)[0]
    if np.linalg.norm(E @ z0 - d) > _FEAS_TOL * (1 + np.linalg.norm(d)):
        return None
    _, sig, Vt = np.linalg.svd(E)
    rank = int(np.sum(sig > max(E.shape) * np.finfo(float).eps * sig[0]))
    return z0, Vt[rank:].T


def _max_step(L, Delta, frac):
    """Largest alpha <= 1 with X + alpha*Delta psd, X = L L'."""
    W = scipy.linalg.solve_triangular(L, Delta, lower=True)
    W = scipy.linalg.solve_triangular(L, W.T, lower=True)
    lam = np.linalg.eigvalsh(0.5 * (W + W.T))[0]
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -frac / lam)


def _ipm(C_blocks, A_blocks, b, settings):
    """Core primal-dual IPM on the standard-form pair. Every block is
    nonempty and m >= 1. Returns dict."""
    m = len(b)
    ns = [C.shape[0] for C in C_blocks]
    ntot = sum(ns)

    scale = max(
        [1.0]
        + [float(np.max(np.abs(C))) for C in C_blocks]
        + [float(np.max(np.abs(A))) for A in A_blocks]
        + [float(np.max(np.abs(b)))]
    )
    X = [scale * np.eye(n) for n in ns]
    S = [scale * np.eye(n) for n in ns]
    y = np.zeros(m)

    bnorm = 1 + np.linalg.norm(b)
    Cnorm = 1 + np.sqrt(sum(np.sum(C * C) for C in C_blocks))

    iterates = []
    status = "MaxIter"
    message = ""
    mu_history = []
    best = None  # (merit, X, y, S) of the most accurate iterate seen
    # best iterate judged on the y/S side only: S >= 0 holds throughout, so
    # small rd and gap make y near-feasible and near-optimal for the LMI even
    # when the X side has drifted (degenerate problems)
    best_lmi = None

    def a_of_x(Xs):
        out = np.zeros(m)
        for A, Xb in zip(A_blocks, Xs):
            out += np.tensordot(A, Xb, axes=([1, 2], [0, 1]))
        return out

    for it in range(settings.max_iter):
        ax = a_of_x(X)
        rp = b - ax
        Rd = [C - Sb - np.tensordot(y, A, axes=(0, 0))
              for C, Sb, A in zip(C_blocks, S, A_blocks)]
        gap = sum(np.sum(Xb * Sb) for Xb, Sb in zip(X, S))
        mu = gap / ntot
        pobj = sum(np.sum(C * Xb) for C, Xb in zip(C_blocks, X))
        dobj = float(b @ y)
        rp_norm = np.linalg.norm(rp)
        rd_norm = np.sqrt(sum(np.sum(R * R) for R in Rd))

        iterates.append(
            dict(iter=it, pobj=float(pobj), dobj=dobj, gap=float(gap), mu=float(mu),
                 rp=float(rp_norm), rd=float(rd_norm))
        )

        gap_rel = gap / (1 + abs(pobj) + abs(dobj))
        merit = max(rp_norm / bnorm, rd_norm / Cnorm, gap_rel)
        # X, y and S are rebound each iteration, never changed in place
        if best is None or merit < best[0]:
            best = (merit, X, y, S)
        merit_lmi = max(rd_norm / Cnorm, gap_rel)
        if (rp_norm / bnorm < 1e-2
                and (best_lmi is None or merit_lmi < best_lmi[0])):
            best_lmi = (merit_lmi, X, y, S)

        if (rp_norm / bnorm < _FEAS_TOL
                and rd_norm / Cnorm < _FEAS_TOL
                and gap / (1 + abs(pobj) + abs(dobj)) < settings.gap_tol):
            status = "Optimal"
            break

        # divergence: improving-ray tests
        xnorm = np.sqrt(sum(np.sum(Xb * Xb) for Xb in X))
        ynorm = np.linalg.norm(y)
        if xnorm > 0 and pobj < 0:
            # X/|X| tends to a ray proving LMI infeasibility
            ray_res = np.linalg.norm(ax) / xnorm
            if -pobj / xnorm > _RAY_THRESHOLD * max(ray_res, 1e-16):
                status = "Infeasible"
                message = "primal improving ray found"
                break
        if ynorm > 0 and dobj > 0:
            res = np.sqrt(sum(np.sum((np.tensordot(y, A, axes=(0, 0)) + Sb) ** 2)
                              for A, Sb in zip(A_blocks, S))) / ynorm
            if dobj / ynorm > _RAY_THRESHOLD * max(res, 1e-16):
                status = "Unbounded"
                message = "dual improving ray found"
                break

        mu_history.append(mu)
        w = _STALL_WINDOW
        if len(mu_history) > w and mu > 0.5 * mu_history[-w] and rp_norm / bnorm < 1e2:
            status = "Numerical"
            message = "no progress on the barrier parameter"
            break

        # NT scaling per block: W = R R' with W S W = X; in the scaled space
        # R^{-1} X R^{-T} = R' S R = diag(lam).
        try:
            Lx = [np.linalg.cholesky(Xb) for Xb in X]
            Ls = [np.linalg.cholesky(Sb) for Sb in S]
        except np.linalg.LinAlgError:
            status = "Numerical"
            message = "iterate left the cone"
            break
        Ws, Rs, Rinvs, lams = [], [], [], []
        for Lxb, Lsb in zip(Lx, Ls):
            U, sig, Vt = np.linalg.svd(Lsb.T @ Lxb)
            R = Lxb @ Vt.T / np.sqrt(sig)
            Rinv = (np.sqrt(sig)[:, None] * Vt) @ np.linalg.inv(Lxb)
            Ws.append(R @ R.T)
            Rs.append(R)
            Rinvs.append(Rinv)
            lams.append(sig)

        # Schur complement M_ij = sum_b tr(A_i W A_j W)
        M = np.zeros((m, m))
        for A, W in zip(A_blocks, Ws):
            T = np.einsum("pq,iqr,rs->ips", W, A, W, optimize=True)
            M += np.tensordot(A, T, axes=([1, 2], [1, 2]))
        M = 0.5 * (M + M.T)

        jitter = 0.0
        for attempt in range(5):
            try:
                Lm = np.linalg.cholesky(M + jitter * np.eye(m))
                break
            except np.linalg.LinAlgError:
                jitter = max(1e-14 * (np.trace(M) / max(m, 1)), 10 * jitter, 1e-300)
        else:
            status = "Numerical"
            message = "singular Schur complement"
            break

        def solve_direction(Rc):
            rhs = rp.copy()
            for A, W, Rdb, Rcb in zip(A_blocks, Ws, Rd, Rc):
                rhs -= np.tensordot(A, Rcb - W @ Rdb @ W, axes=([1, 2], [0, 1]))
            dy = scipy.linalg.cho_solve((Lm, True), rhs)
            # iterative refinement: the Schur complement is increasingly
            # ill-conditioned as mu -> 0 and lost digits show up directly
            # as primal infeasibility
            for _ in range(3):
                r = rhs - M @ dy
                if np.linalg.norm(r) < 1e-14 * max(1.0, np.linalg.norm(rhs)):
                    break
                dy = dy + scipy.linalg.cho_solve((Lm, True), r)
            dS = [Rdb - np.tensordot(dy, A, axes=(0, 0))
                  for Rdb, A in zip(Rd, A_blocks)]
            dX = []
            for Rcb, W, dSb in zip(Rc, Ws, dS):
                d = Rcb - W @ dSb @ W
                dX.append(0.5 * (d + d.T))
            return dX, dy, dS

        def scaled_rhs_to_rc(rhs_blocks):
            # rhs in scaled space -> Rc with dX + W dS W = Rc, via the Lyapunov
            # scaling (lam_i + lam_j)/2.
            out = []
            for R, lam, rhs in zip(Rs, lams, rhs_blocks):
                denom = 0.5 * (lam[:, None] + lam[None, :])
                out.append(R @ (rhs / denom) @ R.T)
            return out

        # predictor: target X S -> 0; scaled rhs is -lam^2 (gives Rc = -X)
        Rc_aff = [-Xb for Xb in X]
        dXa, dya, dSa = solve_direction(Rc_aff)
        ap = min(_max_step(Lxb, dXb, _STEP_FRAC) for Lxb, dXb in zip(Lx, dXa))
        ad = min(_max_step(Lsb, dSb, _STEP_FRAC) for Lsb, dSb in zip(Ls, dSa))
        gap_aff = sum(np.sum((Xb + ap * dXb) * (Sb + ad * dSb))
                      for Xb, dXb, Sb, dSb in zip(X, dXa, S, dSa))
        sigma = min(1.0, max(0.0, (max(gap_aff, 0.0) / gap) ** 3)) if gap > 0 else 0.0

        # corrector with the Mehrotra second-order term in scaled space
        rhs_blocks = []
        for R, Rinv, lam, dXb, dSb in zip(Rs, Rinvs, lams, dXa, dSa):
            dXh = Rinv @ dXb @ Rinv.T
            dSh = R.T @ dSb @ R
            corr = 0.5 * (dXh @ dSh + dSh @ dXh)
            rhs_blocks.append(sigma * mu * np.eye(len(lam)) - np.diag(lam**2) - corr)
        Rc = scaled_rhs_to_rc(rhs_blocks)
        dX, dy, dS = solve_direction(Rc)
        ap = min(_max_step(Lxb, dXb, _STEP_FRAC) for Lxb, dXb in zip(Lx, dX))
        ad = min(_max_step(Lsb, dSb, _STEP_FRAC) for Lsb, dSb in zip(Ls, dS))
        if min(ap, ad) < 1e-10:
            status = "Numerical"
            message = "step length collapsed"
            break

        X = [Xb + ap * dXb for Xb, dXb in zip(X, dX)]
        y = y + ad * dy
        S = [Sb + ad * dSb for Sb, dSb in zip(S, dS)]

    if status in ("Numerical", "MaxIter"):
        # strict tolerances unreachable (degenerate optimal face is common
        # for moment problems) but an iterate of acceptable merit exists
        if best is not None and best[0] < _ACCEPT_TOL:
            status = "Optimal"
            message = f"converged to reduced accuracy (merit {best[0]:.2e})"
            _, X, y, S = best
        elif best_lmi is not None and best_lmi[0] < _ACCEPT_TOL:
            status = "Optimal"
            message = ("converged on the feasible side only "
                       f"(merit {best_lmi[0]:.2e})")
            _, X, y, S = best_lmi

    return dict(status=status, X=X, y=y, S=S, iterates=iterates, message=message)


def solve(prob, settings=None):
    """Solve an LMI-form SDP. See module docstring for conventions."""
    settings = settings or SdpSettings()
    reduced = _eliminate_equalities(prob)
    if reduced is None:
        return SdpSolution(status="Infeasible", z=None, duals=None,
                           violation=float("inf"),
                           message="inconsistent equality system")
    z0, N = reduced
    C_blocks = [blk.at(z0) for blk in prob.blocks]
    if N.shape[1] == 0:
        lam = min(min_eig(C) for C in C_blocks)
        ok = lam >= -_FEAS_TOL
        return SdpSolution(
            status="Optimal" if ok else "Infeasible",
            z=z0 if ok else None,
            duals=None,
            violation=max(0.0, -lam),
            message="fully determined by equalities",
        )

    A_blocks = [-np.tensordot(N, blk.F, axes=(0, 0)) for blk in prob.blocks]
    res = _ipm(C_blocks, A_blocks, -(N.T @ prob.c), settings)
    z = z0 + N @ res["y"]
    Zs = [blk.at(z) for blk in prob.blocks]
    lam = min(min_eig(0.5 * (Z + Z.T)) for Z in Zs)
    violation = max(0.0, -lam)
    if prob.eq_A is not None and prob.eq_A.shape[0]:
        violation = max(violation, float(np.max(np.abs(prob.eq_A @ z - prob.eq_b))))

    status = res["status"]
    return SdpSolution(
        status=status,
        z=z if status in ("Optimal", "MaxIter", "Numerical") else None,
        duals=res["X"],
        violation=violation,
        iterates=res["iterates"],
        message=res["message"],
    )


def equality_multipliers(prob, sol):
    """Recover multipliers for E z = d from stationarity:
    c_i - sum_b tr(F_{b,i} X_b) + (E' lam)_i = 0."""
    if prob.eq_A is None or sol.duals is None:
        raise ValueError("no equality system or no dual blocks")
    g = prob.c.copy()
    for blk, Xb in zip(prob.blocks, sol.duals):
        g -= np.tensordot(blk.F, Xb, axes=([1, 2], [0, 1]))
    lam, *_ = np.linalg.lstsq(prob.eq_A.T, -g, rcond=None)
    return lam

