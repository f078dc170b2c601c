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
takes its step lengths from the directions scaled into that frame. All data
is checked for finite entries on entry, the structure in SdpProblem and the
rest in solve; inner solves skip the check.

SdpSettings has two fields: gap_tol, which Gram solves tighten, and
max_iter. The other tolerances are module constants, each with the reason
for its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
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


class SdpProblem:
    """The compiled structure of

        minimize c'z  s.t.  F0 + sum_i z_i F[i] >= 0,  eq_A z = eq_b,

    with F of shape (m, n, n) and eq_A of shape (r, m), r >= 0. Built once
    per family of problems: it keeps F, eq_A, the null space N of eq_A (one
    SVD) and the standard-form tensor A = -N.F; solve takes c, F0 and eq_b."""

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
            N = np.eye(len(F))
        else:
            _, sig, Vt = np.linalg.svd(eq_A)
            rank = int(np.sum(sig > max(eq_A.shape) * np.finfo(float).eps * sig[0]))
            N = Vt[rank:].copy().T  # a copy, so the rows of the range are freed
        self.F, self.eq_A, self.N = F, eq_A, N
        self.A = -np.tensordot(N, F, axes=(0, 0))


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
    duals: np.ndarray | None  # the primal matrix X of the standard form
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


def _step(s, Dh):
    """min(1, _STEP_FRAC * the largest alpha with diag(lam) + alpha*Dh psd),
    for a direction Dh in the NT frame and s = lam^(-1/2)."""
    Dh = s[:, None] * Dh * s
    low = np.linalg.eigvalsh(0.5 * (Dh + Dh.T))[0]
    if low >= -1e-14:
        return 1.0
    return min(1.0, -_STEP_FRAC / low)


def _ipm(C, A, b, settings):
    """Core primal-dual IPM on the standard-form pair, with C of shape
    (n, n), n >= 1, and A of shape (m, n, n), m >= 1. Returns dict."""
    m = len(b)
    n = C.shape[0]

    scale = max(1.0, float(np.max(np.abs(C))), float(np.max(np.abs(A))),
                float(np.max(np.abs(b))))
    X = scale * np.eye(n)
    S = scale * np.eye(n)
    y = np.zeros(m)

    bnorm = 1 + np.linalg.norm(b)
    Cnorm = 1 + np.sqrt(np.sum(C * C))

    iterates = []
    status = "MaxIter"
    message = ""
    mu_history = []
    best = None  # (merit, X, y, S) of the most accurate iterate seen
    # best iterate judged on the y/S side only: S >= 0 holds throughout, so
    # small rd and gap make y near-feasible and near-optimal for the LMI even
    # when the X side has drifted (degenerate problems)
    best_lmi = None

    for it in range(settings.max_iter):
        ax = np.tensordot(A, X, axes=([1, 2], [0, 1]))
        rp = b - ax
        yA = np.tensordot(y, A, axes=(0, 0))
        Rd = C - S - yA
        gap = np.sum(X * S)
        mu = gap / n
        pobj = np.sum(C * X)
        dobj = float(b @ y)
        rp_norm = np.linalg.norm(rp)
        rd_norm = np.sqrt(np.sum(Rd * Rd))

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
                and gap_rel < settings.gap_tol):
            status = "Optimal"
            break

        # divergence: improving-ray tests
        xnorm = np.sqrt(np.sum(X * X))
        ynorm = np.linalg.norm(y)
        if xnorm > 0 and pobj < 0:
            # X/|X| tends to a ray proving LMI infeasibility
            ray_res = np.linalg.norm(ax) / xnorm
            if -pobj / xnorm > _RAY_THRESHOLD * max(ray_res, 1e-16):
                status = "Infeasible"
                message = "primal improving ray found"
                break
        if ynorm > 0 and dobj > 0:
            res = np.sqrt(np.sum((yA + S) ** 2)) / ynorm
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

        # NT scaling: W = R R' with W S W = X; in the scaled space
        # R^{-1} X R^{-T} = R' S R = diag(lam).
        try:
            Lx = np.linalg.cholesky(X)
            Ls = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            status = "Numerical"
            message = "iterate left the cone"
            break
        _, lam, Vt = np.linalg.svd(Ls.T @ Lx)
        R = Lx @ Vt.T / np.sqrt(lam)
        Rinv = (np.sqrt(lam)[:, None] * Vt) @ np.linalg.inv(Lx)
        s = lam ** -0.5
        W = R @ R.T

        # Schur complement M_ij = tr(A_i W A_j W)
        M = np.tensordot(A, W @ A @ W, axes=([1, 2], [1, 2]))
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
            rhs = rp - np.tensordot(A, Rc - W @ Rd @ W, axes=([1, 2], [0, 1]))
            dy = scipy.linalg.cho_solve((Lm, True), rhs, check_finite=False)
            # iterative refinement: the Schur complement is increasingly
            # ill-conditioned as mu -> 0 and lost digits show up directly
            # as primal infeasibility
            for _ in range(3):
                r = rhs - M @ dy
                if np.linalg.norm(r) < 1e-14 * max(1.0, np.linalg.norm(rhs)):
                    break
                dy = dy + scipy.linalg.cho_solve((Lm, True), r, check_finite=False)
            dS = Rd - np.tensordot(dy, A, axes=(0, 0))
            d = Rc - W @ dS @ W
            return 0.5 * (d + d.T), dy, dS

        # predictor: target X S -> 0; scaled rhs is -lam^2 (gives Rc = -X)
        dXa, _, dSa = solve_direction(-X)
        dXh, dSh = Rinv @ dXa @ Rinv.T, R.T @ dSa @ R
        ap, ad = _step(s, dXh), _step(s, dSh)
        gap_aff = np.sum((X + ap * dXa) * (S + ad * dSa))
        sigma = min(1.0, max(0.0, (max(gap_aff, 0.0) / gap) ** 3)) if gap > 0 else 0.0

        # corrector with the Mehrotra second-order term in scaled space; the
        # scaled rhs maps back to Rc with dX + W dS W = Rc through the
        # Lyapunov scaling (lam_i + lam_j)/2
        corr = 0.5 * (dXh @ dSh + dSh @ dXh)
        rhs = sigma * mu * np.eye(n) - np.diag(lam**2) - corr
        denom = 0.5 * (lam[:, None] + lam[None, :])
        dX, dy, dS = solve_direction(R @ (rhs / denom) @ R.T)
        ap, ad = _step(s, Rinv @ dX @ Rinv.T), _step(s, R.T @ dS @ R)
        if min(ap, ad) < 1e-10:
            status = "Numerical"
            message = "step length collapsed"
            break

        X = X + ap * dX
        y = y + ad * dy
        S = S + ad * dS

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


def solve(prob, c, F0, eq_b, settings=None):
    """Solve the SDP of the compiled structure prob with objective c, of
    shape (m,), constant matrix F0, of shape (n, n), and right-hand side
    eq_b, one entry per row of prob.eq_A. See the module docstring."""
    c, F0, eq_b = (np.asarray(a, dtype=float) for a in (c, F0, eq_b))
    m, n = prob.F.shape[:2]
    if c.shape != (m,) or F0.shape != (n, n):
        raise ValueError("c must be (m,) and F0 (n, n) for F of shape (m, n, n)")
    if eq_b.shape != (len(prob.eq_A),):
        raise ValueError("eq_b must have one entry per row of eq_A")
    if not all(np.isfinite(a).all() for a in (c, F0, eq_b)):
        raise ValueError("problem data must be finite")
    settings = settings or SdpSettings()
    E, N = prob.eq_A, prob.N
    z0 = np.zeros(m)
    if len(E):
        z0 = np.linalg.lstsq(E, eq_b, rcond=None)[0]
        if np.linalg.norm(E @ z0 - eq_b) > _FEAS_TOL * (1 + np.linalg.norm(eq_b)):
            return SdpSolution(status="Infeasible", z=None, duals=None,
                               violation=float("inf"),
                               message="inconsistent equality system")
    C = F0 + np.tensordot(z0, prob.F, axes=(0, 0))
    if N.shape[1] == 0:
        lam = min_eig(C)
        ok = lam >= -_FEAS_TOL
        return SdpSolution(
            status="Optimal" if ok else "Infeasible",
            z=z0 if ok else None,
            duals=None,
            violation=max(0.0, -lam),
            message="fully determined by equalities",
        )

    res = _ipm(C, prob.A, -(N.T @ c), settings)
    z = z0 + N @ res["y"]
    Z = F0 + np.tensordot(z, prob.F, axes=(0, 0))
    violation = max(0.0, -min_eig(Z))
    if len(E):
        violation = max(violation, float(np.max(np.abs(E @ z - eq_b))))

    status = res["status"]
    return SdpSolution(
        status=status,
        z=z if status in ("Optimal", "MaxIter", "Numerical") else None,
        duals=res["X"],
        violation=violation,
        iterates=res["iterates"],
        message=res["message"],
    )


def equality_multipliers(prob, c, sol):
    """Recover multipliers for E z = d from stationarity:
    c_i - tr(F_i X) + (E' lam)_i = 0."""
    if sol.duals is None:
        raise ValueError("no dual matrix")
    g = np.asarray(c, dtype=float) - np.tensordot(prob.F, sol.duals, axes=([1, 2], [0, 1]))
    lam, *_ = np.linalg.lstsq(prob.eq_A.T, -g, rcond=None)
    return lam
