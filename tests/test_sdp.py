import numpy as np
import pytest
import scipy.linalg

from quartichull import sdp
from quartichull.sdp import (
    NotPsdError,
    SdpProblem,
    SdpSettings,
    equality_multipliers,
    min_eig,
    psd_truncate,
    solve,
)


def _lmi(F0, Fs, c, eq_A=None, eq_b=None):
    n = len(c)
    F = np.array(Fs)
    if eq_A is None:
        eq_A = np.zeros((0, n))
        eq_b = np.zeros(0)
    return SdpProblem(c=np.array(c, dtype=float),
                      F0=np.array(F0, dtype=float), F=F,
                      eq_A=np.asarray(eq_A, dtype=float),
                      eq_b=np.asarray(eq_b, dtype=float))


def test_min_eig_and_truncate():
    M = np.diag([3.0, 1.0, -2.0])
    assert min_eig(M) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPsdError):
        psd_truncate(M)
    parts = psd_truncate(np.diag([3.0, 1.0, 0.0]))
    rec = sum(w * np.outer(v, v) for w, v in parts)
    assert np.allclose(rec, np.diag([3.0, 1.0, 0.0]), atol=1e-10)


def test_max_min_eigenvalue_of_interval():
    # max t with diag(1 - z, 1 + z) - t I >= 0 over z: optimum t = 1 at z = 0
    prob = _lmi(
        np.eye(2),
        [np.diag([-1.0, 1.0]), -np.eye(2)],
        [0.0, -1.0],
    )
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.z[1] == pytest.approx(1.0, abs=1e-6)
    assert sol.z[0] == pytest.approx(0.0, abs=1e-5)


def test_infeasible_lmi():
    # -I + z * 0 >= 0 is infeasible
    prob = _lmi(-np.eye(2), [np.zeros((2, 2)), ], [1.0])
    sol = solve(prob)
    assert sol.status == "Infeasible"


def test_unbounded_direction():
    # maximize z subject to [[1, 0], [0, 1 + z]] >= 0: z can grow forever
    prob = _lmi(np.eye(2), [np.diag([0.0, 1.0])], [-1.0])
    sol = solve(prob)
    assert sol.status == "Unbounded"


def test_equalities_only():
    # block fully pinned by the equality system
    prob = _lmi(np.zeros((2, 2)), [np.eye(2)], [1.0],
                eq_A=[[1.0]], eq_b=[2.0])
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.z[0] == pytest.approx(2.0)
    bad = _lmi(np.zeros((2, 2)), [np.eye(2)], [1.0],
               eq_A=[[1.0]], eq_b=[-1.0])
    assert solve(bad).status == "Infeasible"


def test_inconsistent_equalities():
    prob = _lmi(np.eye(2), [np.eye(2)], [1.0],
                eq_A=[[1.0], [1.0]], eq_b=[0.0, 1.0])
    assert solve(prob).status == "Infeasible"


def test_weak_duality_on_logged_iterates():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = 4
        A = rng.standard_normal((n, n))
        F0 = A @ A.T + np.eye(n)
        Fs = []
        for _ in range(3):
            B = rng.standard_normal((n, n))
            Fs.append(0.5 * (B + B.T))
        Fs.append(-np.eye(n))
        c = np.zeros(4)
        c[-1] = -1.0
        # box the free variables with 2x2 diagonal blocks of one
        # block-diagonal matrix so the max-min-eigenvalue program stays
        # bounded
        F = []
        for i, Fi in enumerate(Fs):
            box = [np.diag([1.0, -1.0]) if j == i else np.zeros((2, 2)) for j in range(3)]
            F.append(scipy.linalg.block_diag(Fi, *box))
        prob = _lmi(scipy.linalg.block_diag(F0, *[5.0 * np.eye(2)] * 3), F, c)
        sol = solve(prob)
        assert sol.status == "Optimal"
        assert sol.iterates, "no iterates logged"
        for rec in sol.iterates:
            # tr(XS) >= 0 for interior iterates, and the duality gap can
            # only be negative through residual leakage
            assert rec["gap"] >= 0.0
            slack = 1e-6 * (1 + abs(rec["pobj"]) + abs(rec["dobj"]))
            slack += 1e3 * (rec["rp"] + rec["rd"])
            assert rec["pobj"] - rec["dobj"] >= -slack


def test_equality_multipliers_stationarity():
    # minimize z2 s.t. diag(z1, z2) >= 0 and z1 + z2 = 2
    prob = _lmi(np.zeros((2, 2)),
                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                [0.0, 1.0],
                eq_A=[[1.0, 1.0]], eq_b=[2.0])
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.z[1] == pytest.approx(0.0, abs=1e-5)
    lam = equality_multipliers(prob, sol)
    # stationarity: c - A*(X) + E' lam = 0 componentwise
    g = prob.c - np.tensordot(prob.F, sol.duals, axes=([1, 2], [0, 1]))
    assert np.max(np.abs(g + prob.eq_A.T @ lam)) <= 1e-5


def test_problem_shapes_are_checked():
    c, F0, F = np.zeros(2), np.eye(2), np.zeros((2, 2, 2))
    no_rows = dict(eq_A=np.zeros((0, 2)), eq_b=np.zeros(0))
    SdpProblem(c=c, F0=F0, F=F, **no_rows)
    with pytest.raises(ValueError):
        SdpProblem(c=np.zeros(3), F0=F0, F=F, **no_rows)  # F has 2 matrices
    with pytest.raises(ValueError):
        SdpProblem(c=c, F0=np.eye(3), F=F, **no_rows)  # F0 is 3x3
    with pytest.raises(ValueError):
        SdpProblem(c=c, F0=np.zeros((0, 0)), F=np.zeros((2, 0, 0)), **no_rows)
    with pytest.raises(ValueError):
        SdpProblem(c=c, F0=F0, F=F, eq_A=np.zeros((1, 3)), eq_b=np.zeros(1))
    with pytest.raises(ValueError, match="finite"):
        SdpProblem(c=c, F0=np.array([[1.0, np.nan], [np.nan, 1.0]]), F=F, **no_rows)
    with pytest.raises(ValueError, match="finite"):
        SdpProblem(c=c, F0=F0, F=F, eq_A=np.ones((1, 2)), eq_b=np.array([np.inf]))


def test_nt_step_matches_generalized_eigenvalues():
    # The step along a direction D from X (or S) is taken in the NT frame,
    # where X and S are diag(lam); it must equal min(1, -frac / lam_min)
    # for the smallest generalized eigenvalue of D against the unscaled
    # matrix, the largest step that keeps X + alpha D psd, times frac.
    rng = np.random.default_rng(7)
    n = 5
    for trial in range(8):
        B, C = rng.standard_normal((2, n, n))
        X = B @ B.T + 0.1 * np.eye(n)
        S = C @ C.T + 0.1 * np.eye(n)
        D = rng.standard_normal((n, n))
        # the first two trials are psd directions, where the full step is taken
        D = D @ D.T if trial < 2 else 3.0 * (D + D.T)
        Lx, Ls = np.linalg.cholesky(X), np.linalg.cholesky(S)
        _, lam, Vt = np.linalg.svd(Ls.T @ Lx)
        R = Lx @ Vt.T / np.sqrt(lam)
        Rinv = np.linalg.inv(R)
        assert np.allclose(Rinv @ X @ Rinv.T, np.diag(lam))
        assert np.allclose(R.T @ S @ R, np.diag(lam))
        for M, Dh in ((X, Rinv @ D @ Rinv.T), (S, R.T @ D @ R)):
            lmin = scipy.linalg.eigh(D, M, eigvals_only=True)[0]
            expected = 1.0 if lmin >= 0 else min(1.0, -sdp._STEP_FRAC / lmin)
            assert sdp._step(lam ** -0.5, Dh) == pytest.approx(expected, rel=1e-9)
            if trial < 2:
                assert expected == 1.0
            else:
                assert expected < 1.0
