import numpy as np
import pytest
import scipy.linalg

from quartichull import sdp
from quartichull.sdp import (
    NotPsdError,
    SdpProblem,
    equality_multipliers,
    min_eig,
    psd_truncate,
    solve,
    solve_stack,
)


def _lmi(F0, Fs, c, eq_A=None, eq_b=None):
    """The arguments of solve: (program, c, F0, eq_b)."""
    if eq_A is None:
        eq_A, eq_b = np.zeros((0, len(c))), np.zeros(0)
    return (SdpProblem(np.array(Fs), np.asarray(eq_A, dtype=float)),
            np.array(c, dtype=float), np.array(F0, dtype=float),
            np.asarray(eq_b, dtype=float))


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
    sol = solve(*prob)
    assert sol.status == "Optimal"
    assert sol.z[1] == pytest.approx(1.0, abs=1e-6)
    assert sol.z[0] == pytest.approx(0.0, abs=1e-5)


def test_infeasible_lmi():
    # -I + z * 0 >= 0 is infeasible
    prob = _lmi(-np.eye(2), [np.zeros((2, 2)), ], [1.0])
    sol = solve(*prob)
    assert sol.status == "Infeasible"


def test_unbounded_direction():
    # maximize z subject to [[1, 0], [0, 1 + z]] >= 0: z can grow forever
    prob = _lmi(np.eye(2), [np.diag([0.0, 1.0])], [-1.0])
    sol = solve(*prob)
    assert sol.status == "Unbounded"


def test_equalities_only():
    # block fully pinned by the equality system
    prob = _lmi(np.zeros((2, 2)), [np.eye(2)], [1.0],
                eq_A=[[1.0]], eq_b=[2.0])
    sol = solve(*prob)
    assert sol.status == "Optimal"
    assert sol.z[0] == pytest.approx(2.0)
    bad = _lmi(np.zeros((2, 2)), [np.eye(2)], [1.0],
               eq_A=[[1.0]], eq_b=[-1.0])
    assert solve(*bad).status == "Infeasible"


def test_inconsistent_equalities():
    prob = _lmi(np.eye(2), [np.eye(2)], [1.0],
                eq_A=[[1.0], [1.0]], eq_b=[0.0, 1.0])
    assert solve(*prob).status == "Infeasible"


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
        sol = solve(*prob)
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
    args = _lmi(np.zeros((2, 2)),
                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                [0.0, 1.0],
                eq_A=[[1.0, 1.0]], eq_b=[2.0])
    prob, c = args[:2]
    sol = solve(*args)
    assert sol.status == "Optimal"
    assert sol.z[1] == pytest.approx(0.0, abs=1e-5)
    lam = equality_multipliers(prob, c, sol)
    # stationarity: c - A*(X) + E' lam = 0 componentwise
    g = c - np.tensordot(prob.F, sol.duals, axes=([1, 2], [0, 1]))
    assert np.max(np.abs(g + prob.eq_A.T @ lam)) <= 1e-5


def test_problem_shapes_are_checked():
    # the structure is checked when it is compiled, the data of each solve
    # when it is solved
    c, F0, F = np.zeros(2), np.eye(2), np.zeros((2, 2, 2))
    no_rows = np.zeros((0, 2))
    prob = SdpProblem(F, no_rows)
    with pytest.raises(ValueError):
        solve(prob, np.zeros(3), F0, np.zeros(0))  # F has 2 matrices
    with pytest.raises(ValueError):
        solve(prob, c, np.eye(3), np.zeros(0))  # F0 is 3x3
    with pytest.raises(ValueError):
        solve(prob, c, F0, np.zeros(1))  # eq_A has no rows
    with pytest.raises(ValueError):
        SdpProblem(np.zeros((2, 0, 0)), no_rows)
    with pytest.raises(ValueError):
        SdpProblem(np.zeros((2, 2, 3)), no_rows)
    with pytest.raises(ValueError):
        SdpProblem(np.zeros((2, 2)), no_rows)
    with pytest.raises(ValueError):
        SdpProblem(F, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        SdpProblem(F, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        SdpProblem(np.full((2, 2, 2), np.nan), no_rows)
    with pytest.raises(ValueError, match="finite"):
        SdpProblem(F, np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        solve(prob, np.array([np.nan, 0.0]), F0, np.zeros(0))
    with pytest.raises(ValueError, match="finite"):
        solve(prob, c, np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(0))
    with pytest.raises(ValueError, match="finite"):
        solve(prob, c, np.diag([np.inf, 1.0]), np.zeros(0))
    with pytest.raises(ValueError, match="finite"):
        solve(SdpProblem(F, np.ones((1, 2))), c, F0, np.array([np.inf]))


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


def _stack_family(size, seed=5):
    """One compiled structure and the data of `size` members: max t s.t.
    F0 + sum z_i F_i - t I >= 0 on a 4x4 block, with the free z_i boxed by
    2x2 blocks, z_1 pinned by an equality row, and one 1x1 block that no
    variable touches."""
    rng = np.random.default_rng(seed)
    Fs = []
    for _ in range(3):
        B = rng.standard_normal((4, 4))
        Fs.append(0.5 * (B + B.T))
    Fs.append(-np.eye(4))
    F = []
    for i, Fi in enumerate(Fs):
        box = [np.diag([1.0, -1.0]) if j == i else np.zeros((2, 2)) for j in range(3)]
        F.append(scipy.linalg.block_diag(Fi, *box, np.zeros((1, 1))))
    prob = SdpProblem(np.array(F), np.array([[1.0, 0.0, 0.0, 0.0]]))
    F0, c, eq_b = [], [], []
    for j in range(size):
        A = rng.standard_normal((4, 4))
        F0.append(scipy.linalg.block_diag(A @ A.T + (0.1 + j) * np.eye(4),
                                          *[5.0 * np.eye(2)] * 3, [[1.0]]))
        c.append([0.0, 0.0, 0.0, -1.0])
        eq_b.append([0.3 * j - 0.5])
    return prob, np.array(c), np.array(F0), np.array(eq_b)


@pytest.mark.parametrize("max_iter", [200, 10])
def test_stack_members_match_single_solves(max_iter, monkeypatch):
    # one stack whose members stop at different iterations for different
    # reasons; each member is its own one-member solve
    prob, c, F0, eq_b = _stack_family(6)
    F0[3, -1, -1] = -1.0  # the untouched block is negative: infeasible
    c[4] = [0.0, 0.0, 0.0, 1.0]  # minimize t: unbounded below
    monkeypatch.setattr(sdp, "_MAX_ITER", max_iter)
    stack = solve_stack(prob, c, F0, eq_b)
    assert len(stack) == 6
    for j, sol in enumerate(stack):
        one = solve(prob, c[j], F0[j], eq_b[j])
        assert sol.status == one.status
        assert sol.message.split("(")[0] == one.message.split("(")[0]
        assert len(sol.iterates) == len(one.iterates)
        if one.z is None:
            assert sol.z is None
        else:
            assert np.max(np.abs(sol.z - one.z)) <= 1e-9
    statuses = [sol.status for sol in stack]
    assert statuses[3:5] == ["Infeasible", "Unbounded"]
    assert stack[3].message == "primal improving ray found"
    optimal = {len(sol.iterates) for sol in stack if sol.status == "Optimal"}
    if max_iter == 10:
        # member 1 ends on the reduced-accuracy fallback, 0, 2 and 5 do not
        assert statuses.count("MaxIter") == 3 and optimal == {10}
        assert stack[1].message.startswith("converged to reduced accuracy")
    else:
        assert statuses.count("Optimal") == 4 and len(optimal) > 1


@pytest.mark.parametrize("window", [80, 2])
def test_memory_bound_splits_a_stack(window, monkeypatch):
    # _STACK_FLOATS alone sizes a stack: at four members' worth, six members
    # run as stacks of 4 and 2, and each member is its one-member solve bit
    # for bit, its iterate log included. At a stall window of 2, member 0
    # stops on the stall test after member 3 has left their stack.
    prob, c, F0, eq_b = _stack_family(6)
    F0[3, -1, -1] = -1.0  # the untouched block is negative: infeasible
    m, n = prob.N.shape[1], prob.F.shape[1]
    monkeypatch.setattr(sdp, "_STACK_FLOATS", 4 * (3 * m + 40) * n * n)
    monkeypatch.setattr(sdp, "_STALL_WINDOW", window)
    sizes, ipm = [], sdp._ipm
    monkeypatch.setattr(sdp, "_ipm", lambda C, *args: sizes.append(len(C)) or ipm(C, *args))
    stack = solve_stack(prob, c, F0, eq_b)
    assert sizes == [4, 2]
    for j, sol in enumerate(stack):
        one = solve(prob, c[j], F0[j], eq_b[j])
        assert (sol.status, sol.message) == (one.status, one.message)
        assert list(sol.iterates) == list(one.iterates)
        assert [rec["iter"] for rec in sol.iterates] == list(range(len(sol.iterates)))
        assert (sol.z is None and one.z is None) or sol.z.tobytes() == one.z.tobytes()
    assert stack[3].status == "Infeasible"
    if window == 2:
        assert stack[0].message == "no progress on the barrier parameter"
        assert len(stack[0].iterates) > len(stack[3].iterates)


def test_stack_arguments(monkeypatch):
    prob, c, F0, eq_b = _stack_family(3)
    # an argument without the stack axis is shared by every member
    shared = solve_stack(prob, c[0], F0, eq_b[0])
    for j, sol in enumerate(shared):
        assert sol.z == pytest.approx(solve(prob, c[0], F0[j], eq_b[0]).z, abs=1e-9)
    assert solve_stack(prob, c[:0], F0[:0], eq_b[:0]) == []
    with pytest.raises(ValueError):
        solve_stack(prob, c[:2], F0, eq_b)  # two members against three
    with pytest.raises(ValueError):
        solve(prob, c, F0[0], eq_b[0])  # solve takes one member

    # one non-finite member stops the stack before any member is solved
    def no_solve(*args):
        raise AssertionError("solved a stack with non-finite data")

    monkeypatch.setattr(sdp, "_ipm", no_solve)
    F0[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="problem data must be finite"):
        solve_stack(prob, c, F0, eq_b)


def test_a_member_that_stops_on_a_step_test_leaves_its_stack(monkeypatch):
    # member 1's primal step collapses at iteration 2 (its corrector step
    # length is set to 0): it stops there and leaves the stack, and the
    # others iterate on, each its one-member solve bit for bit
    prob, c, F0, eq_b = _stack_family(4)
    alone = [solve(prob, c[j], F0[j], eq_b[j]) for j in range(4)]
    calls, step = [], sdp._step

    def collapsing(s, Dh):
        out = step(s, Dh)
        calls.append(len(out))
        if len(calls) == 4 * 2 + 3:  # predictor (ap, ad), then corrector (ap, ad)
            out[1] = 0.0
        return out

    monkeypatch.setattr(sdp, "_step", collapsing)
    stack = solve_stack(prob, c, F0, eq_b)
    assert calls[4 * 2 + 2] == 4  # the whole stack was live at that step
    assert (stack[1].status, stack[1].message) == ("Numerical", "step length collapsed")
    assert len(stack[1].iterates) == 3
    assert [sol.status for sol in alone] == ["Optimal"] * 4
    for j in (0, 2, 3):
        assert (stack[j].status, stack[j].message) == (alone[j].status, alone[j].message)
        assert list(stack[j].iterates) == list(alone[j].iterates)
        assert len(stack[j].iterates) > 3
        assert stack[j].z.tobytes() == alone[j].z.tobytes()


def test_an_overflowing_solve_ends_numerical():
    # with c scaled by 1e160 and more, _ipm's set-up overflows (b * b, then
    # a gap of n * scale^2): the member stops on its first, non-finite
    # record, where eigvalsh in _step raised before; at 1e150 it still
    # ends on the dual ray test
    prob, c, F0, eq_b = _stack_family(4)
    with np.errstate(over="ignore", invalid="ignore"):
        for e in (160, 180, 200, 250, 300):
            sol = solve(prob, c[2] * 10.0**e, F0[2], eq_b[2])
            assert (sol.status, sol.message) == ("Numerical", "non-finite iterate")
            assert len(sol.iterates) == 1
        sol = solve(prob, c[2] * 1e150, F0[2], eq_b[2])
    assert (sol.status, sol.message) == ("Unbounded", "dual improving ray found")


def test_a_stack_of_inconsistent_equalities_runs_no_iteration(monkeypatch):
    # z1 = b1 and z1 = b2 with b1 != b2 in every member: each is Infeasible
    # from its equalities alone, and no member reaches the cone phase
    def no_solve(*args):
        raise AssertionError("iterated a member without a solution of E z = d")

    monkeypatch.setattr(sdp, "_ipm", no_solve)
    prob = SdpProblem(np.array([np.diag([1.0, -1.0]), np.eye(2)]),
                      np.array([[1.0, 0.0], [1.0, 0.0]]))
    sols = solve_stack(prob, np.array([0.0, 1.0]), np.eye(2), np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert [(s.status, s.message, s.z) for s in sols] == \
        [("Infeasible", "inconsistent equality system", None)] * 2


def test_equality_multipliers_need_a_dual_matrix():
    # a program fixed by its equalities is solved without the cone phase
    prob, c, F0, eq_b = _lmi(np.eye(2), [np.eye(2)], [1.0], eq_A=[[1.0]], eq_b=[0.5])
    sol = solve(prob, c, F0, eq_b)
    assert (sol.status, sol.duals) == ("Optimal", None)
    with pytest.raises(ValueError, match="no dual matrix"):
        equality_multipliers(prob, c, sol)
