import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from quartichull import curves, exactness
from quartichull.moments import _face_at_infinity, _forced_vectors, build_localizing_matrix
from quartichull.poly import monomials_upto, parse_poly
from quartichull.relaxation import (
    BOUNDARY_CSV_HEADER,
    _program,
    _reductions,
    boundary_csv,
    boundary_points,
    membership,
    minimize_linear,
    separating_line,
    support,
)
from quartichull.sos import IndeterminateResult

BOUNDED = ("egg", "bean", "lemniscate", "folium", "fermat")


def test_lifting_count_first_relaxation():
    p = curves.lookup("egg").implicit
    moments = len(_program(p, 2, False).F)
    pins = _program(p, 2, True).eq_A[:3]
    # 15 moments, 3 pinned to (1, x1, x2): 12 auxiliary liftings
    assert moments == 15
    assert moments - len(pins) == 12
    assert np.array_equal(pins, np.eye(3, moments + 1))


def test_order_validation():
    p = curves.lookup("egg").implicit
    with pytest.raises(ValueError):
        _reductions(p, 1)
    with pytest.raises(ValueError):
        minimize_linear(p, (1.0, 0.0), [1])


def test_non_finite_points_are_rejected():
    # the solver rejects them, rather than failing on them inside a solve
    from quartichull.rational import hankel_representation, rational_membership
    p = curves.lookup("egg").implicit
    nan = float("nan")
    with pytest.raises(ValueError, match="must be finite"):
        membership(p, 2, (nan, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        support(p, 2, (nan, 1.0))
    rep = hankel_representation(curves.lookup("folium").param)
    with pytest.raises(ValueError, match="must be finite"):
        rational_membership(rep, (float("inf"), 0.0))


def test_membership_interior_and_exterior():
    p = curves.lookup("fermat").implicit
    assert membership(p, 2, (0.0, 0.0)).inside
    assert membership(p, 2, (0.5, 0.5)).inside
    res = membership(p, 2, (2.0, 0.0))
    assert not res.inside
    assert res.margin < -1e-3


def test_separating_line_separates():
    p = curves.lookup("fermat").implicit
    point = (1.6, 0.4)
    line, res = separating_line(p, 2, point)
    assert not res.inside
    assert line is not None
    # negative at the excluded point
    assert line(*point) < 1e-6
    # nonnegative on the curve and hence on the hull
    th = np.linspace(0, 2 * math.pi, 60)
    s = (1.0 / (np.cos(th) ** 4 + np.sin(th) ** 4)) ** 0.25
    vals = [line(s[i] * math.cos(t), s[i] * math.sin(t))
            for i, t in enumerate(th)]
    assert min(vals) >= -1e-5


def test_hierarchy_nesting_on_random_points():
    # order-3 acceptance implies order-2 acceptance away from the boundary
    rng = np.random.default_rng(21)
    for name in ("egg", "bean", "fermat"):
        p = curves.lookup(name).implicit
        cloud = exactness.curve_points(p)
        lo = cloud.min(axis=0) - 0.3
        hi = cloud.max(axis=0) + 0.3
        checked = 0
        for _ in range(25):
            x = rng.uniform(lo, hi)
            r3 = membership(p, 3, x)
            r2 = membership(p, 2, x)
            if abs(r3.margin) < 1e-5 or abs(r2.margin) < 1e-5:
                continue
            if r3.inside:
                assert r2.inside, (name, x)
            checked += 1
        assert checked >= 10, name


def test_programs_are_gathered_from_the_product_table():
    # both programs' F equal the dense contraction of M_k's 0/1 tensor in
    # the reduced basis, and the zero rows the full SVD's null space
    for name in curves.curve_names():
        p = curves.lookup(name).implicit
        for k in range(2, 9):
            kept, form, basis, zero_rows = _reductions(p, k)
            F = form.coefficients()
            if basis is not None:
                F = np.einsum("pq,iqr,rs->ips", basis.T, F, basis, optimize=True)
            for margin in (False, True):
                ref = np.concatenate([F, -np.eye(F.shape[1])[None]]) if margin else F
                assert np.array_equal(_program(p, k, margin).F, ref), (name, k, margin)
            loc = build_localizing_matrix(p, k).rows
            fixed = np.zeros((0, form.nvars))
            if len(kept) < len(monomials_upto(k)) or _face_at_infinity(p, k, kept) is not None:
                E = np.vstack([np.eye(3, form.nvars), loc, F.reshape(form.nvars, -1).T])
                _, sig, Vt = np.linalg.svd(E, full_matrices=True)
                fixed = Vt[int(np.sum(sig > 1e-9 * sig[0])):]
            assert np.array_equal(zero_rows, np.vstack([loc, fixed])), (name, k)


def test_high_order_compile_stays_small():
    # the dense (153, 45, 45) tensor of M_8 and its contraction would trace
    # 7.2 MB (bean) and 10.3 MB (egg); the gather traces 3.1 and 3.7 MB
    for name in ("bean", "egg"):
        p = curves.lookup(name).implicit
        _program(p, 8, False)
        tracemalloc.start()
        try:
            _program(p, 8, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, (name, peak)


def test_dual_reduction_drops_rows_at_infinity():
    # the egg's top form -x1^4 leaves the moments of the x1*x2^(k-1) and
    # x2^k rows out of every localizing row, so their Gram diagonal is
    # forced to zero, and x2^(k-1) + x1^2*x2^(k-2) spans one more recession
    # direction; every other registry curve keeps its full moment block
    for name in curves.curve_names():
        p = curves.lookup(name).implicit
        for k in range(2, 6):
            prob = _program(p, k, False)
            rows = monomials_upto(k)
            kernel = len(monomials_upto(k - 4)) if k >= 4 else 0
            kept = _reductions(p, k)[0]
            dropped = tuple(e for i, e in enumerate(rows) if i not in kept)
            size = prob.F.shape[1]
            # pin, localizing rows, then rows fixing what the block lost
            fixing = len(prob.eq_A) - 1 - len(monomials_upto(2 * k - 4))
            if name == "egg":
                assert dropped == ((1, k - 1), (0, k)), k
                assert size == len(rows) - 3 - kernel, k
                assert fixing > 0
            else:
                assert dropped == (), (name, k)
                assert size == len(rows) - kernel, (name, k)
                assert fixing == 0
    assert len(_program(curves.lookup("egg").implicit, 2, False).F) - 3 == 12


# The reference for the closed-form face: Permenter & Parrilo's partial
# facial reduction by diagonally dominant directions, one HiGHS LP a round.
def _dd_face(F, E):
    """Basis of the face of the Gram cone left after projecting out the
    range of every moment direction d with E d = 0 and sum_m d_m F[m]
    diagonally dominant (hence PSD). Returns None when there is none.

    Each round solves one LP: maximize sum_i min(B_ii, 1) over such d, with
    B = sum_m d_m W' F[m] W in the current basis W. The DD directions form a
    convex cone, so the optimum touches every row any of them touches."""
    W, B = None, F
    while B.shape[1]:
        d = _dd_direction(B, E)
        if d is None:
            break
        w, Q = np.linalg.eigh(np.tensordot(d, B, axes=(0, 0)))
        Q = Q[:, w <= 1e-8 * w[-1]]
        W = Q if W is None else W @ Q
        B = np.einsum("pq,iqr,rs->ips", W.T, F, W, optimize=True)
    return W


def _dd_direction(B, E):
    nm, n, _ = B.shape
    iu = np.triu_indices(n, 1)
    diag = sp.csr_matrix(B[:, np.arange(n), np.arange(n)].T)   # (n, nm)
    # off-diagonal entries with the same coefficients share one bound a_g
    # (in monomial coordinates, one per moment)
    off, group = np.unique(B[:, iu[0], iu[1]].T, axis=0, return_inverse=True)
    group = group.ravel()
    ng = len(off)
    touch = sp.csr_matrix((np.ones(2 * len(group)), (np.concatenate(iu),
                          np.tile(group, 2))), shape=(n, ng))
    off, I = sp.csr_matrix(off), sp.identity(ng, format="csr")
    # variables (d, a, s): |B_ij| <= a_g, sum_j a_g(i,j) <= B_ii, s_i <= B_ii
    A_ub = sp.bmat([[off, -I, None],
                    [-off, -I, None],
                    [-diag, touch, None],
                    [-diag, None, sp.identity(n)]], format="csr")
    A_eq = sp.hstack([sp.csr_matrix(E), sp.csr_matrix((len(E), ng + n))])
    c = np.concatenate([np.zeros(nm + ng), -np.ones(n)])
    bounds = [(None, None)] * nm + [(0, None)] * ng + [(0, 1)] * n
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                                 A_eq=A_eq, b_eq=np.zeros(len(E)),
                                 bounds=bounds, method="highs")
    if res.status != 0 or -res.fun <= 1e-6:
        return None
    return res.x[:nm]


MOVED_EGGS = {
    "swapped": "1 - 8*x2^2 - (x2^2 - x1)^2",
    "shifted": "1 - 8*(x1 - 0.3)^2 - ((x1 - 0.3)^2 - (x2 + 0.2))^2",
}
# quartics with real branches to infinity, and a double-line top form
PROBES = {
    "parabola": "x2 - x1^2",
    "hyperbola": "x1*x2 - 1",
    "cusp": "x2^2 - x1^3",
    "x1^2x2^2 - 1": "x1^2*x2^2 - 1",
    "double lines": "1 - x1^2 - (x1 - 2*x2)^2*(x1 + x2)^2",
}


def _removed(p, k):
    """Projectors onto the ranges that the LP oracle and the closed form
    remove from the kept rows, and (E, M_k on the kept rows)."""
    kept, form, _, _ = _reductions(p, k)
    E = np.vstack([np.eye(3, form.nvars), build_localizing_matrix(p, k).rows])
    F = form.coefficients()
    n = len(kept)
    W_lp, W = _dd_face(F, E), _face_at_infinity(p, k, np.array(kept))
    return [np.zeros((n, n)) if B is None else np.eye(n) - B @ B.T for B in (W_lp, W)], E, F


@pytest.mark.parametrize("name", curves.curve_names() + list(MOVED_EGGS))
def test_closed_form_face_equals_the_lp_face(name):
    p = curves.lookup(name).implicit if name in curves.curve_names() \
        else parse_poly(MOVED_EGGS[name])
    # one vector at every k on the eggs, none on the definite top forms
    rank = 1 if name == "egg" or name in MOVED_EGGS else 0
    for k in range(2, 9):
        (P_lp, P), _, _ = _removed(p, k)
        assert np.abs(P - P_lp).max() <= 1e-10, (name, k)
        assert round(np.trace(P)) == rank, (name, k)


@pytest.mark.parametrize("name", PROBES)
def test_closed_form_face_contains_the_lp_face_and_is_certified(name):
    p = parse_poly(PROBES[name])
    for k in range(2, 7):
        (P_lp, P), E, F = _removed(p, k)
        assert np.abs(P @ P_lp - P_lp).max() <= 1e-10, (name, k)
        # each direction is admissible on the complement of the vectors
        # before it
        kept, V = np.array(_reductions(p, k)[0]), []
        for d, v in _forced_vectors(p, k, kept):
            d = d / np.abs(d).max()
            W = np.eye(len(kept))
            if V:
                U, sig, _ = np.linalg.svd(np.array(V).T, full_matrices=True)
                W = U[:, int(np.sum(sig > 1e-9 * sig[0])):]
            assert np.abs(E @ d).max() <= 1e-12, (name, k)
            M = W.T @ np.tensordot(d, F, axes=(0, 0)) @ W
            assert np.linalg.eigvalsh(M)[0] >= -1e-12, (name, k)
            V.append(v)


# inside (+), outside (-), |margin| <= 1e-4 (0) or IndeterminateResult (x)
# before the closed form, on a 5x5 grid over [-1.5, 1.5]^2 (x1 slow, x2 fast)
PROBE_MEMBERSHIP = {
    ("parabola", 2): "--------++--0++---++-----",
    ("parabola", 3): "--------00--000---00-----",
    ("parabola", 4): "--------00--000---00-----",
    ("hyperbola", 2): "+++++++++++++++++++++++++",
    ("hyperbola", 3): "0000000000000000000000000",
    ("hyperbola", 4): "0000000000000000000000000",
    ("cusp", 2): "+++++++++++++++++++++++++",
    ("cusp", 3): "+++++++++++++++++++++++++",
    ("cusp", 4): "+++++++++++++++++++++++++",
    ("x1^2x2^2 - 1", 2): "+++++++++++++++++++++++++",
    ("x1^2x2^2 - 1", 3): "+++++++++++++++++++++++++",
    ("x1^2x2^2 - 1", 4): "+++++++++++++++++++++++++",
    ("double lines", 2): "-------++--+++--++-------",
    ("double lines", 3): "--xx---++--+++--++-------",
    ("double lines", 4): "--x----++--+++--++-----x-",
}


@pytest.mark.parametrize("name", PROBES)
def test_probe_memberships_keep_their_answers(name):
    # every point answers, where the LP's face left some of the double
    # lines' points undecided, and a decided point keeps its side
    p = parse_poly(PROBES[name])
    grid = [(x1, x2) for x1 in np.linspace(-1.5, 1.5, 5) for x2 in np.linspace(-1.5, 1.5, 5)]
    for k in (2, 3, 4):
        for point, before in zip(grid, PROBE_MEMBERSHIP[name, k]):
            try:
                res = membership(p, k, point)
            except IndeterminateResult:
                pytest.fail(f"{name} k={k} {point}")
            if before in "+-":
                assert res.inside == (before == "+"), (name, k, point, res.margin)


def test_egg_membership_high_orders_match_the_curve():
    # P_2 is already the egg's hull, so every P_k is: inside exactly where
    # p > 0, decided by Optimal solves in few iterations. One of these
    # points stalled at k=4 with the diagonal row drops alone.
    p = curves.lookup("egg").implicit
    cloud = exactness.curve_points(p)
    lo = cloud.min(axis=0) - 0.3
    hi = cloud.max(axis=0) + 0.3
    rng = np.random.default_rng(5)
    pts = rng.uniform(lo, hi, size=(12, 2))
    for k in (4, 5):
        iters = []
        for x in pts:
            res = membership(p, k, x)
            assert res.solution.status == "Optimal", (k, x)
            assert len(res.moments) == len(_program(p, k, False).F)
            iters.append(len(res.solution.iterates))
            if abs(res.margin) > 1e-5:
                assert res.inside == (p(*x) > 0), (k, x, res.margin)
        assert np.mean(iters) <= 25, (k, iters)


def test_support_agrees_with_curve_for_exact_orders():
    # the egg's first relaxation is exact: relaxed support equals the
    # geometric support function of the curve
    p = curves.lookup("egg").implicit
    for th in (0.0, 0.7, math.pi / 2, 2.4, math.pi, 4.0):
        u = (math.cos(th), math.sin(th))
        rel = support(p, 2, u)
        geo = exactness.tangent_support(p, u)
        assert rel.status == "Optimal"
        assert rel.value == pytest.approx(geo.value, abs=1e-5)


def test_support_monotone_in_order():
    p = curves.lookup("bean").implicit
    for u in ((1.0, 0.0), (-1.0, 0.0), (0.3, -0.8)):
        v2 = support(p, 2, u).value
        v3 = support(p, 3, u).value
        assert v3 <= v2 + 1e-6


def test_support_unbounded_direction():
    # the parabola's hull is an unbounded epigraph
    from quartichull.poly import parse_poly

    # the supremum is infinite but approached without a recession ray
    # (higher moments must blow up faster than the objective), so the solver
    # either flags a ray or drifts off; both are reported as non-Optimal
    p = parse_poly("x2 - x1^2")
    res = support(p, 2, (0.0, 1.0))
    assert res.status in ("Unbounded", "Inaccurate")
    assert res.value > 100.0


def test_minimize_linear_monotone():
    p = curves.lookup("egg").implicit
    rows = minimize_linear(p, (0.0, 1.0), [2, 3])
    vals = [v for _, v, _ in rows]
    assert vals[1] >= vals[0] - 1e-6


def test_minimize_linear_reports_no_bound_from_unfinished_solves(monkeypatch):
    # a capped solve stops with a feasible moment iterate at best: its
    # value bounds the minimum from above, so no lower bound is reported
    from quartichull import sdp

    monkeypatch.setattr(sdp, "_MAX_ITER", 5)
    p = curves.lookup("bean").implicit
    rows = minimize_linear(p, (1.0, 0.0), [4, 5])
    for k, bound, status in rows:
        assert bound is None, (k, bound, status)
        assert status.startswith("support solve returned MaxIter"), status


def test_a_diverged_support_solve_stops_early(monkeypatch):
    # the bean's k=8 support solve reaches primal feasibility, then loses
    # it for good: it stops once its residual passes 1e-2, where no fallback
    # can accept an iterate; the bounds at k=2..4 do not move
    from quartichull import relaxation

    solves, original = [], relaxation.solve_stack

    def kept(*args, **kwargs):
        out = original(*args, **kwargs)
        solves.extend(out)
        return out

    monkeypatch.setattr(relaxation, "solve_stack", kept)
    p = curves.lookup("bean").implicit
    rows = minimize_linear(p, (1.0, 0.0), [2, 3, 4, 8])
    assert [b for _, b, _ in rows[:3]] == pytest.approx(
        [-0.13154426313248932, -0.0291412112925819, -0.005860348001936976], rel=1e-9, abs=0)
    assert rows[3] == (8, None, "support solve returned Numerical: primal residual diverged")
    assert solves[3].message == "primal residual diverged"
    assert len(solves[3].iterates) < 80


def test_minimize_egg_x1_value():
    p = curves.lookup("egg").implicit
    rows = minimize_linear(p, (1.0, 0.0), [2])
    assert rows[0][1] == pytest.approx(-0.35355, abs=1e-4)


def test_waterdrop_high_order_tracks_hull_oracle():
    # at order 5 the relaxed boundary is nearly indistinguishable from the
    # hull of the curve samples: every maximizer within 2% of the diagonal
    from scipy.spatial import ConvexHull

    p = curves.lookup("waterdrop").implicit
    cloud = exactness.curve_points(p)
    hull = ConvexHull(cloud)
    eqs = hull.equations  # a x + b <= 0 on the hull
    span = cloud.max(axis=0) - cloud.min(axis=0)
    diag = float(np.hypot(*span))
    rows = boundary_points(p, 5, 16)
    for r in rows:
        assert r.status in ("ok", "inaccurate"), r
        x = np.array([r.x1, r.x2])
        outside = float(np.max(eqs[:, :2] @ x + eqs[:, 2]))
        assert outside <= 0.02 * diag, (r.angle, outside)


def test_boundary_points_and_csv():
    p = curves.lookup("fermat").implicit
    rows = boundary_points(p, 2, 8)
    assert len(rows) == 8
    text = boundary_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == BOUNDARY_CSV_HEADER
    assert len(lines) == 9
    # maximizers stay inside the hull's bounding box
    for r in rows:
        assert abs(r.x1) <= 1.3 and abs(r.x2) <= 1.3
    with pytest.raises(ValueError):
        boundary_points(p, 2, 2)


def test_support_matches_boundary_rows():
    # a boundary row is the support solve at its angle: same value and
    # maximizer bit for bit, and the row status names the support status
    from quartichull.poly import parse_poly

    row_status = {"Optimal": "ok", "Inaccurate": "inaccurate", "Unbounded": "unbounded"}
    parabola = parse_poly("x2 - x1^2")
    for p, k, n in ((curves.lookup("bean").implicit, 3, 12), (parabola, 2, 4)):
        for j, row in enumerate(boundary_points(p, k, n)):
            th = 2 * math.pi * j / n
            res = support(p, k, (math.cos(th), math.sin(th)))
            assert row.status == row_status[res.status], (k, j)
            assert row.support == res.value, (k, j)
            if res.maximizer is None:
                assert math.isnan(row.x1) and math.isnan(row.x2), (k, j)
            else:
                assert (row.x1, row.x2) == res.maximizer, (k, j)
    # the parabola's direction (0, 1) is row 1
    assert boundary_points(parabola, 2, 4)[1].status in ("unbounded", "inaccurate")


def test_boundary_convex_position():
    # support maximizers of a convex body are in convex position
    p = curves.lookup("egg").implicit
    rows = boundary_points(p, 2, 24)
    pts = np.array([[r.x1, r.x2] for r in rows])
    hullside = []
    for i in range(len(pts)):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        hullside.append(cross)
    assert min(hullside) >= -1e-5


def test_each_family_compiles_once(monkeypatch):
    # every solve of one family (a sweep, points at one (p, k), targets at
    # one order, points on one representation) reads one compiled program
    from quartichull import rational, relaxation, sdp, sos
    from quartichull.poly import parse_poly

    seen = []

    def recorded(prob, *args, **kwargs):
        sols = solve_stack(prob, *args, **kwargs)
        seen.extend([prob] * len(sols))
        return sols

    # every solve goes through solve_stack, one solution per stacked member
    solve_stack = sdp.solve_stack
    for mod in (sdp, relaxation, sos):
        monkeypatch.setattr(mod, "solve_stack", recorded)

    def programs(calls):
        seen.clear()
        for call in calls:
            call()
        return len(seen), len({id(prob) for prob in seen})

    bean = curves.lookup("bean").implicit
    assert programs([lambda: boundary_points(bean, 2, 12)]) == (12, 1)
    points = [(0.1 * j, 0.05) for j in range(5)]
    assert programs([lambda x=x: membership(bean, 3, x) for x in points]) == (5, 1)
    targets = [parse_poly(f"{1 + j} + x1^4 + x2^4 - x1*x2") for j in range(5)]
    assert programs([lambda q=q: sos.sos_margin(q, 2) for q in targets]) == (5, 1)
    rep = rational.hankel_representation(curves.lookup("folium").param)
    assert programs([lambda x=x: rational.rational_membership(rep, x)
                     for x in points]) == (5, 1)


def test_membership_and_support_raise_on_an_undecided_solve(monkeypatch):
    # a solve that ends neither Optimal nor, for a support, Inaccurate or
    # Unbounded cannot decide: membership and support raise
    from quartichull import relaxation
    from quartichull.sdp import SdpSolution

    def failed(*args):
        return SdpSolution(status="Infeasible", z=None, duals=None,
                           violation=math.inf, message="stubbed")

    monkeypatch.setattr(relaxation, "solve", failed)
    monkeypatch.setattr(relaxation, "solve_stack", lambda prob, c, *args: [failed()] * len(c))
    egg = curves.lookup("egg").implicit
    with pytest.raises(IndeterminateResult, match="membership solve returned Infeasible: stubbed"):
        membership(egg, 2, (0.0, 0.0))
    with pytest.raises(IndeterminateResult, match="support solve returned Infeasible: stubbed"):
        support(egg, 2, (1.0, 0.0))
