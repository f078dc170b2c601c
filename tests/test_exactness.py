import dataclasses
import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from quartichull import curves, exactness, sos
from quartichull.exactness import (
    check_concave,
    curve_is_bounded,
    curve_points,
    find_singularities,
    quartic_minimizer,
    sweep_exactness,
    tangent_support,
)
from quartichull.poly import (BivarPoly, _dense, comparison_quartic, gradient, monomials_upto,
                             parse_poly)
from quartichull.relaxation import membership
from quartichull.sos import IndeterminateResult, nonneg_quartic

from conftest import sweep_verdict


def test_check_concave():
    assert check_concave(curves.lookup("fermat").implicit)
    assert check_concave(parse_poly("1 - x1^2 - x2^2"))
    assert not check_concave(curves.lookup("bean").implicit)
    assert not check_concave(parse_poly("x1^2 + x2^2 - 1"))


def test_curve_is_bounded():
    for name in ("egg", "bean", "lemniscate", "folium", "fermat", "waterdrop"):
        assert curve_is_bounded(curves.lookup(name).implicit), name
    assert not curve_is_bounded(parse_poly("x2 - x1^2"))


def test_curve_points_lie_on_curve():
    for name in ("egg", "folium"):
        p = curves.lookup(name).implicit
        pts = curve_points(p)
        assert len(pts) > 500
        vals = np.abs(p.eval_many(pts[:, 0], pts[:, 1]))
        assert np.max(vals) <= 1e-6 * max(1.0, p.coeff_norm())
        # the sample is a copy: the cached curve record stays intact
        kept = pts.copy()
        pts[:] = 0.0
        assert np.array_equal(curve_points(p), kept)


_SLICE_LEVELS = np.concatenate([np.linspace(-50.0, 50.0, 401), np.linspace(-2.0, 2.0, 1601)])


def _slice_points(p):
    """The curve sample, one np.roots call per axis-aligned slice."""
    pts = []
    for axis in (1, 2):
        for v in _SLICE_LEVELS:
            c = np.asarray(p.univariate_in(axis, v), dtype=float)
            nz = np.nonzero(np.abs(c) > 1e-12 * max(1.0, np.max(np.abs(c))))[0]
            if len(nz) == 0 or nz[-1] == 0:
                continue
            for z in np.roots(c[: nz[-1] + 1][::-1]):
                if abs(z.imag) <= 1e-9 * (1 + abs(z.real)) and abs(z.real) <= 50.0:
                    w = float(z.real)
                    pts.append((w, v) if axis == 1 else (v, w))
    return np.array(pts)


@pytest.mark.parametrize("name", curves.curve_names())
def test_curve_points_equal_per_slice_roots(name):
    # the stacked companion eigenvalues give the per-slice roots bit for bit
    p = curves.lookup(name).implicit
    got, ref = curve_points(p), _slice_points(p)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _directions(js, n=360):
    return [(-math.cos(j * 2 * math.pi / n), -math.sin(j * 2 * math.pi / n)) for j in js]


def _assert_same_support(got, want):
    assert got.value == pytest.approx(want.value, rel=0, abs=1e-12)
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert a == pytest.approx(b, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", ["bean", "lemniscate", "egg"])
def test_stacked_members_equal_one_direction_solves(name):
    # the axis-aligned angles have a Sylvester shape of their own; they share
    # a stack with the others
    p = curves.lookup(name).implicit
    dirs = _directions([0, 7, 45, 90, 133, 180, 211, 270, 301, 359])
    for f, got in zip(dirs, exactness._tangent_supports(p, dirs)):
        _assert_same_support(got, tangent_support(p, f))


def test_stacked_special_members(monkeypatch):
    parabola = parse_poly("x2 - x1^2")
    dirs = [(0.0, 1.0), (0.0, -1.0), (0.0, 0.0), (1.0, 0.0)]
    got = exactness._tangent_supports(parabola, dirs)
    assert [g.value for g in got if not isinstance(g, Exception)] == \
        [math.inf, pytest.approx(0.0, abs=1e-8), math.inf]
    assert isinstance(got[2], ValueError)
    with pytest.raises(ValueError):
        tangent_support(parabola, (0.0, 0.0))
    for f, g in zip(dirs, got):
        if f != (0.0, 0.0):
            _assert_same_support(g, tangent_support(parabola, f))

    # one member without a tangency point on a bounded curve: a fresh record,
    # and no solution for that member
    egg = curves.lookup("egg").implicit
    dirs = _directions([0, 30, 90, 200])
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    kept = exactness._tangent_supports(egg, dirs)
    original = exactness._solve_pairs

    def drop_second(eqs, weights, known=()):
        sols = original(eqs, weights, known)
        sols[1] = ([], True)
        return sols

    monkeypatch.setattr(exactness, "_solve_pairs", drop_second)
    got = exactness._tangent_supports(egg, dirs)
    assert isinstance(got[1], IndeterminateResult)
    for i in (0, 2, 3):
        assert got[i] == kept[i]
    # the curve record keeps the exception for that angle and raises it only
    # when the angle is read
    rec = exactness._curve(egg)
    angles = [j * 2 * math.pi / 360 for j in (0, 30, 90, 200)]
    rec.supports(angles)
    with pytest.raises(IndeterminateResult):
        rec.support(angles[1])
    assert rec.support(angles[2]).value == pytest.approx(kept[2].value, abs=1e-12)


def test_tangent_support_known_values():
    egg = curves.lookup("egg").implicit
    res = tangent_support(egg, (0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.points[0] == pytest.approx((0.0, 1.0), abs=1e-6)
    bean = curves.lookup("bean").implicit
    assert tangent_support(bean, (-1.0, 0.0)).value == pytest.approx(0.0, abs=1e-8)
    assert tangent_support(bean, (1.0, 0.0)).value == pytest.approx(1.0, abs=1e-6)
    fermat = curves.lookup("fermat").implicit
    assert tangent_support(fermat, (1.0, 0.0)).value == pytest.approx(1.0, abs=1e-8)


def test_tangent_support_unbounded():
    parabola = parse_poly("x2 - x1^2")
    res = tangent_support(parabola, (0.0, 1.0))
    assert res.value == math.inf
    # the far points of the curve record lie beyond the vertex in direction
    # (0, -1) and do not bound it; in direction (1, 0) they exceed every
    # point the tangency solve and the curve sample find
    res = tangent_support(parabola, (0.0, -1.0))
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.points[0] == pytest.approx((0.0, 0.0), abs=1e-6)
    assert tangent_support(parabola, (1.0, 0.0)).value == math.inf


def test_find_singularities_residuals():
    for record in curves.registry():
        found = find_singularities(record.implicit)
        assert len(found) == len(record.singularities), record.name
        for s in found:
            assert s.residual_p <= 1e-8
            assert s.residual_grad <= 1e-8
        for expected, _ in record.singularities:
            assert any(s.location.close_to(expected, tol=1e-6) for s in found), \
                record.name


def test_verdicts_match_registry():
    for record in curves.registry():
        verdict, _ = sweep_verdict(record.name)
        assert verdict.verdict == record.expected_verdict, record.name


@pytest.mark.parametrize("name", [n for n in curves.curve_names() if n != "egg"])
def test_negated_registry_curves_keep_their_verdicts(name):
    # a positive definite top form is negated on entry, so that p < 0 far
    # away; the egg's top form -x1^4 is only semidefinite
    p = curves.lookup(name).implicit
    want, got = sweep_exactness(p, n=72), sweep_exactness(-p, n=72)
    assert got.verdict == want.verdict == curves.lookup(name).expected_verdict
    assert got.witness == want.witness
    assert curve_is_bounded(-p)


@pytest.mark.parametrize("text", ["x1^2 + x2^2 - 1", "x1^4 + x2^4 - 1"])
def test_circles_with_a_positive_top_form_are_exact(text):
    assert curve_is_bounded(parse_poly(text))
    assert sweep_exactness(parse_poly(text), n=24).verdict == "Exact"


def test_nonsmooth_witness_fails_nonnegativity(bean_verdict):
    # a witness line certifies non-exactness: its comparison quartic must
    # take negative values
    verdict, _ = bean_verdict
    p = curves.lookup("bean").implicit
    assert verdict.witness is not None
    pf = comparison_quartic(verdict.witness, p)
    assert not nonneg_quartic(pf)


def test_singularity_classifications(bean_verdict, lemniscate_verdict):
    verdict, _ = bean_verdict
    assert verdict.singular_points[0].classification == "on_boundary"
    verdict, _ = lemniscate_verdict
    assert verdict.singular_points[0].classification == "interior"


def test_verdicts_label_copies_of_the_singular_points(bean_verdict):
    # the curve record keeps its singular points unlabelled; a verdict
    # carries labelled copies, and no one can write to a point
    verdict, _ = bean_verdict
    assert verdict.singular_points[0].classification == "on_boundary"
    found = find_singularities(curves.lookup("bean").implicit)
    assert [s.classification for s in found] == ["unknown"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        found[0].classification = "interior"
    found.clear()  # a new list each call
    assert len(find_singularities(curves.lookup("bean").implicit)) == 1


def test_singularities_of_curves_in_one_variable():
    # the partials have no generic pencil: the grid fallback answers,
    # flagged non-certified, instead of raising
    assert [s for s in find_singularities(parse_poly("x2^2 - 1"))
            if not s.at_infinity] == []
    assert [s for s in find_singularities(parse_poly("1 - x2^4"))
            if not s.at_infinity] == []
    found = [s for s in find_singularities(parse_poly("x2^2")) if not s.at_infinity]
    assert found
    assert not any(s.certified for s in found)
    assert all(abs(s.location.to_affine()[1]) <= 1e-8 for s in found)


def _reference_polish(eqs, x, iters=80):
    """One seed at a time, with the least-squares step from lstsq."""
    x = np.asarray(x, dtype=float)
    grads = [gradient(q) for q in eqs]
    for _ in range(iters):
        F = np.array([q(x[0], x[1]) for q in eqs])
        J = np.array([[g(x[0], x[1]) for g in gq] for gq in grads])
        step = np.linalg.lstsq(J, -F, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        x = x + step
        nx = np.linalg.norm(x)
        if np.linalg.norm(step) < 1e-15 * (1 + nx) or nx > 1e4:
            break
    return x


def _tangency_pair(name, u):
    p = curves.lookup(name).implicit
    return p, p.diff(1) * u[1] - p.diff(2) * u[0]


_POLISH_CASES = {
    "smooth egg tangency": (_tangency_pair("egg", (0.0, 1.0)), (0.1, 0.9)),
    # J is singular at the node (rank one) and at the triple point (zero)
    "lemniscate node": (_tangency_pair("lemniscate", (1.0, 0.0)), (0.02, 0.01)),
    "bean triple point": (_tangency_pair("bean", (-1.0, 0.0)), (0.02, 0.01)),
    "exactly rank one": ((parse_poly("x1^2 + 1"), parse_poly("x2")), (0.0, 0.5)),
    # the first step leaves the |x| <= 1e4 box
    "divergent": ((parse_poly("x1^2 + 1"), parse_poly("x2")), (1e-5, 0.0)),
    # J = 0: the step is not finite and the seed comes back unchanged
    "zero Jacobian": ((parse_poly("x1^2 + 1"), parse_poly("x2^2 + 1")), (0.0, 0.0)),
}


@pytest.mark.parametrize("case", list(_POLISH_CASES))
def test_newton_polish_matches_least_squares_reference(case):
    eqs, seed = _POLISH_CASES[case]
    got = exactness._newton_polish(eqs, np.array([seed]))
    assert got.shape == (1, 2)
    assert got[0] == pytest.approx(_reference_polish(eqs, seed), rel=1e-12, abs=1e-12)


def test_newton_polish_treats_seeds_independently():
    eqs = _tangency_pair("lemniscate", (0.6, 0.8))
    p = eqs[0]
    rng = np.random.default_rng(0)
    # seeds that converge to smooth points or to the node, one at the node
    # (stops after one zero step) and one past |x| = 1e4 (stops after one
    # step): the seeds stop at different steps
    seeds = np.vstack([rng.uniform(-1.5, 1.5, size=(40, 2)), [[0.0, 0.0], [1e5, 0.0]]])
    together = exactness._newton_polish(eqs, seeds)
    alone = np.array([exactness._newton_polish(eqs, s[None])[0] for s in seeds])
    assert np.allclose(together, alone, rtol=1e-13, atol=1e-13)
    assert np.all(np.abs(p.eval_many(together[:41, 0], together[:41, 1])) < 1e-12)
    assert together[40].tolist() == [0.0, 0.0]
    assert together[41, 0] > 1e4
    assert exactness._newton_polish(eqs, np.zeros((0, 2))).shape == (0, 2)


def _tangency_weights(dirs):
    return np.array([[[1.0, 0.0, 0.0], [0.0, u1, -u0]] for u0, u1 in dirs])


def test_the_polish_stops_at_a_known_singular_root():
    # the node solves every tangency pair of the lemniscate: each direction
    # lists it once, at the singular point itself
    p = curves.lookup("lemniscate").implicit
    rec = exactness._curve(p)
    [node] = [s.location.to_affine() for s in rec.singular if not s.at_infinity]
    assert node == (0.0, 0.0)
    dirs = _directions(range(0, 360, 7))
    sols = exactness._solve_pairs((p, rec.d1, rec.d2), _tangency_weights(dirs), [node])
    for pts, certified in sols:
        assert certified
        assert pts.count(node) == 1
        assert not any(0 < math.hypot(*pt) <= 1e-7 for pt in pts)
    # a seed 1e-9 off the node ends exactly on it; one far from it does not
    eqs = _tangency_pair("lemniscate", (0.6, 0.8))
    got = exactness._newton_polish(eqs, np.array([[1e-9, 0.0], [0.5, 0.5]]), known=[node])
    assert got[0].tolist() == [0.0, 0.0]
    assert got[1].tolist() != [0.0, 0.0]


def test_a_tangency_stack_keeps_the_memory_bound():
    # the sweep's largest stack, 403 directions: the polish takes its seeds
    # in batches beside the stack-wide seeds and zeros (22222 seeds on the
    # bean), so the stack stays within the SDP core's bound
    p = curves.lookup("bean").implicit
    rec = exactness._curve(p)
    assert rec.singular and not len(rec.far)  # the record's own arrays, warmed
    dirs = _directions(range(403), n=403)
    tracemalloc.start()
    try:
        exactness._tangent_supports(p, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * exactness._STACK_FLOATS


def test_a_smooth_tangency_point_near_a_node_is_kept():
    # (x2 - x1^2)(x2 + x1) has a node at the origin; on its branch x2 = x1^2
    # the normal (-2t, 1) is met at (t, t^2), here 1e-4 from the node
    p = parse_poly("(x2 - x1^2)*(x2 + x1)")
    t = 1e-4
    u = np.array([-2 * t, 1.0]) / math.hypot(2 * t, 1.0)
    [(pts, certified)] = exactness._solve_pairs((p, p.diff(1), p.diff(2)),
                                                _tangency_weights([u]), [(0.0, 0.0)])
    assert certified
    assert pts.count((0.0, 0.0)) == 1
    assert any(math.hypot(a - t, b - t * t) <= 1e-12 for a, b in pts)


def test_powers_round_each_seed_alike_in_any_stack():
    # numpy takes another power loop past 2730 seeds; products do not
    x = np.random.default_rng(0).uniform(-3.0, 3.0, size=(2, 3000))
    big = exactness._powers(x, 4)
    alone = np.concatenate([exactness._powers(x[:, n:n + 1], 4) for n in range(x.shape[1])],
                           axis=2)
    assert alone.tobytes() == big.tobytes()
    assert np.allclose(big, x[:, None] ** np.arange(5.0)[:, None], rtol=1e-15, atol=0)


def test_sweep_rows_cover_the_circle(egg_verdict):
    verdict, _ = egg_verdict
    angles = [row[0] for row in verdict.sweep]
    assert len(angles) == 360
    assert angles[0] == 0.0
    assert max(angles) < 2 * math.pi
    # all margins nonnegative up to tolerance for an exact curve
    assert min(row[1] for row in verdict.sweep) >= -1e-6


def test_quartic_minimizer():
    q = parse_poly("(x1 - 1)^2 + (x2 + 2)^2 - 3")
    x, val = quartic_minimizer(q)
    assert val == pytest.approx(-3.0, abs=1e-8)
    assert tuple(x) == pytest.approx((1.0, -2.0), abs=1e-6)


def test_quartic_minimizer_finds_the_lower_of_two_wells():
    # two wells of depth -1/4 at (+-1/sqrt 2, 0) and a saddle at the origin;
    # the grid's tie goes to the lower x1
    x, val = quartic_minimizer(parse_poly("x1^4 - x1^2 + x2^2"))
    assert val == pytest.approx(-0.25, rel=0, abs=1e-14)
    assert tuple(x) == pytest.approx((-math.sqrt(0.5), 0.0), rel=0, abs=1e-9)


def test_quartic_minimizer_finds_the_lower_well_outside_the_box_of_3():
    # two wells: near (-0.967, 0) at 0.098, and near (4.03, 0) at -0.4016,
    # outside [-3, 3]^2
    x, val = quartic_minimizer(parse_poly("1/16*(x1 - 4)^2*(x1 + 1)^2 - 0.1*x1 + x2^2"))
    assert val == pytest.approx(-0.4016, abs=1e-4)
    assert tuple(x) == pytest.approx((4.03, 0.0), abs=1e-2)


def test_quartic_minimizer_finds_a_critical_point_beyond_the_curve_box():
    # the critical solve's box comes from q's own coefficients, not |x| <= 50
    x, val = quartic_minimizer(parse_poly("(x1 - 60)^2 + x2^2 - 1"))
    assert val == pytest.approx(-1.0, rel=0, abs=1e-9)
    assert tuple(x) == pytest.approx((60.0, 0.0), rel=0, abs=1e-9)


def test_quartic_minimizer_of_constant_and_linear_polynomials():
    assert quartic_minimizer(parse_poly("3")) == ((0.0, 0.0), 3.0)
    # unbounded below, with no critical point to attain a value
    x, val = quartic_minimizer(parse_poly("x1 - 2*x2 + 1"))
    assert val == -math.inf and all(map(math.isnan, x))


def _grid_seed(q):
    """The argmin of q on the 41 x 41 grid over [-3, 3]^2, scanned x2-major,
    and its value."""
    xs = np.linspace(-3.0, 3.0, 41)
    X, Y = np.meshgrid(xs, xs)
    vals = q.eval_many(X.ravel(), Y.ravel())
    j = int(np.argmin(vals))
    return np.array([X.ravel()[j], Y.ravel()[j]]), vals[j]


def _bfgs_minimum(q, x0):
    g = gradient(q)
    res = scipy.optimize.minimize(
        lambda x: q(x[0], x[1]), x0, method="BFGS",
        jac=lambda x: np.array([g[0](x[0], x[1]), g[1](x[0], x[1])]))
    return res.fun


def _sweep_lines(verdict, p, every=1):
    """(row, sweep line) of every `every`-th row of a sweep verdict."""
    rec = exactness._curve(p)
    return [(row, rec.support(row[0]).line) for row in verdict.sweep[::every]]


_MINIMA_VERDICTS = ("egg_verdict", "lemniscate_verdict", "folium_verdict")


@pytest.mark.parametrize("fixture", _MINIMA_VERDICTS)
def test_sweep_minima_match_a_bfgs_reference(fixture, request):
    verdict, _ = request.getfixturevalue(fixture)
    p = curves.lookup(fixture.split("_")[0]).implicit
    rows = _sweep_lines(verdict, p, every=max(1, len(verdict.sweep) // 24))
    assert len(rows) >= 3
    for row, line in rows:
        q = comparison_quartic(line, p)
        assert row[2] == pytest.approx(_bfgs_minimum(q, _grid_seed(q)[0]), rel=0, abs=1e-9)


@pytest.mark.parametrize("fixture", _MINIMA_VERDICTS)
def test_sweep_minima_never_exceed_their_grid_seed(fixture, request):
    verdict, _ = request.getfixturevalue(fixture)
    p = curves.lookup(fixture.split("_")[0]).implicit
    for row, line in _sweep_lines(verdict, p):
        seed_value = _grid_seed(comparison_quartic(line, p))[1]
        assert row[2] <= seed_value + 1e-12 * (1 + abs(seed_value))


def _dense_grid_minimum(q, m=3001):
    """The least value of q on an m x m grid over [-3, 3]^2, a block of
    rows at a time."""
    xs = np.linspace(-3.0, 3.0, m)
    C = _dense(q, 4)  # [a, b] of x1^a x2^b
    V = xs[:, None] ** np.arange(5)
    return min((V[i:i + 500] @ C @ V.T).min() for i in range(0, m, 500))


@pytest.mark.parametrize("name", ["folium", "smoothconvex"])
def test_failing_rows_print_at_most_the_dense_grid_minimum(name):
    p = curves.lookup(name).implicit
    failing = 0
    for n in (8, 12, 24, 72, 360):
        verdict = sweep_verdict(name)[0] if n == 360 else sweep_exactness(p, n=n)
        assert verdict.verdict == "NotExact"
        for row, line in _sweep_lines(verdict, p):
            if row[1] < -sos.FEAS_MARGIN:
                failing += 1
                assert row[2] <= _dense_grid_minimum(comparison_quartic(line, p)) + 1e-9, (n, row)
    assert failing > 0


@pytest.mark.parametrize("fixture", ["egg_verdict", "lemniscate_verdict"])
def test_passing_rows_print_their_comparison_quartic_at_the_contact(fixture, request):
    verdict, _ = request.getfixturevalue(fixture)
    p = curves.lookup(fixture.split("_")[0]).implicit
    rec = exactness._curve(p)
    assert verdict.verdict == "Exact" and len(verdict.sweep) == 360
    for row, line in _sweep_lines(verdict, p):
        assert row[2] == comparison_quartic(line, p)(*rec.support(row[0]).point)
        assert abs(row[2]) <= 1e-15


def _face_rows(name, n):
    """The comparison quartics of the n sweep angles of a registry curve,
    and the same quartics moved to their contacts."""
    p = curves.lookup(name).implicit
    rec = exactness._curve(p)
    angles = [j * 2 * math.pi / n for j in range(n)]
    rec.supports(angles)
    rows = [rec.support(th) for th in angles]
    assert all(s.line is not None for s in rows)
    pfs = [comparison_quartic(s.line, p) for s in rows]
    return pfs, exactness._at_contacts(p, pfs, [s.point for s in rows])


@pytest.mark.parametrize("name", ["egg", "lemniscate", "smoothconvex", "folium"])
def test_face_margins_fail_exactly_where_full_margins_fail(name):
    # the face drops only Gram rows on which every PSD Gram matrix
    # vanishes, so it loses no certificate: the margin on the face and the
    # one over the full basis of the untranslated p_f agree in sign
    pfs, qs = _face_rows(name, 72)
    face = sos.sos_margins(qs, 2)
    full = [sol.z[-1] for sol in sos._gram_solve(pfs, 2)[3]]
    assert all(isinstance(m, float) for m in face)
    fails = [m < -exactness.FEAS_MARGIN for m in face]
    assert fails == [m < -exactness.FEAS_MARGIN for m in full]
    assert any(fails) == (name in ("smoothconvex", "folium"))


@pytest.mark.parametrize("name, kept, free", [
    # the egg's top form is -x1^4: x2^4 and x1^2 x2^2 are zero in every p_f
    ("egg", [(1, 0), (0, 1), (2, 0)], 1),
    ("lemniscate", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 4),
])
def test_a_row_moved_to_its_contact_loses_the_monomial_1(name, kept, free):
    _, qs = _face_rows(name, 8)
    for q in qs:
        assert q.coeff(0, 0) == q.coeff(1, 0) == q.coeff(0, 1) == 0.0
    rows = sos._gram_face(2, tuple(np.any([[q.coeff(*s) != 0 for s in monomials_upto(4)]
                                           for q in qs], axis=0).tolist()))
    assert [monomials_upto(2)[i] for i in rows] == kept
    assert sos._gram_problem(2, None, rows)[0].N.shape[1] == free


def test_lemniscate_face_margins_leave_the_rounding_floor(lemniscate_verdict):
    # only the lines touching the curve twice, at 90 and 270 degrees, force a
    # second Gram kernel vector
    verdict, _ = lemniscate_verdict
    low = [round(math.degrees(th), 9) for th, m, _ in verdict.sweep if m < 1e-3]
    assert low == [90.0, 270.0]


def test_concave_fast_path():
    verdict = sweep_exactness(curves.lookup("fermat").implicit, n=16)
    assert verdict.verdict == "Exact"
    assert verdict.evidence.get("concave") is True
    # the fast path reads the singular points only, never the curve sample
    p = parse_poly("1 - x1^4 - 2*x2^4")
    assert sweep_exactness(p, n=16).verdict == "Exact"
    assert "cloud" not in vars(exactness._curve(p))


def test_concave_unbounded_curve_is_exact():
    # concavity implies exactness even for unbounded hulls
    verdict = sweep_exactness(parse_poly("x2 - x1^2"), n=16)
    assert verdict.verdict == "Exact"


def test_unbounded_nonconcave_curve_is_inconclusive():
    verdict = sweep_exactness(parse_poly("x1*x2 - 1"), n=16)
    assert verdict.verdict == "Inconclusive"


def test_non_reduced_curve_is_inconclusive():
    # every point of the doubled circle is singular; the grid fallback finds
    # a sample of them, non-certified, and the verdict stops there
    t0 = time.perf_counter()
    verdict = sweep_exactness(parse_poly("-(x1^2 + x2^2 - 1)^2"), n=8)
    assert time.perf_counter() - t0 < 10.0
    assert verdict.verdict == "Inconclusive"
    assert "grid fallback" in verdict.evidence["reason"]
    assert verdict.singular_points
    assert not any(s.certified for s in verdict.singular_points if not s.at_infinity)


def test_classification_reads_the_sweep_envelope(monkeypatch):
    # the singular point is classified from a few candidate lines through
    # it, and the sweep solves each of its own angles once
    calls = []
    original = exactness._tangent_supports

    def counted(p, dirs):
        calls.extend(dirs)
        return original(p, dirs)

    monkeypatch.setattr(exactness, "_tangent_supports", counted)
    n = 36
    verdict = sweep_exactness(curves.lookup("lemniscate").implicit, n=n)
    assert verdict.verdict == "Exact"
    assert [s.classification for s in verdict.singular_points] == ["interior"]
    assert len(verdict.sweep) == n
    assert len(calls) <= 2 * n


def test_inconclusive_verdict_keeps_partial_results(monkeypatch):
    calls = []
    original = exactness.sos_margins

    def failing(qs, k):
        out = original(qs, k)
        for i, q in enumerate(qs):
            calls.append(q)
            if len(calls) > 2:
                out[i] = IndeterminateResult("forced solver failure")
        return out

    monkeypatch.setattr(exactness, "sos_margins", failing)
    egg = curves.lookup("egg").implicit
    verdict = sweep_exactness(egg, n=8)
    assert verdict.verdict == "Inconclusive"
    assert verdict.evidence["error"] == "forced solver failure"
    found = find_singularities(egg)
    assert len(verdict.singular_points) == len(found) == 1
    assert verdict.singular_points[0].location.close_to(found[0].location, tol=1e-9)
    assert len(verdict.sweep) == 2


def _reflected_smoothconvex():
    """smoothconvex under x1 -> -x1: at n=12 its first failing sample is row
    4, inside the sweep's third chunk of margins (rows 3 to 6)."""
    p = curves.lookup("smoothconvex").implicit
    return BivarPoly({(a, b): c * (-1) ** a for (a, b), c in p.terms.items()})


def test_sweep_acts_on_rows_in_order(monkeypatch):
    # a solve that fails after the first failing row of its chunk does not
    # turn the NotExact verdict into an Inconclusive one
    p = _reflected_smoothconvex()
    plain = sweep_exactness(p, n=12)
    assert plain.verdict == "NotExact" and len(plain.sweep) == 5
    spoiled = []
    original = exactness.sos_margins

    def failing_after_the_first_failure(qs, k):
        out = original(qs, k)
        for i in range(len(out)):
            if any(m < -exactness.FEAS_MARGIN for m in out[:i]):
                out[i] = IndeterminateResult("forced solver failure")
                spoiled.append(i)
        return out

    monkeypatch.setattr(exactness, "sos_margins", failing_after_the_first_failure)
    verdict = sweep_exactness(p, n=12)
    assert spoiled == [2, 3]  # rows 5 and 6
    assert verdict.verdict == "NotExact"
    assert verdict.witness.coeffs == plain.witness.coeffs
    assert verdict.sweep == plain.sweep


def test_band_scan_reads_the_margins_solved_ahead(monkeypatch):
    # at n=72 the band after the failing row runs into rows that the
    # lookahead chunk already solved; none of them is solved again
    p = _reflected_smoothconvex()
    plain = sweep_exactness(p, n=72)
    stacked, single = [], []
    margins, margin = exactness.sos_margins, exactness.sos_margin

    def stack(qs, k):
        stacked.extend(tuple(sorted(q.terms.items())) for q in qs)
        return margins(qs, k)

    def one(q, k):
        single.append(tuple(sorted(q.terms.items())))
        return margin(q, k)

    monkeypatch.setattr(exactness, "sos_margins", stack)
    monkeypatch.setattr(exactness, "sos_margin", one)
    verdict = sweep_exactness(p, n=72)
    assert verdict.verdict == "NotExact"
    assert verdict.witness.coeffs == plain.witness.coeffs
    assert single and not set(single) & set(stacked)


def test_sweep_stops_at_a_missing_line_in_mid_chunk(monkeypatch):
    # row 4 has no sweep line: the chunk of rows 3 to 6 solves row 3 only,
    # and the verdict is Inconclusive when the loop reaches row 4
    egg = curves.lookup("egg").implicit
    plain = sweep_exactness(egg, n=8)
    step = 2 * math.pi / 8
    support = exactness._Curve.support

    def no_line_at_row_4(self, theta):
        s = support(self, theta)
        return s._replace(line=None, point=None) if theta == 4 * step else s

    chunks = []
    margins = exactness.sos_margins

    def counted(qs, k):
        chunks.append(len(qs))
        return margins(qs, k)

    monkeypatch.setattr(exactness._Curve, "support", no_line_at_row_4)
    monkeypatch.setattr(exactness, "sos_margins", counted)
    verdict = sweep_exactness(egg, n=8)
    assert verdict.verdict == "Inconclusive"
    assert chunks == [1, 2, 1]
    # row 3 is solved alone here and in a stack of four in the plain sweep
    assert np.allclose(verdict.sweep, plain.sweep[:4], rtol=0, atol=1e-9)


# the folium's facet: the bitangent 4/9 + x1/3 + (2 sqrt 2/3) x2 = 0, with
# inward normal angle atan(2 sqrt 2)
_FOLIUM_FACET = (4 / 9, 1 / 3, 2 * math.sqrt(2) / 3)
_FOLIUM_FACET_ANGLE = math.atan(2 * math.sqrt(2))  # 1.2309594173407747


@pytest.mark.parametrize("n", [8, 12, 24, 360])
def test_folium_witness_is_the_exact_bitangent(n):
    # n=8 and 12 pass at every sample: only the facet fails
    p = curves.lookup("folium").implicit
    verdict = sweep_verdict("folium")[0] if n == 360 else sweep_exactness(p, n=n)
    assert verdict.verdict == "NotExact"
    assert verdict.witness.normalized().coeffs == pytest.approx(_FOLIUM_FACET,
                                                                rel=0, abs=1e-12)
    assert verdict.evidence["facet_angle"] == pytest.approx(_FOLIUM_FACET_ANGLE,
                                                            rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [36, 360])
def test_waterdrop_witness_is_the_line_through_the_cusp(n):
    # the lines from the cusp that touch the drop bound the arc of normals
    # supporting the hull there; the witness is the middle of the arc,
    # x2 <= 0, whatever n and the rounding
    p = curves.lookup("waterdrop").implicit
    verdict = sweep_verdict("waterdrop")[0] if n == 360 else sweep_exactness(p, n=n)
    assert verdict.verdict == "NotExact"
    assert verdict.witness.normalized().coeffs == pytest.approx((0.0, 0.0, -1.0),
                                                                rel=0, abs=1e-12)


@pytest.mark.parametrize("name", ["bean", "waterdrop"])
def test_singular_point_verdicts_read_only_candidate_lines(name, monkeypatch):
    # the point on the boundary is found from the lines through it that can
    # support the hull (tangent cone lines, and lines touching the curve
    # elsewhere), not from the sweep's angles: the verdict solves a few
    # directions, and its classification and witness do not depend on n. A
    # fresh curve record counts every direction the verdict solves.
    calls = []
    original = exactness._tangent_supports

    def counted(p, dirs):
        calls.extend(dirs)
        return original(p, dirs)

    monkeypatch.setattr(exactness, "_tangent_supports", counted)
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    p = curves.lookup(name).implicit
    verdict = sweep_exactness(p, n=360)
    assert verdict.verdict == "NotExact"
    assert len(calls) <= 12
    for n in (8, 12, 36):
        other = sweep_exactness(p, n=n)
        assert [s.classification for s in other.singular_points] == ["on_boundary"]
        assert other.witness.coeffs == verdict.witness.coeffs


def test_isolated_point_outside_a_circle_is_on_the_boundary():
    # the origin and the circle of radius 1 about (2, 0): the lines from the
    # origin touching the circle, x2 = +-x1/sqrt(3), bound the arc of normals
    # supporting the hull at the origin, whose middle gives x1 >= 0
    p = parse_poly("-(x1^2 + x2^2)*((x1 - 2)^2 + x2^2 - 1)")
    verdict = sweep_exactness(p, n=36)
    assert verdict.verdict == "NotExact"
    assert [s.classification for s in verdict.singular_points] == ["on_boundary"]
    assert verdict.witness.normalized().coeffs == pytest.approx((0.0, 1.0, 0.0),
                                                                rel=0, abs=1e-12)


def test_isolated_point_inside_a_circle_is_interior():
    # inside the circle no real line from the origin touches the curve
    p = parse_poly("-(x1^2 + x2^2)*((x1 - 0.5)^2 + x2^2 - 1)")
    verdict = sweep_exactness(p, n=36)
    assert verdict.verdict == "Exact"
    assert [s.classification for s in verdict.singular_points] == ["interior"]


@pytest.mark.parametrize("n", [8, 360])
def test_one_point_curve_is_not_rejected(n):
    # the curve's one real point is the origin, and P_2 = {0}: -p is a sum of
    # squares spanning every nonconstant monomial of degree <= 2, so M_2(y)
    # has rank 1. No real line from the origin touches the curve, so the
    # point is interior and no sampled line may witness NotExact.
    p = parse_poly("-(x1^2 + x2^2)*((x1 - 2)^2 + x2^2 + 1)")
    assert not membership(p, 2, (0.01, 0.0)).inside
    assert not membership(p, 2, (0.0, 0.01)).inside
    verdict = sweep_exactness(p, n=n)
    assert verdict.verdict != "NotExact"
    assert [s.classification for s in verdict.singular_points] == ["interior"]


def test_no_smooth_contact_names_the_angle():
    # the curve's only real point is an interior isolated point, so no
    # sample has a smooth contact to build its sweep line from
    p = parse_poly("-(x1^2 + x2^2)*((x1 - 2)^2 + x2^2 + 1)")
    verdict = sweep_exactness(p, n=8)
    assert verdict.verdict == "Inconclusive"
    assert verdict.evidence["reason"] == "no smooth contact at sweep angle 0.0"


@pytest.mark.parametrize("text, pt, normal", [
    ("x1*(x1^2 + x2^2) - x1^4 - x1^2*x2^2 - x2^4", (0.3, -0.2), (1.0, 0.0)),
    ("x1*(x1^2 + x2^2) - x1^4 - x1^2*x2^2 - x2^4", (-0.5, 0.0), (1.0, 0.0)),
    ("-x1^2 - x2^3 - (x1^2 + x2^2)^2", (0.3, -0.2), (0.0, -1.0)),
    ("-x1^2 - x2^3 - (x1^2 + x2^2)^2", (-0.3, 0.2), (0.0, -1.0)),
])
def test_singular_point_off_the_origin_keeps_its_witness(text, pt, normal):
    # the bean and the waterdrop moved so that their singular point lies at
    # pt: the polish leaves pt about 1e-8 off, so the parts of p about it
    # below the cone are rounding, and tangency polishes near pt stop up to
    # about 1e-4 from it; the point is on the boundary with the witness of
    # the curve at the origin, moved to pt
    a, b = pt
    p = parse_poly(text.replace("x1", "X").replace("x2", f"(x2 - {b})")
                   .replace("X", f"(x1 - {a})"))
    verdict = sweep_exactness(p, n=36)
    assert verdict.verdict == "NotExact"
    assert [s.classification for s in verdict.singular_points] == ["on_boundary"]
    n1, n2 = normal
    assert verdict.witness.normalized().coeffs == pytest.approx((-n1 * a - n2 * b, n1, n2),
                                                                rel=0, abs=1e-6)


def test_real_lines_keep_rounded_double_and_vertical_factors():
    # (x2 - x1/2)^2 x1 with the double factor split into a complex pair and
    # a top coefficient of x2^3 at rounding size: both lines, each once
    form = parse_poly("(x2 - 0.5*x1)^2*x1 + 1e-10*x1^3 + 1e-11*x2^3")
    lines = exactness._real_lines(form, 1e-8)
    assert len(lines) == 2
    assert lines[0] == pytest.approx((2 / math.sqrt(5), 1 / math.sqrt(5)), rel=0, abs=1e-6)
    assert lines[1] == (0.0, 1.0)
    # a top coefficient above the cut gives a finite root, not (0, 1)
    assert (0.0, 1.0) not in exactness._real_lines(form, 1e-12)


def test_smoothconvex_flat_vertex_is_not_a_facet(monkeypatch):
    # the contact moves fast across the flat vertex at the origin, where
    # the first sample fails; the sweep tries it as a facet, finds none, and
    # solves no direction between the samples. A fresh curve record counts
    # every direction the sweep solves.
    calls = []
    original = exactness._tangent_supports

    def counted(p, dirs):
        calls.extend(dirs)
        return original(p, dirs)

    monkeypatch.setattr(exactness, "_tangent_supports", counted)
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    verdict = sweep_exactness(curves.lookup("smoothconvex").implicit, n=360)
    assert verdict.verdict == "NotExact"
    assert verdict.witness.normalized().coeffs == pytest.approx((0.0, 1.0, 0.0),
                                                                rel=0, abs=1e-12)
    assert "facet_angle" not in verdict.evidence
    assert len(calls) <= 5


@pytest.mark.parametrize("n", [8, 12, 36])
def test_lemniscate_facets_pass(n):
    # its two bitangents are facets whose comparison quartics are SOS
    verdict = sweep_exactness(curves.lookup("lemniscate").implicit, n=n)
    assert verdict.verdict == "Exact"
    assert "facet_angle" not in verdict.evidence


def test_bitangent_solves_the_lemniscate_facets():
    # from the contacts on either side of every jump at the sweep's angles
    rec = exactness._curve(curves.lookup("lemniscate").implicit)
    step = 2 * math.pi / 36
    contacts = [rec.support(i * step).point for i in range(36)]
    jumps = [(a, b) for a, b in zip(contacts, contacts[1:] + contacts[:1])
             if exactness._far(a, b)]
    facets = [exactness._bitangent(rec, a, b) for a, b in jumps]
    facets = [pq for pq in facets if pq is not None]
    assert len(facets) == 2
    x, y = math.sqrt(6) / 4, math.sqrt(2) / 4
    for P, Q in facets:
        side = math.copysign(y, P[1])
        assert np.array(sorted([P, Q])) == pytest.approx(
            np.array([(-x, side), (x, side)]), rel=0, abs=1e-12)
    assert {math.copysign(1, P[1]) for P, _ in facets} == {-1.0, 1.0}


def test_bitangent_rejects_a_flat_vertex():
    p = curves.lookup("smoothconvex").implicit
    rec = exactness._curve(p)
    step = 2 * math.pi / 360
    below, at, above = (rec.support((j % 360) * step).point for j in (-1, 0, 1))
    for a, b in ((below, at), (at, above)):
        assert exactness._far(a, b)
        assert exactness._bitangent(rec, a, b) is None


@pytest.mark.parametrize("text", ["x2^2 - x1^3", "x1*x2 - 1"])
def test_unbounded_curve_names_the_reason(text):
    # a curve that is not concave and has infinite supports is not swept;
    # the cusp of x2^2 = x1^3 stays unclassified
    verdict = sweep_exactness(parse_poly(text), n=16)
    assert verdict.verdict == "Inconclusive"
    assert verdict.evidence["reason"] == "curve is unbounded"
    assert not verdict.sweep
    assert {s.classification for s in verdict.singular_points} <= {"unknown"}
    # the concave parabola stays Exact
    assert sweep_exactness(parse_poly("x2 - x1^2"), n=16).verdict == "Exact"


def test_singular_point_outside_the_hull_names_the_reason(monkeypatch):
    egg = curves.lookup("egg").implicit
    monkeypatch.setattr(exactness, "classify_boundary",
                        lambda p: (find_singularities(p), None, None))
    verdict = sweep_exactness(egg, n=8)
    assert verdict.verdict == "Inconclusive"
    assert verdict.evidence["reason"] == "singular point outside the hull"


def _counted_stacks(monkeypatch):
    """The sizes of the _tangent_supports stacks solved from here on, with
    a fresh curve record, and the unpatched function."""
    sizes, original = [], exactness._tangent_supports

    def counted(p, dirs):
        sizes.append(len(dirs))
        return original(p, dirs)

    monkeypatch.setattr(exactness, "_tangent_supports", counted)
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    return sizes, original


@pytest.mark.parametrize("name", ["egg", "lemniscate", "bean", "smoothconvex"])
def test_one_stack_per_support_request(name, monkeypatch):
    # the rows of the n=360 sweep's eighth lookahead chunk, 127..254, with
    # the axis angle 180 degrees among them: one stack, and no solve once
    # they are held
    sizes, original = _counted_stacks(monkeypatch)
    p = curves.lookup(name).implicit
    step = 2 * math.pi / 360
    angles = [j * step for j in range(127, 255)]  # as the sweep computes them
    rec = exactness._curve(p)
    rec.supports(angles)
    rec.supports(angles[::-1])
    assert sizes == [128]
    # every record equals, bit for bit, the one from stacks of at most 6
    # directions: the polish of the big stack (over 3000 seeds on the bean
    # and the lemniscate) rounds each seed as a small one does
    dirs = [(-math.cos(th), -math.sin(th)) for th in angles]
    small = [ts for i in range(0, len(dirs), 6) for ts in original(p, dirs[i:i + 6])]
    assert all(ts.line is not None for ts in small)
    for th, ts in zip(angles, small):
        assert repr(rec.support(th)) == repr(ts)


def test_egg_sweep_solves_one_stack_per_lookahead_chunk(monkeypatch):
    # chunks of 1, 2, 4, ... rows, the last one cut at n
    sizes, _ = _counted_stacks(monkeypatch)
    verdict = sweep_exactness(curves.lookup("egg").implicit, n=360)
    assert verdict.verdict == "Exact"
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 105]


def test_sweep_chunks_stay_within_the_memory_bound(monkeypatch):
    # the doubling stops at one stack of the sweep's Gram program, whose
    # size the SDP core's memory bound sets, so a fine sweep solves bounded
    # stacks
    sizes, _ = _counted_stacks(monkeypatch)
    most = sos.margins_per_stack(2)
    n = 2400
    verdict = sweep_exactness(curves.lookup("egg").implicit, n=n)
    assert verdict.verdict == "Exact"
    assert sum(sizes) == n
    assert max(sizes) == most < n // 4
    doubling = [2 ** i for i in range(most.bit_length()) if 2 ** i < most]
    assert sizes[:len(doubling)] == doubling
    assert sizes[len(doubling):-1] == [most] * (len(sizes) - len(doubling) - 1)


def test_elimination_alone_finds_the_contacts_of_multiple_resultant_roots(monkeypatch):
    # the tangency resultants have double roots at these axis directions,
    # which rounding splits off the real axis; with the curve sample of a
    # fresh record emptied, elimination still finds every contact
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    folium = curves.lookup("folium").implicit
    smooth = curves.lookup("smoothconvex").implicit
    for p in (folium, smooth):
        exactness._curve(p).__dict__["cloud"] = np.zeros((0, 2))
    # the folium's vertical bitangent x1 = 1/3 touches it at (1/3, +-sqrt(2)/3)
    # and its leftmost point is (-1, 0)
    right, left = tangent_support(folium, (1.0, 0.0)), tangent_support(folium, (-1.0, 0.0))
    assert right.value == pytest.approx(1 / 3, rel=0, abs=1e-12)
    assert len(right.points) == 2
    assert np.allclose(sorted(right.points), [(1 / 3, -math.sqrt(2) / 3),
                                              (1 / 3, math.sqrt(2) / 3)], rtol=0, atol=1e-8)
    assert left.value == pytest.approx(1.0, rel=0, abs=1e-12)
    # smoothconvex reaches its highest and lowest points where
    # x2^4 = x1 + x1^2 - 2 x1^4 is largest, at the root of 1 + 2 x1 - 8 x1^3
    t = max(r.real for r in np.roots([-8.0, 0.0, 2.0, 1.0]) if abs(r.imag) < 1e-12)
    top = (t + t * t - 2 * t ** 4) ** 0.25
    for s in (1.0, -1.0):
        res = tangent_support(smooth, (0.0, s))
        assert res.value == pytest.approx(top, rel=0, abs=1e-10)
        assert len(res.points) == 1
        assert res.points[0] == pytest.approx((t, s * top), rel=0, abs=1e-6)
        assert res.line is not None


@pytest.mark.parametrize("pt", [(0.25, 0.5), (-0.3, 0.2), (1.0, 0.0), (0.1, 0.7)])
def test_moved_bean_has_one_triple_point(pt):
    # the partials meet at the triple point with multiplicity 4, which
    # rounding splits off the real axis and into copies up to 1e-5 apart:
    # elimination finds it from every resultant root, as one point
    a, b = pt
    p = parse_poly("x1*(x1^2 + x2^2) - x1^4 - x1^2*x2^2 - x2^4".replace("x1", "X")
                   .replace("x2", f"(x2 - {b})").replace("X", f"(x1 - {a})"))
    affine = [s for s in find_singularities(p) if not s.at_infinity]
    assert len(affine) == 1
    assert affine[0].location.to_affine() == pytest.approx(pt, rel=0, abs=1e-6)
    verdict = sweep_exactness(p, n=36)
    assert verdict.verdict == "NotExact"
    assert [s.classification for s in verdict.singular_points] == ["on_boundary"]
    assert verdict.witness.normalized().coeffs == pytest.approx((-a, 1.0, 0.0),
                                                                rel=0, abs=1e-6)


def test_sweep_builds_no_curve_sample(monkeypatch):
    # the supports come from elimination alone: only curve_points reads the
    # curve sample
    monkeypatch.setattr(exactness, "_curve", functools.lru_cache(maxsize=8)(exactness._Curve))
    for name in ("egg", "bean", "smoothconvex"):
        p = curves.lookup(name).implicit
        assert not check_concave(p)
        sweep_exactness(p, n=36)
        assert "cloud" not in vars(exactness._curve(p))


@pytest.mark.parametrize("name", curves.curve_names())
def test_one_direction_support_is_its_stacked_member(name):
    # a lone live seed of the polish is summed as in a stack, so a
    # one-direction solve equals its member of a stack bit for bit
    p = curves.lookup(name).implicit
    dirs = _directions(range(0, 360, 7))
    for f, got in zip(dirs, exactness._tangent_supports(p, dirs)):
        assert repr(got) == repr(tangent_support(p, f))


def test_a_curve_of_singular_points_is_one_non_certified_record():
    # every point of the doubled circle is singular: the grid fallback's
    # samples are one point, flagged non-certified, whose JSON record is the
    # locus; nothing is classified from it, and the verdict records it once
    import json

    doubled = parse_poly("-(x1^2 + x2^2 - 1)^2")
    found = find_singularities(doubled)
    assert len(found) == 1
    assert not found[0].at_infinity and not found[0].certified
    locus = {"locus": "not isolated", "certified": False, "at_infinity": False}
    assert found[0].to_dict() == locus
    t0 = time.perf_counter()
    sing, smooth, witness = exactness.classify_boundary(doubled)
    assert time.perf_counter() - t0 < 1.0
    assert (smooth, witness) == (None, None)
    assert [s.classification for s in sing] == ["unknown"]
    verdict = sweep_exactness(doubled, n=8)
    assert json.loads(verdict.to_json())["singular_points"] == [locus]


def test_a_grid_fallback_tangency_pair_is_indeterminate():
    # on the doubled circle the tangency pair shares the circle with p:
    # elimination fails, and the grid fallback's points are no support
    doubled = parse_poly("-(x1^2 + x2^2 - 1)^2")
    with pytest.raises(IndeterminateResult, match="grid fallback"):
        tangent_support(doubled, (0.3, 0.2))
    [(_, certified)] = exactness._solve_pairs(
        (doubled, doubled.diff(1), doubled.diff(2)), np.array([[[1.0, 0, 0], [0, 0.2, -0.3]]]))
    assert not certified
    # q is constant along a curve of its critical points, so the minimizer
    # still reads the grid samples
    assert quartic_minimizer(-doubled)[1] == pytest.approx(0.0, abs=1e-12)
