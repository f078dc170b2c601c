import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartichull import curves
from quartichull.poly import (
    BivarPoly,
    PolyParseError,
    ProjPoint,
    SupportLine,
    comparison_quartic,
    format_poly,
    gradient,
    hessian,
    monomials_upto,
    parse_poly,
    _definite_sign,
    _dense,
    _q,
    _real_root_count,
    _resultant_stack,
    _squarefree,
    real_roots,
    resultant,
)

coeffs = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def small_polys(max_degree=4):
    pairs = [(a, b) for a, b in monomials_upto(max_degree)]

    def build(cs):
        return BivarPoly({e: c for e, c in zip(pairs, cs)})

    return st.lists(coeffs, min_size=len(pairs), max_size=len(pairs)).map(build)


def test_basic_arithmetic():
    x1, x2 = BivarPoly.var(1), BivarPoly.var(2)
    p = (x1 + x2) ** 2
    assert p.coeff(2, 0) == 1.0
    assert p.coeff(1, 1) == 2.0
    assert p.coeff(0, 2) == 1.0
    assert (p - p).is_zero()
    assert (x1 ** 0)(3.0, 4.0) == 1.0
    assert p.degree == 2
    assert BivarPoly().degree == -1


def test_monomials_upto_counts():
    assert len(monomials_upto(2)) == 6
    assert len(monomials_upto(4)) == 15
    # graded order: degree never decreases along the list
    degs = [a + b for a, b in monomials_upto(5)]
    assert degs == sorted(degs)


@given(small_polys())
@settings(max_examples=50, deadline=None)
def test_parse_format_round_trip(p):
    # printing keeps 12 significant digits, so round-tripping is 1e-10 exact
    q = parse_poly(format_poly(p))
    assert q.allclose(p, tol=1e-10)


def test_parse_errors():
    for bad in ("x3", "x1 +", "2**x1", "(x1", "x1^", "", "x0", "x0 - x0 + x1"):
        with pytest.raises((PolyParseError, ValueError)):
            parse_poly(bad)


def test_runaway_power_is_refused_before_expansion():
    # expanded, the first takes about 10 s, and the power loop would run
    # 10^9 times on the second; the degree bound refuses both first
    for text in ("(x1 + x2 + 1)^400", "2^1000000000"):
        t0 = time.perf_counter()
        with pytest.raises(PolyParseError):
            parse_poly(text)
        assert time.perf_counter() - t0 < 0.5
    assert parse_poly("(x1^2 + x2)^16").degree == 32


def test_parse_powers_and_products():
    p = parse_poly("1 - 8*x1^2 - (x1^2 - x2)^2")
    assert p.coeff(0, 0) == 1.0
    assert p.coeff(2, 0) == -8.0
    assert p.coeff(4, 0) == -1.0
    assert p.coeff(2, 1) == 2.0
    assert p.coeff(0, 2) == -1.0


@given(small_polys(), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=50, deadline=None)
def test_gradient_matches_finite_differences(p, x1, x2):
    g1, g2 = gradient(p)
    h = 1e-6
    fd1 = (p(x1 + h, x2) - p(x1 - h, x2)) / (2 * h)
    fd2 = (p(x1, x2 + h) - p(x1, x2 - h)) / (2 * h)
    scale = max(1.0, p.coeff_norm()) * 100
    assert abs(g1(x1, x2) - fd1) <= 1e-6 * scale
    assert abs(g2(x1, x2) - fd2) <= 1e-6 * scale


def test_hessian_symmetry_and_values():
    p = parse_poly("x1^3*x2 + x2^4")
    H = hessian(p)
    assert H[0][1] == H[1][0]
    assert H[0][0](2.0, 1.0) == 12.0  # 6*x1*x2
    assert H[1][1](0.0, 1.0) == 12.0  # 12*x2^2


def test_resultant_vanishes_at_common_roots():
    # a and b share the point (1, 2)
    a = parse_poly("(x1 - 1)*(x2 - 2) + (x1 - 1)^2")
    b = parse_poly("(x1 - 1) + (x2 - 2)^2")
    r = resultant(a, b, axis=1)  # polynomial in x2
    val = np.polynomial.polynomial.polyval(2.0, r)
    assert abs(val) <= 1e-6 * max(1.0, np.max(np.abs(r)))


def test_resultant_nonzero_for_disjoint_curves():
    a = parse_poly("x1^2 + x2^2 - 1")
    b = parse_poly("x1^2 + x2^2 - 4")
    r = resultant(a, b, axis=1)
    assert not real_roots(r)


def test_real_roots_known():
    # (t - 1)(t + 2)(t^2 + 1)
    q = np.polynomial.polynomial.polyfromroots([1.0, -2.0, 1j, -1j]).real
    roots = real_roots(q)
    assert roots == pytest.approx([-2.0, 1.0], abs=1e-9)


def test_real_roots_double_root():
    # a double root may come back as one merged root or a split pair,
    # but nothing spurious appears and both locations are hit
    q = np.polynomial.polynomial.polyfromroots([0.5, 0.5, -3.0]).real
    roots = real_roots(q)
    assert all(min(abs(r + 3.0), abs(r - 0.5)) <= 1e-6 for r in roots)
    assert any(abs(r + 3.0) <= 1e-6 for r in roots)
    assert any(abs(r - 0.5) <= 1e-6 for r in roots)


def test_proj_point_normalization():
    pt = ProjPoint((2.0, 4.0, -6.0))
    assert pt.normalized().coords == (1.0, 2.0, -3.0)
    assert not pt.at_infinity
    assert pt.to_affine() == (2.0, -3.0)
    inf = ProjPoint((0.0, 1.0, 0.0))
    assert inf.at_infinity
    with pytest.raises(ValueError):
        inf.to_affine()
    with pytest.raises(ValueError):
        ProjPoint((0.0, 0.0, 0.0))


def test_support_line_normalization():
    line = SupportLine((2.0, 0.0, -2.0))
    n = line.normalized()
    assert n.coeffs == pytest.approx((1.0, 0.0, -1.0))
    assert line(0.5, 0.25) == pytest.approx(1.5)
    assert n.close_to(SupportLine((4.0, 0.0, -4.0)).normalized())


def test_comparison_quartic():
    p = parse_poly("1 - x1^4 - x2^4")
    f = SupportLine((2.0, 0.0, -2.0))
    pf = comparison_quartic(f, p)
    # f(x) - p(x) at a sample point
    assert pf(0.5, 0.5) == pytest.approx((2 - 2 * 0.5) - p(0.5, 0.5))


def test_stacked_resultants_and_roots_equal_one_member_calls():
    # pairs of different Sylvester shapes and degrees in one stack; each
    # member equals its one-pair call bit for bit
    pairs = [(parse_poly("x1^4 + x2^4 - 1"), parse_poly("x1^3 - 2*x2^3 + x1")),
             (parse_poly("x1^2 + x2^2 - 1"), parse_poly("x1 - x2")),
             (parse_poly("x1^3 - x2^2"), parse_poly("3*x1^2 + 0.5*x2")),
             (parse_poly("x1^4 + x2^4 - 1"), parse_poly("x1^3 + x1"))]
    ca = np.array([_dense(a, 4).T for a, _ in pairs])
    cb = np.array([_dense(b, 4).T for _, b in pairs])
    stacked = _resultant_stack(ca, cb)
    for (a, b), r in zip(pairs, stacked):
        assert np.array_equal(r, resultant(a, b, axis=2))
    assert any(any(abs(t) <= 50.0 for t in real_roots(r)) for r in stacked)


def test_resultants_have_the_bezout_degree():
    # a tangency pair (quartic, cubic) has a resultant of degree at most 12,
    # the partials (cubic, cubic) one of degree at most 9: interpolating at
    # a higher degree leaves rounding in the coefficients above, whose
    # roots are not roots of the system
    for record in curves.registry():
        p = record.implicit
        d1, d2 = p.diff(1), p.diff(2)
        for th in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
            q = d1 * math.sin(th) - d2 * math.cos(th)
            for axis in (1, 2):
                r = resultant(p, q, axis)
                assert np.flatnonzero(r).max() <= 12, (record.name, th, axis)
        for axis in (1, 2):
            assert np.flatnonzero(resultant(d1, d2, axis)).max() <= 9, record.name


def test_squarefree_parts_and_root_counts_are_exact():
    # (t - 1)^2 (t + 2) (t^2 + 1), from its float coefficients
    a = _q(np.polynomial.polynomial.polyfromroots([1, 1, -2, 1j, -1j]).real)
    assert _squarefree(a) == _q(np.polynomial.polynomial.polyfromroots([1, -2, 1j, -1j]).real)
    assert _real_root_count(a) == 2
    assert _real_root_count(_q([1.0, 0.0, 1.0])) == 0
    assert _real_root_count(_q([3.0])) == 0


@pytest.mark.parametrize("text, sign", [
    ("x1^4 + x2^4", 1), ("-(x1^2 + x2^2)^2", -1), ("x1^2 + x1*x2 + x2^2", 1),
    ("-x1^4", 0), ("-(x1^2 - x2)^2", 0), ("-(x1 - 2*x2)^2*(x1 + x2)^2", 0),
    ("x1^4 + x2^4 - 2*x1^2*x2^2", 0), ("x1^4 + x1*x2^3", 0), ("x1^3 + x2^3", 0),
    ("0", 0),
])
def test_definite_sign_of_a_binary_form(text, sign):
    p = parse_poly(text)
    assert _definite_sign(p.graded_part(p.degree)) == sign
