import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartichull import curves, sos
from quartichull.moments import build_moment_matrix, point_moments
from quartichull.poly import (
    BivarPoly,
    SupportLine,
    comparison_quartic,
    monomials_upto,
    parse_poly,
)
from quartichull.sos import (
    FEAS_MARGIN,
    IndeterminateResult,
    certify_in_fk,
    nonneg_quartic,
    sos_decompose,
    sos_margin,
)

fl = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


def _eval_squares(cert, x1, x2):
    return sum(s(x1, x2) ** 2 for s in cert.squares)


def test_sos_margin_signs():
    x1, x2 = BivarPoly.var(1), BivarPoly.var(2)
    assert sos_margin((x1**2 + x2**2 - 1) ** 2, 2) >= -FEAS_MARGIN
    # over the quadratic basis the Gram matrix is the identity, margin 1
    assert sos_margin(x1**2 + x2**2 + 1, 1) == pytest.approx(1.0, abs=1e-6)
    # indefinite quartic
    assert sos_margin(x1**2 * x2**2 - x1**2 - x2**2, 2) < -1e-3


def _face_rows(q, k=2):
    """The Gram rows that sos_margin keeps for q, as monomials."""
    rows = sos._gram_face(k, tuple(q.coeff(*s) != 0 for s in monomials_upto(2 * k)))
    basis = monomials_upto(k)
    return basis if rows is None else [basis[i] for i in rows]


def test_face_of_a_form_keeps_the_quadratic_rows():
    # x1^4 + x2^4 has zero coefficients at 1, x1^2 and x2^2, reached only by
    # the rows 1, x1 and x2; x1^2 x2^2 is zero too, but x1^2 * x2^2 reaches
    # it besides x1x2 * x1x2
    q = parse_poly("x1^4 + x2^4")
    assert _face_rows(q) == [(2, 0), (1, 1), (0, 2)]
    # Gram [[1, 0, g], [0, -2g, 0], [g, 0, 1]] is best at g = -1/3
    assert sos_margin(q, 2) == pytest.approx(2 / 3, abs=1e-6)
    # the zero target keeps every row (a face of none has no margin)
    assert sos_margin(BivarPoly(), 2) == pytest.approx(0.0, abs=1e-6)


def test_face_keeps_a_row_that_alone_reaches_a_nonzero_coefficient():
    # x2^4 is zero and only x2^2 * x2^2 reaches it, but x1*x2^3 is reached
    # only by x1x2 * x2^2: the row x2^2 stays, and the failing margin is a
    # number, not an inconsistent equality system
    q = parse_poly("x1^4 + x1*x2^3 + x1^2")
    assert (0, 2) in _face_rows(q)
    assert (0, 0) not in _face_rows(q) and (0, 1) not in _face_rows(q)
    m = sos_margin(q, 2)
    assert np.isfinite(m) and m < -FEAS_MARGIN


@given(st.lists(fl, min_size=6, max_size=6))
@settings(max_examples=25, deadline=None)
def test_sos_decompose_soundness(cs):
    # random sums of two squares of quadratics are certified and reconstructed
    q1 = BivarPoly({(0, 0): cs[0], (1, 0): cs[1], (0, 1): cs[2]})
    q2 = BivarPoly({(2, 0): cs[3], (1, 1): cs[4], (0, 2): cs[5]})
    q = q1 * q1 + q2 * q2
    if q.coeff_norm() < 1e-6:
        return
    cert = sos_decompose(q, 2)
    assert cert is not None
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, x2 = rng.uniform(-1, 1, 2)
        ref = q(x1, x2)
        assert _eval_squares(cert, x1, x2) == pytest.approx(
            ref, abs=1e-5 * max(1.0, q.coeff_norm()))


def test_sos_decompose_rejects_indefinite():
    q = parse_poly("x1^2 - x2^2")
    assert sos_decompose(q, 1) is None


def test_nonneg_quartic_exact_on_bivariate_quartics():
    # nonnegative bivariate quartics are sums of squares, so the test is exact
    assert nonneg_quartic(parse_poly("(x1^2 + x2^2 - 1)^2"))
    assert nonneg_quartic(parse_poly("x1^4 + x2^4"))
    assert not nonneg_quartic(parse_poly("x1^4 + x2^4 - 1"))
    assert not nonneg_quartic(parse_poly("x1^3"))
    assert nonneg_quartic(BivarPoly())  # zero polynomial


def test_certificate_soundness_500_points():
    p = curves.lookup("egg").implicit
    cert = certify_in_fk(SupportLine((2.0, 0.0, -2.0)), p, 2)
    assert cert is not None
    # f - s1 * p must equal the sum of squares everywhere
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, (500, 2))
    for x1, x2 in X:
        lhs = 2.0 - 2.0 * x2 - cert.multiplier(x1, x2) * p(x1, x2)
        assert _eval_squares(cert, x1, x2) == pytest.approx(lhs, abs=1e-4)


def test_certificates_pair_with_the_moment_matrix():
    # <gram, M_k(y)> at the moments y of a Dirac mass at x is s0(x), so with
    # s1(x) p(x) it gives the target at x: the Gram basis and the moment
    # matrix index the same monomials
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        basis = monomials_upto(k)
        q = BivarPoly()
        for _ in range(2):
            s = BivarPoly({e: c for e, c in zip(basis, rng.normal(size=len(basis)))})
            q = q + s * s
        certs = [(sos_decompose(q, k), BivarPoly())]
        for record in curves.registry():
            p = record.implicit
            certs.append((certify_in_fk((3.0, 1.0, 0.0), p, k), p))
        for cert, p in certs:
            assert cert is not None
            for x1, x2 in rng.uniform(-1, 1, (5, 2)):
                M = build_moment_matrix(k).evaluate(point_moments(k, x1, x2))
                value = np.sum(cert.gram * M) + cert.multiplier(x1, x2) * p(x1, x2)
                assert value == pytest.approx(cert.target(x1, x2), abs=1e-6)


def test_certify_constant_function():
    # the constant 1 dominates the egg region: 1 - p is itself SOS
    p = curves.lookup("egg").implicit
    cert = certify_in_fk(SupportLine((1.0, 0.0, 0.0)), p, 2)
    assert cert is not None


def test_certify_in_fk_infeasible_direction():
    # the bean's hull is not supported from direction (0, 1, 0) at level 0
    p = curves.lookup("bean").implicit
    assert certify_in_fk(SupportLine((0.0, 1.0, 0.0)), p, 2) is None


def test_margin_monotone_in_order():
    # enlarging the Gram basis cannot shrink the margin
    q = parse_poly("(x1^2 + x2^2 - 1)^2 + x1^2")
    m2 = sos_margin(q, 2)
    m3 = sos_margin(q, 3)
    assert m3 >= m2 - 1e-6


def test_degree_validation():
    with pytest.raises(ValueError):
        sos_decompose(parse_poly("x1^6"), 2)
    with pytest.raises(ValueError):
        certify_in_fk((1.0, 0.0, 0.0), curves.lookup("egg").implicit, 1)


def test_comparison_quartic_margin_tracks_exactness():
    # gradient-scaled tangent line of the concave fermat region at (-1, 0):
    # f - p is globally nonnegative (touching zero at the contact point)
    p = curves.lookup("fermat").implicit
    pf = comparison_quartic(SupportLine((4.0, 4.0, 0.0)), p)
    assert nonneg_quartic(pf)
    assert pf(-1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the same line at unit scaling dips negative: the scaling matters
    assert not nonneg_quartic(comparison_quartic(SupportLine((1.0, 1.0, 0.0)), p))


def test_refine_hands_back_a_gram_it_cannot_snap():
    # no V V' has a negative constant coefficient, so Gauss-Newton levels
    # off at every rank and the interior-point Gram comes back unchanged,
    # as for certify_in_fk((2, 0, -2), egg, 6)
    G, s1 = np.eye(3), np.zeros(0)
    target = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    out = sos._refine_lowrank(G, s1, np.zeros((0, 6)), target, build_moment_matrix(1).sums)
    assert out[0] is G and out[1] is s1


def test_an_undecided_gram_solve_raises(monkeypatch):
    from quartichull.sdp import SdpSolution

    def undecided(prob, c, F0, b):
        return [SdpSolution("Numerical", None, None, float("inf"), message="stub")] * len(b)

    monkeypatch.setattr(sos, "solve_stack", undecided)
    q = parse_poly("1 + x1^2 + x2^2")
    with pytest.raises(IndeterminateResult, match="Numerical: stub"):
        sos_decompose(q, 2)
    with pytest.raises(IndeterminateResult, match="Numerical: stub"):
        sos_margin(q, 2)


def test_margins_and_the_quartic_test_check_degrees():
    quintic = parse_poly("x1^5")
    with pytest.raises(ValueError, match="exceeds 2k"):
        sos.sos_margins([quintic], 2)
    with pytest.raises(ValueError, match="degree must be <= 4"):
        nonneg_quartic(quintic)
