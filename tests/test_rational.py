from fractions import Fraction

import numpy as np
import pytest

from quartichull import curves
from quartichull.poly import parse_poly
from quartichull.rational import (
    RationalParam,
    fermat_block_membership,
    format_affine,
    hankel_representation,
    point_mass_moments,
    rational_membership,
    validate_param,
)


def test_param_validation_against_implicit():
    bean = curves.lookup("bean")
    folium = curves.lookup("folium")
    assert validate_param(bean.param, bean.implicit)
    assert validate_param(folium.param, folium.implicit)
    # mismatched pairing is rejected
    assert not validate_param(folium.param, bean.implicit)


def test_param_validation_is_exact():
    # moving p0's constant by 1e-12 leaves the parametrization off the
    # curve, which a float expansion with a relative tolerance accepts
    folium = curves.lookup("folium")
    p0 = (folium.param.p0[0] + Fraction(1e-12),) + folium.param.p0[1:]
    moved = RationalParam(p0, folium.param.p1, folium.param.p2)
    assert not validate_param(moved, folium.implicit)


def test_param_points_lie_on_curve():
    for name in ("bean", "folium"):
        record = curves.lookup(name)
        for t in np.linspace(-5, 5, 41):
            x = record.param.point(t)
            assert abs(record.implicit(*x)) <= 1e-8 * max(1.0, sum(abs(v) for v in x)) ** 4


def test_param_constructor_validation():
    with pytest.raises(ValueError):
        RationalParam((0, 0, 0, 0, 0), (1,), (0, 1))
    with pytest.raises(ValueError):
        RationalParam((1, 0, 0, 0, 0, 1), (1,), (0, 1))


def test_point_mass_moments():
    y = point_mass_moments(2.0)
    assert list(y) == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_folium_matrix_entries():
    rep = hankel_representation(curves.lookup("folium").param)
    assert rep.retained == ("y0", "y1")
    assert rep.scale == 2
    got = [[format_affine(e) for e in row] for row in rep.scaled_entries]
    assert got == [
        ["2*y0", "2*y1", "x1 + y0"],
        ["2*y1", "x1 + y0", "x2 + y1"],
        ["x1 + y0", "x2 + y1", "2*x0 - 2*x1 - 4*y0"],
    ]


def test_bean_matrix_entries():
    rep = hankel_representation(curves.lookup("bean").param)
    assert rep.retained == ("y0", "y1")
    assert rep.scale == 1
    got = [[format_affine(e) for e in row] for row in rep.scaled_entries]
    assert got == [
        ["y0", "y1", "x1 - y0"],
        ["y1", "x1 - y0", "x2 - y1"],
        ["x1 - y0", "x2 - y1", "x0 - x1"],
    ]


def test_degenerate_param_rejected():
    # all three components proportional: rank-1 relations
    degenerate = RationalParam((1, 0, 1, 0, 0), (2, 0, 2, 0, 0), (3, 0, 3, 0, 0))
    with pytest.raises(ValueError):
        hankel_representation(degenerate)


def _random_params(rng, count, rank):
    """Seeded integer parametrizations whose coefficient rows have the given
    rank: random rows, the last 3 - rank of them combinations of the rest."""
    out = []
    while len(out) < count:
        rows = rng.integers(-3, 4, size=(3, 5))
        for r in range(rank, 3):
            rows[r] = rng.integers(-2, 3, size=rank) @ rows[:rank]
        if np.linalg.matrix_rank(rows) == rank and rows[0].any():
            out.append(RationalParam(*(tuple(int(v) for v in row) for row in rows)))
    return out


def test_elimination_is_exact():
    # every moment relation sum_a c_{r,a} y_a = x_r holds exactly in
    # Fractions after substituting the entry with i + j = a for y_a
    for param in _random_params(np.random.default_rng(11), 40, rank=3):
        rep = hankel_representation(param)
        moment = {i + j: e for i, row in enumerate(rep.entries)
                  for j, e in enumerate(row)}
        assert all(rep.entries[i][j] == moment[i + j]
                   for i in range(3) for j in range(3))
        for r, coeffs in enumerate(param.rows):
            total = {}
            for a, c in enumerate(coeffs):
                for s, v in moment[a].items():
                    total[s] = total.get(s, Fraction(0)) + c * v
            assert {s: v for s, v in total.items() if v != 0} == {f"x{r}": 1}
        assert all(v.denominator == 1 for row in rep.scaled_entries
                   for e in row for v in e.values())
        assert len(rep.retained) == 2


def test_rank_deficient_params_rejected():
    for rank in (1, 2):
        for param in _random_params(np.random.default_rng(rank), 10, rank):
            with pytest.raises(ValueError, match="rank below 3"):
                hankel_representation(param)


def test_point_mass_soundness():
    # every curve point is inside its own hull representation
    for name in ("bean", "folium"):
        record = curves.lookup(name)
        rep = hankel_representation(record.param)
        worst = 0.0
        for t in np.linspace(-8, 8, 100):
            x = record.param.point(t)
            res = rational_membership(rep, x)
            worst = min(worst, res.margin)
            assert res.inside, (name, t)
        assert worst >= -1e-7


def test_membership_known_points():
    bean = curves.lookup("bean")
    rep = hankel_representation(bean.param)
    assert rational_membership(rep, (2 / 3, 2 / 3)).inside
    res = rational_membership(rep, (-0.2, 0.0))
    assert not res.inside
    assert res.margin < -1e-3

    folium = curves.lookup("folium")
    repf = hankel_representation(folium.param)
    assert rational_membership(repf, (0.0, 0.0)).inside
    assert not rational_membership(repf, (1.0, 1.0)).inside


def test_matrix_at_is_psd_inside():
    bean = curves.lookup("bean")
    rep = hankel_representation(bean.param)
    res = rational_membership(rep, (0.5, 0.1))
    assert res.inside
    M = rep.matrix_at((0.5, 0.1), res.liftings)
    assert np.linalg.eigvalsh(M)[0] >= -1e-6


def test_fermat_blocks():
    assert fermat_block_membership((0.0, 0.0)).inside
    assert fermat_block_membership((1.0, 0.0)).inside
    res = fermat_block_membership((1.0, 1.0))
    assert not res.inside
    assert res.margin == pytest.approx(1 - np.sqrt(2.0), abs=1e-12)
    # the margin is exact: boundary points sit at zero
    s = (1.0 / (0.6**4 + 1.0)) ** 0.25
    onb = fermat_block_membership((s * 0.6, s))
    assert abs(onb.margin) <= 1e-12


def test_format_affine():
    assert format_affine({"x0": Fraction(1), "y0": Fraction(-2)}) == "x0 - 2*y0"
    assert format_affine({}) == "0"
    assert format_affine({"x1": Fraction(1, 2)}) == "1/2*x1"


def test_membership_reads_the_solve_status(monkeypatch):
    # an unbounded margin program is inside with an infinite margin; any
    # other status but Optimal cannot decide
    import math

    from quartichull import rational
    from quartichull.sdp import SdpSolution
    from quartichull.sos import IndeterminateResult

    rep = hankel_representation(curves.lookup("folium").param)
    status = {}

    def stub(prob, c, F0, eq_b):
        return SdpSolution(status=status["now"], z=None, duals=None,
                           violation=math.inf, message="stubbed")

    monkeypatch.setattr(rational, "solve", stub)
    status["now"] = "Unbounded"
    res = rational_membership(rep, (0.1, 0.1))
    assert (res.inside, res.margin, res.liftings) == (True, math.inf, None)
    status["now"] = "Numerical"
    with pytest.raises(IndeterminateResult, match="returned Numerical: stubbed"):
        rational_membership(rep, (0.1, 0.1))


def test_point_where_p0_vanishes():
    param = RationalParam((-1, 0, 1), (0, 1), (0, 0, 1))  # p0 = t^2 - 1
    assert param.point(2.0) == pytest.approx((2 / 3, 4 / 3))
    with pytest.raises(ZeroDivisionError, match="p0 vanishes"):
        param.point(1.0)


def test_validate_param_needs_a_quartic():
    folium = curves.lookup("folium")
    with pytest.raises(ValueError, match="degree 4"):
        validate_param(folium.param, parse_poly("x1^3 - x2^2"))
