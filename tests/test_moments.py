import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartichull import curves
from quartichull.moments import (
    MomentIndex,
    build_localizing_matrix,
    build_moment_matrix,
    localizing_constraints,
    monomial_vector,
    point_moments,
)
from quartichull.poly import monomials_upto

pts = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


def test_index_counts():
    assert len(MomentIndex(2)) == 15
    assert len(MomentIndex(3)) == 28
    idx = MomentIndex(2)
    # pinned coordinates sit at the front in graded order
    assert idx.pairs[0] == (0, 0)
    assert idx.pairs[1] == (1, 0)
    assert idx.pairs[2] == (0, 1)


@given(pts, pts, st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_point_mass_moment_matrix_is_rank_one(x1, x2, k):
    y = point_moments(k, x1, x2)
    M = build_moment_matrix(k).evaluate(y.values)
    v = monomial_vector(k, x1, x2)
    assert np.max(np.abs(M - np.outer(v, v))) <= 1e-10 * max(1.0, np.max(np.abs(M)))


def test_point_mass_identities_bulk():
    # moments of Dirac masses satisfy every localizing row of their own curve
    rng = np.random.default_rng(11)
    form2 = build_moment_matrix(2)
    for record in curves.registry():
        p = record.implicit
        rows = localizing_constraints(p, 2)
        # random curve points from vertical slices
        checked = 0
        for _ in range(400):
            if checked >= 125:
                break
            x1 = rng.uniform(-1.5, 1.5)
            coeffs = p.univariate_in(2, x1)
            for r in np.polynomial.polynomial.polyroots(coeffs):
                if abs(r.imag) > 1e-10:
                    continue
                y = point_moments(2, x1, float(r.real))
                for row in rows:
                    val = sum(c * y.values[pos] for pos, c in row.items())
                    assert abs(val) <= 1e-10 * max(1.0, np.max(np.abs(y.values)))
                checked += 1
        assert checked >= 50, record.name


@given(pts, pts)
@settings(max_examples=50, deadline=None)
def test_localizing_matrix_vanishes_on_curve(x1, x2):
    p = curves.lookup("fermat").implicit
    # project the sample onto the curve along rays: scale so p = 0
    r = (x1**2 + x2**2) ** 0.5
    if r < 1e-3:
        return
    s = (1.0 / (x1**4 + x2**4)) ** 0.25
    cx, cy = s * x1, s * x2
    y = point_moments(2, cx, cy)
    L = build_localizing_matrix(p, 2).evaluate(y.values)
    assert np.max(np.abs(L)) <= 1e-8 * max(1.0, np.max(np.abs(y.values)))


def test_localizing_constraints_deduplicate():
    p = curves.lookup("egg").implicit
    rows = localizing_constraints(p, 2)
    # one row per monomial of degree <= 0 at k=2
    assert len(rows) == 1
    rows3 = localizing_constraints(p, 3)
    assert len(rows3) == 6


def test_localizing_matrix_entries_are_localizing_rows():
    # entry (u, v) of M_{k-2}(p y) is the localizing row of the monomial sum
    # u + v applied to y: both read one monomial-product index
    rng = np.random.default_rng(3)
    for record in curves.registry():
        p = record.implicit
        for k in (2, 3, 4):
            y = rng.normal(size=len(MomentIndex(k)))
            L = build_localizing_matrix(p, k).evaluate(y)
            rows = localizing_constraints(p, k)
            sums = monomials_upto(2 * (k - 2))
            basis = monomials_upto(k - 2)
            assert L.shape == (len(basis), len(basis))
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    row = rows[sums.index((u[0] + v[0], u[1] + v[1]))]
                    expect = sum(c * y[pos] for pos, c in row.items())
                    assert L[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_degree_validation():
    with pytest.raises(ValueError):
        build_moment_matrix(0)
    with pytest.raises(ValueError):
        build_localizing_matrix(curves.lookup("egg").implicit, 1)
