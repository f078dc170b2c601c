"""End-to-end acceptance gate.

Each test covers one headline reproduction and prints a single PASS line on
success (pytest reports the failure line otherwise). Expensive sweeps come
from the shared session fixtures in conftest.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial import Delaunay

from quartichull import curves, exactness, rational, relaxation
from quartichull.poly import SupportLine, comparison_quartic
from quartichull.rational import format_affine
from quartichull.sos import certify_in_fk, nonneg_quartic

from conftest import sweep_verdict


def _ok(n, label):
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_egg_exactness(egg_verdict):
    verdict, elapsed = egg_verdict
    assert verdict.verdict == "Exact"
    assert elapsed < 30.0, f"egg sweep took {elapsed:.1f}s"

    p = curves.lookup("egg").implicit
    f = SupportLine((2.0, 0.0, -2.0))
    cert = certify_in_fk(f, p, 2)
    assert cert is not None

    # reconstruction: s0 + s1 * p has the coefficients of f
    s0 = sum(s * s for s in cert.squares)
    recon = s0 + cert.multiplier * p
    diff = recon - f.affine_poly()
    assert diff.coeff_norm() < 1e-6

    # the decomposition evaluates as (1 - x2 + x1^2)^2 + 6 x1^2
    rng = np.random.default_rng(17)
    for _ in range(100):
        x1, x2 = rng.uniform(-2, 2, 2)
        ref = (1 - x2 + x1**2) ** 2 + 6 * x1**2
        got = sum(s(x1, x2) ** 2 for s in cert.squares)
        assert got == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))
    _ok(1, "egg exactness and SOS certificate")


def test_criterion_2_bean_witness(bean_verdict):
    verdict, _ = bean_verdict
    assert verdict.verdict == "NotExact"
    d = verdict.witness.normalized().direction
    assert math.hypot(d[0] - 1.0, d[1]) < 1e-6

    found = exactness.find_singularities(curves.lookup("bean").implicit)
    assert len(found) == 1
    x1, x2 = found[0].location.to_affine()
    assert math.hypot(x1, x2) < 1e-8
    assert found[0].residual_p < 1e-8
    assert found[0].residual_grad < 1e-8
    _ok(2, "bean witness direction and singularity")


def test_criterion_3_bean_bound_sequence(bean_bounds):
    rows, elapsed = bean_bounds
    assert elapsed < 300.0, f"bound sequence took {elapsed:.1f}s"
    bounds = {k: v for k, v, _ in rows}
    assert bounds[2] == pytest.approx(-0.1315, abs=5e-3)
    assert bounds[3] == pytest.approx(-0.02915, abs=5e-3)
    assert bounds[4] == pytest.approx(-0.009705, abs=5e-3)
    for k in range(5, 9):
        assert -0.02 <= bounds[k] <= 0.0, k
    for k in range(3, 9):
        assert bounds[k] >= bounds[k - 1] - 1e-5, k
    _ok(3, "bean bound sequence k=2..8")


def test_criterion_4_folium_counterexample():
    p = curves.lookup("folium").implicit
    f = SupportLine((1.0, 0.75, 3 * math.sqrt(2) / 2))
    pf = comparison_quartic(f, p)
    assert not nonneg_quartic(pf)
    x, val = exactness.quartic_minimizer(pf)
    assert val < 0
    assert math.hypot(x[0] - 0.2040, x[1] + 0.8762) < 1e-3

    # relaxation nesting with a strict gap at some angle; the gap peaks
    # opposite the bitangent normal, so include that direction in the sweep
    n = math.hypot(0.75, 3 * math.sqrt(2) / 2)
    dirs = [(-0.75 / n, -3 * math.sqrt(2) / 2 / n)]
    dirs += [(math.cos(2 * math.pi * j / 16), math.sin(2 * math.pi * j / 16))
             for j in range(16)]
    gap = 0.0
    for u in dirs:
        v2 = relaxation.support(p, 2, u).value
        v3 = relaxation.support(p, 3, u).value
        assert v3 <= v2 + 1e-6, u
        gap = max(gap, v2 - v3)
    assert gap > 1e-3
    _ok(4, "folium bitangent counterexample and strict nesting")


def test_criterion_5_lemniscate(lemniscate_verdict):
    verdict, _ = lemniscate_verdict
    assert verdict.verdict == "Exact"
    assert len(verdict.singular_points) == 1
    assert verdict.singular_points[0].classification == "interior"
    _ok(5, "lemniscate exact with interior node")


def test_criterion_6_smoothconvex(smoothconvex_verdict):
    verdict, _ = smoothconvex_verdict
    assert verdict.verdict == "NotExact"
    d = verdict.witness.normalized().direction
    assert math.hypot(d[0] - 1.0, d[1]) < 1e-6

    p = curves.lookup("smoothconvex").implicit
    assert exactness.find_singularities(p) == []
    # the comparison quartic of the witness dips negative on the x2 = 0 line
    pf = comparison_quartic(verdict.witness, p)
    xs = np.linspace(-1.5, 1.5, 601)
    assert np.min(pf.eval_many(xs, np.zeros_like(xs))) < -1e-6
    _ok(6, "smooth convex curve fails without singularities")


# --- criterion 7 helpers -----------------------------------------------------


def _hankel_pieces(rep):
    """Split the 3x3 affine matrix into constant/x1/x2 parts and the
    retained-moment coefficient matrices."""
    parts = {s: np.zeros((3, 3)) for s in ("x0", "x1", "x2") + rep.retained}
    for i in range(3):
        for j in range(3):
            for s, c in rep.entries[i][j].items():
                parts[s][i, j] += float(c)
    base = parts["x0"]
    return base, parts["x1"], parts["x2"], [parts[s] for s in rep.retained]


def _fast_margin(pieces, x, seed):
    """max over the liftings of the smallest eigenvalue, by direct concave
    maximization; orders of magnitude faster than the interior-point path."""
    base, mx1, mx2, G = pieces
    F0 = base + x[0] * mx1 + x[1] * mx2

    def neg_lmin(y):
        M = F0 + y[0] * G[0] + y[1] * G[1]
        return -np.linalg.eigvalsh(M)[0]

    best = minimize(neg_lmin, np.asarray(seed, dtype=float),
                    method="Nelder-Mead",
                    options=dict(xatol=1e-8, fatol=1e-9, maxiter=400))
    return -best.fun


def _atom_moments(param, t):
    p0 = sum(float(c) * t**a for a, c in enumerate(param.p0))
    return rational.point_mass_moments(t) / p0


def _moment_seed(param, rep, ts, pts, x):
    """Retained-moment witness from the nearest curve atom."""
    i = int(np.argmin(np.sum((pts - x) ** 2, axis=1)))
    keep = [int(s[1]) for s in rep.retained]
    return _atom_moments(param, ts[i])[keep]


def _barycentric_witness(param, rep, hull, ts, x, simplex):
    """Feasible retained moments for a point inside the sampled hull: the
    barycentric mixture of the containing simplex's curve atoms. Exhibiting
    any feasible lifting decides membership without optimization."""
    T = hull.transform[simplex]
    b = T[:2] @ (np.asarray(x) - T[2])
    w = np.append(b, 1.0 - b.sum())
    y_full = sum(wi * _atom_moments(param, ts[j])
                 for wi, j in zip(w, hull.simplices[simplex]))
    keep = [int(s[1]) for s in rep.retained]
    return y_full[keep]


def test_criterion_7_rational_representations():
    folium = curves.lookup("folium")
    repf = rational.hankel_representation(folium.param)
    assert [[format_affine(e) for e in row] for row in repf.scaled_entries] == [
        ["2*y0", "2*y1", "x1 + y0"],
        ["2*y1", "x1 + y0", "x2 + y1"],
        ["x1 + y0", "x2 + y1", "2*x0 - 2*x1 - 4*y0"],
    ]
    bean = curves.lookup("bean")
    repb = rational.hankel_representation(bean.param)
    got = [[format_affine(e) for e in row] for row in repb.scaled_entries]
    assert got[0] == ["y0", "y1", "x1 - y0"]
    assert got[1] == ["y1", "x1 - y0", "x2 - y1"]
    assert got[2][:2] == ["x1 - y0", "x2 - y1"]
    # the corner entry is the derived value
    assert got[2][2] == "x0 - x1"

    rng = np.random.default_rng(5)
    for record, rep in ((bean, repb), (folium, repf)):
        pieces = _hankel_pieces(rep)
        ts = np.tan(np.linspace(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 10000))
        pts = np.array([record.param.point(t) for t in ts])
        hull = Delaunay(pts)

        # cross-validate the fast margin against the interior-point one
        lo = pts.min(axis=0) - 0.3
        hi = pts.max(axis=0) + 0.3
        for _ in range(40):
            x = rng.uniform(lo, hi)
            slow = rational.rational_membership(rep, x)
            seed = _moment_seed(record.param, rep, ts, pts, x)
            fast = _fast_margin(pieces, x, seed)
            assert fast == pytest.approx(slow.margin, abs=1e-5)

        # 200x200 grid: zero disagreements outside the 1e-4 slack band
        g1 = np.linspace(lo[0], hi[0], 200)
        g2 = np.linspace(lo[1], hi[1], 200)
        disagreements = 0
        for x1 in g1:
            for x2 in g2:
                x = np.array([x1, x2])
                simplex = int(hull.find_simplex(x))
                if simplex >= 0:
                    # oracle-inside: the barycentric atom mixture is a
                    # feasible lifting, so the Hankel test accepts too
                    y = _barycentric_witness(record.param, rep, hull, ts, x,
                                             simplex)
                    F0 = pieces[0] + x1 * pieces[1] + x2 * pieces[2]
                    lmin = np.linalg.eigvalsh(
                        F0 + y[0] * pieces[3][0] + y[1] * pieces[3][1])[0]
                    if lmin < -1e-9:
                        disagreements += 1
                    continue
                # oracle-outside: the Hankel margin must not be positive
                # beyond the slack band around the boundary
                seed = _moment_seed(record.param, rep, ts, pts, x)
                margin = _fast_margin(pieces, x, seed)
                if margin > 1e-4:
                    disagreements += 1
        assert disagreements == 0, record.name
    _ok(7, "two-lifting Hankel matrices and hull agreement")


def test_criterion_8_fermat(fermat_verdict):
    verdict, _ = fermat_verdict
    assert verdict.verdict == "Exact"
    grid = np.linspace(-1.2, 1.2, 101)
    for x1 in grid:
        for x2 in grid:
            pred = x1**4 + x2**4 <= 1.0
            res = rational.fermat_block_membership((x1, x2))
            if abs(res.margin) <= 1e-9:
                continue
            assert res.inside == pred, (x1, x2)
    _ok(8, "fermat block representation matches the quartic ball")


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(23)

    # hierarchy nesting P3 within P2, 50 points per curve
    for record in curves.registry():
        p = record.implicit
        cloud = exactness.curve_points(p)
        lo = cloud.min(axis=0) - 0.3
        hi = cloud.max(axis=0) + 0.3
        for _ in range(50):
            x = rng.uniform(lo, hi)
            try:
                r3 = relaxation.membership(p, 3, x)
                r2 = relaxation.membership(p, 2, x)
            except Exception:
                continue  # solver hiccup on a single point is not a nesting failure
            if abs(r3.margin) < 1e-5 or abs(r2.margin) < 1e-5:
                continue
            if r3.inside:
                assert r2.inside, (record.name, x)

    # point-mass identities at 10^3 random points
    from quartichull.moments import build_moment_matrix, monomial_vector, point_moments
    form = build_moment_matrix(2)
    for _ in range(1000):
        x1, x2 = rng.uniform(-3, 3, 2)
        y = point_moments(2, x1, x2)
        M = form.evaluate(y)
        v = monomial_vector(2, x1, x2)
        assert np.max(np.abs(M - np.outer(v, v))) <= 1e-10 * max(1.0, np.max(np.abs(M)))

    # weak duality on every logged iterate of a representative solve
    sol = relaxation.membership(curves.lookup("egg").implicit, 2, (0.1, 0.2)).solution
    assert sol.iterates
    for rec in sol.iterates:
        assert rec["gap"] >= 0.0
        # duality-gap leakage scales with the residuals times the iterate
        # norms, which are not logged; budget them generously
        slack = 1e-4 * (1 + abs(rec["pobj"]) + abs(rec["dobj"]))
        slack += 1e4 * (rec["rp"] + rec["rd"])
        assert rec["pobj"] - rec["dobj"] >= -slack

    # gradients against central finite differences
    from quartichull.poly import gradient
    for record in curves.registry():
        g1, g2 = gradient(record.implicit)
        for _ in range(50):
            x1, x2 = rng.uniform(-1.5, 1.5, 2)
            h = 1e-6
            fd1 = (record.implicit(x1 + h, x2) - record.implicit(x1 - h, x2)) / (2 * h)
            fd2 = (record.implicit(x1, x2 + h) - record.implicit(x1, x2 - h)) / (2 * h)
            scale = max(1.0, record.implicit.coeff_norm()) * 100
            assert abs(g1(x1, x2) - fd1) <= 1e-6 * scale
            assert abs(g2(x1, x2) - fd2) <= 1e-6 * scale

    elapsed = time.time() - t0
    assert elapsed < 600.0, f"property suites took {elapsed:.1f}s"
    _ok(9, "hierarchy nesting, moment identities, duality, gradients")
