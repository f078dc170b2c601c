"""Decision procedures for whether the first relaxation already equals the
convex hull: concavity fast path, singularity search and classification,
tangent support over the curve, and the supporting-line angle sweep.

The sweep tests, for every sampled supporting direction, whether the
comparison quartic p_f = f(x) - p(x) is globally nonnegative, with f built
from the gradient at the support point so that the curve multiplier is
normalized to one. Any failure certifies that the relaxation is strict.

Each curve has one cached record (`_curve`) that owns its singular points
and its memoized support function; every phase of every verdict reads it,
and verdicts label copies of the singular points, which are classified
from the few lines through them that can support the hull, not the sweep.

Tangency, singularity and critical-point systems are solved by resultant
elimination alone, in stacks (`_solve_pairs`) whose members share each step,
from the Sylvester determinants to the Gauss-Newton polish, and keep their
own trimming, shape, fallback and stop rules; one direction is a one-member
stack. The certified affine singular points of the curve record are known
common roots of every tangency pair: the polish stops a seed that reaches
one and sets it there, since Newton's method crawls toward a singular root
at linear speed. Each support request is one stack, and its caller bounds
it: a lookahead chunk of the sweep, no longer than one stack of the sweep's
Gram program (the memory bound of the SDP core), the candidate lines of one
singular point, or one facet or band read; the polish takes its seeds in
batches within the same bound. A facet of the hull is solved exactly from
the bitangent system (`_bitangent`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .poly import (
    BivarPoly,
    ProjPoint,
    SupportLine,
    _definite_sign,
    _dense,
    _resultant_stack,
    _slice_roots,
    comparison_quartic,
    gradient,
    hessian,
    monomials_upto,
    real_roots,
)
from .sdp import _STACK_FLOATS, min_eig
from .sos import (FEAS_MARGIN, IndeterminateResult, margins_per_stack, nonneg_quartic,
                  sos_margin, sos_margins)

__all__ = [
    "SingularPoint",
    "ExactnessVerdict",
    "TangentSupport",
    "check_concave",
    "find_singularities",
    "classify_boundary",
    "tangent_support",
    "sweep_exactness",
    "curve_is_bounded",
    "curve_points",
    "quartic_minimizer",
]

_RESIDUAL_TOL = 1e-8
_CLASSIFY_TOL = 1e-6
_FORM_TOL = 1e-6  # relative rounding of the parts of p about a singular point
# half-width of the box that holds every curve point the solvers look for
_BOX = 50.0
# floats that the polish holds a seed at once (traced: 49 on the lemniscate's
# tangency stacks, 63 on the bean's, 70 on the egg's)
_SEED_FLOATS = 70


@dataclass(frozen=True)
class SingularPoint:
    location: ProjPoint
    at_infinity: bool
    residual_p: float
    residual_grad: float
    classification: str = "unknown"  # on_boundary | interior | outside_hull | unknown
    certified: bool = True

    def to_dict(self):
        """The JSON record; a non-certified point, a sample of a curve of
        singular points (_Curve.singular), records the locus, no coordinates."""
        if not self.certified:
            return {"locus": "not isolated", "certified": False, "at_infinity": False}
        return {
            "location": list(self.location.normalized().coords),
            "at_infinity": self.at_infinity,
            "residual_p": self.residual_p,
            "residual_grad": self.residual_grad,
            "classification": self.classification,
            "certified": self.certified,
        }


class TangentSupport(NamedTuple):
    """The support of the curve in one direction u. The sweep `line` is the
    tangent at `point`, the first of `points` where grad p is nonzero and
    has u.grad p <= 0 (a smooth point of the outer branch), scaled so that
    the curve multiplier of the comparison quartic is one; both are None
    when no point qualifies."""
    value: float  # max u.x over the curve, +inf when unbounded in u
    points: list  # (x1, x2) tuples attaining the value, the best first
    line: SupportLine | None = None
    point: tuple | None = None


@dataclass
class ExactnessVerdict:
    verdict: str  # Exact | NotExact | Inconclusive
    witness: SupportLine | None
    singular_points: list
    # (angle, face margin, min p_f) rows: the Gram margin of p_f moved to its
    # contact (see _at_contacts); min p_f is p_f at the contact on a passing
    # row, 0 up to rounding, and its least critical value on a failing row
    sweep: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({
            "verdict": self.verdict,
            "witness": list(self.witness.coeffs) if self.witness else None,
            "singular_points": [s.to_dict() for s in self.singular_points],
            "sweep": [list(row) for row in self.sweep],
            "evidence": self.evidence,
        }, indent=2)


def check_concave(p):
    """Concavity of p over the plane: -trace(H) a nonnegative quadratic and
    det(H) a nonnegative quartic. Both tests are exact at these degrees."""
    if p.degree > 4:
        raise ValueError("degree must be <= 4")
    H = hessian(p)
    neg_tr = -(H[0][0] + H[1][1])
    if neg_tr.degree > 2:
        raise ValueError("trace of the Hessian has unexpected degree")
    # a quadratic has a unique Gram matrix over (1, x1, x2)
    G = np.array([
        [neg_tr.coeff(0, 0), neg_tr.coeff(1, 0) / 2, neg_tr.coeff(0, 1) / 2],
        [neg_tr.coeff(1, 0) / 2, neg_tr.coeff(2, 0), neg_tr.coeff(1, 1) / 2],
        [neg_tr.coeff(0, 1) / 2, neg_tr.coeff(1, 1) / 2, neg_tr.coeff(0, 2)],
    ])
    scale = max(1.0, neg_tr.coeff_norm())
    if min_eig(G) < -1e-9 * scale:
        return False
    det = H[0][0] * H[1][1] - H[0][1] * H[0][1]
    return det.is_zero() or nonneg_quartic(det)


def _oriented(p):
    """-p when the top-degree form of p is positive definite (decided
    exactly), else p: then p < 0 far from the origin, as the sweep and the
    boundedness test assume. p and -p have the same curve and relaxations."""
    return -p if _definite_sign(p.graded_part(p.degree)) > 0 else p


def curve_is_bounded(p):
    """Numeric boundedness test: the curve is treated as bounded when p,
    oriented (_oriented), is strictly negative at 720 points of the circle
    of radius 1e3 and of the one of radius 1e6 (read from the curve record).
    A curve touching a circle without crossing can fool this, hence
    "numeric"."""
    return _curve(_oriented(p)).far.shape[0] == 0


def _powers(x, d):
    """x ** 0, ..., x ** d for each row of x, of shape (k, N), as (k, d + 1, N),
    by repeated elementwise products x ** e = x ** (e - 1) * x: each entry is
    rounded alike whatever the number of seeds."""
    out = np.empty((x.shape[0], d + 1, x.shape[1]))
    out[:, 0] = 1.0
    for e in range(d):
        np.multiply(out[:, e], x, out=out[:, e + 1])
    return out


def _newton_polish(eqs, seeds, weights=None, known=(), far=1e4):
    """Gauss-Newton polish of an (N, 2) array of seeds, all seeds at once;
    returns the (N, 2) polished points. Seed n solves q1 = q2 = 0, with
    q_k = sum_j weights[n, k, j] eqs[j] (by default eqs is the pair): eqs
    and their partials are evaluated once per step for all seeds. Each seed
    stops on its own: set exactly onto a known common root S of every pair
    once it is within the _merge_points distance 1e-7 (1 + |S|) of it (at
    seeding and after every step), on a non-finite step (left where it
    was), on a step below 1e-15 (1 + |x|), past |x| > far, or after 80
    steps. Newton converges only linearly to a singular root, so the known
    roots spare those seeds the crawl. The step is the least-squares one:
    Cramer's rule when J has full rank at lstsq's default cutoff, else the
    minimum-norm step -J^T F / |J|_F^2."""
    cols = [list(eqs), [q.diff(1) for q in eqs], [q.diff(2) for q in eqs]]
    polys = list(dict.fromkeys(sum(cols, [])))  # each polynomial once
    rows = np.array([[polys.index(q) for q in col] for col in cols])
    d = max(max(q.degree for q in polys), 0)
    C = np.array([_dense(q, d) for q in polys]).reshape(len(polys), -1)
    x = np.array(seeds, dtype=float).reshape(-1, 2)
    W = np.broadcast_to(np.eye(2), (len(x), 2, 2)) if weights is None else weights
    W = np.moveaxis(W, 0, -1)  # [k, j, seed]
    S = np.asarray(known, dtype=float).reshape(-1, 2)
    reach = 1e-7 * (1 + np.hypot(S[:, 0], S[:, 1]))

    def captured(idx):
        """Set the seeds idx within reach of a known root onto it; the mask
        of those seeds."""
        if not len(S):
            return np.zeros(len(idx), dtype=bool)
        near = np.hypot(x[idx, None, 0] - S[:, 0], x[idx, None, 1] - S[:, 1]) <= reach
        hit = near.any(axis=1)
        if hit.any():
            x[idx[hit]] = S[near[hit].argmax(axis=1)]
        return hit

    live, eps = np.arange(len(x)), np.finfo(float).eps
    live = live[~captured(live)]
    for _ in range(80):
        if live.size == 0:
            break
        xl = x[live]
        p1, p2 = _powers(xl.T, d)
        P = (p1[:, None] * p2).reshape(-1, len(xl))
        # einsum sums a lone column in another order than each of 2+: pad it
        v = np.einsum("ka,an->kn", C, np.tile(P, 2) if len(xl) == 1 else P)[:, :len(xl)]
        del p1, p2, P  # the largest arrays of a step, not needed past here
        # values, x1-partials and x2-partials of the pair of each seed: the
        # weighted sum over eqs in np.sum's order (from +0.0), a term at a
        # time, so that no (3, 2, len(eqs), N) product is held
        Wl, F = W[:, :, live], np.zeros((3, 2, len(xl)))
        for j in range(len(eqs)):
            F += Wl[:, j] * v[rows[:, j], None]
        (f1, f2), (a, c), (b, e) = F
        det, fro = a * e - b * c, a * a + b * b + c * c + e * e
        with np.errstate(divide="ignore", invalid="ignore"):
            regular = np.abs(det) > 2 * eps * fro
            den = np.where(regular, det, -fro)
            step = np.where(regular, [b * f2 - e * f1, c * f1 - a * f2],
                            [a * f1 + c * f2, b * f1 + e * f2]) / den
        finite = np.isfinite(step).all(axis=0)
        x[live] = xl = xl + np.where(finite, step, 0.0).T
        nx = np.hypot(xl[:, 0], xl[:, 1])
        done = ~finite | (np.hypot(*step) < 1e-15 * (1 + nx)) | (nx > far)
        live = live[~(done | captured(live))]
    return x


def _merge_points(points):
    out = []
    for pt in points:
        if not any(math.hypot(pt[0] - q[0], pt[1] - q[1]) <= 1e-7 * (1 + math.hypot(*pt))
                   for q in out):
            out.append(pt)
    return out


def _solve_pairs(eqs, weights, known=(), box=_BOX):
    """All real common zeros within the box |x| <= box of each pair q_k =
    sum_j weights[m, k, j] eqs[j] of a stack: per pair its polished zeros,
    copies not merged but each known common root (see _newton_polish) once,
    and whether elimination (not the grid fallback) found them. Rounding
    splits multiple roots of a resultant or a slice off the real axis, so
    the real parts of all roots inside the box seed, and the residual filter
    decides. The polish gives a seed up past 200 box."""
    # the coefficient grids [m, k, a, b] of the pairs, each product and the
    # sum rounded to zero at 1e-14 as in BivarPoly arithmetic
    clean = lambda t: np.where(np.abs(t) > 1e-14, t, 0.0)  # noqa: E731
    d = max(q.degree for q in eqs)
    C = clean(clean(weights[..., None, None] * np.array([_dense(q, d) for q in eqs])).sum(axis=2))
    norm = np.maximum(np.abs(C).max(axis=(2, 3)), 1.0)  # of each equation, at least 1
    seeds, owner, pending = [np.zeros((0, 2))], [np.zeros(0, int)], np.arange(len(C))
    for axis in (2, 1):
        G = C[pending] if axis == 1 else C[pending].swapaxes(2, 3)  # [m, k, eliminated, kept]
        rs = _resultant_stack(G[:, 0], G[:, 1])
        # a resultant that vanishes means a shared component: the other
        # variable, else the grid fallback
        ok = [i for i, r in enumerate(rs) if not isinstance(r, ValueError)
              and np.max(np.abs(r)) > 1e-10 * norm[pending[i]].max() ** 2]
        # one root solve, each resultant scaled to a largest coefficient of 1
        # (the floor of 1 in _slice_roots is for the curve sample); each real part once
        width = max((len(rs[i]) for i in ok), default=1)
        z, at = _slice_roots(np.array([np.pad(rs[i], (0, width - len(rs[i]))) / np.abs(rs[i]).max()
                                       for i in ok]).reshape(-1, width))
        inside = np.abs(z.real) <= box
        i, v = np.unique(np.column_stack([np.array(ok, int)[at[inside]], z.real[inside]]), axis=0).T
        i, v, k = np.repeat(i.astype(int), 2), np.repeat(v, 2), np.tile([0, 1], len(v))
        w, t = _slice_roots(np.einsum("tab,tb->ta", G[i, k], v[:, None] ** np.arange(G.shape[3])))
        inside = np.abs(w.real) <= box
        w, t = w.real[inside], t[inside]
        seeds.append(np.column_stack([v[t], w] if axis == 2 else [w, v[t]]))
        owner.append(pending[i[t]])
        pending = np.delete(pending, ok)
    # non-generic pencils: grid search fallback, flagged non-certified
    grid = np.linspace(-2.0, 2.0, 41)
    grid = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    del C, G, rs, z, at, inside, i, v, k, w, t  # the elimination's arrays
    seeds = np.concatenate(seeds + [grid] * len(pending))
    owner = np.concatenate(owner + [np.repeat(pending, len(grid))])
    # A batch of seeds is polished and filtered by the residual on its own:
    # the polish holds about _SEED_FLOATS floats a seed of the batch at once,
    # beside the 6 of its pair's weights, and the stack 6 a seed (seed,
    # owner, polished zero and its owner). The batches take what the SDP
    # core's memory bound leaves beside the stack, at least half of it (a
    # larger stack is its caller's to split). The seeds are polished
    # independently, so the batches do not change a bit.
    per = max(_STACK_FLOATS - 6 * len(seeds), _STACK_FLOATS // 2) // (_SEED_FLOATS + 6)
    pts, kept = [np.zeros((0, 2))], [np.zeros(0, int)]
    for i in range(0, len(seeds), per):
        o = owner[i:i + per]
        x = _newton_polish(eqs, seeds[i:i + per], weights[o], known, far=200 * box)
        vals = np.array([q.eval_many(x[:, 0], x[:, 1]) for q in eqs])
        res = np.abs(np.einsum("nkj,jn->nk", weights[o], vals))
        good = (res <= _RESIDUAL_TOL * norm[o]).all(axis=1)
        good &= (np.abs(x).max(axis=1) < box) | ~np.isin(o, pending)
        pts.append(x[good])
        kept.append(o[good])
    pts, owner = np.concatenate(pts), np.concatenate(kept)
    # the seeds that a known root took sit exactly on it: one copy a pair
    on = (pts[:, None] == np.reshape(known, (1, -1, 2))).all(axis=2).any(axis=1)
    at = np.flatnonzero(on)
    first = np.unique(np.column_stack([owner[at], pts[at]]), axis=0, return_index=True)[1]
    copies = np.delete(at, first)
    out = [[] for _ in weights]
    for m, pt in zip(np.delete(owner, copies), np.delete(pts, copies, axis=0)):
        out[m].append(tuple(pt))
    return [(o, m not in pending) for m, o in enumerate(out)]


def find_singularities(p):
    """All real singular points of the curve p = 0, affine and at infinity,
    as a new list of the unlabelled points of the curve record. Affine points
    solve grad p = 0 (resultant elimination, Newton polish) filtered by
    p = 0. At infinity the conditions on the homogenization restrict to:
    p_d = 0, grad p_d = 0, p_{d-1} = 0 for d = deg p."""
    if p.is_zero():
        raise ValueError("zero polynomial has no curve")
    return list(_curve(p).singular)


def _infinity_singularities(p):
    d = p.degree
    if d < 1:
        return []
    pd, pdm1 = p.graded_part(d), p.graded_part(d - 1)
    g1, g2 = gradient(pd)
    scale = max(1.0, p.coeff_norm())
    out = []
    for (a, b) in _real_lines(pd, 1e-12 * scale):  # pd is nonzero
        rg = math.hypot(g1(a, b), g2(a, b))
        rp = max(abs(pd(a, b)), abs(pdm1(a, b)))
        if rg <= _RESIDUAL_TOL * scale and rp <= _RESIDUAL_TOL * scale:
            out.append(SingularPoint(
                location=ProjPoint((0.0, a, b)), at_infinity=True,
                residual_p=rp, residual_grad=rg,
            ))
    return out


class _Curve:
    """The record of the curve p = 0 that every query reads: the partials,
    and, each computed on first use, the far points, the curve sample, the
    unlabelled singular points and the support function. The concave fast
    path reads only the singular points."""

    def __init__(self, p):
        self.p = p
        self.d1, self.d2 = p.diff(1), p.diff(2)
        self._supports = {}

    @functools.cached_property
    def far(self):
        """Points of the radius-1e3 and 1e6 circles where p >= 0; none
        means bounded."""
        th = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        far = []
        for r in (1e3, 1e6):
            x1, x2 = r * np.cos(th), r * np.sin(th)
            on = self.p.eval_many(x1, x2) >= 0.0
            far.append(np.column_stack([x1[on], x2[on]]))
        return np.concatenate(far)

    @functools.cached_property
    def cloud(self):
        """Curve points on axis-aligned slices, solved exactly, for
        curve_points; no verdict reads them."""
        levels = np.concatenate([np.linspace(-_BOX, _BOX, 401),
                                 np.linspace(-2.0, 2.0, 1601)])
        # the rows of p.univariate_in(axis, v), with its operations
        powers = [np.array([v ** k for v in levels]) for k in range(self.p.degree + 1)]
        rows = np.zeros((2, len(levels), self.p.degree + 1))
        for (a, b), c in self.p.terms.items():
            rows[0, :, a] += c * powers[b]
            rows[1, :, b] += c * powers[a]
        z, row = _slice_roots(rows.reshape(-1, self.p.degree + 1))
        ok = (np.abs(z.imag) <= 1e-9 * (1 + np.abs(z.real))) & (np.abs(z.real) <= _BOX)
        w, row = z.real[ok], row[ok]
        v = levels[row % len(levels)]
        return np.where((row < len(levels))[:, None], np.c_[w, v], np.c_[v, w])

    @functools.cached_property
    def singular(self):
        """The unlabelled singular points (see find_singularities). Polished
        copies of an isolated point (up to ~1e-5 apart at a triple point) are
        one when the residual test passes at their midpoint, kept at a copy of
        zero residual if any. Without a generic pencil of partials (a multiple
        component, or p in one variable only) _solve_pairs returns grid
        points, samples of a curve of singular points whose number follows
        rounding: one of them stands for the curve, flagged non-certified."""
        p, p1, p2 = self.p, self.d1, self.d2
        tol = _RESIDUAL_TOL * max(1.0, p.coeff_norm())
        [(cand, certified)] = _solve_pairs((p1, p2), np.eye(2)[None])
        cand = [(a, b, abs(p(a, b)), math.hypot(p1(a, b), p2(a, b))) for a, b in cand]
        cand = np.array([c for c in cand if c[2] <= tol and c[3] <= _RESIDUAL_TOL]).reshape(-1, 4)
        cand = cand if certified else cand[:1]
        reps = []  # the index in cand of the kept copy of each point
        for n, (a, b, rp, rg) in enumerate(cand):
            mid = (cand[reps, :2] + (a, b)) / 2
            same = (np.abs(p.eval_many(*mid.T)) <= tol) & (np.hypot(
                p1.eval_many(*mid.T), p2.eval_many(*mid.T)) <= _RESIDUAL_TOL)
            if not same.any():
                reps.append(n)
            elif rp == rg == 0.0 < cand[reps[np.argmax(same)], 2:].sum():
                reps[np.argmax(same)] = n
        return tuple(SingularPoint(location=ProjPoint((1.0, a, b)), at_infinity=False,
                                   residual_p=rp, residual_grad=rg, certified=certified)
                     for a, b, rp, rg in cand[reps]) + tuple(_infinity_singularities(p))

    def supports(self, thetas):
        """Memoize the TangentSupport at the inward-normal angles theta
        (direction u = -(cos theta, sin theta)): the angles not yet held
        are one _tangent_supports stack, whose size the caller bounds; none
        is solved when all are held. A solve that raised is kept, and raised
        when `support` reads its angle."""
        todo = [th for th in dict.fromkeys(thetas) if th not in self._supports]
        if todo:
            us = [(-math.cos(th), -math.sin(th)) for th in todo]
            self._supports.update(zip(todo, _tangent_supports(self.p, us)))

    def support(self, theta):
        """The memoized support at one angle (see supports)."""
        self.supports([theta])
        if isinstance(self._supports[theta], Exception):
            raise self._supports[theta]
        return self._supports[theta]


@functools.lru_cache(maxsize=8)
def _curve(p):
    return _Curve(p)


def tangent_support(p, f):
    """max f.x over the curve p = 0 and the attaining points. Solves the
    tangency system p = 0, f2*d1p - f1*d2p = 0 by resultant elimination;
    singular points satisfy the second equation and are included. Returns
    +inf when the curve is unbounded in the direction, which the far points
    of the curve record decide. The one-direction case of _tangent_supports,
    equal to its member of any stack."""
    (ts,) = _tangent_supports(p, [f])
    if isinstance(ts, Exception):
        raise ts
    return ts


def _tangent_supports(p, dirs):
    """tangent_support of a stack of directions, solved together: per
    direction its TangentSupport, with its sweep line, or the exception
    tangent_support raises. The pairs share p, d1 and d2, each weighed with
    its own direction, and the known roots: the certified affine singular
    points of the curve record (not the grid fallback's, nor those at
    infinity). A grid-fallback pair holds an IndeterminateResult."""
    rec = _curve(p)
    out, live, us = [None] * len(dirs), [], []
    for m, f in enumerate(dirs):
        u = np.asarray(f, dtype=float)
        n = np.linalg.norm(u)
        if n == 0 or (rec.d1 * (u[1] / n) - rec.d2 * (u[0] / n)).is_zero():
            out[m] = ValueError("degenerate tangency system" if n else "direction must be nonzero")
        else:
            live.append(m)
            us.append(u / n)
    weights = np.array([[[1.0, 0.0, 0.0], [0.0, u1, -u0]] for u0, u1 in us]).reshape(-1, 2, 3)
    known = [s.location.to_affine() for s in rec.singular if not s.at_infinity and s.certified]
    eqs = (p, rec.d1, rec.d2)
    sols = _solve_pairs(eqs, weights, known)
    for (pts, certified), m, u in zip(sols, live, us):
        vals = [u[0] * a + u[1] * b for (a, b) in pts]
        h = max(vals, default=math.inf)
        if not certified:
            out[m] = IndeterminateResult("tangency points from the grid fallback (non-certified)")
        # a finite critical value does not bound an unbounded curve
        elif rec.far.shape[0] and (not pts or np.max(rec.far @ u) > h):
            out[m] = TangentSupport(value=math.inf, points=[])
        elif not pts:
            out[m] = IndeterminateResult("no tangency point found on a bounded curve")
        else:
            top = sorted((-v, s) for s, v in zip(pts, vals) if v >= h - 1e-8 * (1 + abs(h)))
            out[m] = TangentSupport(value=h, points=_merge_points([s for _, s in top]))
            for (a, b) in out[m].points:
                g = np.array([rec.d1(a, b), rec.d2(a, b)])
                if np.linalg.norm(g) < 1e-10 or g[0] * u[0] + g[1] * u[1] > 0:
                    continue  # singular (see classify_boundary) or inner branch
                line = SupportLine((0.0 - (g[0] * a + g[1] * b), g[0], g[1]))
                out[m] = out[m]._replace(line=line, point=(a, b))
                break
    return out


def _far(a, b):
    """Whether two contacts lie on different arcs (a missing one does)."""
    return a is None or b is None or \
        math.hypot(a[0] - b[0], a[1] - b[1]) > 0.05 * (1 + math.hypot(*b))


def _bitangent(rec, a, b):
    """Newton's method from the contacts a and b on the bitangent system
    p(P) = p(Q) = 0, grad p(P).(Q - P) = grad p(Q).(Q - P) = 0: the contacts
    (P, Q) of a facet, or None when it fails or P and Q end on one arc (a
    flat vertex moves the contact fast, but has no facet)."""
    if a is None or b is None:
        return None
    (h11, h12), (_, h22) = hessian(rec.p)
    x = np.array([a, b], dtype=float)  # rows P and Q
    for _ in range(50):
        v, g1, g2, e11, e12, e22 = (q.eval_many(x[:, 0], x[:, 1]) for q in
                                    (rec.p, rec.d1, rec.d2, h11, h12, h22))
        d, g = x[1] - x[0], np.array([g1, g2]).T  # g: rows grad p(P), grad p(Q)
        Hd = np.array([[e11, e12], [e12, e22]]).transpose(2, 0, 1) @ d
        F = np.concatenate([v, g @ d])
        J = np.array([[*g[0], 0, 0], [0, 0, *g[1]],
                      [*(Hd[0] - g[0]), *g[0]], [*-g[1], *(Hd[1] + g[1])]])
        step = np.linalg.lstsq(J, -F, rcond=None)[0].reshape(2, 2)
        x = x + step
        if np.max(np.abs(x)) > _BOX:
            return None
        if np.linalg.norm(step) <= 1e-15 * (1 + np.linalg.norm(x)):
            break
    P, Q = map(tuple, x)
    ok = np.max(np.abs(F)) <= _RESIDUAL_TOL * max(1.0, rec.p.coeff_norm()) and _far(P, Q)
    return (P, Q) if ok else None


def _real_lines(form, cut):
    """The real linear factors, as unit directions, of a nonzero binary form
    of degree d whose coefficients are known to within cut: (0, 1) when the
    top coefficients of form(1, t) are at most cut, then (1, t) for the real
    roots t of the rest and of its derivative where the rest is within cut of
    0 (rounding splits a double factor into a close pair about such a t)."""
    d, c = form.degree, form.univariate_in(2, 1.0)
    big = np.flatnonzero(np.abs(c) > cut)
    c = c[:big[-1] + 1] if len(big) else c
    dirs = [(1.0, t) for t in real_roots(c)]
    for s in real_roots(np.polynomial.polynomial.polyder(c)) if len(c) > 2 else []:
        if abs(np.polynomial.polynomial.polyval(s, c)) <= (d + 1) * cut * (1 + s * s) ** (d / 2) \
                and all(abs(s - t) > 1e-6 * (1 + abs(s)) for _, t in dirs):
            dirs.append((1.0, s))
    if len(c) <= d:
        dirs.append((0.0, 1.0))
    return [(a / math.hypot(a, b), b / math.hypot(a, b)) for a, b in dirs]


def classify_boundary(p):
    """Classify each affine singular point against the hull of the curve and
    report smoothness of the hull boundary.

    A line through a singular point pt supports the hull only if it lies in
    the tangent cone at pt or touches the curve elsewhere. With q(x) =
    p(pt + x) and q_m its lowest graded part (m >= 2), the cone lines are
    the real factors of q_m; the line x = s v meets the quartic in 4 - m
    further points, so it touches elsewhere only for m = 2, where q_3^2 -
    4 q_2 q_4 vanishes at v. The point is on the boundary when the support
    at a normal of such a line is attained at it. The witness goes through
    it, with the supporting cone normal of smallest (margin, angle), else
    the middle of the arc of supporting normals. Returns (singular points,
    smooth, witness), labelled copies of the record's unlabelled points,
    unlabelled and with smooth None when one is not certified."""
    sing = find_singularities(p)
    if not all(s.certified for s in sing):
        return sing, None, None
    if all(s.at_infinity for s in sing):
        return sing, True, None
    if not curve_is_bounded(p):
        return sing, None, None
    rec, witness, smooth = _curve(p), None, True
    for i, s in enumerate(sing):
        if s.at_infinity:
            continue
        pt = s.location.to_affine()
        [q] = _at_contacts(p, [p], [pt])
        q2, q3, q4 = parts = [q.graded_part(k) for k in (2, 3, 4)]
        # parts below _FORM_TOL of the largest are rounding (the polish stops
        # about 1e-8 off a triple point); the residual test takes points within
        # rho of pt for curve points, so a support attained there is at pt
        norms = [f.coeff_norm() for f in parts]
        cut, tol = _FORM_TOL * max(norms), _RESIDUAL_TOL * max(1.0, p.coeff_norm())
        m = next(k for k, nk in enumerate(norms, 2) if nk > cut)
        rho = max((tol / nk) ** (1 / k) for k, nk in enumerate(norms, 2) if nk > cut)
        lines = [(v, True) for v in _real_lines(parts[m - 2], cut)]  # (direction, in the cone)
        if m == 2:
            touch = q3 * q3 - q2 * q4 * 4.0  # zero for a conic or a non-reduced quartic
            if not touch.is_zero():
                lines += [(v, False) for v in _real_lines(touch, _FORM_TOL * touch.coeff_norm())]
        # (support angle, in the cone) of the normals u = (-b, a) and (b, -a)
        # of each line, at the angles atan2(-u2, -u1)
        cands = [(th, in_cone) for (a, b), in_cone in lines
                 for th in (math.atan2(-a, b), math.atan2(a, -b))]
        rec.supports([th for th, _ in cands])
        margins = []  # of the candidates, in order
        for th, _ in cands:
            e, u = rec.support(th), (-math.cos(th), -math.sin(th))
            at_pt = any(math.hypot(a - pt[0], b - pt[1]) <= rho for a, b in e.points)
            margins.append(0.0 if at_pt else e.value - (u[0] * pt[0] + u[1] * pt[1]))
        low = min(margins, default=math.inf)
        if low > _CLASSIFY_TOL:
            label = "interior"
        elif low >= -_CLASSIFY_TOL:
            label = "on_boundary"
            smooth = False
            if witness is None:
                on = [(mg, *c) for mg, c in zip(margins, cands) if mg <= _CLASSIFY_TOL]
                cone_on = [(mg, th) for mg, th, in_cone in on if in_cone]
                if cone_on:
                    th_best = min(cone_on)[1]
                else:
                    # the middle of the arc of supporting normals: the
                    # complement of the widest gap between them
                    arc = sorted({th % (2 * math.pi) for _, th, _ in on})
                    gap, start = max((2 * math.pi - (a - b) % (2 * math.pi), b)
                                     for a, b in zip(arc, arc[1:] + arc[:1]))
                    th_best = start + (2 * math.pi - gap) / 2
                # the line through the point, not at the noisy support value;
                # adding 0.0 turns -0.0 into 0.0
                c, d = math.cos(th_best) + 0.0, math.sin(th_best) + 0.0
                witness = SupportLine((0.0 - c * pt[0] - d * pt[1], c, d)).normalized()
        else:
            label = "outside_hull"  # numerically impossible for C
            smooth = None
        sing[i] = replace(s, classification=label)
    return sing, smooth, witness


def curve_points(p):
    """Dense sample of the curve from the shared curve record, copied."""
    return _curve(p).cloud.copy()


def _at_contacts(p, pfs, contacts):
    """The quartics pfs moved to their points: q(x) = p_f(x + P) for each
    p_f and its point P, all by one linear map of the coefficients, whose
    x1^i x2^j coefficient sums C(a, i) P1^(a - i) c_ab C(b, j) P2^(b - j)
    over the coefficients c_ab of p_f.

    The sweep passes comparison quartics at their contacts. The sweep line
    is built from grad p at P, so q's constant and linear coefficients are
    p_f(P) = -p(P), which the tangency filter bounds, and grad p_f(P) = 0,
    up to rounding. Where all three are within that bound they are set to
    exactly 0: q then vanishes to second order at the origin, every Gram
    matrix of q vanishes on the row of the monomial 1 (m(P) for p_f), and
    sos_margins drops the row. Elsewhere they stay. classify_boundary passes
    p at a singular point, and reads only q's parts of degree 2 to 4."""
    e = np.arange(5)
    binom = np.array([[math.comb(a, i) for i in e] for a in e], dtype=float)
    powers = _powers(np.asarray(contacts, dtype=float).T, 4)  # (2, 5, B)
    # shift[v, a, i, m] = C(a, i) P_v^(a - i) for the contact P of member m
    shift = binom[None, :, :, None] * powers[:, np.maximum(e[:, None] - e, 0)]
    q = np.einsum("aim,mab,bjm->mij", shift[0], np.array([_dense(f, 4) for f in pfs]), shift[1])
    on = np.abs(q[:, [0, 1, 0], [0, 0, 1]]).max(axis=1) <= _RESIDUAL_TOL * max(1.0, p.coeff_norm())
    q[on, 0, 0] = q[on, 1, 0] = q[on, 0, 1] = 0.0
    return [BivarPoly({(i, j): c[i, j] for i, j in monomials_upto(4)}) for c in q]


def sweep_exactness(p, n=360):
    """Full decision procedure on p oriented so that it is negative far from
    the origin (_oriented): concavity fast path, boundary smoothness,
    then a supporting-line sweep testing p_f >= 0 at n angles and at the
    hull facets solved between them (see _bitangent), each by the SOS
    margin of p_f moved to its contact, on the face of the Gram rows that
    the contact forces to zero (_at_contacts), failing below -FEAS_MARGIN
    as every SOS test does. Every phase reads the support function of the
    curve record over the inward-normal angle. When a solve cannot decide,
    the verdict is Inconclusive and keeps the singular points and sweep
    rows computed before."""
    if n < 8:
        raise ValueError("need at least 8 sweep angles")
    p = _oriented(p)
    evidence = {"resolution": n}
    sing, sweep = [], []

    def verdict(kind, witness=None):
        return ExactnessVerdict(kind, witness, sing, sweep=sweep, evidence=evidence)

    try:
        evidence["concave"] = check_concave(p)
        sing = find_singularities(p)
        if evidence["concave"]:
            return verdict("Exact")
        if not all(s.certified for s in sing):
            # the partials share a component, so the singular locus may be a
            # whole curve, which no finite set of points classifies
            evidence["reason"] = "singular points from the grid fallback (non-certified)"
            return verdict("Inconclusive")
        if not curve_is_bounded(p):
            # no sweep: the supports are infinite, and so is the hull
            evidence["reason"] = "curve is unbounded"
            return verdict("Inconclusive")
        sing, smooth, witness = classify_boundary(p)
        evidence["boundary_smooth"] = smooth
        if smooth is False and witness is not None:
            evidence["reason"] = "singular point on the hull boundary"
            return verdict("NotExact", witness)
        if smooth is None:
            evidence["reason"] = "singular point outside the hull"
            return verdict("Inconclusive")

        rec = _curve(p)
        step = 2 * math.pi / n

        def margin_of(line, contact):
            [q] = _at_contacts(p, [comparison_quartic(line, p)], [contact])
            return sos_margin(q, 2)

        def sample(i):  # at the sweep's own angles, which key the support memo
            return rec.support((i % n) * step)

        def failing_facet(i):
            """(normal angle, sweep line) of the facet between the samples i
            and i + 1 when its comparison quartic fails, else None."""
            pq = _bitangent(rec, sample(i).point, sample(i + 1).point)
            if pq:
                (a, b), lo = pq[1], (i % n) * step
                g1, g2 = rec.d1(a, b), rec.d2(a, b)
                theta = math.atan2(g2, g1) % (2 * math.pi)
                line = SupportLine((-(g1 * a + g2 * b), g1, g2))
                # its normal must lie between the two sample angles
                if (theta - lo) % (2 * math.pi) <= step and margin_of(line, (a, b)) < -FEAS_MARGIN:
                    return theta, line

        # margins on the contact face (_at_contacts) solved ahead, by row, in
        # chunks of 1, 2, 4, ... rows: a chunk shares the per-call overhead,
        # and with the doubling the rows solved in vain after the first
        # failing row are no more than the rows before it. A chunk's margins
        # fit one stack of the SDP core (margins_per_stack), whose memory
        # bound thus bounds the chunk: at its 403 rows the stack of 5x5 faces
        # traces 3.6 MB of the bound's 4.2 MB, and the tangency stack, whose
        # polish takes its seeds in batches within that bound beside the
        # stack's own seeds and zeros, 3.5 MB on the lemniscate, 4.2 MB on
        # the bean and 2.1 MB on the egg. Each row keeps its p_f beside its
        # margin, for its min p_f.
        ahead, size, most = {}, 1, margins_per_stack(2)

        def band_margin(i):
            """Row i's margin: the one solved ahead, else a single solve (so
            a lookahead member that failed does not end the sweep)."""
            m = ahead[i][0] if i in ahead else None  # a float or an IndeterminateResult
            return m if isinstance(m, float) else margin_of(sample(i).line, sample(i).point)

        def support_at(i):  # None when row i's support raised
            try:
                return sample(i)
            except IndeterminateResult:
                return None

        for j in range(n):
            if j not in ahead:
                # the next chunk of rows up to the first without a line: the
                # supports and the margins each one stack; a row is acted on
                # only when the loop reaches it
                rec.supports([i * step for i in range(j, min(n, j + size))])
                rows = list(itertools.takewhile(lambda s: s is not None and s.line is not None,
                                                map(support_at, range(j, min(n, j + size)))))
                if rows:
                    pfs = [comparison_quartic(s.line, p) for s in rows]
                    qs = _at_contacts(p, pfs, [s.point for s in rows])
                    ahead.update(zip(range(j, n), zip(sos_margins(qs, 2), pfs)))
                size = min(2 * size, most)
            th = j * step
            line = sample(j).line
            if line is None:
                evidence["reason"] = f"no smooth contact at sweep angle {th!r}"
                return verdict("Inconclusive")
            m, pf = ahead.pop(j)
            if isinstance(m, IndeterminateResult):
                raise m
            # a passing row's p_f >= 0 vanishes at the contact: its minimum
            fails = m < -FEAS_MARGIN
            pf_min = quartic_minimizer(pf)[1] if fails else float(pf(*sample(j).point))
            sweep.append((th, m, pf_min))
            if fails:
                evidence["reason"] = "comparison quartic negative on sweep"
                # the hull often has a facet at the failing band, the canonical
                # witness: try the pair of samples before j, then the band up
                # to its first jump of the contact between arcs
                for i in range(j - 1, j + max(2, n // 4) - 1):
                    if _far(sample(i).point, sample(i + 1).point):
                        facet = failing_facet(i)
                        if facet:
                            evidence["facet_angle"], line = facet
                        if facet or i >= j:
                            break
                    elif i >= j and band_margin(i + 1) >= -FEAS_MARGIN:
                        break
                return verdict("NotExact", line.normalized())

        # every sample passes: try the facet at each jump of the contact
        for i in range(n):
            facet = _far(sample(i).point, sample(i + 1).point) and failing_facet(i)
            if facet:
                evidence["reason"] = "comparison quartic negative near bitangent"
                evidence["facet_angle"], line = facet
                return verdict("NotExact", line.normalized())
        return verdict("Exact")
    except IndeterminateResult as exc:
        evidence["error"] = str(exc)
        return verdict("Inconclusive")


def quartic_minimizer(q):
    """The least value of q over its real critical points (grad q = 0 by
    elimination, as for the singular points) and a point of it, of ties
    within 1e-12 (1 + |v|) the least (x1, x2); a constant q at the origin,
    and -inf at (nan, nan) without a critical point. It is the global
    minimum of a q that attains its infimum, such as a quartic with a
    positive definite top form: the witness of a failed nonnegativity test.
    The critical points are sought in a box of q's own scale, the Fujiwara
    bound 2 max_k (|q_k| / |q_d|)^(1 / (d - k)) over the graded parts q_k
    of q (largest coefficients), and at least the curve box."""
    if q.degree < 1:
        return (0.0, 0.0), float(q(0.0, 0.0))
    d = q.degree
    size = [q.graded_part(k).coeff_norm() for k in range(d + 1)]
    box = max(_BOX, 2 * max((size[k] / size[d]) ** (1 / (d - k)) for k in range(d)))
    [(pts, _)] = _solve_pairs((q.diff(1), q.diff(2)), np.eye(2)[None], box=box)
    if not pts:
        return (math.nan, math.nan), -math.inf
    pts = np.array(pts)
    vals = q.eval_many(pts[:, 0], pts[:, 1])
    tie = vals <= vals.min() + 1e-12 * (1 + abs(vals.min()))
    pts, vals = pts[tie], vals[tie]
    k = np.lexsort((pts[:, 1], pts[:, 0]))[0]
    return tuple(pts[k].tolist()), float(vals[k])
