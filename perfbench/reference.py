"""Reference data that does not come from the package's solver: a dense
sample of each curve from axis-aligned slices (numpy root finding on the
coefficient arrays), its bounding box and its convex hull.

The sampled hull is an inner approximation of the true hull; with the
default density its boundary error is far below the tolerances the checks
use.
"""

import numpy as np
from scipy.spatial import ConvexHull


def curve_sample(p, box, levels):
    """Real points of p = 0 on `levels` vertical and horizontal slices of
    the box (x1_lo, x1_hi, x2_lo, x2_hi)."""
    terms = list(p.terms.items())
    deg = max(a + b for (a, b), _ in terms)
    pts = []
    for axis, lo, hi, olo, ohi in ((1, box[2], box[3], box[0], box[1]),
                                   (2, box[0], box[1], box[2], box[3])):
        for v in np.linspace(lo, hi, levels):
            c = np.zeros(deg + 1)  # ascending powers of x_axis
            for (a, b), coef in terms:
                if axis == 1:
                    c[a] += coef * v ** b
                else:
                    c[b] += coef * v ** a
            nz = np.nonzero(np.abs(c) > 1e-14 * max(1.0, np.max(np.abs(c))))[0]
            if len(nz) == 0 or nz[-1] == 0:
                continue
            for z in np.roots(c[: nz[-1] + 1][::-1]):
                if abs(z.imag) <= 1e-9 * (1 + abs(z.real)) and olo <= z.real <= ohi:
                    w = float(z.real)
                    pts.append((w, v) if axis == 1 else (v, w))
    return np.array(pts).reshape(-1, 2)


def bounding_box(p, levels=201):
    pts = curve_sample(p, (-3.0, 3.0, -3.0, 3.0), levels)
    return (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())


class SampledHull:
    """Convex hull of a dense curve sample, refined inside the bounding box."""

    def __init__(self, p, levels=2001):
        lo1, hi1, lo2, hi2 = bounding_box(p)
        pad = 0.05
        pts = curve_sample(p, (lo1 - pad, hi1 + pad, lo2 - pad, hi2 + pad), levels)
        self.hull = ConvexHull(pts)

    def margin(self, x):
        """Distance inside the sampled hull (negative outside; outside it is
        a lower bound on the distance, so |margin| > tol is conservative)."""
        eq = self.hull.equations
        return float(-np.max(eq[:, :2] @ np.asarray(x, dtype=float) + eq[:, 2]))
