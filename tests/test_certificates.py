"""Gram certificates solve at the solver's one duality gap and snap onto an
exact certificate of low rank."""

import numpy as np
import pytest

from quartichull import curves, sos
from quartichull.poly import SupportLine
from quartichull.sos import certify_in_fk

# the line 3 + x1 on every registry curve, and the egg's supporting line
# 2 - 2 x2, which touches it at (0, 1)
CASES = [(name, (3.0, 1.0, 0.0)) for name in curves.curve_names()] + [("egg", (2.0, 0.0, -2.0))]
IDS = [f"{name}-{','.join(f'{c:g}' for c in line)}" for name, line in CASES]


@pytest.fixture
def solutions(monkeypatch):
    """The solutions of every Gram solve that sos makes, in call order."""
    seen = []
    solve_stack = sos.solve_stack

    def recorded(*args):
        sols = solve_stack(*args)
        seen.extend(sols)
        return sols

    monkeypatch.setattr(sos, "solve_stack", recorded)
    return seen


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name,line", CASES, ids=IDS)
def test_certificates_end_optimal_and_exact(name, line, k, solutions):
    cert = certify_in_fk(line, curves.lookup(name).implicit, k)
    [sol] = solutions
    assert (sol.status, sol.message) == ("Optimal", "")
    assert cert is not None
    assert cert.residual <= 1e-12


def _egg_points(n):
    """n points of the egg from its integer parametrization."""
    t = np.linspace(-6.0, 6.0, n)
    w = t ** 4 + 16 * t ** 2 + 64
    return (-2 * t ** 3 - 16 * t) / w, (-t ** 4 + 4 * t ** 2 + 64) / w


@pytest.mark.parametrize("k", [3, 4])
def test_egg_boundary_certificate_has_two_squares(k):
    p = curves.lookup("egg").implicit
    f = SupportLine((2.0, 0.0, -2.0))
    cert = certify_in_fk(f, p, k)
    assert len(cert.squares) == 2
    # s1 is not unique at k >= 3, so s0 equals the k = 2 decomposition
    # (1 - x2 + x1^2)^2 + 6 x1^2 = f - p on the curve only; off it,
    # s0 + s1 p evaluates as f
    for x1, x2 in zip(*_egg_points(100)):
        assert abs(p(x1, x2)) < 1e-12
        ref = (1 - x2 + x1 ** 2) ** 2 + 6 * x1 ** 2
        got = sum(s(x1, x2) ** 2 for s in cert.squares)
        assert got == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))
    rng = np.random.default_rng(17)
    for x1, x2 in rng.uniform(-2, 2, (100, 2)):
        ref = f.affine_poly()(x1, x2)
        got = sum(s(x1, x2) ** 2 for s in cert.squares) + cert.multiplier(x1, x2) * p(x1, x2)
        assert got == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))
