"""Registry of the seven example quartics with their published metadata.

Genus values and singularity descriptions are stored metadata for tests and
reports; nothing here recomputes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .poly import BivarPoly, ProjPoint, format_poly, parse_poly
from .rational import RationalParam

__all__ = ["CurveRecord", "registry", "lookup", "curve_names"]


@dataclass(frozen=True)
class CurveRecord:
    name: str
    implicit: BivarPoly
    genus: int
    singularities: tuple  # (ProjPoint, note) pairs
    expected_verdict: str  # Exact | NotExact
    param: RationalParam | None = None
    notes: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "implicit": format_poly(self.implicit),
            "genus": self.genus,
            "singularities": [
                {"point": list(pt.normalized().coords), "note": note}
                for pt, note in self.singularities
            ],
            "expected_verdict": self.expected_verdict,
            "param": None if self.param is None else self.param.to_dict(),
            "notes": self.notes,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _records():
    return (
        CurveRecord(
            name="egg",
            implicit=parse_poly("1 - 8*x1^2 - (x1^2 - x2)^2"),
            genus=0,
            singularities=((ProjPoint((0.0, 0.0, 1.0)), "triple point at infinity"),),
            expected_verdict="Exact",
        ),
        CurveRecord(
            name="bean",
            implicit=parse_poly("x1*(x1^2 + x2^2) - x1^4 - x1^2*x2^2 - x2^4"),
            genus=0,
            singularities=((ProjPoint((1.0, 0.0, 0.0)), "triple point"),),
            expected_verdict="NotExact",
            param=RationalParam((1, 0, 1, 0, 1), (1, 0, 1, 0, 0), (0, 1, 0, 1, 0)),
            notes="strict inclusion persists at every finite order "
                  "(unverified metadata; finite orders are checked numerically)",
        ),
        CurveRecord(
            name="waterdrop",
            implicit=parse_poly("-x1^2 - x2^3 - (x1^2 + x2^2)^2"),
            genus=2,
            singularities=((ProjPoint((1.0, 0.0, 0.0)), "cusp"),),
            expected_verdict="NotExact",
            notes="strict inclusion believed for every finite order "
                  "(unverified metadata)",
        ),
        CurveRecord(
            name="lemniscate",
            implicit=parse_poly("x1^2 - x2^2 - (x1^2 + x2^2)^2"),
            genus=0,
            singularities=((ProjPoint((1.0, 0.0, 0.0)), "node, interior to the hull"),),
            expected_verdict="Exact",
        ),
        CurveRecord(
            name="folium",
            implicit=parse_poly("-x1*(x1^2 - 2*x2^2) - (x1^2 + x2^2)^2"),
            genus=0,
            singularities=((ProjPoint((1.0, 0.0, 0.0)), "triple point"),),
            expected_verdict="NotExact",
            param=RationalParam((1, 0, 2, 0, 1), (-1, 0, 2, 0, 0), (0, -1, 0, 2, 0)),
        ),
        CurveRecord(
            name="smoothconvex",
            implicit=parse_poly("x1 + x1^2 - 2*x1^4 - x2^4"),
            genus=3,
            singularities=(),
            expected_verdict="NotExact",
            notes="smooth convex curve; non-exactness without any singularity",
        ),
        CurveRecord(
            name="fermat",
            implicit=parse_poly("1 - x1^4 - x2^4"),
            genus=3,
            singularities=(),
            expected_verdict="Exact",
            notes="admits a reduced block representation with 2 liftings",
        ),
    )


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _records()
    return list(_REGISTRY)


def curve_names():
    return [r.name for r in registry()]


def lookup(name):
    for r in registry():
        if r.name == name:
            return r
    raise KeyError(f"unknown curve {name!r}; known: {', '.join(curve_names())}")
