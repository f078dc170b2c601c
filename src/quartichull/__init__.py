"""Semidefinite representations of convex hulls of plane quartic curves."""

from .poly import (
    BivarPoly,
    ProjPoint,
    SupportLine,
    parse_poly,
    format_poly,
)

__version__ = "0.1.0"
