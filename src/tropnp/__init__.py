"""Exact polyhedral engine for the tropical non-properness set of a
tropical polynomial map, with a definition-level oracle and Newton-polytope
fan recovery."""

from .geom import Polyhedron, convex_hull, is_dicritical_cone
from .tropical import TropicalPolynomial, TropicalMap, MINUS_INF
from .subdivision import decomposition, CellComplex
from .faces import delta0, enumerate_tuple_faces, TupleFace
from .engine import tnp_set, TNPSet
from .oracle import in_tnp, grid_compare
from .newton import recover_fan, RecoveredFan

__all__ = [
    "Polyhedron", "convex_hull", "is_dicritical_cone",
    "TropicalPolynomial", "TropicalMap", "MINUS_INF",
    "decomposition", "CellComplex",
    "delta0", "enumerate_tuple_faces", "TupleFace",
    "tnp_set", "TNPSet",
    "in_tnp", "grid_compare",
    "recover_fan", "RecoveredFan",
]
