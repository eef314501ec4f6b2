"""Definition-level membership oracle for the tropical non-properness set.

A point y belongs to the set exactly when the intersection of the virtual
preimages of y_1, ..., y_n contains a half-line whose direction has a
strictly positive coordinate.  The oracle decides this from first
principles: max(F_i, y_i) is F_i with one more term, the constant y_i at
the origin exponent, so `virtual_preimage` decomposes R^n by the extended
components and keeps the cells on which every one of them bends (those are
the cells inside every virtual preimage); `in_tnp` tests each closure's
recession cone and names the first witness cell.  `member`, which decides
the points of `grid_compare`, gives the same answer by a witness search
that prunes every partial cell receding in no direction with a positive
coordinate and builds no complex.  The oracle never consults tuple-faces
or restricted maps, so it arbitrates the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .geom import frac_vec, positive_coordinate_witness
from .subdivision import (CellComplex, decomposition,
                          has_dicritical_bend_cell)
from .tropical import TropicalMap
from .engine import TNPSet, parallel_map


@dataclass(frozen=True)
class OracleVerdict:
    member: bool
    cell_id: Optional[int] = None
    ray: Optional[tuple] = None

    def __bool__(self):
        return self.member


def _level_terms(F: TropicalMap, y) -> list:
    """The term maps of the max(F_i, y_i): each component's terms with the
    constant term y_i added at the origin.  No component has a constant
    term of its own (`TropicalPolynomial` refuses them), so the added term
    replaces none."""
    y = frac_vec(y)
    if len(y) != F.n:
        raise ValueError("point dimension mismatch")
    origin = (0,) * F.n
    return [{**terms, origin: v} for terms, v in zip(F.term_maps(), y)]


def virtual_preimage(F: TropicalMap, y) -> CellComplex:
    """The cells of the common corner locus of the max(F_i, y_i): the
    bend-only decomposition by the components extended by the levels."""
    return decomposition(_level_terms(F, y), F.n, bend_only=True)


def in_tnp(F: TropicalMap, y) -> OracleVerdict:
    """Decide membership of y, returning a witness cell and ray when inside."""
    for cell in virtual_preimage(F, y).cells:
        witness = positive_coordinate_witness(cell.closure)
        if witness is not None:
            return OracleVerdict(True, cell.id, tuple(witness))
    return OracleVerdict(False)


def member(F: TropicalMap, y) -> bool:
    """`in_tnp(F, y).member`, by a search that stops at the first witness
    cell and builds no complex."""
    return has_dicritical_bend_cell(_level_terms(F, y), F.n)


# ---------------------------------------------------------------------------
# grid comparison against the engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridMismatch:
    point: tuple
    oracle: bool
    engine: bool


@dataclass
class GridReport:
    points: int
    members: int
    mismatches: list


def _axis_values(lo: Fraction, hi: Fraction, resolution: int, offset: Fraction):
    if resolution < 2:
        return [lo + offset]
    step = (hi - lo) / (resolution - 1)
    return [lo + k * step + offset for k in range(resolution)]


def default_box(engine_set: TNPSet, pad: int = 5):
    """Bounding box of the engine vertices inflated by `pad` per side."""
    box = engine_set.bounding_box()
    if box is None:
        z = Fraction(0)
        return [(z - pad, z + pad)] * engine_set.n
    return [(lo - pad, hi + pad) for lo, hi in box]


def generic_offset(F: TropicalMap, box) -> Fraction:
    """1/q with q prime and above, so coprime to, every coefficient and box
    denominator."""
    dens = {c.denominator for p in F.components for c in p.terms.values()}
    dens |= {Fraction(v).denominator for pair in box for v in pair}
    q = max(dens) + 1
    while True:
        q += 1
        if _is_prime(q):
            return Fraction(1, q)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def grid_compare(F: TropicalMap, engine_set: TNPSet, box=None,
                 resolution: int = 33, offset: Optional[Fraction] = None) -> GridReport:
    """Compare oracle and engine membership over a rational grid.

    Grid points carry a generic rational offset (denominator coprime to all
    input denominators) so that they avoid the measure-zero piece boundaries
    where closed-versus-pointwise conventions could differ.
    """
    if box is None:
        box = default_box(engine_set)
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    if offset is None:
        offset = generic_offset(F, box)
    axes = [_axis_values(lo, hi, resolution, offset) for lo, hi in box]

    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]

    def check(pt):
        oracle = member(F, pt)
        engine = engine_set.membership(pt)
        if oracle != engine:
            return GridMismatch(pt, oracle, engine)
        return oracle

    results = parallel_map(check, points)
    mismatches = [r for r in results if isinstance(r, GridMismatch)]
    members = sum(1 for r in results if r is True)
    return GridReport(len(points), members, mismatches)


def boundary_samples(engine_set: TNPSet, minimum: int = 50):
    """Deterministic points lying exactly on the engine pieces.

    Vertices, edge midpoints, and ray probes of every canonical piece,
    cycled until at least `minimum` points are collected.
    """
    samples = []
    for piece, _ in engine_set.canonical:
        verts = piece.vertices
        samples.extend(verts)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                samples.append(tuple((a + b) / 2 for a, b in zip(verts[i], verts[j])))
        for v in verts:
            for r in piece.rays:
                samples.append(tuple(a + b for a, b in zip(v, frac_vec(r))))
                samples.append(tuple(a + 3 * b for a, b in zip(v, frac_vec(r))))
            for l in piece.lineality:
                samples.append(tuple(a + 2 * b for a, b in zip(v, frac_vec(l))))
    seen, unique = set(), []
    for s in samples:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    k = 2
    while 0 < len(unique) < minimum:
        extra = []
        for piece, _ in engine_set.canonical:
            for v in piece.vertices:
                for r in piece.rays:
                    extra.append(tuple(a + k * b for a, b in zip(v, frac_vec(r))))
            verts = piece.vertices
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    extra.append(tuple((a * (k - 1) + b) / k
                                       for a, b in zip(verts[i], verts[j])))
        for s in extra:
            if s not in seen:
                seen.add(s)
                unique.append(s)
        k += 1
        if k > minimum + 4:
            break
    return unique
