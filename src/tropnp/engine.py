"""The tropical non-properness engine.

For every dicritical pre-origin tuple-face, restrict the map to the face,
decompose R^n by the restricted corner loci, and read one output polytope
off each contributing cell.  A cell contributes when it lies inside every
corner locus whose member face misses the origin; its contribution is
assembled coordinate-wise:

* coordinates whose member face contains the origin and whose dual summand
  is a point: the affine image of the cell under those components,
* coordinates whose member face contains the origin and whose dual summand
  has positive dimension: an upper bound by the maximum of the component
  over the cell closure,
* the remaining coordinates: free.

Two assemblies exist for the bounded block.  The "product" form bounds each
coordinate independently by its supremum over the cell; the "staircase"
form keeps all coordinates coupled through a common preimage point and
projects.  The staircase set is contained in the product set, and the two
differ exactly when the per-coordinate suprema are not attained at a single
point of the cell.  The coupled form is the default: it is the closure of
the honest virtual image, and the membership oracle confirms it on inputs
where the product form provably overshoots (which happens from dimension
three on, even on transversal inputs).  The probe suite classifies every
difference between the two against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .geom import Polyhedron, covered_by_union, frac_vec
from .subdivision import Cell, CellComplex, decomposition
from .faces import TupleFace, delta0, enumerate_tuple_faces
from .tropical import MINUS_INF, PLUS_INF, TropicalMap


class GenericityError(RuntimeError):
    """An emitted piece violated the dimension bound: the input map is not
    face-generic enough for the polyhedral recipe."""


def parallel_map(fn, items):
    """Ordered map of fn over items, run serially: one item per tuple-face
    in `tnp_set`, one per grid point in `grid_compare`.  The work is
    pure-Python arithmetic, which threads under the interpreter lock only
    slow down; the function stays as the one place an external tracer
    (perfbench/tracer.py) wraps to time each item."""
    return [fn(x) for x in items]


@dataclass
class GammaContext:
    """A tuple-face with its restricted map and induced decomposition."""
    face: TupleFace
    restricted: tuple            # per component: term dict (possibly empty)
    complex: CellComplex
    origin_members: frozenset    # components whose member face contains 0

    @property
    def free_members(self) -> frozenset:
        return frozenset(range(len(self.restricted))) - self.origin_members


@dataclass
class SigmaAnalysis:
    """Per-cell contribution data inside a restricted decomposition."""
    cell: Cell
    contributing: bool
    bending: frozenset = field(default_factory=frozenset)  # components bending
    bounds: dict = field(default_factory=dict)   # origin&bending -> sup or +inf
    image: Optional[Polyhedron] = None           # origin&non-bending block image
    image_coords: tuple = ()
    #: an origin member restricted to no terms at all: its output coordinate
    #: would sit at minus infinity, so nothing real can be emitted
    unrealizable: bool = False


@dataclass(frozen=True)
class TNPPiece:
    polyhedron: Polyhedron
    face_id: int
    cell_id: int


class TNPSet:
    """The tropical non-properness set as a canonical union of polytopes."""

    def __init__(self, n: int, pieces: Sequence[TNPPiece], assembly: str):
        self.n = n
        self.pieces = tuple(pieces)
        self.assembly = assembly
        self.canonical = self._canonical_union(pieces)

    @staticmethod
    def _canonical_union(pieces):
        distinct = {}
        for piece in pieces:
            key = piece.polyhedron.canonical_key()
            distinct.setdefault(key, (piece.polyhedron, []))[1].append(
                (piece.face_id, piece.cell_id))
        entries = list(distinct.values())
        keep = []
        for i, (p, prov) in enumerate(entries):
            maximal = True
            for j, (q, _) in enumerate(entries):
                if i == j:
                    continue
                if q.contains_polyhedron(p) and not p.contains_polyhedron(q):
                    maximal = False
                    break
                if q.contains_polyhedron(p) and j < i:
                    maximal = False  # equal sets: keep the first
                    break
            if maximal:
                keep.append((p, tuple(sorted(prov))))
        keep.sort(key=lambda e: (-e[0].dim, e[0].canonical_key()))
        return tuple(keep)

    @property
    def polytopes(self):
        return [p for p, _ in self.canonical]

    @property
    def is_empty(self) -> bool:
        return not self.canonical

    def membership(self, y) -> bool:
        """Closed membership: boundaries of pieces count."""
        y = frac_vec(y)
        return any(p.contains(y) for p, _ in self.canonical)

    def bounding_box(self):
        """Bounding box of all piece vertices; None when there are none."""
        verts = [v for p, _ in self.canonical for v in p.vertices]
        if not verts:
            return None
        lo = [min(v[i] for v in verts) for i in range(self.n)]
        hi = [max(v[i] for v in verts) for i in range(self.n)]
        return list(zip(lo, hi))

    def __repr__(self):
        return (f"TNPSet(n={self.n}, pieces={len(self.pieces)}, "
                f"canonical={len(self.canonical)}, assembly={self.assembly!r})")


# ---------------------------------------------------------------------------
# per-face analysis
# ---------------------------------------------------------------------------

def analyze_gamma(F: TropicalMap, face: TupleFace) -> GammaContext:
    """Restrict the map to a tuple-face and decompose by the restrictions.

    Components restricting to one or zero terms have an empty corner locus
    and contribute the trivial whole-space factor to the decomposition.
    """
    restricted = []
    for comp, member in zip(F.components, face.members):
        r = comp.restrict(member)
        restricted.append({} if r is None else r.terms)
    cx = decomposition(restricted, [MINUS_INF] * F.n, n=F.n)
    return GammaContext(face, tuple(restricted), cx, face.origin_members)


def analyze_sigma(ctx: GammaContext, cell: Cell) -> SigmaAnalysis:
    """Classify one cell of the restricted decomposition.

    Contribution requires the cell to bend in every component whose member
    face misses the origin; a single relative-interior test point decides
    this, and the stored argmax profile is exactly that test.
    """
    bending = frozenset(i for i, fc in enumerate(cell.profile) if fc.bends)
    contributing = all(i in bending for i in ctx.free_members)
    analysis = SigmaAnalysis(cell, contributing, bending)
    if not contributing:
        return analysis
    assert ctx.free_members <= bending

    closure = cell.closure
    bounds = {}
    for i in sorted(ctx.origin_members & bending):
        normal, offset = _affine_form(ctx, cell, i)
        sup = closure.support_value(normal)
        bounds[i] = PLUS_INF if sup is None else sup + offset
    analysis.bounds = bounds

    image_coords = []
    rows, consts = [], []
    for i in sorted(ctx.origin_members - bending):
        if not cell.argmax[i]:
            analysis.unrealizable = True
            continue
        normal, offset = _affine_form(ctx, cell, i)
        image_coords.append(i)
        rows.append(normal)
        consts.append(offset)
    analysis.image_coords = tuple(image_coords)
    if image_coords:
        analysis.image = closure.affine_image(rows, consts)
    return analysis


def _affine_form(ctx: GammaContext, cell: Cell, i: int):
    """The affine form of restricted component i on the cell."""
    exp = sorted(cell.argmax[i])[0]
    return frac_vec(exp), ctx.restricted[i][exp]


def cell_contribution(ctx: GammaContext, analysis: SigmaAnalysis,
                      staircase: bool = True) -> Polyhedron:
    """The output polytope of one analyzed cell; empty unless the face is
    dicritical pre-origin and the cell contributes."""
    n = ctx.face.n
    face = ctx.face
    if not (face.dicritical and face.pre_origin and analysis.contributing):
        return Polyhedron.empty(n)
    if analysis.unrealizable:
        return Polyhedron.empty(n)
    piece = _assemble_staircase(ctx, analysis) if staircase \
        else _assemble_product(ctx, analysis)
    if piece.dim > n - 1:
        raise GenericityError(
            f"piece of dimension {piece.dim} from face {face.id}, "
            f"cell {analysis.cell.id}: input is not face-generic")
    return piece


def _assemble_product(ctx: GammaContext, analysis: SigmaAnalysis) -> Polyhedron:
    n = ctx.face.n
    ineqs, eqs = [], []
    for i, bound in sorted(analysis.bounds.items()):
        if bound != PLUS_INF:
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            ineqs.append((tuple(e), Fraction(bound)))
    if analysis.image is not None:
        img_ineqs, img_eqs = analysis.image.hrep()
        coords = analysis.image_coords
        for a, b in img_ineqs:
            e = [Fraction(0)] * n
            for c, coeff in zip(coords, a):
                e[c] = coeff
            ineqs.append((tuple(e), b))
        for a, b in img_eqs:
            e = [Fraction(0)] * n
            for c, coeff in zip(coords, a):
                e[c] = coeff
            eqs.append((tuple(e), b))
    return Polyhedron.from_hrep(n, ineqs, eqs).dual_description()


def _assemble_staircase(ctx: GammaContext, analysis: SigmaAnalysis) -> Polyhedron:
    """Closure of the coupled virtual image: project {(x, y) : x in cell,
    y_i = comp_i(x) on the image block, y_i <= comp_i(x) on the bound block}."""
    n = ctx.face.n
    closure = analysis.cell.closure
    ineqs, eqs = [], []
    cineqs, ceqs = closure.hrep()
    zero_y = tuple([Fraction(0)] * n)
    for a, b in cineqs:
        ineqs.append((tuple(a) + zero_y, b))
    for a, b in ceqs:
        eqs.append((tuple(a) + zero_y, b))
    for i in sorted(ctx.origin_members):
        normal, offset = _affine_form(ctx, analysis.cell, i)
        row = [-c for c in normal] + [Fraction(0)] * n
        row[n + i] = Fraction(1)
        # y_i - comp_i(x) <= 0, with equality on the image block
        if i in analysis.bending:
            ineqs.append((tuple(row), offset))
        else:
            eqs.append((tuple(row), offset))
    lifted = Polyhedron.from_hrep(2 * n, ineqs, eqs)
    return lifted.project(range(n, 2 * n)).dual_description()


# ---------------------------------------------------------------------------
# the full engine
# ---------------------------------------------------------------------------

def tnp_set(F: TropicalMap, *, staircase: bool = True,
            contexts: Optional[Sequence[GammaContext]] = None) -> TNPSet:
    """Union of the contributions over all dicritical pre-origin tuple-faces.

    The coupled staircase assembly is the default; pass staircase=False for
    the per-coordinate product closure (useful for cross-checking, but it
    can exceed the true set when suprema are not simultaneously attained).
    Callers that already hold the analyze_gamma contexts of the tuple-faces
    pass them as `contexts`, so that no face is analysed twice.
    """
    if contexts is None:
        contexts = [analyze_gamma(F, f) for f in enumerate_tuple_faces(delta0(F))
                    if f.dicritical and f.pre_origin]
    relevant = [c for c in contexts if c.face.dicritical and c.face.pre_origin]

    def work(ctx):
        out = []
        for cell in ctx.complex:
            analysis = analyze_sigma(ctx, cell)
            piece = cell_contribution(ctx, analysis, staircase=staircase)
            if not piece.is_empty:
                out.append(TNPPiece(piece, ctx.face.id, cell.id))
        return out

    pieces = [p for chunk in parallel_map(work, relevant) for p in chunk]
    return TNPSet(F.n, pieces, "staircase" if staircase else "product")


def membership(s: TNPSet, y) -> bool:
    return s.membership(y)


def union_covers(s: TNPSet, target: Polyhedron) -> bool:
    """Exact containment of a polyhedron in the union of the pieces."""
    return covered_by_union(target, s.polytopes)
