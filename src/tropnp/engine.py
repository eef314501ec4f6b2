"""The tropical non-properness engine.

For every dicritical pre-origin tuple-face, restrict the map to the face,
decompose R^n by the restricted corner loci, and read one output polytope
off each contributing cell; no other tuple-face is restricted or
decomposed.  A cell contributes when it lies inside every corner locus
whose member face misses the origin, which its argmax profile tells
(`analyze_sigma`); its contribution couples all coordinates through a
common preimage point of the cell closure C (`_assemble`):

* coordinates whose member face contains the origin: the affine image of C
  under those components, lowered by cone{-e_i} on the bending ones,
* the remaining coordinates: free.

This is the closure of the virtual image over the cell, one affine image
of C's generators widened by rays and lines before a single dual
description: an affine image of a polyhedron is the image of its
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .geom import Polyhedron, frac_vec
from .subdivision import Cell, CellComplex, decomposition
from .faces import TupleFace, delta0, enumerate_tuple_faces
from .tropical import TropicalMap


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

    @property
    def origin_members(self) -> frozenset:
        """Components whose member face contains the origin."""
        return self.face.origin_members

    @property
    def free_members(self) -> frozenset:
        return frozenset(range(len(self.restricted))) - self.origin_members


@dataclass
class SigmaAnalysis:
    """Per-cell contribution data inside a restricted decomposition."""
    cell: Cell
    contributing: bool
    bending: frozenset  # components bending


@dataclass(frozen=True)
class TNPPiece:
    polyhedron: Polyhedron
    face_id: int
    cell_id: int


class TNPSet:
    """The tropical non-properness set as a canonical union of polytopes."""

    def __init__(self, n: int, pieces: Sequence[TNPPiece]):
        self.n = n
        self.pieces = tuple(pieces)
        self.canonical = self._canonical_union(pieces)

    @classmethod
    def from_canonical(cls, n: int, polytopes) -> "TNPSet":
        """A set whose polytopes already form a canonical union, as the
        pieces of a written document do: taken as they are, with no
        provenance, and no union is recomputed."""
        s = object.__new__(cls)
        s.n, s.pieces = n, ()
        s.canonical = tuple((p, ()) for p in polytopes)
        return s

    @staticmethod
    def _canonical_union(pieces):
        distinct = {}
        for piece in pieces:
            key = piece.polyhedron.canonical_key()
            distinct.setdefault(key, (piece.polyhedron, []))[1].append(
                (piece.face_id, piece.cell_id))
        # distinct keys are distinct sets, so containment is strict
        entries = list(distinct.values())
        keep = [(p, tuple(sorted(prov))) for i, (p, prov) in enumerate(entries)
                if not any(j != i and q.contains_polyhedron(p)
                           for j, (q, _) in enumerate(entries))]
        keep.sort(key=lambda e: (-e[0].dim, e[0].canonical_key()))
        return tuple(keep)

    @property
    def polytopes(self):
        return [p for p, _ in self.canonical]

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
                f"canonical={len(self.canonical)})")


# ---------------------------------------------------------------------------
# per-face analysis
# ---------------------------------------------------------------------------

def analyze_gamma(F: TropicalMap, face: TupleFace) -> GammaContext:
    """Restrict the map to a tuple-face, keeping each component's terms in
    the face's argmax set, and decompose by the restrictions.

    Components restricting to one or zero terms have an empty corner locus
    and contribute the trivial whole-space factor to the decomposition.
    """
    restricted = tuple({a: c for a, c in comp.terms.items() if a in argmax}
                       for comp, argmax in zip(F.components, face.argmax))
    cx = decomposition(restricted, F.n)
    return GammaContext(face, restricted, cx)


def analyze_sigma(ctx: GammaContext, cell: Cell) -> SigmaAnalysis:
    """Classify one cell of the restricted decomposition.

    Contribution requires the cell to bend in every component whose member
    face misses the origin; a single relative-interior test point decides
    this, and the stored argmax profile is exactly that test.
    """
    bending = frozenset(i for i, fc in enumerate(cell.profile) if fc.bends)
    contributing = all(i in bending for i in ctx.free_members)
    return SigmaAnalysis(cell, contributing, bending)


def _affine_form(ctx: GammaContext, cell: Cell, i: int):
    """The affine form of restricted component i on the cell: an origin
    member of a dicritical face keeps a term, so the cell has dual points."""
    exp = cell.profile[i].dual_points[0]
    return frac_vec(exp), ctx.restricted[i][exp]


def cell_contribution(ctx: GammaContext, analysis: SigmaAnalysis) -> Polyhedron:
    """The output polytope of one analyzed cell; empty unless the face is
    dicritical pre-origin and the cell contributes."""
    n = ctx.face.n
    face = ctx.face
    if not (face.dicritical and face.pre_origin and analysis.contributing):
        return Polyhedron.empty(n)
    piece = _assemble(ctx, analysis)
    if piece.dim > n - 1:
        raise GenericityError(
            f"piece of dimension {piece.dim} from face {face.id}, "
            f"cell {analysis.cell.id}: input is not face-generic")
    return piece


def _assemble(ctx: GammaContext, analysis: SigmaAnalysis) -> Polyhedron:
    """l(C) + cone{-e_i : i a bending origin member} + span{e_j : j a free
    member}, C the cell closure and l the map x -> (l_i(x) on the origin
    members, 0 elsewhere), l_i the member's affine form on the cell."""
    n = ctx.face.n
    zero = (0,) * n
    rows, consts, rays, lines = [], [], [], []
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        if i in ctx.origin_members:
            row, const = _affine_form(ctx, analysis.cell, i)
            if i in analysis.bending:
                rays.append(tuple(-x for x in unit))
        else:
            row, const = zero, 0
            lines.append(unit)
        rows.append(row)
        consts.append(const)
    return analysis.cell.closure.affine_image(
        rows, consts, rays, lines).dual_description()


# ---------------------------------------------------------------------------
# the full engine
# ---------------------------------------------------------------------------

def tnp_set(F: TropicalMap, *,
            faces: Optional[Sequence[TupleFace]] = None) -> TNPSet:
    """Union of the contributions over all dicritical pre-origin tuple-faces.

    Callers that already hold the tuple-faces of delta0(F) pass them as
    `faces`, so that they are not enumerated twice; only the dicritical
    pre-origin ones are restricted and decomposed.
    """
    if faces is None:
        faces = enumerate_tuple_faces(delta0(F))
    relevant = [f for f in faces if f.dicritical and f.pre_origin]

    def work(face):
        ctx = analyze_gamma(F, face)
        out = []
        for cell in ctx.complex:
            analysis = analyze_sigma(ctx, cell)
            piece = cell_contribution(ctx, analysis)
            if not piece.is_empty:
                out.append(TNPPiece(piece, face.id, cell.id))
        return out

    pieces = [p for chunk in parallel_map(work, relevant) for p in chunk]
    return TNPSet(F.n, pieces)

