"""Extended Newton polytopes and their classified tuple-faces.

For each component support A_i the extended polytope adjoins the origin:
conv(A_i u {0}), and Delta0 is their Minkowski sum.  A tuple-face picks one
face per member so that the Minkowski sum of the picks is a face of Delta0.
The tuple-faces are the cones of the normal fan of Delta0, which are the
cells of one decomposition: the trivially valued map max(<a, x> : a in A_i)
with the origin as a level pseudo-term at level 0.  A cell's argmax profile
names, per member, the support points on the member face and whether the
origin is on it; its closure is the outer normal cone.  Classification flags
are read off the profile and the closure:

* origin: every member face contains the origin,
* pre_origin: some member face contains the origin,
* dicritical: the normal cone reaches a vector with a strictly positive
  coordinate (a closure ray has one, or the lineality is nonzero) and no
  member face degenerates to the origin vertex.

The member faces and the summed face are polytopes built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Sequence

from .geom import (DIM_CAP, Polyhedron, convex_hull,
                   positive_coordinate_witness, primitive)
from .subdivision import _build_factor_cells, _refine
from .tropical import TropicalMap


class DimensionCapExceeded(ValueError):
    """Ambient dimension above the configured cap for exact enumeration."""


@dataclass(frozen=True)
class PolytopeTuple:
    """The extended Newton polytopes of a map together with their sum."""
    members: tuple            # one Polyhedron conv(A_i u {0}) per component
    sum: Polyhedron
    supports: tuple           # per component, the sorted integer exponents
    #: member faces by (i, argmax, origin on the face), shared by the
    #: tuple-faces of the map
    _member_faces: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        # a face holding every support point and the origin is the member
        for i, (m, sup) in enumerate(zip(self.members, self.supports)):
            self._member_faces[i, frozenset(sup), True] = m

    @property
    def n(self) -> int:
        return self.sum.n

    def member_face(self, i: int, argmax: frozenset, has_origin: bool,
                    witness) -> Polyhedron:
        """The face of member i holding the support points `argmax` (and the
        origin when `has_origin`); `witness` is any normal exposing it."""
        key = (i, argmax, has_origin)
        face = self._member_faces.get(key)
        if face is None:
            face = self._member_faces[key] = \
                self.members[i].face_in_direction(witness)
        return face


@dataclass
class TupleFace:
    """One tuple-face: a witness normal, the per-member argmax sets, flags."""
    id: int
    witness_normal: tuple          # primitive integer relint normal
    dim: int                       # dimension of the summed face
    argmax: tuple                  # per member: support points on its face
    origin_members: frozenset      # members whose face contains the origin
    dicritical: bool
    tup: PolytopeTuple = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.witness_normal)

    @property
    def origin(self) -> bool:
        return len(self.origin_members) == len(self.argmax)

    @property
    def pre_origin(self) -> bool:
        return bool(self.origin_members)

    @property
    def strictly_pre_origin(self) -> bool:
        return self.pre_origin and not self.origin

    @cached_property
    def members(self) -> tuple:
        """Per component, the member face exposed by the witness normal."""
        return tuple(self.tup.member_face(i, s, i in self.origin_members,
                                          self.witness_normal)
                     for i, s in enumerate(self.argmax))

    @cached_property
    def sum_face(self) -> Polyhedron:
        return self.tup.sum.face_in_direction(self.witness_normal)


def delta0(supports: Sequence, n: int = None, dim_cap: int = DIM_CAP) -> PolytopeTuple:
    """Extended Newton polytopes conv(support_i u {0}) and their Minkowski sum.

    Accepts a TropicalMap or a list of exponent collections.
    """
    if isinstance(supports, TropicalMap):
        n = supports.n
        supports = [p.support for p in supports]
    if n is None:
        n = len(next(iter(supports[0])))
    if n > dim_cap:
        raise DimensionCapExceeded(
            f"ambient dimension {n} exceeds the cap {dim_cap}")
    origin = tuple([0] * n)
    ints = tuple(tuple(sorted({tuple(int(x) for x in p) for p in sup} - {origin}))
                 for sup in supports)
    members = tuple(convex_hull(list(sup) + [origin]) for sup in ints)
    acc = members[0]
    for p in members[1:]:
        acc = acc.minkowski_sum(p)
    return PolytopeTuple(members, acc.dual_description(), ints)


def enumerate_tuple_faces(tup: PolytopeTuple) -> list:
    """All tuple-faces: one per proper face of the summed polytope, plus the
    improper face when the sum is lower-dimensional.

    The tuple-faces are the cells of the decomposition of the trivially
    valued map with the origin as level pseudo-term (see the module doc).
    The witness normal is the sum of the closure's rays, which lies in the
    relative interior of the normal cone, or a lineality direction when the
    cone has no rays.  The cell that is only the lineality is the improper
    face: for a full-dimensional sum its normal cone is trivial and it can
    never matter, but when all supports degenerate onto a common
    lower-dimensional subspace its normal cone is the orthogonal complement
    and it carries genuine contributions, so it is kept.

    Face ids follow (dimension of the summed face, its sorted vertices).
    The level-0 factor cells are read once per map and are built outside
    the shared factor-cell cache.
    """
    n = tup.n
    factor_lists = [_build_factor_cells(n, tuple((a, 0) for a in sup), 0)
                    for sup in tup.supports]
    verts = [tuple(int(x) for x in v) for v in tup.sum.vertices]
    keyed = []
    for profile, closure in _refine(n, factor_lists):
        rays, lineality = closure.rays, closure.lineality
        if not rays and not lineality:
            continue  # the improper face of a full-dimensional sum
        witness = primitive(map(sum, zip(*rays)) if rays else lineality[0])
        values = [sum(map(mul, witness, v)) for v in verts]
        top = max(values)
        dim = n - closure.dim
        key = (dim, tuple(v for v, x in zip(verts, values) if x == top))
        origin_members = frozenset(
            i for i, fc in enumerate(profile) if fc.has_level)
        degenerate = any(fc.has_level and not fc.argmax for fc in profile)
        positive = positive_coordinate_witness(closure) is not None
        keyed.append((key, witness, dim, tuple(fc.argmax for fc in profile),
                      origin_members, positive and not degenerate))
    keyed.sort(key=lambda e: e[0])
    return [TupleFace(fid, *fields, tup=tup)
            for fid, (_, *fields) in enumerate(keyed)]
