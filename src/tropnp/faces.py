"""Extended Newton polytopes and their classified tuple-faces.

For each component support A_i the extended polytope adjoins the origin:
conv(A_i u {0}), and Delta0 is their Minkowski sum.  A tuple-face picks one
face per member so that the Minkowski sum of the picks is a face of Delta0.
The tuple-faces are therefore the faces of Delta0, read off its canonical
H-representation: their vertex sets are the ANDs of the facet incidence
masks, and a face's closed outer normal cone is spanned by the normals of
the facets containing it plus the equality normals (`Polyhedron.normal_fan`).
A witness normal in the relative interior of that cone exposes the face on
Delta0 and the picked face on every member, so the per-member support
points and origin flags are read off the witness.  Classification flags:

* origin: every member face contains the origin,
* pre_origin: some member face contains the origin,
* dicritical: the normal cone reaches a vector with a strictly positive
  coordinate (a cone ray has one, or the lineality is nonzero) and no
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

    The faces and their closed outer normal cones are read off the sum's
    facets (`Polyhedron.normal_fan`).  The witness normal is the sum of the
    cone's rays, which lies in its relative interior, or a lineality
    direction when the cone has no rays.  The improper face of a
    full-dimensional sum has a trivial normal cone and can never matter,
    but when all supports degenerate onto a common lower-dimensional
    subspace its normal cone is the orthogonal complement and it carries
    genuine contributions, so it is kept.  Each member's argmax set and
    origin flag come from the witness: with t the member's largest value
    <w, a> over its support, the support points at t are on the member face
    when t >= 0, and the origin is on it when t <= 0.

    Face ids follow (dimension of the summed face, its sorted vertices).
    """
    n = tup.n
    verts = [tuple(int(x) for x in v) for v in tup.sum.vertices]
    keyed = []
    for mask, cone in tup.sum.normal_fan():
        rays = cone.rays
        witness = primitive(map(sum, zip(*rays)) if rays else cone.lineality[0])
        dim = n - cone.dim
        key = (dim, tuple(v for k, v in enumerate(verts) if mask >> k & 1))
        argmax, origin_members = [], set()
        for i, sup in enumerate(tup.supports):
            values = [sum(map(mul, witness, a)) for a in sup]
            top = max(values, default=0)
            argmax.append(frozenset(a for a, x in zip(sup, values) if x == top)
                          if top >= 0 else frozenset())
            if top <= 0:
                origin_members.add(i)
        degenerate = any(not argmax[i] for i in origin_members)
        positive = positive_coordinate_witness(cone) is not None
        keyed.append((key, witness, dim, tuple(argmax),
                      frozenset(origin_members), positive and not degenerate))
    keyed.sort(key=lambda e: e[0])
    return [TupleFace(fid, *fields, tup=tup)
            for fid, (_, *fields) in enumerate(keyed)]
