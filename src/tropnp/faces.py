"""Extended Newton polytopes and their classified tuple-faces.

For each component support A_i the extended polytope adjoins the origin:
conv(A_i u {0}), and Delta0 is their Minkowski sum.  A tuple-face picks one
face per member so that the Minkowski sum of the picks is a face of Delta0.
By the Cayley trick (Huber, Rambau and Santos, JEMS 2, 2000) these are the
faces of the Cayley polytope conv{(a, e_i) : a in A_i u {0}} that meet every
layer, read off its facet masks as `subdivision` reads lifted hulls, with no
lift.  Delta0 is never built: a face's id follows its dimension and its
vertices, the sums of the one-point-per-layer faces below it.  A witness
normal in the relative interior of a face's normal cone exposes the picked
face on every member, so the per-member support points and origin flags
are read off the witness.  Classification flags:

* origin: every member face contains the origin,
* pre_origin: some member face contains the origin,
* dicritical: the normal cone reaches a vector with a strictly positive
  coordinate (a cone ray has one, or the lineality is nonzero) and no
  member face degenerates to the origin vertex.

The members are read off the same facet masks: the vertices of conv(A_i u
{0}) are the Cayley vertices on layer i, and a point is one exactly when
the facets through it meet in that point alone.  So no member hull is
computed; a member's H-representation is built only when read, and the
member faces are polytopes built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, mul
from typing import Sequence

from .geom import (DIM_CAP, Polyhedron, _ireduce, _positive_direction,
                   int_rref, matrix_rank, primitive, reduce_mod)
from .subdivision import _cayley_faces
from .tropical import TropicalMap


class DimensionCapExceeded(ValueError):
    """Ambient dimension above the configured cap for exact enumeration."""


@dataclass(frozen=True)
class PolytopeTuple:
    """The extended Newton polytopes of a map and their Cayley polytope."""
    members: tuple            # one Polyhedron conv(A_i u {0}) per component
    supports: tuple           # per component, the sorted integer exponents
    cayley: tuple = field(repr=False, compare=False)  # of the A_i u {0}
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
        return self.members[0].n

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


def delta0(supports: Sequence, n: int = None, dim_cap: int = DIM_CAP) -> PolytopeTuple:
    """Extended Newton polytopes conv(support_i u {0}) and the Cayley
    polytope of those point sets, the origin last in each; accepts a
    TropicalMap or a list of exponent collections."""
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
    layers = [sup + (origin,) for sup in ints]
    cayley = _cayley_faces(layers)
    return PolytopeTuple(_members(n, layers, cayley[2]), ints, cayley)


def _members(n: int, layers: Sequence, facet_masks: Sequence[int]) -> tuple:
    """conv(layer) per layer, from the layer points at which the Cayley
    facets through them meet alone: its vertices."""
    full = (1 << sum(map(len, layers))) - 1
    members, bit = [], 1
    for layer in layers:
        vertices = []
        for p in layer:
            if reduce(and_, (m for m in facet_masks if m & bit), full) == bit:
                vertices.append(p)
            bit <<= 1
        members.append(Polyhedron._from_vertices(n, vertices))
    return tuple(members)


def enumerate_tuple_faces(tup: PolytopeTuple) -> list:
    """All tuple-faces: one per face of the Cayley polytope that meets every
    layer, so per proper face of Delta0, and the improper face when Delta0
    is lower-dimensional (its normal cone, the supports' orthogonal
    complement, then carries genuine contributions).

    A face's cone has as rays the primitive x-parts of the normals of the
    Cayley facets through it, reduced modulo the `int_rref` of the
    equalities' x-parts, which span its lineality.  The witness normal is
    the sum of the rays, or the first lineality row when there are none.  A
    member's argmax set is its support points at the top value t of <w, a>
    when t >= 0, and the origin is on its face when t <= 0.  Face ids follow
    (dimension of the summed face, its sorted vertices), which are the sums
    of the one-point-per-layer faces below it.
    """
    n = tup.n
    ineqs, eqs, facet_masks, cayley = tup.cayley
    lins, pivots = int_rref([a[:n] for a, _ in eqs])
    normals = [_ireduce(reduce_mod(a[:n], lins, pivots)) for a, _ in ineqs]
    layers = [sup + ((0,) * n,) for sup in tup.supports]
    vertices = [(mask, tuple(map(sum, zip(*(
        layer[part.bit_length() - 1] for part, layer in zip(parts, layers))))))
        for mask, parts in cayley if all(p & (p - 1) == 0 for p in parts)]
    keyed = []
    for mask, _ in cayley:
        rays = [r for r, m in zip(normals, facet_masks) if mask & m == mask]
        witness = primitive(map(sum, zip(*rays)) if rays else lins[0])
        dim = n - len(lins) - matrix_rank(rays)
        key = (dim, tuple(sorted(v for m, v in vertices if mask & m == m)))
        argmax, origin_members = [], set()
        for i, sup in enumerate(tup.supports):
            values = [sum(map(mul, witness, a)) for a in sup]
            top = max(values, default=0)
            argmax.append(frozenset(a for a, x in zip(sup, values) if x == top)
                          if top >= 0 else frozenset())
            if top <= 0:
                origin_members.add(i)
        degenerate = any(not argmax[i] for i in origin_members)
        positive = _positive_direction(rays, lins) is not None
        keyed.append((key, witness, dim, tuple(argmax),
                      frozenset(origin_members), positive and not degenerate))
    keyed.sort(key=lambda e: e[0])
    return [TupleFace(fid, *fields, tup=tup)
            for fid, (_, *fields) in enumerate(keyed)]
