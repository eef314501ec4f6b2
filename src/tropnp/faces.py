"""Extended Newton polytopes and their classified tuple-faces.

For each component support A_i the extended polytope adjoins the origin:
conv(A_i u {0}), and Delta0 is their Minkowski sum.  A tuple-face picks one
face per member so that the Minkowski sum of the picks is a face of Delta0.
By the Cayley trick (Huber, Rambau and Santos, JEMS 2, 2000) these are the
faces of the Cayley polytope conv{(a, e_i) : a in A_i u {0}} that meet every
layer, read off its facet masks as `subdivision` reads lifted hulls, with no
lift.  Layer i of such a face holds the points of A_i u {0} on the picked
face of member i, so each face's layer masks give its argmax sets, its
origin flags (the origin is last in each layer) and its member faces.
Delta0 is never built: a face's id follows its dimension and its vertices,
the sums of the one-point-per-layer faces below it.  Classification flags:

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
from operator import and_
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
    #: per component, the bits of the member's vertices in its layer, the
    #: support points in order and then the origin
    _vertex_bits: tuple = field(repr=False, compare=False)
    #: member faces by (i, layer mask), shared by the tuple-faces of the map
    _member_faces: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        # a face holding every point of its layer is the member
        for i, (m, sup) in enumerate(zip(self.members, self.supports)):
            self._member_faces[i, (2 << len(sup)) - 1] = m

    @property
    def n(self) -> int:
        return self.members[0].n

    def member_face(self, i: int, part: int) -> Polyhedron:
        """The face of member i holding the points of layer i whose bits are
        set in `part`: the polytope of the member's vertices among them."""
        face = self._member_faces.get((i, part))
        if face is None:
            face = self._member_faces[i, part] = _polytope(
                self.n, self.supports[i], part & self._vertex_bits[i])
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
    _parts: tuple = field(repr=False, compare=False)  # the layer masks
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
        """Per component, the member face given by the layer mask."""
        return tuple(self.tup.member_face(i, part)
                     for i, part in enumerate(self._parts))


def _polytope(n: int, support: Sequence, bits: int) -> Polyhedron:
    """The polytope of the points of the layer support + (origin,) whose bits
    are set, trusted as its vertices."""
    layer = tuple(support) + ((0,) * n,)
    return Polyhedron._from_vertices(
        n, [p for k, p in enumerate(layer) if bits >> k & 1])


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
    bits = tuple(_members(layers, cayley[2]))
    members = tuple(_polytope(n, sup, b) for sup, b in zip(ints, bits))
    return PolytopeTuple(members, ints, cayley, bits)


def _members(layers: Sequence, facet_masks: Sequence[int]):
    """Per layer, the bits in it of the points at which the Cayley facets
    through them meet alone: the vertices of conv(layer)."""
    full = (1 << sum(map(len, layers))) - 1
    bit = 1
    for layer in layers:
        bits = 0
        for k in range(len(layer)):
            if reduce(and_, (m for m in facet_masks if m & bit), full) == bit:
                bits |= 1 << k
            bit <<= 1
        yield bits


def enumerate_tuple_faces(tup: PolytopeTuple) -> list:
    """All tuple-faces: one per face of the Cayley polytope that meets every
    layer, so per proper face of Delta0, and the improper face when Delta0
    is lower-dimensional (its normal cone, the supports' orthogonal
    complement, then carries genuine contributions).

    A face's cone has as rays the primitive x-parts of the outer normals of
    the Cayley facets through it, reduced modulo the `int_rref` of the
    equalities' x-parts, which span its lineality.  The witness normal is
    the sum of the rays, or the first lineality row when there are none.
    Member i's argmax set is the support points set in the face's layer-i
    mask, and i is an origin member when the layer's last bit, the origin,
    is set.  Face ids follow (dimension of the summed face, its sorted
    vertices), which are the sums of the one-point-per-layer faces below it.
    """
    n = tup.n
    ineqs, eqs, facet_masks, cayley = tup.cayley
    lins, pivots = int_rref([a[:n] for a in eqs])
    normals = [_ireduce(reduce_mod(a[:n], lins, pivots)) for a in ineqs]
    layers = [sup + ((0,) * n,) for sup in tup.supports]
    vertices = [(mask, tuple(map(sum, zip(*(
        layer[part.bit_length() - 1] for part, layer in zip(parts, layers))))))
        for mask, parts in cayley if all(p & (p - 1) == 0 for p in parts)]
    keyed = []
    for mask, parts in cayley:
        rays = [r for r, m in zip(normals, facet_masks) if mask & m == mask]
        witness = primitive(map(sum, zip(*rays)) if rays else lins[0])
        dim = n - len(lins) - matrix_rank(rays)
        key = (dim, tuple(sorted(v for m, v in vertices if mask & m == m)))
        argmax = tuple(frozenset(a for k, a in enumerate(sup) if part >> k & 1)
                       for sup, part in zip(tup.supports, parts))
        origin_members = frozenset(i for i, (sup, part) in enumerate(
            zip(tup.supports, parts)) if part >> len(sup))
        degenerate = any(not argmax[i] for i in origin_members)
        positive = _positive_direction(rays, lins) is not None
        keyed.append((key, witness, dim, argmax, origin_members,
                      positive and not degenerate, tuple(parts)))
    keyed.sort(key=lambda e: e[0])
    return [TupleFace(fid, *fields, tup=tup)
            for fid, (_, *fields) in enumerate(keyed)]
