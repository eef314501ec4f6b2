"""Recovery of the normal fan of the Newton polytope dual to a
tropical non-properness set.

The set is a finite union of polytopes of codimension >= 1.  When it is the
corner locus of some tropical polynomial, the recession cones of its pieces
tile the codimension-1 skeleton of the normal fan of that polynomial's
Newton polytope, and positive weights on that skeleton balance it
(Maclagan & Sturmfels, Introduction to Tropical Geometry, 3.1 and 3.3).
The construction below rebuilds the polytope, up to translation and scale:

1. take the recession cone of every piece,
2. cut R^n by every constraint hyperplane of those cones (a central
   arrangement refined enough that each recession cone is a union of
   arrangement cells).  A central arrangement is the normal fan of the
   zonotope Z = sum of the segments conv{0, a} over its normals a: the
   full-dimensional cones (regions) are the normal cones of Z's vertices,
   and the walls between them those of Z's edges,
3. walk the regions from Z's vertex 0: crossing the wall of the edge
   (i, j) from region i adds w_ij * primitive(v_j - v_i) to the gradient,
   with v the vertices of Z, w_ij an unknown weight on a wall inside the
   skeleton and 0 on any other.  Every wall that closes a cycle of the
   walk asks the two gradients it joins to agree; the weights are the sum
   of the extreme rays of the nonnegative cone of those conditions, and
   unless all of them are positive the set is no corner locus.  The
   gradients are then the slopes of the convex piecewise linear function
   whose corner locus is the skeleton (Fulton & Sturmfels, Topology 36,
   1997), and their convex hull P has the normal fan sought.

The empty set has no walls: its walk stays at the origin, and P is a point.
Cones are Polyhedrons with the origin as their point; `cones_by_dim` maps
each dimension to the fan's cones of that dimension, sorted by canonical
key.  Counting cones by dimension gives the face-vector (the number of
j-dimensional polytope faces equals the number of (n-j)-dimensional cones),
and the fan's minimal-plus-one-dimensional cones give the facet normals.
Only the combinatorial type and slopes are recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .geom import Polyhedron, frac_vec, is_zero_vec, primitive, vdot, vsub
from .engine import TNPSet


class FanError(ValueError):
    """The input union is not the corner locus of any tropical polynomial,
    so no Newton polytope can be recovered."""


@dataclass
class RecoveredFan:
    """A complete fan with face counts and facet slopes of the dual polytope."""
    n: int
    cones_by_dim: dict              # dim -> cones (Polyhedrons), sorted by key
    face_vector: tuple              # entry j counts cones of dimension n - j
    facet_normals: tuple            # primitive outer normals of the facets
    span_dim: int                   # dimension of the dual polytope
    span_normals: tuple             # normals of the polytope's affine span


def _skeleton_cones(pieces: Sequence[Polyhedron]):
    cones = []
    seen = set()
    for p in pieces:
        c = p.recession_cone()
        if c.dim == 0:
            continue
        key = c.canonical_key()
        if key not in seen:
            seen.add(key)
            cones.append(c)
    return cones


def _cut_hyperplanes(cones: Sequence[Polyhedron]):
    normals = set()
    for c in cones:
        ineqs, eqs = c.hrep()
        for a, _ in ineqs + eqs:
            v = primitive(a)
            normals.add(max(v, tuple(-x for x in v)))
    return sorted(normals)


def _arrangement(n: int, hyperplanes):
    """The central arrangement of the hyperplanes as the normal fan of the
    zonotope Z = sum of the segments conv{0, a} (Ziegler, Lectures on
    Polytopes, ch. 7): the outer normal cone of a vertex of Z is a region,
    that of an edge of Z (or of Z itself, when Z is a segment) is a wall.

    Returns (vertices, walls): Z's vertices, and per wall its cone with the
    indices of the two vertices of its edge, whose regions it separates.
    """
    origin = (0,) * n
    zonotope = Polyhedron.point(origin)
    for a in hyperplanes:
        zonotope = zonotope.minkowski_sum(Polyhedron.from_generators(n, [origin, a]))
    walls = [(cone, (mask & -mask).bit_length() - 1, mask.bit_length() - 1)
             for mask, cone in zonotope.normal_fan() if mask.bit_count() == 2]
    return zonotope.vertices, walls


def _gradients(n: int, skeleton: Sequence[Polyhedron]):
    """The gradient of the walk in every region, one per vertex of Z, for
    the sum of the extreme rays of the cone of nonnegative balancing
    weights; None when that sum is not positive on every skeleton wall."""
    vertices, walls = _arrangement(n, _cut_hyperplanes(skeleton))
    inner = [(i, j) for cone, i, j in walls
             if any(c.contains_polyhedron(cone) for c in skeleton)]
    k = len(inner)
    # crossing a wall adds its weight times the primitive edge vector: per
    # coordinate, the coefficients of the k unknown weights
    jump = {}
    for e, (i, j) in enumerate(inner):
        u = primitive(vsub(vertices[j], vertices[i]))
        jump[i, j] = tuple(tuple(x * (f == e) for f in range(k)) for x in u)
        jump[j, i] = tuple(tuple(-y for y in row) for row in jump[i, j])
    neighbours = {i: [] for i in range(len(vertices))}
    for _, i, j in walls:
        neighbours[i].append(j)
        neighbours[j].append(i)
    grad = {0: ((0,) * k,) * n}
    conditions = set()
    queue = [0]
    for i in queue:
        for j in neighbours[i]:
            g = grad[i]
            if (i, j) in jump:
                g = tuple(tuple(map(add, a, b)) for a, b in zip(g, jump[i, j]))
            if j not in grad:
                grad[j] = g
                queue.append(j)
            conditions.update(vsub(a, b) for a, b in zip(g, grad[j]) if a != b)
    cone = Polyhedron.from_hrep(
        k, [(tuple(-int(f == e) for f in range(k)), 0) for e in range(k)],
        [(c, 0) for c in sorted(conditions)])
    weights = [sum(x) for x in zip((0,) * k, *cone.rays)]
    if not all(w > 0 for w in weights):
        return None
    return [tuple(vdot(row, weights) for row in grad[i])
            for i in range(len(vertices))]


def recover_fan(s: TNPSet) -> RecoveredFan:
    """Rebuild the normal fan of the Newton polytope dual to the set."""
    n = s.n
    pieces = s.polytopes
    if any(p.dim > n - 1 for p in pieces):
        raise FanError("pieces must have codimension at least one")
    skeleton = _skeleton_cones(pieces)
    if pieces and not skeleton:
        # all pieces bounded: impossible for a corner locus
        raise FanError("no unbounded piece: the set is not a corner locus")
    gradients = _gradients(n, skeleton)
    if gradients is None:
        raise FanError("no positive weights balance the set: "
                       "it is not a corner locus")

    polytope = Polyhedron.from_generators(n, gradients)
    by_dim = {d: [] for d in range(n + 1)}
    for _, cone in polytope.normal_fan():
        by_dim[cone.dim].append(cone)
    if polytope.dim == n:
        by_dim[0].append(Polyhedron.point((0,) * n))
    for cones in by_dim.values():
        cones.sort(key=Polyhedron.canonical_key)

    # every cone has the normals of the polytope's span as its lineality
    W = by_dim[n][0].lineality
    span_dim = polytope.dim

    face_vector = tuple(len(by_dim[n - j]) for j in range(n))

    facet_normals = []
    for cone in by_dim.get(len(W) + 1, []):
        if len(cone.rays) != 1:
            raise FanError("facet cone without a unique ray generator")
        facet_normals.append(_orth_project(cone.rays[0], W))
    facet_normals = tuple(sorted(facet_normals))

    span_normals = tuple(sorted(W))
    return RecoveredFan(n, by_dim, face_vector, facet_normals,
                        span_dim, span_normals)


def _orth_project(ray, lineality):
    """Primitive orthogonal projection of a ray onto the complement of W."""
    v = frac_vec(ray)
    basis = [frac_vec(l) for l in lineality]
    for b in basis:
        denom = vdot(b, b)
        coef = Fraction(vdot(v, b), denom)
        v = tuple(x - coef * y for x, y in zip(v, b))
    if is_zero_vec(v):
        raise FanError("facet ray collapses into the lineality space")
    return primitive(v)
