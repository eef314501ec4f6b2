"""Recovery of the normal fan of the Newton polytope dual to a
tropical non-properness set.

The set is a finite union of polytopes of codimension >= 1.  When it is the
corner locus of some tropical polynomial, the recession cones of its pieces
tile the codimension-1 skeleton of the normal fan of that polynomial's
Newton polytope; the maximal cones are the closures of the connected
components of the complement.  The construction below rebuilds the fan:

1. take the recession cone of every piece,
2. cut R^n by every constraint hyperplane of those cones (a central
   arrangement refined enough that each recession cone is a union of
   arrangement cells).  The arrangement is one refinement search of the
   decomposition machinery: hyperplane a = a+ - a- is the corner locus of
   the tropical binomial max(<a+, x>, <a-, x>), so every relatively open
   cone of the arrangement is the cell of one argmax profile, found once,
3. merge adjacent full-dimensional arrangement cones whose shared wall is
   not inside the skeleton (a wall ties one binomial, and its two
   neighbours are the profiles that take either strict side instead), and
   collect all faces of the merged cones.

Cones are Polyhedrons with the origin as their point; `cones_by_dim` maps
each dimension to the fan's cones of that dimension, sorted by canonical
key.  Counting cones by dimension gives the face-vector (the number of
j-dimensional polytope faces equals the number of (n-j)-dimensional cones),
and the fan's minimal-plus-one-dimensional cones give the facet normals.
Only the combinatorial type and slopes are recovered: edge lattice lengths
would need tropical multiplicities, which the set does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geom import Polyhedron, frac_vec, is_zero_vec, primitive, vdot
from .engine import TNPSet
from .subdivision import _build_factor_cells, _refine
from .tropical import MINUS_INF


class FanError(ValueError):
    """The input union is not the corner locus of any tropical polynomial
    (or is empty), so no Newton polytope can be recovered."""


@dataclass
class RecoveredFan:
    """A complete fan with face counts and facet slopes of the dual polytope."""
    n: int
    cones_by_dim: dict              # dim -> cones (Polyhedrons), sorted by key
    face_vector: tuple              # entry j counts cones of dimension n - j
    facet_normals: tuple            # primitive outer normals of the facets
    span_dim: int                   # dimension of the dual polytope
    span_normals: tuple             # normals of the polytope's affine span

    @property
    def maximal_cones(self):
        return self.cones_by_dim[self.n]


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
    """The central arrangement of the hyperplanes as one refinement search.

    Hyperplane a = a+ - a- (its positive and negative parts) is the corner
    locus of the tropical binomial max(<a+, x>, <a-, x>), whose argmax cells
    are the open sides a . x > 0 (a+ alone) and a . x < 0 (a- alone) and
    the tie a . x = 0; they are built outside the shared factor-cell cache.
    Returns the (profile, closure) pairs of the arrangement's relatively
    open cones: the search prunes a strict side that is tight on its cone,
    so each cone comes once.
    """
    binomials = [((tuple(max(x, 0) for x in a), 0),
                  (tuple(max(-x, 0) for x in a), 0)) for a in hyperplanes]
    return _refine(n, [_build_factor_cells(n, b, MINUS_INF) for b in binomials])


def recover_fan(s: TNPSet) -> RecoveredFan:
    """Rebuild the normal fan of the Newton polytope dual to the set."""
    if s.is_empty:
        raise FanError("empty set: there is no polytope to recover")
    n = s.n
    pieces = s.polytopes
    if any(p.dim > n - 1 for p in pieces):
        raise FanError("pieces must have codimension at least one")

    skeleton = _skeleton_cones(pieces)
    if not skeleton:
        # all pieces bounded: impossible for a corner locus
        raise FanError("no unbounded piece: the set is not a corner locus")

    cells = _arrangement(n, _cut_hyperplanes(skeleton))

    regions = [(profile, poly) for profile, poly in cells if poly.dim == n]
    walls = [(profile, poly) for profile, poly in cells if poly.dim == n - 1]
    if not regions:
        raise FanError("skeleton spans no full-dimensional complement")

    index = {profile: i for i, (profile, _) in enumerate(regions)}
    # per binomial, the strict sides that full-dimensional cones take
    sides = [set(column) for column in zip(*(p for p, _ in regions))]
    parent = list(range(len(regions)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for profile, wall in walls:
        probe = wall.relative_interior_point()
        if any(sp.contains(probe) for sp in skeleton):
            continue  # wall lies inside the skeleton: keep the separation
        # the hyperplanes are distinct, so the wall ties exactly one
        # binomial, and its two neighbours take either strict side of it
        k = next(k for k, fc in enumerate(profile) if fc.bends)
        i, j = (index[profile[:k] + (fc,) + profile[k + 1:]] for fc in sides[k])
        union(i, j)

    groups = {}
    for i in range(len(regions)):
        groups.setdefault(find(i), []).append(i)
    roots = sorted(groups)
    group_of = {i: roots.index(find(i)) for i in range(len(regions))}

    origin = (0,) * n
    maximal = []
    for root in roots:
        rays, lins = [], []
        for i in groups[root]:
            rays.extend(regions[i][1].rays)
            lins.extend(regions[i][1].lineality)
        maximal.append(Polyhedron.from_generators(n, [origin], rays, lins))

    # fan validity: each merged cone must be exactly the union of its atomic
    # regions; a conic hull capturing a foreign region means the complement
    # components are not convex, so the input is not a corner locus
    probes = [poly.relative_interior_point() for _, poly in regions]
    for gi, cone in enumerate(maximal):
        for i, probe in enumerate(probes):
            if group_of[i] != gi and cone.contains(probe):
                raise FanError(
                    "complement regions do not merge into convex cones: "
                    "the set is not the corner locus of a tropical polynomial")

    cones = {}
    for cone in maximal:
        cones[cone.canonical_key()] = cone
        for f in cone.proper_faces():
            cones[f.canonical_key()] = f
    by_dim = {}
    for cone in cones.values():
        by_dim.setdefault(cone.dim, []).append(cone)
    for d in by_dim:
        by_dim[d].sort(key=lambda c: c.canonical_key())
    for d in range(n + 1):
        by_dim.setdefault(d, [])

    # pairwise intersections must be common faces
    face_keys = {d: {c.canonical_key() for c in by_dim[d]} for d in by_dim}
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            inter = maximal[i].intersect(maximal[j])
            if inter.canonical_key() not in face_keys.get(inter.dim, set()):
                raise FanError("cone intersections are not common faces")

    # common lineality = lineality of any maximal cone (all share it); the
    # basis is in reduced echelon form, so its length is its rank
    W = maximal[0].lineality
    span_dim = n - len(W)

    face_vector = tuple(len(by_dim.get(n - j, [])) for j in range(n))

    facet_cone_dim = len(W) + 1
    facet_normals = []
    for cone in by_dim.get(facet_cone_dim, []):
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
