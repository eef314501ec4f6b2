import random
from fractions import Fraction

import pytest

from tropnp.cli import _transversality_report, load_input
from tropnp.engine import GenericityError, TNPPiece, TNPSet, tnp_set
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.geom import Polyhedron, convex_hull, primitive, vsub
from tropnp.newton import (FanError, _arrangement, _gradients, _orth_project,
                           _skeleton_cones, recover_fan)
from tropnp.subdivision import decomposition

from conftest import (balanced_weights, corner_locus_pieces, fixture_path,
                      normal_cone_of_face, product_set,
                      proper_faces_with_active, reference_arrangement)
from property_suite import random_map

F = Fraction


def fan_of_corner_locus(terms, n):
    pieces = corner_locus_pieces(terms, n)
    s = TNPSet(n, [TNPPiece(p, 0, i) for i, p in enumerate(pieces)])
    return recover_fan(s)


def normal_fan_keys(points):
    """Independent normal-fan computation from the support hull itself.

    Includes the normal cone of the improper face: for lower-dimensional
    hulls that cone is the positive-dimensional lineality space and is a
    genuine member of the fan.
    """
    hull = convex_hull(points).dual_description()
    keys = set()
    for _, active in proper_faces_with_active(hull):
        keys.add(normal_cone_of_face(hull, active).canonical_key())
    whole = normal_cone_of_face(hull, [])
    if whole.dim > 0:
        keys.add(whole.canonical_key())
    return keys


#: Both tests wait for ROADMAP item 2: the exact projection changes the
#: fan digest of a compute-3d benchmark reference, so the fix goes with the
#: benchmark's re-recorded references (ROADMAP item 1).
ORTH_PROJECT_XFAIL = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: _orth_project projects one "
    "non-orthogonal basis vector at a time; the fix waits for the benchmark "
    "references to be re-recorded")


@ORTH_PROJECT_XFAIL
def test_orth_project_is_orthogonal_to_the_whole_lineality():
    assert _orth_project((1, 0, 0), [(1, -1, 0), (1, 0, -1)]) == (1, 1, 1)


@ORTH_PROJECT_XFAIL
def test_plane_facet_normals_are_orthogonal_to_it():
    # the plane x + y + z = 0, the corner locus of max(0, x + y + z)
    plane = Polyhedron.from_hrep(3, [], [((1, 1, 1), 0)])
    fan = recover_fan(TNPSet(3, [TNPPiece(plane, 0, 0)]))
    assert set(fan.facet_normals) == {(1, 1, 1), (-1, -1, -1)}


class TestKnownFan:
    def test_plane_curve_pair_fan(self, map2d):
        fan = recover_fan(tnp_set(map2d))
        assert fan.face_vector == (4, 4)
        assert set(fan.facet_normals) == {(0, -1), (1, 1), (-1, 0), (-1, -1)}
        assert fan.span_dim == 2

    def test_single_line_degenerates_to_a_segment(self):
        line = Polyhedron.from_hrep(2, [], [((1, 0), -1)])
        s = TNPSet(2, [TNPPiece(line, 0, 0)])
        fan = recover_fan(s)
        assert fan.face_vector == (2, 1)
        assert set(fan.facet_normals) == {(1, 0), (-1, 0)}
        assert fan.span_dim == 1
        assert fan.span_normals == ((0, 1),)

    def test_the_empty_set_has_the_fan_of_a_point(self):
        # no walls: the walk stays at the origin, and the polytope is a point
        for n in (2, 3):
            fan = recover_fan(TNPSet(n, []))
            (cone,), = [cones for cones in fan.cones_by_dim.values() if cones]
            assert cone.dim == n and not cone.rays
            assert cone.lineality == [tuple(int(i == j) for j in range(n))
                                      for i in range(n)]
            assert fan.face_vector == (1,) + (0,) * (n - 1)
            assert fan.span_dim == 0 and fan.facet_normals == ()

    def test_full_dimensional_piece_is_an_error(self):
        square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(FanError):
            recover_fan(TNPSet(2, [TNPPiece(square, 0, 0)]))

    def test_bounded_pieces_only_is_an_error(self):
        seg = Polyhedron.from_generators(2, [(0, 0), (1, 1)])
        with pytest.raises(FanError):
            recover_fan(TNPSet(2, [TNPPiece(seg, 0, 0)]))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_wall_with_one_region_on_both_sides_is_an_error(self, n):
        # the orthant cone{e_1, ..., e_(n-1)}: a ray in the plane, a
        # quadrant in R^3, a 4-dimensional orthant in R^5.  Its complement
        # is connected, so the one region around it lies on both sides of
        # its walls: a walk around it comes back with the gradient moved by
        # each wall's weight, and only zero weights close it
        with pytest.raises(FanError, match="^no positive weights balance "
                                           "the set: it is not a corner locus$"):
            recover_fan(TNPSet.from_canonical(n, [orthant(n)]))


class TestAgainstIndependentNormalFan:
    def test_random_tropical_curves(self):
        rng = random.Random(424242)
        done = homothets = 0
        while done < 12:
            m = rng.randint(2, 5)
            support = set()
            while len(support) < m:
                support.add((rng.randint(0, 4), rng.randint(0, 4)))
            support = sorted(support)
            terms = {p: F(rng.randint(-9, 9)) for p in support}
            pieces = corner_locus_pieces(terms, 2)
            if not pieces:
                continue  # everything dominated by one term
            done += 1
            fan = fan_of_corner_locus(terms, 2)
            # active support: the terms that attain the maximum somewhere
            hull_pts = sorted(_active_support(terms, 2))
            expected = normal_fan_keys(hull_pts)
            got = {c.canonical_key()
                   for cones in fan.cones_by_dim.values() for c in cones
                   if c.dim > 0}
            assert got == expected
            homothets += assert_newton_polytope(pieces, hull_pts)
        assert homothets >= 8

    def test_random_tropical_surfaces(self):
        rng = random.Random(20261019)
        done = homothets = 0
        while done < 40:
            m = rng.randint(3, 6)
            support = set()
            while len(support) < m:
                support.add(tuple(rng.randint(0, 2) for _ in range(3)))
            terms = {p: F(rng.randint(-9, 9)) for p in sorted(support)}
            pieces = corner_locus_pieces(terms, 3)
            if not pieces:
                continue  # everything dominated by one term
            done += 1
            fan = fan_of_corner_locus(terms, 3)
            hull_pts = sorted(_active_support(terms, 3))
            expected = normal_fan_keys(hull_pts)
            got = {c.canonical_key()
                   for cones in fan.cones_by_dim.values() for c in cones
                   if c.dim > 0}
            assert got == expected, terms
            homothets += assert_newton_polytope(pieces, hull_pts)
            if fan.span_dim == 3:
                v, e, f = fan.face_vector
                assert v - e + f == 2, terms
        assert homothets >= 24

    def test_euler_relation_in_2d(self, map2d):
        fan = recover_fan(tnp_set(map2d))
        v, e = fan.face_vector
        assert v == e  # polygons: as many vertices as edges

    def test_euler_relation_in_3d(self, map3d):
        fan = recover_fan(tnp_set(map3d))
        assert fan.span_dim == 3
        v, e, f = fan.face_vector
        assert v - e + f == 2
        # a complete fan needs at least the combinatorics of a simplex
        assert v >= 4 and f >= 4


def assert_newton_polytope(pieces, support):
    """The hull of the walk's gradients has the normal fan of the Newton
    polytope of the support.  A polytope with the normal fan of a simplex
    (or a segment) is a homothet of it, so when the support's hull is one,
    the gradients' hull equals it up to translation and a positive scale;
    returns whether that comparison ran.  Other polytopes with that fan
    differ in their edge lengths, as the balancing weights do: four rays
    in the plane balance in a two-dimensional cone of weights."""
    n = pieces[0].n
    got = convex_hull(_gradients(n, _skeleton_cones(pieces)))
    want = convex_hull(support)
    assert normal_fan_keys(got.vertices) == normal_fan_keys(want.vertices)
    if len(want.vertices) != want.dim + 1:
        return False
    # translation and a positive scale keep the lexicographic vertex order
    du = [vsub(v, got.vertices[0]) for v in got.vertices]
    dv = [vsub(v, want.vertices[0]) for v in want.vertices]
    k = next(i for i, x in enumerate(dv[-1]) if x)
    scale = du[-1][k] / dv[-1][k]
    assert scale > 0 and du == [tuple(scale * x for x in v) for v in dv]
    return True


def orthant(n):
    """The cone{e_1, ..., e_(n-1)} in R^n."""
    rays = [tuple(int(j == i) for j in range(n)) for i in range(n - 1)]
    return Polyhedron.from_generators(n, [(0,) * n], rays)


class TestBalancingWeights:
    """The walk finds positive weights exactly when the reference
    balancing of `conftest.balanced_weights` does."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_no_weights_on_a_lone_orthant(self, n):
        assert balanced_weights([orthant(n)]) is None
        assert _gradients(n, [orthant(n)]) is None

    def test_recession_fans_of_planar_outputs(self):
        # the pure recession fans of accepted property-suite outputs, and
        # each of them with one cone left out
        rng = random.Random(909090)
        found = {True: 0, False: 0}
        for _ in range(120):
            m = random_map(rng)
            faces = enumerate_tuple_faces(delta0(m))
            if _transversality_report(m, faces):
                continue
            try:
                s = tnp_set(m, faces=faces)
            except GenericityError:
                continue
            skeleton = _skeleton_cones(s.polytopes)
            if not skeleton or any(c.dim != 1 for c in skeleton):
                continue
            for fan in [skeleton] + [skeleton[:k] + skeleton[k + 1:]
                                     for k in range(len(skeleton))]:
                if not fan:
                    continue
                balanced = balanced_weights(fan) is not None
                assert (_gradients(2, fan) is not None) == balanced, fan
                found[balanced] += 1
        assert found[True] >= 20 and found[False] >= 5, found

    def test_recession_fans_of_the_unbalanced_product_fixture(self):
        # the product closure of this map has an unbalanced recession fan,
        # and the set itself a balanced one
        m, _ = load_input(fixture_path("map3d_unbalanced.json"))
        for s, balanced in ((product_set(m), False), (tnp_set(m), True)):
            skeleton = _skeleton_cones(s.polytopes)
            assert (balanced_weights(skeleton) is not None) == balanced
            assert (_gradients(3, skeleton) is not None) == balanced


def _active_support(terms, n):
    """Support points that attain the maximum somewhere."""
    cx = decomposition([terms], n)
    active = set()
    for c in cx.cells:
        active |= set(c.profile[0].dual_points)
    return active


def _random_hyperplanes(rng, n, count):
    """`count` distinct primitive normals, entries in [-2, 2], oriented as
    recover_fan orients them."""
    normals = set()
    while len(normals) < count:
        v = primitive(tuple(rng.randint(-2, 2) for _ in range(n)))
        if any(v):
            normals.add(max(v, tuple(-x for x in v)))
    return sorted(normals)


class TestArrangement:
    """The zonotope's normal fan against the sign-vector reference: regions
    are its n-dimensional cells, walls its (n-1)-dimensional ones, and a
    wall lies in exactly its two endpoint regions."""

    @staticmethod
    def check(n, hyperplanes):
        vertices, walls = _arrangement(n, hyperplanes)
        # the regions are the normal cones of the zonotope's vertices
        zonotope = convex_hull(vertices)
        assert zonotope.vertices == vertices
        regions = [cone for mask, cone in zonotope.normal_fan()
                   if mask.bit_count() == 1]
        assert len(regions) == len(vertices)
        ref = reference_arrangement(n, hyperplanes)
        for cones, d in ((regions, n), ([w for w, _, _ in walls], n - 1)):
            keys = [c.canonical_key() for c in cones]
            assert len(set(keys)) == len(keys), hyperplanes
            assert set(keys) == {poly.canonical_key() for _, poly in ref
                                 if poly.dim == d}, hyperplanes
        for wall, i, j in walls:
            assert [k for k, r in enumerate(regions)
                    if r.contains_polyhedron(wall)] == sorted((i, j)), hyperplanes
        return regions, walls

    def test_cells_against_the_sign_vector_reference(self):
        rng = random.Random(20261020)
        for trial in range(100):
            n = 2 + trial % 2
            self.check(n, _random_hyperplanes(rng, n, rng.randint(2, 6)))

    def test_one_hyperplane_is_the_segment_itself(self):
        # Z = conv{0, a} is a segment: its improper face is the wall
        regions, walls = self.check(3, [(1, -1, 0)])
        assert len(regions) == 2
        (wall, i, j), = walls
        assert (i, j) == (0, 1)
        assert wall == Polyhedron.from_hrep(3, [], [((1, -1, 0), 0)])

    def test_normals_spanning_a_plane_leave_lineality(self):
        regions, walls = self.check(3, [(0, 1, 0), (1, -1, 0), (1, 0, 0)])
        assert (len(regions), len(walls)) == (6, 6)
        assert all(c.lineality == [(0, 0, 1)]
                   for c in regions + [w for w, _, _ in walls])

    def test_four_dimensional_arrangements(self):
        rng = random.Random(20261021)
        for _ in range(12):
            self.check(4, _random_hyperplanes(rng, 4, rng.randint(1, 4)))
