import random
from fractions import Fraction

import pytest

from tropnp.engine import TNPPiece, TNPSet, tnp_set
from tropnp.geom import Polyhedron, convex_hull
from tropnp.newton import FanError, recover_fan
from tropnp.subdivision import corner_locus_pieces

from conftest import normal_cone_of_face

F = Fraction


def fan_of_corner_locus(terms, n):
    pieces = corner_locus_pieces(terms, n)
    s = TNPSet(n, [TNPPiece(p, 0, i) for i, p in enumerate(pieces)], "product")
    return recover_fan(s)


def normal_fan_keys(points):
    """Independent normal-fan computation from the support hull itself.

    Includes the normal cone of the improper face: for lower-dimensional
    hulls that cone is the positive-dimensional lineality space and is a
    genuine member of the fan.
    """
    hull = convex_hull(points).dual_description()
    keys = set()
    for _, active in hull.proper_faces_with_active():
        keys.add(normal_cone_of_face(hull, active).canonical_key())
    whole = normal_cone_of_face(hull, [])
    if whole.dim > 0:
        keys.add(whole.canonical_key())
    return keys


class TestKnownFan:
    def test_plane_curve_pair_fan(self, map2d):
        fan = recover_fan(tnp_set(map2d))
        assert fan.face_vector == (4, 4)
        assert set(fan.facet_normals) == {(0, -1), (1, 1), (-1, 0), (-1, -1)}
        assert fan.span_dim == 2

    def test_single_line_degenerates_to_a_segment(self):
        line = Polyhedron.from_hrep(2, [], [((1, 0), -1)])
        s = TNPSet(2, [TNPPiece(line, 0, 0)], "product")
        fan = recover_fan(s)
        assert fan.face_vector == (2, 1)
        assert set(fan.facet_normals) == {(1, 0), (-1, 0)}
        assert fan.span_dim == 1
        assert fan.span_normals == ((0, 1),)

    def test_empty_set_is_an_error(self):
        with pytest.raises(FanError):
            recover_fan(TNPSet(2, [], "product"))

    def test_full_dimensional_piece_is_an_error(self):
        square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(FanError):
            recover_fan(TNPSet(2, [TNPPiece(square, 0, 0)], "product"))

    def test_bounded_pieces_only_is_an_error(self):
        seg = Polyhedron.from_generators(2, [(0, 0), (1, 1)])
        with pytest.raises(FanError):
            recover_fan(TNPSet(2, [TNPPiece(seg, 0, 0)], "product"))


class TestAgainstIndependentNormalFan:
    def test_random_tropical_curves(self):
        rng = random.Random(424242)
        done = 0
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
            hull_pts = sorted(_active_support(terms))
            expected = normal_fan_keys(hull_pts)
            got = {c.canonical_key()
                   for cones in fan.cones_by_dim.values() for c in cones
                   if c.dim > 0}
            assert got == expected

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


def _active_support(terms):
    """Support points that attain the maximum somewhere."""
    from tropnp.subdivision import decomposition
    from tropnp.tropical import MINUS_INF
    cx = decomposition([terms], [MINUS_INF], n=2)
    active = set()
    for c in cx.cells:
        active |= set(c.argmax[0])
    return active
