import random
from fractions import Fraction

import pytest

from tropnp.engine import TNPPiece, TNPSet, tnp_set
from tropnp.geom import Polyhedron, convex_hull, primitive
from tropnp.newton import FanError, _arrangement, recover_fan
from tropnp.subdivision import corner_locus_pieces, decomposition
from tropnp.tropical import MINUS_INF

from conftest import normal_cone_of_face, reference_arrangement

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
            hull_pts = sorted(_active_support(terms, 2))
            expected = normal_fan_keys(hull_pts)
            got = {c.canonical_key()
                   for cones in fan.cones_by_dim.values() for c in cones
                   if c.dim > 0}
            assert got == expected

    def test_random_tropical_surfaces(self):
        rng = random.Random(20261019)
        done = 0
        while done < 40:
            m = rng.randint(3, 6)
            support = set()
            while len(support) < m:
                support.add(tuple(rng.randint(0, 2) for _ in range(3)))
            terms = {p: F(rng.randint(-9, 9)) for p in sorted(support)}
            if not corner_locus_pieces(terms, 3):
                continue  # everything dominated by one term
            done += 1
            fan = fan_of_corner_locus(terms, 3)
            expected = normal_fan_keys(sorted(_active_support(terms, 3)))
            got = {c.canonical_key()
                   for cones in fan.cones_by_dim.values() for c in cones
                   if c.dim > 0}
            assert got == expected, terms
            if fan.span_dim == 3:
                v, e, f = fan.face_vector
                assert v - e + f == 2, terms

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


def _active_support(terms, n):
    """Support points that attain the maximum somewhere."""
    cx = decomposition([terms], [MINUS_INF], n=n)
    active = set()
    for c in cx.cells:
        active |= set(c.argmax[0])
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


def _signs(hyperplanes, profile):
    """The sign vector of an arrangement profile: 0 on a tie, +1 where
    a+ alone attains max(<a+, x>, <a-, x>), so a . x > 0, else -1."""
    signs = []
    for a, fc in zip(hyperplanes, profile):
        up = tuple(max(x, 0) for x in a)
        signs.append(0 if fc.bends else 1 if fc.argmax == {up} else -1)
    return tuple(signs)


class TestArrangement:
    def test_cells_against_the_sign_vector_reference(self):
        rng = random.Random(20261020)
        for trial in range(100):
            n = 2 + trial % 2
            hyperplanes = _random_hyperplanes(rng, n, rng.randint(2, 6))
            cells = _arrangement(n, hyperplanes)
            keys = [closure.canonical_key() for _, closure in cells]
            assert len(set(keys)) == len(keys), hyperplanes

            ref = reference_arrangement(n, hyperplanes)
            assert set(keys) == {poly.canonical_key() for _, poly in ref}
            ref_cells = {(signs, poly.canonical_key()) for signs, poly in ref}
            for (profile, _), key in zip(cells, keys):
                assert (_signs(hyperplanes, profile), key) in ref_cells
