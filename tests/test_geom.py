import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropnp.geom import (GeometryError, Polyhedron, convex_hull, int_rref,
                         is_dicritical_cone, matrix_rank,
                         positive_coordinate_witness, primitive, reduce_mod)

from conftest import (covered_by_union, equal_as_sets, face_in_direction,
                      intersect, normal_cone_of_face,
                      proper_faces_with_active, rank, reduce_modulo, rref,
                      supremum, union_equal)

F = Fraction


def verts(p):
    return set(p.vertices)


class TestConvexHull:
    def test_unit_square(self):
        p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert verts(p) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert len(p.hrep()[0]) == 4
        assert not p.hrep()[1]

    def test_midpoint_dropped_from_vertex_list(self):
        # (1,1) sits on the segment between (2,0) and (0,2)
        p = convex_hull([(2, 0), (1, 0), (1, 1), (0, 1), (0, 2)])
        assert verts(p) == {(1, 0), (2, 0), (0, 2), (0, 1)}
        assert p.contains((1, 1))

    def test_single_point(self):
        p = convex_hull([(3, 5)])
        assert p.dim == 0
        assert verts(p) == {(3, 5)}

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            convex_hull([(0, 0), (1, 0, 0)])


class TestDualDescription:
    def test_halfline(self):
        p = Polyhedron.from_hrep(1, [((-1,), 0)]).dual_description()
        assert verts(p) == {(F(0),)}
        assert p.rays == [(1,)]

    def test_wedge_by_hand(self):
        p = Polyhedron.from_hrep(2, [((1, 1), 0), ((1, 0), 0)]).dual_description()
        assert verts(p) == {(0, 0)}
        assert set(p.rays) == {(0, -1), (-1, 1)}

    def test_empty_intersection(self):
        p = Polyhedron.from_hrep(1, [((1,), -1), ((-1,), -1)])
        assert p.is_empty

    def test_constraints_are_not_kept(self):
        # the unit square with a redundant row (x + y <= 3), a row that is
        # not primitive (2x <= 2) and its bottom row given twice: hrep() is
        # the canonical one that the square's generators give, not the rows
        # it was built from
        given = Polyhedron.from_hrep(2, [((1, 1), 3), ((2, 0), F(2)),
                                         ((0, 1), F(1, 1)), ((-1, 0), 0),
                                         ((0, -1), 0), ((0, -3), F(0))])
        square = Polyhedron.from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert given.hrep() == square.hrep()
        assert given.hrep()[0] == [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1),
                                   ((1, 0), 1)]
        # a segment whose line y = 1/6 is given as two inequalities with
        # rational offsets
        seg = Polyhedron.from_hrep(2, [((2, 0), F(1)), ((-4, 0), 0),
                                       ((0, 3), F(1, 2)), ((0, -3), F(-1, 2)),
                                       ((1, 1), 5)])
        line = Polyhedron.from_generators(2, [(0, F(1, 6)), (F(1, 2), F(1, 6))])
        assert seg.hrep() == line.hrep()
        assert seg.hrep()[1] == [((0, 6), 1)]

    def test_idempotent_roundtrip(self):
        p = convex_hull([(0, 0), (2, 0), (0, 3)])
        ineqs, eqs = p.hrep()
        q = Polyhedron.from_hrep(2, ineqs, eqs)
        assert equal_as_sets(q, p)
        assert q.canonical_key() == p.canonical_key()


class TestMinkowskiSum:
    def test_segments_make_square(self):
        s1 = Polyhedron.from_generators(2, [(0, 0), (1, 0)])
        s2 = Polyhedron.from_generators(2, [(0, 0), (0, 1)])
        sq = s1.minkowski_sum(s2)
        assert verts(sq) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_origin_is_neutral(self):
        p = convex_hull([(0, 0), (4, 2), (0, 2)])
        assert equal_as_sets(p.minkowski_sum(Polyhedron.point((0, 0))), p)

    def test_directional_face_of_sum(self):
        d1 = convex_hull([(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (4, 2)])
        d2 = convex_hull([(0, 0), (0, 1), (2, 1), (3, 2), (4, 2)])
        face = face_in_direction(d1.minkowski_sum(d2), (1, -2))
        assert verts(face) == {(0, 0), (8, 4)}


class TestFaceInDirection:
    def test_collinear_triple_face(self):
        d1 = convex_hull([(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (4, 2)])
        face = face_in_direction(d1, (1, -2))
        assert verts(face) == {(0, 0), (4, 2)}
        assert face.contains((2, 1))

    def test_square_edges_and_corners(self):
        sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert verts(face_in_direction(sq, (0, 1))) == {(0, 1), (1, 1)}
        assert verts(face_in_direction(sq, (1, 1))) == {(1, 1)}

    def test_unbounded_direction_gives_no_face(self):
        p = Polyhedron.from_hrep(2, [((1, 0), 0)])
        assert face_in_direction(p, (-1, 0)) is None


def cone(rays=(), lineality=()):
    """The plane cone spanned by rays and lineality, origin as its point."""
    return Polyhedron.from_generators(2, [(0, 0)], rays, lineality)


class TestRecessionCone:
    def test_polytope_is_trivial(self):
        c = convex_hull([(0, 0), (1, 0), (0, 1)]).recession_cone()
        assert not c.rays and not c.lineality
        assert c.dim == 0

    def test_halfplane(self):
        c = Polyhedron.from_hrep(2, [((1, 0), 0)]).recession_cone()
        assert c.rays == [(-1, 0)]
        assert c.lineality == [(0, 1)]
        assert c.vertices == [(0, 0)]

    def test_halfline(self):
        c = Polyhedron.from_generators(2, [(3, 1)], rays=[(1, -2)]).recession_cone()
        assert c.rays == [(1, -2)]
        assert c == cone([(1, -2)])

    def test_empty_errors(self):
        with pytest.raises(GeometryError):
            Polyhedron.empty(2).recession_cone()


class TestDicriticalCone:
    def test_examples(self):
        assert is_dicritical_cone(cone([(1, -2)]))
        assert not is_dicritical_cone(cone([(-1, 0)]))
        assert not is_dicritical_cone(cone())

    def test_scaling_invariance(self):
        for r in [(1, -2), (-3, -1), (0, -7), (2, 5)]:
            for k in (1, 2, 17):
                scaled = tuple(k * x for x in r)
                assert (is_dicritical_cone(cone([r]))
                        == is_dicritical_cone(cone([scaled])))

    def test_lineality_always_dicritical(self):
        assert is_dicritical_cone(cone([], [(0, -1)]))

    def test_witness_prefers_a_ray_then_the_lineality(self):
        # rays are reduced modulo the lineality: (1, -2) becomes (1, 0)
        assert positive_coordinate_witness(cone([(1, -2)], [(0, 1)])) == (1, 0)
        assert positive_coordinate_witness(cone([(-1, 0)], [(0, -1)])) == (0, 1)
        assert positive_coordinate_witness(cone([(-1, 0), (0, -1)])) is None
        # a polyhedron's witness is read off its recession cone
        halfline = Polyhedron.from_generators(2, [(3, 1)], rays=[(2, -4)])
        assert positive_coordinate_witness(halfline) == (1, -2)


class TestNormalFan:
    """normal_fan against the proper faces and the facet-normal cones built
    through the double description (conftest.normal_cone_of_face)."""

    def test_random_polytopes_of_every_dimension(self):
        rng = random.Random(5113)
        lower = 0
        for trial in range(60):
            n = 1 + trial % 3
            pts = [tuple(rng.randint(-2, 2) for _ in range(n))
                   for _ in range(rng.randint(1, 6))]
            if trial % 4 == 1:
                # points on a line through the origin, or on the plane z = 0
                d = rng.choice([e for e in itertools.product((-1, 0, 1, 2),
                                                             repeat=n) if any(e)])
                pts = [tuple(k * x for x in d) for k in range(rng.randint(1, 3))]
            elif trial % 4 == 3 and n == 3:
                pts = [p[:2] + (0,) for p in pts] + [(0, 0, 0)]
            P = convex_hull(pts)
            lower += P.dim < n
            vs = P.vertices
            expected = [(frozenset(face.vertices), normal_cone_of_face(P, active))
                        for face, active in proper_faces_with_active(P)]
            if P.dim < n:
                expected.append((frozenset(vs), normal_cone_of_face(P, ())))
            fan = P.normal_fan()
            masks = [m for m, _ in fan]
            if P.dim < n:
                assert masks.pop() == (1 << len(vs)) - 1
            assert masks == sorted(masks)
            got = {frozenset(v for k, v in enumerate(vs) if mask >> k & 1): cone
                   for mask, cone in fan}
            assert {m: c.canonical_key() for m, c in got.items()} \
                == {m: c.canonical_key() for m, c in expected}, pts
            assert {m: c.dim for m, c in got.items()} \
                == {m: c.dim for m, c in expected}, pts
        assert lower >= 20

    def test_square(self):
        fan = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]).normal_fan()
        assert len(fan) == 8
        assert sorted(len(c.rays) for _, c in fan) == [1] * 4 + [2] * 4
        assert all(not c.lineality for _, c in fan)

    def test_point_is_its_improper_face(self):
        (mask, cone), = Polyhedron.point((1, 2)).normal_fan()
        assert mask == 1 and cone.dim == 2 and not cone.rays

    def test_unbounded_polyhedra_are_refused(self):
        with pytest.raises(GeometryError):
            Polyhedron.from_generators(2, [(0, 0)], [(1, 0)]).normal_fan()


class TestBasicOps:
    def test_intersect_square_halfplane(self):
        sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        edge = intersect(sq, Polyhedron.from_hrep(2, [((-1, 0), -1)]))
        assert verts(edge) == {(1, 0), (1, 1)}

    def test_plane_contains(self):
        pl = Polyhedron.from_hrep(3, [], [((1, 0, 0), -1)])
        assert pl.contains((-1, 5, -7))
        assert not pl.contains((0, 5, -7))

    def test_affine_dim(self):
        edge = Polyhedron.from_generators(2, [(0, 0), (4, 2)])
        assert edge.dim == 1
        assert Polyhedron.empty(2).dim == -1

    def test_relative_interior_point(self):
        sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        p = sq.relative_interior_point()
        ineqs, _ = sq.hrep()
        assert all(sum(a * x for a, x in zip(n, p)) < b for n, b in ineqs)

    def test_equal_as_sets_across_representations(self):
        a = Polyhedron.from_hrep(2, [((1, 0), 1), ((-1, 0), 0),
                                     ((0, 1), 1), ((0, -1), 0)])
        b = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert equal_as_sets(a, b)


def _random_points(rng, n, count):
    return [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            for _ in range(count)]


class TestRandomizedProperties:
    def test_hull_contains_inputs_and_vertices_are_inputs(self):
        rng = random.Random(20240301)
        for _ in range(40):
            n = rng.randint(1, 3)
            pts = _random_points(rng, n, rng.randint(1, 8))
            hull = convex_hull(pts)
            assert all(hull.contains(p) for p in pts)
            assert set(hull.vertices) <= set(pts)

    def test_minkowski_support_function_is_additive(self):
        rng = random.Random(20240302)
        for _ in range(15):
            n = rng.randint(2, 3)
            p = convex_hull(_random_points(rng, n, rng.randint(1, 5)))
            q = convex_hull(_random_points(rng, n, rng.randint(1, 5)))
            s = p.minkowski_sum(q)
            for _ in range(20):
                d = tuple(F(rng.randint(-5, 5)) for _ in range(n))
                if all(x == 0 for x in d):
                    continue
                assert supremum(s, d) == supremum(p, d) + supremum(q, d)
            for _ in range(5):
                x = p.relative_interior_point()
                y = q.relative_interior_point()
                assert s.contains(tuple(a + b for a, b in zip(x, y)))

    def test_recession_cone_of_intersection(self):
        rng = random.Random(20240303)
        built = 0
        while built < 15:
            n = 2
            def rand_poly():
                ineqs = [(tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                          F(rng.randint(-4, 4))) for _ in range(4)]
                ineqs = [(a, b) for a, b in ineqs if any(x != 0 for x in a)]
                return Polyhedron.from_hrep(n, ineqs)
            p, q = rand_poly(), rand_poly()
            pq = intersect(p, q)
            if p.is_empty or q.is_empty or pq.is_empty:
                continue
            built += 1
            assert pq.recession_cone() == intersect(p.recession_cone(),
                                                  q.recession_cone())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=1, max_size=7))
def test_hull_roundtrip_property(pts):
    hull = convex_hull(pts)
    ineqs, eqs = hull.hrep()
    again = Polyhedron.from_hrep(2, ineqs, eqs)
    assert equal_as_sets(again, hull)
    assert all(hull.contains(p) for p in pts)


class TestUnionCoverage:
    def test_segment_covered_by_two_pieces(self):
        seg = Polyhedron.from_generators(1, [(0,), (10,)])
        a = Polyhedron.from_generators(1, [(0,), (6,)])
        b = Polyhedron.from_generators(1, [(4,), (10,)])
        assert covered_by_union(seg, [a, b])
        assert union_equal([seg], [a, b])

    def test_gap_is_detected(self):
        seg = Polyhedron.from_generators(1, [(0,), (10,)])
        a = Polyhedron.from_generators(1, [(0,), (6,)])
        b = Polyhedron.from_generators(1, [(7,), (10,)])
        assert not covered_by_union(seg, [a, b])

    def test_touching_closed_pieces_cover_their_union_boundary(self):
        sq = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        left = convex_hull([(0, 0), (1, 0), (0, 2), (1, 2)])
        right = convex_hull([(1, 0), (2, 0), (1, 2), (2, 2)])
        assert covered_by_union(sq, [left, right])
        assert not covered_by_union(sq, [left])


def _random_matrix(rng, rational):
    """Up to 6 x 5, with zero rows, repeated rows and dependent rows."""
    cols = rng.randint(1, 5)

    def entry():
        if rng.random() < 0.35:
            return 0
        x = rng.randint(-5, 5)
        return F(x, rng.randint(1, 4)) if rational else x
    rows = [tuple(entry() for _ in range(cols)) for _ in range(rng.randint(0, 4))]
    if rows and rng.random() < 0.4:
        rows.append(rng.choice(rows))
    if len(rows) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(rows, 2)
        k = rng.randint(-3, 3)
        rows.append(tuple(x + k * y for x, y in zip(a, b)))
    if rng.random() < 0.3:
        rows.append((0,) * cols)
    rng.shuffle(rows)
    return rows[:6], cols


class TestIntegerElimination:
    """The fraction-free kernel against the rational reference (conftest)."""

    def test_rank_rref_and_reduction_match_the_rational_reference(self):
        rng = random.Random(20261018)
        deficient = 0
        for trial in range(400):
            rows, cols = _random_matrix(rng, rational=trial % 2 == 1)
            ref_rows, ref_pivots = rref(rows)
            assert matrix_rank(rows) == len(ref_rows), rows
            deficient += len(ref_rows) < len(rows)

            out, pivots = int_rref([primitive(r) for r in rows])
            assert pivots == ref_pivots, rows
            assert out == [primitive(r) for r in ref_rows], rows
            for row, c in zip(out, pivots):
                assert row[c] > 0 and primitive(row) == row

            v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols))
            want = reduce_modulo(v, ref_rows, ref_pivots)
            got = reduce_mod(primitive(v), out, pivots)
            assert primitive(got) == primitive(want), (rows, v)
            assert all(got[c] == 0 for c in pivots)

            # the same reduction of points and rays inside Polyhedron
            p = Polyhedron.from_generators(cols, [v], [], rows)
            assert p.lineality == [primitive(r) for r in ref_rows]
            assert p.vertices == [want]
            assert p.dim == len(ref_rows)
            c = Polyhedron.from_generators(cols, [(0,) * cols], [v], rows)
            assert c.rays == ([primitive(want)] if any(want) else [])
            assert c.dim == rank(list(rows) + [v])
        assert deficient > 50

    def test_primitive_of_integers_and_rationals(self):
        assert primitive((4, -6, 0)) == (2, -3, 0)
        assert primitive((0, 0)) == (0, 0)
        assert primitive((F(1, 2), F(-1, 3))) == (3, -2)
        assert primitive(("3/4", 0, -1)) == (3, 0, -4)


def _solve(rows, rhs):
    """The unique solution of rows . x = rhs, or None (reference rref)."""
    n = len(rows[0])
    aug, pivots = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None  # singular, or inconsistent (a pivot in the last column)
    return tuple(row[n] for row in aug)


class TestDoubleDescriptionCrossCheck:
    """Vertices and facets of random polytopes found without the double
    description: every n-subset of the constraints solved exactly."""

    def test_random_polytopes_in_dimensions_2_to_4(self):
        rng = random.Random(7041)
        checked = {2: 0, 3: 0, 4: 0}
        for trial in range(60):
            n = 2 + trial % 3
            ineqs = []
            for i in range(n):
                e = [0] * n
                e[i] = 1
                ineqs.append((tuple(e), rng.randint(1, 4)))
                ineqs.append((tuple(-x for x in e), rng.randint(0, 4)))
            while len(ineqs) < 2 * n + (3 if n < 4 else 2):
                a = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(a):
                    ineqs.append((a, F(rng.randint(-2, 6), rng.randint(1, 2))))
            P = Polyhedron.from_hrep(n, ineqs)

            expected = set()
            for subset in itertools.combinations(ineqs, n):
                x = _solve([a for a, _ in subset], [b for _, b in subset])
                if x is not None and all(
                        sum(c * y for c, y in zip(a, x)) <= b for a, b in ineqs):
                    expected.add(x)
            assert set(P.vertices) == expected, ineqs
            if not expected:
                assert P.is_empty
                continue
            assert not P.rays and not P.lineality
            vs = sorted(expected)
            affine_dim = rank([tuple(y - z for y, z in zip(v, vs[0])) for v in vs[1:]])
            assert P.dim == affine_dim, ineqs
            if affine_dim < n:
                continue
            facets = set()
            for a, b in ineqs:
                on = [v for v in vs if sum(c * y for c, y in zip(a, v)) == b]
                if on and rank([tuple(y - z for y, z in zip(v, on[0]))
                                for v in on[1:]]) == n - 1:
                    h = primitive(tuple(a) + (b,))
                    facets.add((h[:-1], F(h[-1])))
            ineqs_v, eqs_v = convex_hull(vs).hrep()
            assert set(ineqs_v) == facets and not eqs_v, ineqs
            assert len(ineqs_v) == len(facets)
            checked[n] += 1
        assert all(k >= 8 for k in checked.values()), checked
