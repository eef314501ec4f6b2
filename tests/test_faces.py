import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tropnp.cli import load_input
from tropnp.engine import analyze_gamma
from tropnp.faces import (DimensionCapExceeded, delta0, enumerate_tuple_faces)
from tropnp.geom import convex_hull, primitive
from tropnp.subdivision import _factor_cells
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import (equal_as_sets, face_in_direction, fixture_path,
                      minkowski_sum_of, normal_cone_of_face, proper_faces,
                      proper_faces_with_active, restrict)
from property_suite import random_map

F = Fraction


def _reference_flags(members, cone):
    """(dicritical, origin, pre_origin, strictly_pre_origin, origin members)
    from origin containment of the member faces and the whole normal cone."""
    origin = (0,) * cone.n
    inside = frozenset(i for i, m in enumerate(members) if m.contains(origin))
    degenerate = any(m.dim == 0 and m.contains(origin) for m in members)
    everywhere = len(inside) == len(members)
    positive = bool(cone.lineality) or any(x > 0 for r in cone.rays for x in r)
    return (positive and not degenerate, everywhere,
            bool(inside), bool(inside) and not everywhere, inside)


def reference_tuple_faces(tup):
    """The face-lattice construction of the tuple-faces: one per proper face
    of the sum in (dim, canonical key) order, then the improper face of a
    lower-dimensional sum; the normal cone from the facet normals, the
    members exposed by its witness, the flags from origin containment."""
    total = minkowski_sum_of(tup.members)
    entries = [(face, normal_cone_of_face(total, active))
               for face, active in proper_faces_with_active(total)]
    if total.dim < tup.n:
        entries.append((total, normal_cone_of_face(total, ())))
    faces = []
    for fid, (sum_face, cone) in enumerate(entries):
        witness = primitive(map(sum, zip(*cone.rays)) if cone.rays
                            else cone.lineality[0])
        members = tuple(face_in_direction(m, witness) for m in tup.members)
        faces.append(SimpleNamespace(
            id=fid, witness_normal=witness, dim=sum_face.dim,
            sum_face=sum_face, cone=cone, members=members,
            flags=_reference_flags(members, cone)))
    return faces


def _flags(f):
    return (f.dicritical, f.origin, f.pre_origin, f.strictly_pre_origin,
            f.origin_members)


def assert_matches_reference(fmap, tup, faces, thorough=True):
    """Ids, witnesses, summed-face dimensions, member vertex sets and
    H-representations, flags and the argmax sets agree with the face-lattice
    construction; `thorough` adds the summed faces and analyze_gamma's
    restricted term dicts."""
    ref = reference_tuple_faces(tup)
    assert [f.id for f in faces] == list(range(len(ref)))
    for f, r in zip(faces, ref):
        assert f.witness_normal == r.witness_normal
        assert f.dim == r.dim
        assert [set(m.vertices) for m in f.members] \
            == [set(m.vertices) for m in r.members]
        assert [m.hrep() for m in f.members] == [m.hrep() for m in r.members]
        assert _flags(f) == r.flags
        expected = tuple(restrict(comp, m)
                         for comp, m in zip(fmap.components, r.members))
        assert tuple(map(set, f.argmax)) == tuple(map(set, expected))
        if thorough:
            assert minkowski_sum_of(f.members) == r.sum_face
            assert analyze_gamma(fmap, f).restricted == expected


def _random_map(rng):
    """n = 1-3 (n = 2 twice as often), 1-4 terms per component with exponents
    up to 3 (1-3 terms and exponents up to 2 for n = 3); about a third of
    the maps have their supports on a common line or plane, so that the sum
    is lower-dimensional."""
    n = rng.choice((1, 2, 2, 3))
    top, most = (2, 3) if n == 3 else (3, 4)
    pool = [e for e in itertools.product(range(top + 1), repeat=n) if any(e)]
    if n > 1 and rng.random() < 0.35:
        if n == 3 and rng.random() < 0.5:
            pool = [e for e in pool if e[2] == 0]
        else:
            d = rng.choice([e for e in pool if primitive(e) == e])
            pool = [tuple(k * x for x in d) for k in (1, 2, 3)]
    comps = []
    for _ in range(n):
        exps = rng.sample(pool, rng.randint(1, min(most, len(pool))))
        comps.append(TropicalPolynomial(n, {e: rng.randint(-5, 5) for e in exps}))
    return TropicalMap(comps)


@pytest.fixture(scope="module")
def tup2(map2d):
    return delta0(map2d)


@pytest.fixture(scope="module")
def faces2(tup2):
    return enumerate_tuple_faces(tup2)


@pytest.fixture(scope="module")
def tup3(map3d):
    return delta0(map3d)


@pytest.fixture(scope="module")
def faces3(tup3):
    return enumerate_tuple_faces(tup3)


def _assert_members_are_hulls(tup):
    """The members read off the Cayley facet masks are conv(A_i u {0}) as
    `convex_hull` builds them."""
    origin = (0,) * tup.n
    for m, sup in zip(tup.members, tup.supports):
        hull = convex_hull(list(sup) + [origin])
        assert m.canonical_key() == hull.canonical_key()
        assert m.dim == hull.dim
        assert m.hrep() == hull.hrep()


class TestDelta0:
    def test_members_are_the_hulls_on_seeded_maps(self):
        rng = random.Random(2711)
        for n in (2, 3, 4):
            for _ in range(15):
                _assert_members_are_hulls(delta0(random_map(
                    rng, n=n, max_terms=5 if n < 4 else 3, exp_range=2)))

    @pytest.mark.parametrize("name", ["map2d", "map2d_deg", "map2d_flat",
                                      "map3d", "map3d_product"])
    def test_members_are_the_hulls_on_the_fixtures(self, name):
        F, _ = load_input(fixture_path(f"{name}.json"))
        _assert_members_are_hulls(delta0(F))

    def test_members_are_the_hulls_on_hand_cases(self):
        # (1, 1) inside its triangle; (1, 0) on an edge and no vertex; one
        # term, a segment; (1, 1) and (2, 2) inside a segment
        tup = delta0([[(3, 0), (0, 3), (1, 1)], [(2, 0), (1, 0), (0, 2)],
                      [(1, 2)], [(1, 1), (2, 2), (3, 3)]], n=2)
        assert [sorted(m.vertices) for m in tup.members] == [
            [(0, 0), (0, 3), (3, 0)], [(0, 0), (0, 2), (2, 0)],
            [(0, 0), (1, 2)], [(0, 0), (3, 3)]]
        _assert_members_are_hulls(tup)
        _assert_members_are_hulls(delta0([[(2, 1)]], n=2))

    def test_first_member_is_a_triangle_with_marked_edges(self, tup2):
        m = tup2.members[0]
        assert set(m.vertices) == {(0, 0), (0, 2), (4, 2)}
        for marked in [(0, 1), (1, 2), (2, 1)]:
            assert m.contains(marked)

    def test_origin_is_a_vertex_of_every_member(self, tup2, tup3):
        for tup in (tup2, tup3):
            origin = tuple([0] * tup.n)
            for m in tup.members:
                assert origin in set(m.vertices)

    def test_single_support_gives_a_segment(self):
        tup = delta0([[(1, 0)], [(0, 1)]], n=2)
        assert set(tup.members[0].vertices) == {(0, 0), (1, 0)}
        assert tup.members[0].dim == 1

    def test_sum_is_the_minkowski_sum(self, tup2, faces2):
        # the face ids are keyed on Delta0's vertices, taken as the sums of
        # the member points of the zero-dimensional tuple-faces
        points = [minkowski_sum_of(f.members).vertices[0]
                  for f in faces2 if f.dim == 0]
        total = minkowski_sum_of(tup2.members)
        assert equal_as_sets(
            total, tup2.members[0].minkowski_sum(tup2.members[1]))
        assert sorted(points) == total.vertices

    def test_dimension_cap(self):
        sups = [[tuple(1 if j == i else 0 for j in range(5))] for i in range(5)]
        with pytest.raises(DimensionCapExceeded):
            delta0(sups, n=5)


class TestEnumeration:
    def test_one_face_per_proper_face_of_the_sum(self, tup2, faces2):
        assert len(faces2) == len(proper_faces(minkowski_sum_of(tup2.members)))
        assert len(faces2) == 8

    def test_witness_exposes_the_sum_face(self, tup2, faces2):
        total = minkowski_sum_of(tup2.members)
        for f in faces2:
            exposed = face_in_direction(total, f.witness_normal)
            assert equal_as_sets(exposed, minkowski_sum_of(f.members))
            assert exposed.dim == f.dim

    def test_member_sum_equals_sum_face(self, tup2, faces2, tup3, faces3):
        for tup, faces in ((tup2, faces2), (tup3, faces3)):
            total = minkowski_sum_of(tup.members)
            for f in faces:
                acc = f.members[0]
                for m in f.members[1:]:
                    acc = acc.minkowski_sum(m)
                assert equal_as_sets(
                    acc, face_in_direction(total, f.witness_normal))

    def test_collinear_witness_face(self, faces2):
        f = next(f for f in faces2 if f.witness_normal == (1, -2))
        expected = convex_hull([(0, 0), (4, 2)])
        assert equal_as_sets(f.members[0], expected)
        assert equal_as_sets(f.members[1], expected)

    def test_duplicate_free(self, faces2, faces3):
        for faces in (faces2, faces3):
            keys = {tuple(m.canonical_key() for m in f.members) for f in faces}
            assert len(keys) == len(faces)


class TestClassification:
    def test_origin_dicritical_face(self, faces2):
        f = next(f for f in faces2 if f.witness_normal == (1, -2))
        assert f.dicritical and f.origin and f.pre_origin
        assert not f.strictly_pre_origin
        assert f.origin_members == frozenset({0, 1})

    def test_left_edge_origin_but_not_dicritical(self, faces2):
        f = next(f for f in faces2 if f.witness_normal == (-1, 0))
        assert f.origin and not f.dicritical

    def test_origin_vertex_face_is_not_dicritical(self, faces2):
        f = next(f for f in faces2 if f.witness_normal == (0, -1))
        assert all(m.dim == 0 for m in f.members)
        assert f.origin and not f.dicritical

    def test_3d_edge_spanned_face_is_strictly_pre_origin_dicritical(self, faces3):
        f = next(f for f in faces3 if f.witness_normal == (1, -1, 0))
        # second member is the 2-face spanned by (1,1,0) and (1,1,2), which
        # drags the origin in; first member is the whole first polytope
        assert f.members[1].dim == 2
        assert f.members[1].contains((1, 1, 0))
        assert f.members[1].contains((1, 1, 2))
        assert f.members[1].contains((0, 0, 0))
        assert f.strictly_pre_origin and f.dicritical

    def test_3d_bottom_facet_is_origin_not_dicritical(self, faces3):
        f = next(f for f in faces3 if f.witness_normal == (0, 0, -1))
        assert f.origin
        assert not f.dicritical
        assert any(m.dim == 0 for m in f.members)  # a member collapses to {0}

    def test_flag_logic_everywhere(self, faces2, faces3):
        origin = None
        for faces in (faces2, faces3):
            for f in faces:
                if f.origin:
                    assert f.pre_origin
                assert f.strictly_pre_origin == (f.pre_origin and not f.origin)
                o = tuple([0] * f.n)
                assert f.origin == all(m.contains(o) for m in f.members)
                if f.dicritical:
                    assert all(not (m.dim == 0 and m.contains(o))
                               for m in f.members)

    def test_dicriticality_uses_the_whole_normal_cone(self, tup2, faces2):
        # flags must not depend on which relative-interior witness was drawn:
        # the reference classification of the members exposed by other
        # relative-interior vectors of the whole normal cone is the same
        for f, ref in zip(faces2, reference_tuple_faces(tup2)):
            w = tuple(2 * x for x in f.witness_normal)
            others = [tuple(map(sum, zip(w, r))) for r in ref.cone.rays]
            for l in ref.cone.lineality:
                others += [tuple(map(sum, zip(w, l))),
                           tuple(a - b for a, b in zip(w, l))]
            assert others
            for v in others:
                members = [face_in_direction(m, v) for m in tup2.members]
                assert _reference_flags(members, ref.cone) == _flags(f)


class TestAgainstTheFaceLattice:
    def test_fixtures(self, map2d, map2d_small, map3d):
        for fmap in (map2d, map2d_small, map3d):
            tup = delta0(fmap)
            assert_matches_reference(fmap, tup, enumerate_tuple_faces(tup))

    def test_seeded_maps(self):
        rng = random.Random(606)
        lower = 0
        for k in range(200):
            fmap = _random_map(rng)
            tup = delta0(fmap)
            faces = enumerate_tuple_faces(tup)
            lower += minkowski_sum_of(tup.members).dim < tup.n
            # summed faces and analyze_gamma on every face of every map
            # would dominate the run time: every fifth map gets them
            assert_matches_reference(fmap, tup, faces, thorough=k % 5 == 0)
        assert lower >= 30

    def test_seeded_maps_in_four_dimensions(self):
        # 2-3 terms per component with exponents in {0, 1}; the last map's
        # supports lie in x4 = 0, so that its sum is lower-dimensional and
        # the improper face is kept; the first map gets the summed faces and
        # analyze_gamma too
        rng = random.Random(404)
        pool = [e for e in itertools.product((0, 1), repeat=4) if any(e)]
        flat = [e for e in pool if e[3] == 0]
        for k, exps in enumerate((pool, pool, pool, flat)):
            fmap = TropicalMap([TropicalPolynomial(4, {
                e: rng.randint(-5, 5)
                for e in rng.sample(exps, rng.randint(2, 3))})
                for _ in range(4)])
            tup = delta0(fmap)
            faces = enumerate_tuple_faces(tup)
            assert_matches_reference(fmap, tup, faces, thorough=k == 0)
        assert faces[-1].dim == 3 and faces[-1].witness_normal == (0, 0, 0, 1)

    def test_improper_face_of_a_lower_dimensional_sum(self):
        tup = delta0([[(1, 1)], [(2, 2), (1, 1)]], n=2)
        faces = enumerate_tuple_faces(tup)
        assert [f.dim for f in faces] == [0, 0, 1]
        last = faces[-1]
        assert last.witness_normal in ((1, -1), (-1, 1))
        assert all(a is b for a, b in zip(last.members, tup.members))
        assert last.origin and last.dicritical

    def test_factor_cell_cache_is_left_alone(self, map3d):
        # the tuple-faces are read off the Cayley polytope's facets and need
        # no factor cells: the shared cache keeps only what decompositions
        # share
        _factor_cells.cache_clear()
        assert enumerate_tuple_faces(delta0(map3d))
        assert _factor_cells.cache_info().currsize == 0
