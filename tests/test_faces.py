import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tropnp.engine import analyze_gamma
from tropnp.faces import (DimensionCapExceeded, delta0, enumerate_tuple_faces)
from tropnp.geom import convex_hull, primitive
from tropnp.subdivision import _factor_cells
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import normal_cone_of_face, restrict

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
    entries = [(face, normal_cone_of_face(tup.sum, active))
               for face, active in tup.sum.proper_faces_with_active()]
    if tup.sum.dim < tup.n:
        entries.append((tup.sum, normal_cone_of_face(tup.sum, ())))
    faces = []
    for fid, (sum_face, cone) in enumerate(entries):
        witness = primitive(map(sum, zip(*cone.rays)) if cone.rays
                            else cone.lineality[0])
        members = tuple(m.face_in_direction(witness) for m in tup.members)
        faces.append(SimpleNamespace(
            id=fid, witness_normal=witness, dim=sum_face.dim,
            sum_face=sum_face, cone=cone, members=members,
            flags=_reference_flags(members, cone)))
    return faces


def _flags(f):
    return (f.dicritical, f.origin, f.pre_origin, f.strictly_pre_origin,
            f.origin_members)


def assert_matches_reference(fmap, tup, faces, thorough=True):
    """Ids, witnesses, summed-face dimensions, member vertex sets, flags and
    the argmax sets agree with the face-lattice construction; `thorough`
    adds the summed faces and analyze_gamma's restricted term dicts."""
    ref = reference_tuple_faces(tup)
    assert [f.id for f in faces] == list(range(len(ref)))
    for f, r in zip(faces, ref):
        assert f.witness_normal == r.witness_normal
        assert f.dim == r.dim
        assert [set(m.vertices) for m in f.members] \
            == [set(m.vertices) for m in r.members]
        assert _flags(f) == r.flags
        expected = tuple(restrict(comp, m)
                         for comp, m in zip(fmap.components, r.members))
        assert tuple(map(set, f.argmax)) == tuple(map(set, expected))
        if thorough:
            assert f.sum_face == r.sum_face
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


class TestDelta0:
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

    def test_sum_is_the_minkowski_sum(self, tup2):
        assert tup2.sum.equal_as_sets(
            tup2.members[0].minkowski_sum(tup2.members[1]))

    def test_dimension_cap(self):
        sups = [[tuple(1 if j == i else 0 for j in range(5))] for i in range(5)]
        with pytest.raises(DimensionCapExceeded):
            delta0(sups, n=5)


class TestEnumeration:
    def test_one_face_per_proper_face_of_the_sum(self, tup2, faces2):
        assert len(faces2) == len(tup2.sum.proper_faces())
        assert len(faces2) == 8

    def test_witness_exposes_the_sum_face(self, tup2, faces2):
        for f in faces2:
            exposed = tup2.sum.face_in_direction(f.witness_normal)
            assert exposed.equal_as_sets(f.sum_face)

    def test_member_sum_equals_sum_face(self, faces2, faces3):
        for faces in (faces2, faces3):
            for f in faces:
                acc = f.members[0]
                for m in f.members[1:]:
                    acc = acc.minkowski_sum(m)
                assert acc.equal_as_sets(f.sum_face)

    def test_collinear_witness_face(self, faces2):
        f = next(f for f in faces2 if f.witness_normal == (1, -2))
        expected = convex_hull([(0, 0), (4, 2)])
        assert f.members[0].equal_as_sets(expected)
        assert f.members[1].equal_as_sets(expected)

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
                members = [m.face_in_direction(v) for m in tup2.members]
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
            lower += tup.sum.dim < tup.n
            # summed faces and analyze_gamma on every face of every map
            # would dominate the run time: every fifth map gets them
            assert_matches_reference(fmap, tup, faces, thorough=k % 5 == 0)
        assert lower >= 30

    def test_improper_face_of_a_lower_dimensional_sum(self):
        tup = delta0([[(1, 1)], [(2, 2), (1, 1)]], n=2)
        faces = enumerate_tuple_faces(tup)
        assert [f.dim for f in faces] == [0, 0, 1]
        last = faces[-1]
        assert last.witness_normal in ((1, -1), (-1, 1))
        assert all(a is b for a, b in zip(last.members, tup.members))
        assert last.origin and last.dicritical

    def test_factor_cell_cache_is_left_alone(self, map3d):
        # the tuple-faces are read off Delta0's facets and need no factor
        # cells: the shared cache keeps only what decompositions share
        _factor_cells.cache_clear()
        assert enumerate_tuple_faces(delta0(map3d))
        assert _factor_cells.cache_info().currsize == 0
