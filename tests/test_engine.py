from fractions import Fraction

import random

import pytest

from tropnp.cli import load_input
from tropnp.engine import (GenericityError, analyze_gamma, analyze_sigma,
                           cell_contribution, tnp_set)
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.geom import Polyhedron
from tropnp.subdivision import decomposition
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import (balanced_weights, cell_dual, components,
                      corner_locus_pieces, covered_by_union, equal_as_sets,
                      fixture_path, minkowski_sum_of, product_contribution,
                      product_set, reaches_infinity_nonnegatively,
                      reference_staircase, supremum, union_equal)
from property_suite import random_map

F = Fraction


@pytest.fixture(scope="module")
def faces2(map2d):
    return enumerate_tuple_faces(delta0(map2d))


@pytest.fixture(scope="module")
def collinear_ctx(map2d, faces2):
    face = next(f for f in faces2 if f.witness_normal == (1, -2))
    return analyze_gamma(map2d, face)


class TestAnalyzeGamma:
    def test_collinear_face_restrictions(self, collinear_ctx):
        # both members restrict to the two support points on the segment
        # from the origin through (4, 2)
        assert collinear_ctx.restricted[0] == {(2, 1): 0, (4, 2): 0}
        assert collinear_ctx.restricted[1] == {(2, 1): -2, (4, 2): -4}

    def test_restricted_complex_shape(self, collinear_ctx):
        # two parallel bend lines and three strips, all invariant along the
        # witness direction
        dims = [cell.dim for cell in collinear_ctx.complex]
        assert {d: dims.count(d) for d in dims} == {1: 2, 2: 3}
        for cell in collinear_ctx.complex:
            # P + v lies in P exactly when v is in the recession cone
            assert cell.closure.recession_cone().contains((1, -2))

    def test_whole_polytope_member_keeps_the_component(self, map2d_small):
        faces = enumerate_tuple_faces(delta0(map2d_small))
        face = next(f for f in faces if f.witness_normal == (1, -1))
        ctx = analyze_gamma(map2d_small, face)
        assert ctx.restricted[0] == map2d_small[0].terms
        assert ctx.restricted[1] == {(1, 1): 0, (2, 2): 0}

    def test_vertex_member_gives_single_term_restriction(self, map2d, faces2):
        face = next(f for f in faces2 if f.witness_normal == (-1, 3))
        ctx = analyze_gamma(map2d, face)
        assert len(ctx.restricted[0]) == 1  # vertex member keeps one term
        cells = list(ctx.complex)
        assert all(len(c.profile[0].dual_points) == 1 for c in cells)


class TestAnalyzeSigma:
    def test_contribution_profile_of_the_collinear_face(self, collinear_ctx):
        seen = set()
        for cell in collinear_ctx.complex:
            a = analyze_sigma(collinear_ctx, cell)
            assert a.contributing  # every member face holds the origin here
            seen.add((cell.dim, tuple(sorted(a.bending))))
        assert seen == {(1, (0,)), (1, (1,)), (2, ())}

    def test_not_contributing_when_a_free_member_does_not_bend(self, map2d,
                                                               faces2):
        face = next(f for f in faces2 if f.witness_normal == (-1, 3))
        assert not face.pre_origin
        ctx = analyze_gamma(map2d, face)
        for cell in ctx.complex:
            assert not analyze_sigma(ctx, cell).contributing

    def test_free_members_bend_on_contributing_cells(self, map3d):
        faces = enumerate_tuple_faces(delta0(map3d))
        for face in faces:
            if not (face.dicritical and face.pre_origin):
                continue
            ctx = analyze_gamma(map3d, face)
            for cell in ctx.complex:
                a = analyze_sigma(ctx, cell)
                if a.contributing:
                    assert ctx.free_members <= a.bending


class TestCellContribution:
    def test_collinear_face_produces_the_five_known_pieces(self, collinear_ctx):
        pieces = []
        for cell in collinear_ctx.complex:
            a = analyze_sigma(collinear_ctx, cell)
            p = cell_contribution(collinear_ctx, a)
            if not p.is_empty:
                pieces.append(p)
        assert len(pieces) == 5
        expected = [
            Polyhedron.from_generators(2, [(0, -2)], rays=[(-1, -1)]),
            Polyhedron.from_generators(2, [(0, -2)], rays=[(-1, 0)]),
            Polyhedron.from_generators(2, [(0, -2), (4, 0)]),
            Polyhedron.from_generators(2, [(4, 0)], rays=[(0, -1)]),
            Polyhedron.from_generators(2, [(4, 0)], rays=[(1, 1)]),
        ]
        assert union_equal(pieces, expected)
        assert {p.canonical_key() for p in pieces} \
            == {q.canonical_key() for q in expected}

    def test_non_dicritical_face_contributes_nothing(self, map2d, faces2):
        face = next(f for f in faces2 if f.witness_normal == (-1, 0))
        assert not face.dicritical
        ctx = analyze_gamma(map2d, face)
        for cell in ctx.complex:
            a = analyze_sigma(ctx, cell)
            assert cell_contribution(ctx, a).is_empty

    def test_dimension_bound(self, map2d, map3d):
        for F_ in (map2d, map3d):
            s = tnp_set(F_)
            for p in s.polytopes:
                assert 0 <= p.dim <= F_.n - 1


class TestTnpSet:
    def test_equals_target_corner_locus(self, map2d, map2d_target_terms):
        s = tnp_set(map2d)
        target = corner_locus_pieces(map2d_target_terms, 2)
        assert union_equal(s.polytopes, target)

    def test_membership_matches_target_values(self, map2d, map2d_target_terms):
        s = tnp_set(map2d)
        probes = [(-1, -2), (0, -2), (4, 0), (2, -1), (100, 100), (0, 0),
                  (F(-1), F(-3))]
        for y in probes:
            value = max(sum(a * x for a, x in zip(e, y)) + c
                        for e, c in map2d_target_terms.items())
            ties = sum(1 for e, c in map2d_target_terms.items()
                       if sum(a * x for a, x in zip(e, y)) + c == value)
            assert s.membership(y) == (ties >= 2)

    def test_vertex_of_a_piece_is_a_member(self, map2d):
        s = tnp_set(map2d)
        assert s.membership((4, 0))
        assert s.membership((0, -2))

    def test_empty_for_single_term_components(self):
        f1 = TropicalPolynomial(2, {(1, 0): 0})
        f2 = TropicalPolynomial(2, {(0, 1): 0})
        s = tnp_set(TropicalMap([f1, f2]))
        assert not s.polytopes
        assert not s.membership((0, 0))

    def test_contains_expected_plane_in_3d(self, map3d):
        s = tnp_set(map3d)
        plane = Polyhedron.from_hrep(3, [], [((1, 0, 0), -1)])
        assert covered_by_union(plane, s.polytopes)

    def test_canonical_union_drops_contained_pieces(self, map2d):
        s = tnp_set(map2d)
        keys = [p.canonical_key() for p in s.polytopes]
        assert len(keys) == len(set(keys))
        for i, p in enumerate(s.polytopes):
            for j, q in enumerate(s.polytopes):
                if i != j:
                    assert not q.contains_polyhedron(p)

    def test_provenance_points_at_real_faces(self, map2d):
        faces = enumerate_tuple_faces(delta0(map2d))
        s = tnp_set(map2d)
        ids = {f.id for f in faces}
        for _, prov in s.canonical:
            assert prov
            for fid, _ in prov:
                assert fid in ids


class TestDegenerateSupports:
    """Supports collinear through the origin: the summed polytope is a
    segment and the whole tuple (improper face) carries the output."""

    def test_collinear_pair_matches_known_pieces(self):
        g1 = TropicalPolynomial(2, {(1, 1): 0, (2, 2): 0})
        g2 = TropicalPolynomial(2, {(1, 1): 0, (3, 3): -6})
        s = tnp_set(TropicalMap([g1, g2]))
        assert len(s.canonical) == 5
        expected = [
            Polyhedron.from_generators(2, [(0, 0)], rays=[(-1, -1)]),
            Polyhedron.from_generators(2, [(0, 0)], rays=[(-1, 0)]),
            Polyhedron.from_generators(2, [(0, 0), (6, 3)]),
            Polyhedron.from_generators(2, [(6, 3)], rays=[(0, -1)]),
            Polyhedron.from_generators(2, [(6, 3)], rays=[(2, 3)]),
        ]
        assert union_equal(s.polytopes, expected)

    def test_single_term_pair_gives_the_image_line(self):
        f1 = TropicalPolynomial(2, {(1, 1): 0})
        f2 = TropicalPolynomial(2, {(2, 2): -3})
        s = tnp_set(TropicalMap([f1, f2]))
        line = Polyhedron.from_generators(2, [(0, -3)], lineality=[(1, 2)])
        assert len(s.canonical) == 1
        assert equal_as_sets(s.polytopes[0], line)

    def test_oracle_agreement_on_degenerate_maps(self):
        from tropnp.oracle import grid_compare
        g1 = TropicalPolynomial(2, {(1, 1): 0, (2, 2): 0})
        g2 = TropicalPolynomial(2, {(1, 1): 0, (3, 3): -6})
        m = TropicalMap([g1, g2])
        s = tnp_set(m)
        rep = grid_compare(m, s, box=[(-8, 8), (-8, 8)], resolution=7)
        assert not rep.mismatches


class TestDeterminism:
    def test_repeated_runs_are_identical(self, map2d, map3d, tmp_path, capsys):
        """Two runs, each from a cold factor-cell cache, give the same
        canonical pieces and byte-identical compute output (on map3d, the
        same transversality refusal)."""
        from tropnp.cli import main
        from tropnp.subdivision import _factor_cells
        from conftest import fixture_path
        for m, name, expected_code in ((map2d, "map2d.json", 0),
                                       (map3d, "map3d.json", 2)):
            runs = []
            for k in range(2):
                _factor_cells.cache_clear()
                keys = [p.canonical_key() for p in tnp_set(m).polytopes]
                out = tmp_path / f"{k}-{name}"
                code = main(["compute", "--input", fixture_path(name),
                             "--output", str(out)])
                doc = out.read_bytes() if out.exists() else None
                runs.append((keys, code, doc, capsys.readouterr()))
            assert runs[0][0] and runs[0][1] == expected_code
            assert runs[0] == runs[1]


class TestAssemblies:
    def test_staircase_is_contained_in_product(self, map2d, map3d):
        for F_ in (map2d, map3d):
            sp = product_set(F_)
            ss = tnp_set(F_)
            for q in ss.polytopes:
                assert covered_by_union(q, sp.polytopes)

    def test_assemblies_agree_on_fixtures(self, map2d, map3d):
        for F_ in (map2d, map3d):
            assert union_equal(product_set(F_).polytopes,
                               tnp_set(F_).polytopes)

    def test_product_closure_overshoots_in_three_dimensions(self):
        """A transversal map where the per-coordinate product closure
        strictly exceeds the true set: the bounded-block suprema are not
        attained at a common cell point.  The coupled default must agree
        with the oracle at the separating points; the product union must
        not."""
        from tropnp.oracle import in_tnp
        f0 = TropicalPolynomial(3, {(0, 0, 1): -6, (1, 1, 2): 3, (2, 0, 2): 0})
        f1 = TropicalPolynomial(3, {(1, 0, 2): 5, (2, 2, 0): -5,
                                    (2, 2, 1): -1, (2, 2, 2): -5})
        f2 = TropicalPolynomial(3, {(1, 0, 0): -2, (1, 1, 2): 2})
        m = TropicalMap([f0, f1, f2])
        coupled = tnp_set(m)
        product = product_set(m)
        outside = [(-3, -21, -5), (F(-13, 3), F(-59, 3), F(-19, 3)),
                   (-2, -24, -4), (-10, -16, -12)]
        for y in outside:
            assert not in_tnp(m, y).member
            assert not coupled.membership(y)
            assert product.membership(y)  # the overshoot
        inside = [(-2, 0, -3), (-10, 0, -11)]
        for y in inside:
            assert in_tnp(m, y).member
            assert coupled.membership(y)
            assert product.membership(y)


FIXTURE_MAPS = ("map2d.json", "map2d_deg.json", "map2d_flat.json", "map3d.json",
                "map3d_product.json", "map3d_unbounded.json")


def _reference_maps():
    """The fixtures, 40 seeded planar maps and 20 seeded n = 3 maps with
    three terms per component and exponents in {0, 1, 2}."""
    maps = [load_input(fixture_path(name))[0] for name in FIXTURE_MAPS]
    rng = random.Random(1818)
    maps += [random_map(rng) for _ in range(40)]
    maps += [random_map(rng, n=3, min_terms=3, max_terms=3, exp_range=2)
             for _ in range(20)]
    return maps


def test_origin_members_of_dicritical_faces_keep_a_term():
    """A dicritical face has a nonempty argmax set in every origin member
    (the `degenerate` test of `enumerate_tuple_faces`), so each cell of its
    restricted complex has dual points there, and `cell_contribution`
    always finds the member's affine form."""
    checked = 0
    for m in _reference_maps():
        for face in enumerate_tuple_faces(delta0(m)):
            if not face.dicritical:
                continue
            ctx = analyze_gamma(m, face)
            for i in face.origin_members:
                assert ctx.restricted[i]
                assert all(cell.profile[i].dual_points for cell in ctx.complex)
                checked += 1
    assert checked > 100, checked


class TestOneAssembly:
    """The assembly, read off the cell's generators, equals the staircase
    lifted to R^2n and projected, and lies in the product closure of the
    cell."""

    def test_matches_the_reference_assemblies(self):
        compared = unbounded = 0
        for m in _reference_maps():
            for face in enumerate_tuple_faces(delta0(m)):
                if not (face.dicritical and face.pre_origin):
                    continue
                ctx = analyze_gamma(m, face)
                for cell in ctx.complex:
                    a = analyze_sigma(ctx, cell)
                    if not a.contributing:
                        continue
                    unbounded += any(
                        supremum(cell.closure, cell.profile[i].dual_points[0])
                        is None for i in ctx.origin_members & a.bending)
                    want = reference_staircase(ctx, a)
                    try:
                        got = cell_contribution(ctx, a)
                    except GenericityError:
                        assert want.dim > m.n - 1
                        continue
                    assert got.canonical_key() == want.canonical_key()
                    assert got.hrep() == want.hrep()
                    compared += 1
                    assert product_contribution(ctx, a).contains_polyhedron(got)
                    compared += 1
        assert compared > 100
        # the product closure's free line, where a supremum is unbounded
        assert unbounded > 0


class TestHypersurface:
    """The set is a balanced tropical hypersurface each of whose connected
    components reaches infinity in a nonnegative direction; the product
    closure need not balance."""

    def test_weights_of_a_plane_curve(self):
        # max(0, 2x, y): the ray dual to the edge of lattice length 2 has
        # weight 2, and a lone ray balances with no positive weight
        pieces = [p for p in corner_locus_pieces(
            {(0, 0): 0, (2, 0): 0, (0, 1): 0}, 2) if p.dim == 1]
        weights = {tuple(a.rays): w for a, w in balanced_weights(pieces)}
        assert weights == {((0, -1),): 2, ((-1, 0),): 1, ((1, 2),): 1}
        assert balanced_weights(pieces[:1]) is None

    def test_overlapping_pieces_are_weighed_on_their_union(self):
        line = [Polyhedron.from_generators(2, [(0, 0)], [(-1, 0)]),
                Polyhedron.from_generators(2, [(0, 0), (2, 0)]),
                Polyhedron.from_generators(2, [(1, 0)], [(1, 0)])]
        assert [w for _, w in balanced_weights(line)] == [1] * 4
        assert balanced_weights(line[1:]) is None

    def test_corner_loci_balance(self):
        rng = random.Random(1999)
        checked = 0
        for _ in range(30):
            n = rng.choice((2, 3))
            terms = {tuple(rng.randint(0, 3) for _ in range(n)):
                     F(rng.randint(-5, 5)) for _ in range(4)}
            pieces = [p for p in corner_locus_pieces(terms, n)
                      if p.dim == n - 1]
            if pieces:
                assert balanced_weights(pieces) is not None, terms
                checked += 1
        assert checked > 20

    def test_product_closure_of_a_pool_map_is_unbalanced(self):
        m, _ = load_input(fixture_path("map3d_unbalanced.json"))
        staircase, product = tnp_set(m).polytopes, product_set(m).polytopes
        assert all(p.dim == 2 for p in staircase + product)
        assert balanced_weights(staircase) is not None
        assert balanced_weights(product) is None

    def test_components_and_their_ends(self):
        ray = Polyhedron.from_generators(2, [(0, 0)], [(1, 0)])
        down = Polyhedron.from_generators(2, [(1, 0)], [(0, -1)])
        segment = Polyhedron.from_generators(2, [(5, 5), (6, 7)])
        parts = components([ray, segment, down])
        assert sorted(map(len, parts)) == [1, 2]
        assert [reaches_infinity_nonnegatively(c) for c in parts] \
            == [len(c) == 2 for c in parts]
        assert not reaches_infinity_nonnegatively([down])


class TestBijection:
    def test_cell_counts_match_per_face(self, map2d):
        # the count identity needs every member face to meet the support
        # (a face collapsing to the origin vertex restricts to no polynomial
        # at all, and its cells have nowhere to embed)
        xi = decomposition(map2d.term_maps(), 2)
        checked = 0
        for face in enumerate_tuple_faces(delta0(map2d)):
            ctx = analyze_gamma(map2d, face)
            if any(not terms for terms in ctx.restricted):
                continue
            checked += 1
            summed = minkowski_sum_of(face.members)
            inside = [c for c in xi.cells
                      if summed.contains_polyhedron(cell_dual(c))]
            assert len(inside) == len(ctx.complex.cells)
            # each such cell lies in exactly one restricted cell
            for c in inside:
                probe = c.closure.relative_interior_point()
                owners = [s for s in ctx.complex
                          if s.closure.contains(probe)
                          and s.closure.contains_polyhedron(c.closure)]
                finest = min(owners, key=lambda s: s.dim)
                assert finest.closure.contains_polyhedron(c.closure)
        assert checked == 7  # all faces except the origin-vertex one
