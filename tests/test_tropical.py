import random
from fractions import Fraction

import pytest

from tropnp.engine import analyze_gamma
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.geom import convex_hull
from tropnp.tropical import (MINUS_INF, SupportError, TropicalMap,
                             TropicalPolynomial, valuation_of_series)

from conftest import restrict

F = Fraction


class TestEvalWithArgmax:
    def test_first_component_triple_tie(self, map2d):
        value, argmax = map2d[0].eval_with_argmax((0, 0))
        assert value == 0
        assert argmax == {(0, 1), (2, 1), (4, 2)}

    def test_second_component_unique(self, map2d):
        value, argmax = map2d[1].eval_with_argmax((0, 0))
        assert value == 0
        assert argmax == {(0, 1)}

    def test_single_term_is_affine(self):
        p = TropicalPolynomial(2, {(2, 3): F(7, 2)})
        value, argmax = p.eval_with_argmax((F(1, 3), -2))
        assert value == 2 * F(1, 3) + 3 * (-2) + F(7, 2)
        assert argmax == {(2, 3)}

    def test_convexity_on_random_segments(self, map2d):
        rng = random.Random(11)
        p = map2d[0]
        for _ in range(50):
            x = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2))
            z = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2))
            t = F(rng.randint(0, 4), 4)
            mid = tuple(t * a + (1 - t) * b for a, b in zip(x, z))
            assert p(mid) <= t * p(x) + (1 - t) * p(z)


class TestCornerLocus:
    def test_fixture_values(self, map2d):
        assert map2d[0].in_corner_locus((0, 0))
        assert not map2d[1].in_corner_locus((0, 0))

    def test_single_term_never_bends(self):
        p = TropicalPolynomial(1, {(3,): 5})
        for x in (-10, 0, F(7, 3)):
            assert not p.in_corner_locus((x,))


class TestVirtualPreimage:
    def test_minus_inf_reduces_to_corner_locus(self, map2d):
        rng = random.Random(5)
        for p in map2d:
            for _ in range(30):
                x = (F(rng.randint(-8, 8)), F(rng.randint(-8, 8)))
                assert (p.in_virtual_preimage(MINUS_INF, x)
                        == p.in_corner_locus(x))

    def test_level_ties_the_max(self, map2d):
        assert map2d[1].in_virtual_preimage(F(0), (0, 0))

    def test_dominating_level_excludes(self, map2d):
        assert not map2d[1].in_virtual_preimage(F(5), (0, 0))

    def test_level_below_max_needs_a_bend(self, map2d):
        # at (0,0) the second component has a unique argmax and value 0
        assert not map2d[1].in_virtual_preimage(F(-1), (0, 0))
        assert map2d[0].in_virtual_preimage(F(-1), (0, 0))


class TestRestrict:
    """The reference restriction (terms whose exponent lies in the face)
    and the engine's, which keeps the terms in a tuple-face's argmax set."""

    def test_restrict_to_diagonal_edge(self, map2d_small):
        face = convex_hull([(0, 0), (1, 1), (2, 2)])
        assert restrict(map2d_small[1], face) == {(1, 1): 0, (2, 2): 0}
        f = _face_with_witness(map2d_small, (1, -1))
        assert f.members[1].equal_as_sets(face)
        assert analyze_gamma(map2d_small, f).restricted[1] \
            == restrict(map2d_small[1], face)

    def test_restrict_to_whole_polytope_is_identity(self, map2d):
        p = map2d[0]
        hull = convex_hull(list(p.terms) + [(0, 0)])
        assert restrict(p, hull) == p.terms

    def test_restrict_to_collinear_face(self, map2d):
        face = convex_hull([(0, 0), (4, 2)])
        assert restrict(map2d[0], face) == {(2, 1): 0, (4, 2): 0}
        f = _face_with_witness(map2d, (1, -2))
        assert f.members[0].equal_as_sets(face)
        assert analyze_gamma(map2d, f).restricted[0] == restrict(map2d[0], face)

    def test_origin_vertex_gives_empty_restriction(self, map2d):
        origin = convex_hull([(0, 0)])
        assert restrict(map2d[0], origin) == {}
        f = _face_with_witness(map2d, (0, -1))
        assert f.members[0].equal_as_sets(origin)
        assert analyze_gamma(map2d, f).restricted[0] == {}

    def test_restrict_then_eval_matches_filtered_argmax(self, map2d):
        face = convex_hull([(0, 0), (4, 2)])
        p = map2d[0]
        r = TropicalPolynomial(2, restrict(p, face))
        rng = random.Random(3)
        for _ in range(40):
            x = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
            value, argmax = p.eval_with_argmax(x)
            inter = {a for a in argmax if face.contains(a)}
            if inter:
                rvalue, rargmax = r.eval_with_argmax(x)
                assert rvalue == value
                assert rargmax == inter


def _face_with_witness(fmap, witness):
    return next(f for f in enumerate_tuple_faces(delta0(fmap))
                if f.witness_normal == witness)


class TestConstruction:
    def test_origin_term_rejected(self):
        with pytest.raises(SupportError, match="constant"):
            TropicalPolynomial(2, {(0, 0): 1, (1, 0): 0})

    def test_negative_exponent_rejected(self):
        with pytest.raises(SupportError):
            TropicalPolynomial(2, {(-1, 2): 0})

    def test_map_must_be_square(self, map2d):
        with pytest.raises(ValueError):
            TropicalMap([map2d[0]])


class TestSeriesParsing:
    @pytest.mark.parametrize("text,expected", [
        ("3t^5", F(-5)),
        ("t^7", F(-7)),
        ("t", F(-1)),
        ("7", F(0)),
        ("-4t^-2", F(2)),
        ("2t^1/2", F(-1, 2)),
        ("5t^0.25", F(-1, 4)),
    ])
    def test_valuations(self, text, expected):
        val, _ = valuation_of_series(text)
        assert val == expected

    def test_nonrational_coefficient_noticed(self):
        val, notes = valuation_of_series("(1+i)t^2")
        assert val == -2
        assert notes

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            valuation_of_series("0")
