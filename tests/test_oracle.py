import random
from fractions import Fraction

import pytest

from tropnp import oracle, subdivision
from tropnp.cli import load_input
from tropnp.engine import TNPPiece, TNPSet, tnp_set
from tropnp.oracle import (boundary_samples, generic_offset, grid_compare,
                           in_tnp, member)
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import fixture_path, verify_witness

F = Fraction


@pytest.fixture(scope="module")
def set2d(map2d):
    return tnp_set(map2d)


class TestMembership:
    @pytest.mark.parametrize("point", [
        (-2, -4),   # on the ray of slope 1 through (0,-2)
        (2, -1),    # on the bounded segment
        (6, 2),     # on the ray of slope 1 through (4,0)
        (-3, -2),   # on the horizontal ray
        (4, -5),    # on the vertical ray
    ])
    def test_members_with_known_witness_ray(self, map2d, point):
        verdict = in_tnp(map2d, point)
        assert verdict.member
        assert verdict.ray == (1, -2)
        assert verify_witness(map2d, point, verdict)

    @pytest.mark.parametrize("point", [(100, 100), (10, 10), (0, 0), (-20, 5)])
    def test_non_members(self, map2d, point):
        assert not in_tnp(map2d, point).member

    def test_witness_is_reverifiable_from_the_definition(self, map2d):
        verdict = in_tnp(map2d, (2, -1))
        assert verify_witness(map2d, (2, -1), verdict, steps=5)

    def test_no_membership_when_no_component_can_bend(self):
        f1 = TropicalPolynomial(2, {(1, 0): 0})
        f2 = TropicalPolynomial(2, {(0, 1): 0})
        m = TropicalMap([f1, f2])
        for y in [(0, 0), (5, -3), (-2, 7)]:
            assert not in_tnp(m, y).member


class TestMember:
    """The witness search that decides grid points answers as `in_tnp`."""

    @pytest.mark.parametrize("name", [
        "map2d.json", "map2d_deg.json", "map2d_flat.json", "map3d_product.json",
        "map3d_unbalanced.json", "map3d_unbounded.json"])
    def test_equals_in_tnp(self, name):
        # boundary samples lie on the set, off the generic grid; the seeded
        # points mostly off it
        m, _ = load_input(fixture_path(name))
        rng = random.Random(name)
        points = boundary_samples(tnp_set(m), minimum=30)
        points += [tuple(F(rng.randint(-40, 40), rng.choice([1, 2, 3]))
                         for _ in range(m.n)) for _ in range(20)]
        verdicts = [in_tnp(m, p).member for p in points]
        assert [member(m, p) for p in points] == verdicts
        assert any(verdicts)

    def test_grid_builds_no_complex(self, monkeypatch, map2d, set2d):
        calls = dict.fromkeys(["decomposition", "in_tnp"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (oracle, subdivision):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        report = grid_compare(map2d, set2d, box=[(-8, 6), (-8, 6)],
                              resolution=5)
        assert report.points == 25 and not report.mismatches
        assert calls == {"decomposition": 0, "in_tnp": 0}


class TestGridCompare:
    def test_small_grid_has_no_mismatches(self, map2d, set2d):
        report = grid_compare(map2d, set2d, box=[(-8, 6), (-8, 6)], resolution=9)
        assert not report.mismatches
        assert report.points == 81
        assert report.members == 0  # offsets keep the grid off the thin set

    def test_empty_engine_set_and_no_members(self):
        f1 = TropicalPolynomial(2, {(1, 0): 0})
        f2 = TropicalPolynomial(2, {(0, 1): 0})
        m = TropicalMap([f1, f2])
        s = tnp_set(m)
        assert not s.polytopes
        report = grid_compare(m, s, box=[(-3, 3), (-3, 3)], resolution=5)
        assert not report.mismatches and report.members == 0

    def test_corrupted_engine_set_is_caught(self, map2d, set2d):
        # dropping a piece must surface as at least one mismatch
        broken = TNPSet(2, [TNPPiece(p, 0, i)
                            for i, p in enumerate(set2d.polytopes[1:])])
        report = grid_compare(map2d, broken, box=[(-12, 4), (-12, 4)],
                              resolution=17, offset=F(0))
        assert report.mismatches

    def test_generic_offset_is_coprime(self, map2d):
        off = generic_offset(map2d, [(F(-12), F(4))] * 2)
        assert off.numerator == 1
        assert off.denominator > 1


class TestBoundarySamples:
    def test_enough_points_all_on_pieces(self, set2d):
        pts = boundary_samples(set2d, minimum=50)
        assert len(pts) >= 50
        for p in pts:
            assert set2d.membership(p)

    def test_boundary_agreement_with_oracle(self, map2d, set2d):
        for p in boundary_samples(set2d, minimum=50):
            assert in_tnp(map2d, p).member
