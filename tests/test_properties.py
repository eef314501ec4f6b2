"""Fixed-seed randomized invariants at smoke scale; the acceptance suite
reruns the same harness over the full map count."""

from property_suite import check_map, random_map, run_suite

import random

import pytest


class TestRandomizedSmoke:
    def test_twelve_random_maps(self):
        reports = run_suite(12, seed=909090)
        for r in reports:
            assert r.duality_ok, f"duality violation on map {r.seed_index}"
            assert r.pieces_ok, f"piece dimension bound broken on map {r.seed_index}"
            assert r.non_pre_origin_ok
            assert r.bijection_ok, f"bijection broken on map {r.seed_index}"
            assert r.gate_implication_ok, f"gate broken on map {r.seed_index}"
            assert r.cayley_verdict_ok, \
                f"Cayley verdict broken on map {r.seed_index}"
            assert r.unclassified == 0
            if r.oracle_checked:
                assert r.oracle_ok, f"oracle mismatch on map {r.seed_index}"
            assert r.balanced, f"unbalanced output on map {r.seed_index}"
            assert r.ends_ok, f"a component without an end on map {r.seed_index}"
        assert any(r.oracle_checked for r in reports)

    def test_known_map_report_is_clean(self, map2d):
        r = check_map(map2d)
        assert r.ok and r.transversal and r.oracle_checked
        assert not r.disagreements

    def test_random_maps_are_valid(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_map(rng)
            assert m.n == 2
            for p in m.components:
                assert 1 <= len(p.terms) <= 5
                assert all(any(e) for e in p.terms)
                assert all(-9 <= c <= 9 for c in p.terms.values())

    def test_more_terms_than_exponents_is_refused(self):
        # (1 + 1)^2 - 1 = 3 nonzero exponent vectors for up to 4 terms
        with pytest.raises(ValueError, match="the 3 nonzero exponent vectors"):
            random_map(random.Random(0), n=2, min_terms=3, max_terms=4,
                       exp_range=1)
