import random
from fractions import Fraction

import pytest

from tropnp.cli import load_input
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.geom import _DD, Polyhedron, _homog_ineq, convex_hull, vdot, vsub
from tropnp.subdivision import (FactorCell, _meets, _refine, cayley_profiles,
                                decomposition, factor_cells, transversal)

from conftest import (argmax_at, cell_containing, cell_dual,
                      corner_locus_pieces, covered_by_union, duality_violations,
                      equal_as_sets, fixture_path, offending_profiles,
                      proper_faces_with_active,
                      reference_refine, summand_ranks, sum_polytope, with_level)
from property_suite import random_map

F = Fraction


class TestSingleVariableToy:
    def test_three_cells_with_duals(self):
        cx = decomposition([with_level({(1,): F(0)}, 0)], 1)
        assert len(cx.cells) == 3
        duals = sorted(tuple(sorted(cell_dual(c).vertices)) for c in cx.cells)
        assert duals == [(((F(0),)),), ((F(0),), (F(1),)), ((F(1),),)]
        bend = [c for c in cx.cells if c.dim == 0]
        assert len(bend) == 1
        assert bend[0].closure.vertices == [(F(0),)]
        assert cell_dual(bend[0]).dim == 1


LEVELS = [F(-2), F(-1)]


@pytest.fixture(scope="module")
def extended(map2d_small):
    """The term maps of max(f_i, y_i), y = LEVELS."""
    return [with_level(terms, y)
            for terms, y in zip(map2d_small.term_maps(), LEVELS)]


@pytest.fixture(scope="module")
def cx(extended):
    return decomposition(extended, 2)


@pytest.fixture(scope="module")
def xi(map2d):
    return decomposition(map2d.term_maps(), 2)


class TestVirtualLevelComplex:
    """Decomposition induced by two virtual preimages, levels (-2, -1): the
    components extended by the levels as terms at the origin."""

    def test_counts_by_dimension(self, cx):
        # two trees of corner loci crossing twice: 6 vertices, 14 edges,
        # 9 regions (Euler: 6 - 14 + 9 = 1)
        counts = {}
        for c in cx.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        assert counts == {0: 6, 1: 14, 2: 9}

    def test_transversal_crossing_cell(self, cx, extended):
        cell = cell_containing(cx, extended, (F(-7, 3), F(2, 3)))
        assert cell is not None
        assert cell.dim == 0
        assert cell_dual(cell).dim == 2
        assert summand_ranks(cell) == (1, 1)
        # both levels tie the maximum
        assert all((0, 0) in fc.dual_points for fc in cell.profile)

    def test_duality_invariants(self, cx, extended):
        assert duality_violations(cx, extended) == []

    def test_transversal(self, cx):
        assert offending_profiles(cx) == []

    def test_partition_of_sampled_points(self, cx, extended):
        rng = random.Random(77)
        for _ in range(1000):
            x = (F(rng.randint(-120, 120), 7), F(rng.randint(-120, 120), 11))
            hits = []
            for cell in cx.cells:
                if not cell.closure.contains(x):
                    continue
                match = all(argmax_at(t, x) == fc.dual_points
                            for t, fc in zip(extended, cell.profile))
                if match:
                    hits.append(cell.id)
            assert len(hits) == 1

    def test_refines_the_level_free_complex(self, cx, map2d_small):
        base = decomposition(map2d_small.term_maps(), 2)
        for cell in cx.cells:
            p = cell.closure.relative_interior_point()
            hosts = [c for c in base.cells if c.closure.contains(p)]
            assert hosts, "sample point escaped the coarse complex"


class TestPlaneCurvePairComplex:
    def test_transversal(self, xi):
        assert offending_profiles(xi) == []

    def test_duality_invariants(self, xi, map2d):
        assert duality_violations(xi, map2d.term_maps()) == []

    def test_unbounded_parallel_tail_cells(self, xi):
        # the two corner loci both contain a line of direction (1,-2); the
        # complex has exactly two 1-cells receding along that ray alone, and
        # the strip between them contributes a 2-cell with the same recession
        ray = Polyhedron.from_generators(2, [(0, 0)], [(1, -2)])
        one_cells = [c for c in xi.cells if c.dim == 1
                     and c.closure.recession_cone() == ray]
        two_cells = [c for c in xi.cells if c.dim == 2
                     and c.closure.recession_cone() == ray]
        assert len(one_cells) == 2
        assert len(two_cells) == 1
        wider = [c for c in xi.cells if c.dim == 2
                 and c.closure.recession_cone().contains((1, -2))]
        assert len(wider) >= 3

    def test_mixed_subdivision_is_inclusion_reversing(self, xi):
        duals = {c.id: cell_dual(c) for c in xi.cells}
        pairs = 0
        for a in xi.cells:
            for b in xi.cells:
                if a.id == b.id:
                    continue
                if b.closure.contains_polyhedron(a.closure):
                    pairs += 1
                    assert duals[a.id].contains_polyhedron(duals[b.id])
        assert pairs > 0


class TestTransversality:
    def test_identical_curves_are_not_transversal(self):
        terms = {(1, 0): F(0), (0, 1): F(0), (1, 1): F(2)}
        cx = decomposition([terms, dict(terms)], 2)
        assert offending_profiles(cx)

    def test_single_polynomial_always_transversal(self, map2d):
        cx = decomposition([map2d[0].terms], 2)
        assert offending_profiles(cx) == []


def regular_subdivision(support, lift):
    """The cells of the regular subdivision of conv(support) by `lift`, as
    the dual polytopes of the decomposition by max(lift(a) + a . x), with
    the maximal ones: the projections of the upper faces of the lifted hull.
    The origin is a term like any other here."""
    terms = {p: F(lift[p]) for p in support}
    n = len(support[0])
    cx = decomposition([terms], n)
    duals = [cell_dual(c) for c in cx.cells]
    top = sum_polytope(n, [terms]).dim
    return duals, [d for d in duals if d.dim == top]


class TestRegularSubdivision:
    def test_trivial_lift_gives_the_hull(self):
        support = [(0, 0), (2, 0), (0, 2), (1, 1)]
        _, tops = regular_subdivision(support, {p: F(0) for p in support})
        assert len(tops) == 1
        assert equal_as_sets(tops[0], convex_hull(support))

    def test_marked_point_lift(self):
        # lift values on six marked points of a 3d support; the result must
        # be a genuine polyhedral subdivision of the hull
        support = [(1, 1, 0), (1, 1, 2), (0, 1, 2), (0, 2, 4), (1, 2, 4), (2, 2, 4)]
        lift = {(1, 1, 0): F(0), (1, 1, 2): F(0), (0, 1, 2): F(7),
                (0, 2, 4): F(3), (1, 2, 4): F(2), (2, 2, 4): F(5)}
        _, tops = regular_subdivision(support, lift)
        hull = convex_hull(support)
        assert len(tops) >= 2  # the lift is not affine on the support
        for e in tops:
            assert hull.contains_polyhedron(e)
        assert covered_by_union(hull, tops)

    def test_interpolated_point_is_never_a_vertex(self):
        support = [(2, 0), (1, 0), (1, 1), (0, 1), (0, 2)]
        lift = {(2, 0): F(-8), (1, 0): F(-4), (1, 1): F(-4),
                (0, 1): F(-2), (0, 2): F(0)}
        duals, tops = regular_subdivision(support, lift)
        for e in duals:
            assert (1, 1) not in {tuple(v) for v in e.vertices}
        # yet (1,1) does lie inside some subdivision cell
        assert any(e.contains((1, 1)) for e in tops)


class TestFactorCells:
    def test_single_term_factor_covers_space(self):
        cells = factor_cells(2, {(1, 2): F(3)})
        assert len(cells) == 1
        assert not cells[0].bends

    def test_empty_factor_is_trivial(self):
        cells = factor_cells(2, {})
        assert len(cells) == 1
        assert cells[0].dual_points == ()

    def test_corner_locus_pieces_of_a_line(self):
        pieces = corner_locus_pieces({(1, 0): F(0), (0, 1): F(0)}, 2)
        assert len(pieces) == 1
        assert pieces[0].dim == 1
        assert pieces[0].contains((3, 3)) and not pieces[0].contains((1, 2))


def _face_lattice_factor_cells(n, terms):
    """Reference construction of the factor cells (at least two terms):
    the face lattice of the lifted hull, keeping each face exposed by some
    (x, 1), with Fraction-built constraints."""
    entries = [(exp, F(c)) for exp, c in sorted(terms.items())]
    lifted = [exp + (c,) for exp, c in entries]
    hull = Polyhedron.from_generators(n + 1, lifted)
    ineqs, eqs = hull.hrep()
    eq_has_last = any(a[-1] != 0 for a, _ in eqs)
    cells = {}
    for _, active in proper_faces_with_active(hull) + [(hull, ())]:
        if not (eq_has_last or any(ineqs[i][0][-1] > 0 for i in active)):
            continue
        members = [k for k, p in enumerate(lifted)
                   if all(vdot(ineqs[i][0], p) == ineqs[i][1] for i in active)]
        base_exp, base_coeff = entries[members[0]]
        eq_h, in_h = [], []
        for k, (exp, coeff) in enumerate(entries):
            if k != members[0]:
                h = _homog_ineq(vsub(exp, base_exp), base_coeff - coeff)
                (eq_h if k in members else in_h).append(h)
        cells[frozenset(members)] = FactorCell(
            tuple(sorted(entries[k][0] for k in members)),
            tuple(eq_h), tuple(in_h))
    return sorted(cells.values(),
                  key=lambda c: (len(c.dual_points), c.dual_points))


def test_factor_cells_match_the_face_lattice_construction():
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        affine = rng.random() < 0.2      # a constant term at the origin
        exps = {(0,) * n} if affine else set()
        for _ in range(rng.randint(1, 7)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if any(e):
                exps.add(e)
        terms = {e: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                 for e in exps}
        if not (affine or rng.random() < 0.4):
            # a virtual level: the constant term at the origin
            terms[(0,) * n] = F(rng.randint(-9, 9), rng.choice([1, 2]))
        if len(terms) < 2:
            continue
        assert list(factor_cells(n, terms)) \
            == _face_lattice_factor_cells(n, terms), (n, terms)
        checked += 1


def _refine_profiles(n, term_maps):
    """The dual points of every cell found by the refinement search."""
    lists = [factor_cells(n, terms) for terms in term_maps]
    return sorted(tuple(fc.dual_points for fc in profile)
                  for profile, _ in _refine(n, lists))


class TestCayleyProfiles:
    """The cells read off the upper faces of the lifted Cayley polytope that
    meet every layer are the cells of the refinement search."""

    @staticmethod
    def profiles(n, term_maps):
        got = cayley_profiles(n, term_maps)
        assert len(set(got)) == len(got)
        assert sorted(got) == _refine_profiles(n, term_maps)
        return got

    def test_seeded_maps(self):
        rng = random.Random(6151)
        for n, count, max_terms, exp_range in ((2, 60, 5, 4), (3, 30, 3, 2),
                                               (4, 8, 3, 1)):
            for _ in range(count):
                m = random_map(rng, n=n, max_terms=max_terms,
                               exp_range=exp_range)
                self.profiles(n, m.term_maps())

    def test_two_term_components(self):
        # 2n lifted points in R^(2n): the hull lies in a hyperplane that
        # involves the lift, so every face is exposed by some (x, lambda, 1)
        rng = random.Random(77)
        for n in (2, 3, 4):
            m = random_map(rng, n=n, min_terms=2, max_terms=2, exp_range=3)
            self.profiles(n, m.term_maps())
        lines = [{(1, 0): F(0), (0, 1): F(0)}, {(1, 1): F(0), (2, 1): F(3)}]
        assert len(self.profiles(2, lines)) == 9

    def test_a_single_term_component(self):
        curve = {(1, 0): F(0), (0, 1): F(0), (1, 1): F(2), (2, 1): F(-1)}
        got = self.profiles(2, [{(1, 2): F(3)}, curve])
        assert all(p[0] == ((1, 2),) for p in got)
        assert len(got) == len(factor_cells(2, curve))

    def test_coincident_walls(self):
        m, _ = load_input(fixture_path("map2d_deg.json"))
        got = self.profiles(2, m.term_maps())
        cx = decomposition(m.term_maps(), n=2)
        assert all(map(transversal, got)) == (not offending_profiles(cx))

    def test_refused_map(self, map3d):
        got = self.profiles(3, map3d.term_maps())
        assert not all(map(transversal, got))
        assert offending_profiles(decomposition(map3d.term_maps(), n=3))


def _cell_table(cells):
    """(id, per-factor dual points, closure key) of every cell."""
    return [(cid, tuple(fc.dual_points for fc in profile), poly.canonical_key())
            for cid, profile, poly in cells]


def _reference_table(term_maps, n, bend_only):
    """The cell table of the plain search, numbered as `decomposition`
    numbers its cells."""
    lists = [tuple(c for c in factor_cells(n, terms) if c.bends or not bend_only)
             for terms in term_maps]
    found = reference_refine(n, lists)
    found.sort(key=lambda t: (t[1].dim, t[1].canonical_key()))
    return _cell_table((cid, profile, poly)
                       for cid, (profile, poly) in enumerate(found))


class TestRefinementSearch:
    """The search that branches on the shortest factor list first and skips
    a factor cell whose equality row cannot meet the node finds the cells of
    the plain search, numbered alike."""

    @staticmethod
    def check(term_maps, n):
        for bend_only in (False, True):
            cx = decomposition(term_maps, n, bend_only=bend_only)
            assert _cell_table((c.id, c.profile, c.closure) for c in cx) \
                == _reference_table(term_maps, n, bend_only), term_maps

    @pytest.mark.parametrize("name", ["map2d.json", "map2d_deg.json",
                                      "map2d_flat.json", "map2d_refused.json",
                                      "map3d.json", "map3d_unbounded.json"])
    def test_fixtures(self, name):
        m, _ = load_input(fixture_path(name))
        self.check(m.term_maps(), m.n)

    def test_virtual_preimages_at_seeded_levels(self, map2d, map3d):
        rng = random.Random(2941)
        for m, count in ((map2d, 12), (map3d, 4)):
            for _ in range(count):
                levels = [F(rng.randint(-40, 40), rng.choice([1, 2, 3]))
                          for _ in range(m.n)]
                self.check([with_level(t, y)
                            for t, y in zip(m.term_maps(), levels)], m.n)

    def test_restricted_maps_of_seeded_maps(self):
        rng = random.Random(5303)
        for n, count, max_terms, exp_range in ((2, 40, 5, 4), (3, 12, 3, 2)):
            for _ in range(count):
                m = random_map(rng, n=n, max_terms=max_terms,
                               min_terms=min(3, max_terms),
                               exp_range=exp_range)
                for face in enumerate_tuple_faces(delta0(m)):
                    self.check([{a: c for a, c in comp.terms.items()
                                 if a in argmax}
                                for comp, argmax in zip(m.components,
                                                        face.argmax)], n)

    def test_meets_is_the_emptiness_of_the_cut(self):
        # random nonempty cones in R^(n+1), x0 >= 0, against random rows
        rng = random.Random(409)
        checked = 0
        while checked < 400:
            n = rng.randint(1, 3)
            dd = _DD(n + 1)
            dd.add((1,) + (0,) * n)
            for _ in range(rng.randint(0, 4)):
                row = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                dd.add(row, equality=rng.random() < 0.2)
            if not any(r[0] > 0 for r in dd.rays):
                continue
            h = tuple(rng.randint(-2, 2) for _ in range(n + 1))
            cut = dd.clone()
            cut.add(h, equality=True)
            assert _meets(dd, h) == any(r[0] > 0 for r in cut.rays), (dd, h)
            checked += 1
