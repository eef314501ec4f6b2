import random
from fractions import Fraction

import pytest

from tropnp.geom import Cone, Polyhedron, _homog_ineq, convex_hull, vdot, vsub
from tropnp.subdivision import (FactorCell, MixedSubdivision,
                                corner_locus_pieces, decomposition,
                                duality_violations, factor_cells,
                                regular_subdivision)
from tropnp.tropical import MINUS_INF, is_minus_inf

F = Fraction


class TestSingleVariableToy:
    def test_three_cells_with_duals(self):
        cx = decomposition([{(1,): F(0)}], [F(0)], n=1)
        assert len(cx.cells) == 3
        duals = sorted(tuple(sorted(c.dual.vertices)) for c in cx.cells)
        assert duals == [(((F(0),)),), ((F(0),), (F(1),)), ((F(1),),)]
        bend = [c for c in cx.cells if c.dim == 0]
        assert len(bend) == 1
        assert bend[0].closure.vertices == [(F(0),)]
        assert bend[0].dual.dim == 1


@pytest.fixture(scope="module")
def cx(map2d_small):
    return decomposition(map2d_small.term_maps(), [F(-2), F(-1)], n=2)


@pytest.fixture(scope="module")
def xi(map2d):
    return decomposition(map2d.term_maps(), [MINUS_INF, MINUS_INF], n=2)


class TestVirtualLevelComplex:
    """Decomposition induced by two virtual preimages, levels (-2, -1)."""

    def test_counts_by_dimension(self, cx):
        # two trees of corner loci crossing twice: 6 vertices, 14 edges,
        # 9 regions (Euler: 6 - 14 + 9 = 1)
        assert cx.counts_by_dim() == {0: 6, 1: 14, 2: 9}

    def test_transversal_crossing_cell(self, cx):
        cell = cx.cell_containing((F(-7, 3), F(2, 3)))
        assert cell is not None
        assert cell.dim == 0
        assert cell.dual.dim == 2
        assert cell.summand_dims() == (1, 1)
        assert cell.level_flags == (True, True)

    def test_duality_invariants(self, cx):
        assert duality_violations(cx) == []

    def test_transversal(self, cx):
        ok, offenders = cx.is_transversal()
        assert ok and offenders == []

    def test_partition_of_sampled_points(self, cx, map2d_small):
        rng = random.Random(77)
        for _ in range(1000):
            x = (F(rng.randint(-120, 120), 7), F(rng.randint(-120, 120), 11))
            hits = []
            for cell in cx.cells:
                if not cell.closure.contains(x):
                    continue
                from tropnp.subdivision import _argmax_at
                match = all(
                    _argmax_at(t, lvl, x) == (S, hl)
                    for t, lvl, S, hl in zip(map2d_small.term_maps(), cx.levels,
                                             cell.argmax, cell.level_flags))
                if match:
                    hits.append(cell.id)
            assert len(hits) == 1

    def test_refines_the_level_free_complex(self, cx, map2d_small):
        base = decomposition(map2d_small.term_maps(), [MINUS_INF, MINUS_INF], n=2)
        for cell in cx.cells:
            p = cell.closure.relative_interior_point()
            hosts = [c for c in base.cells if c.closure.contains(p)]
            assert hosts, "sample point escaped the coarse complex"


class TestPlaneCurvePairComplex:
    def test_transversal(self, xi):
        assert xi.is_transversal() == (True, [])

    def test_duality_invariants(self, xi):
        assert duality_violations(xi) == []

    def test_unbounded_parallel_tail_cells(self, xi):
        # the two corner loci both contain a line of direction (1,-2); the
        # complex has exactly two 1-cells receding along that ray alone, and
        # the strip between them contributes a 2-cell with the same recession
        ray = Cone(2, [(1, -2)])
        one_cells = [c for c in xi.cells if c.dim == 1
                     and c.recession_cone() == ray]
        two_cells = [c for c in xi.cells if c.dim == 2
                     and c.recession_cone() == ray]
        assert len(one_cells) == 2
        assert len(two_cells) == 1
        wider = [c for c in xi.cells if c.dim == 2
                 and c.recession_cone().contains((1, -2))]
        assert len(wider) >= 3

    def test_mixed_subdivision_is_inclusion_reversing(self, xi):
        ms = MixedSubdivision(xi)
        assert len(ms.entries) == len(xi.cells)
        by_id = {c.id: c for c in xi.cells}
        pairs = 0
        for a in xi.cells:
            for b in xi.cells:
                if a.id == b.id:
                    continue
                if b.closure.contains_polyhedron(a.closure):
                    pairs += 1
                    assert by_id[a.id].dual.contains_polyhedron(by_id[b.id].dual)
        assert pairs > 0


class TestTransversality:
    def test_identical_curves_are_not_transversal(self):
        terms = {(1, 0): F(0), (0, 1): F(0), (1, 1): F(2)}
        cx = decomposition([terms, dict(terms)], [MINUS_INF, MINUS_INF], n=2)
        ok, offenders = cx.is_transversal()
        assert not ok
        assert offenders

    def test_single_polynomial_always_transversal(self, map2d):
        cx = decomposition([map2d[0].terms], [MINUS_INF], n=2)
        assert cx.is_transversal() == (True, [])


class TestRegularSubdivision:
    def test_trivial_lift_gives_the_hull(self):
        support = [(0, 0), (2, 0), (0, 2), (1, 1)]
        ms = regular_subdivision(support, {p: F(0) for p in support})
        tops = ms.maximal()
        assert len(tops) == 1
        assert tops[0].dual.equal_as_sets(convex_hull(support))

    def test_marked_point_lift(self):
        # lift values on six marked points of a 3d support; the result must
        # be a genuine polyhedral subdivision of the hull
        support = [(1, 1, 0), (1, 1, 2), (0, 1, 2), (0, 2, 4), (1, 2, 4), (2, 2, 4)]
        lift = {(1, 1, 0): F(0), (1, 1, 2): F(0), (0, 1, 2): F(7),
                (0, 2, 4): F(3), (1, 2, 4): F(2), (2, 2, 4): F(5)}
        ms = regular_subdivision(support, lift)
        hull = convex_hull(support)
        tops = ms.maximal()
        assert len(tops) >= 2  # the lift is not affine on the support
        for e in tops:
            assert hull.contains_polyhedron(e.dual)
        from tropnp.geom import covered_by_union
        assert covered_by_union(hull, [e.dual for e in tops])

    def test_interpolated_point_is_never_a_vertex(self):
        support = [(2, 0), (1, 0), (1, 1), (0, 1), (0, 2)]
        lift = {(2, 0): F(-8), (1, 0): F(-4), (1, 1): F(-4),
                (0, 1): F(-2), (0, 2): F(0)}
        ms = regular_subdivision(support, lift)
        for e in ms.entries:
            assert (1, 1) not in {tuple(v) for v in e.dual.vertices}
        # yet (1,1) does lie inside some subdivision cell
        assert any(e.dual.contains((1, 1)) for e in ms.maximal())


class TestFactorCells:
    def test_single_term_factor_covers_space(self):
        cells = factor_cells(2, {(1, 2): F(3)})
        assert len(cells) == 1
        assert not cells[0].bends

    def test_empty_factor_is_trivial(self):
        cells = factor_cells(2, {})
        assert len(cells) == 1
        assert cells[0].argmax == frozenset()

    def test_corner_locus_pieces_of_a_line(self):
        pieces = corner_locus_pieces({(1, 0): F(0), (0, 1): F(0)}, 2)
        assert len(pieces) == 1
        assert pieces[0].dim == 1
        assert pieces[0].contains((3, 3)) and not pieces[0].contains((1, 2))


def _face_lattice_factor_cells(n, terms, level):
    """Reference construction of the factor cells (at least two entries):
    the face lattice of the lifted hull, keeping each face exposed by some
    (x, 1), with Fraction-built constraints."""
    entries = [(exp, F(c), False) for exp, c in sorted(terms.items())]
    if not is_minus_inf(level):
        entries.append(((0,) * n, F(level), True))
    lifted = [exp + (c,) for exp, c, _ in entries]
    hull = Polyhedron.from_generators(n + 1, lifted)
    ineqs, eqs = hull.hrep()
    eq_has_last = any(a[-1] != 0 for a, _ in eqs)
    cells = {}
    for _, active in hull.proper_faces_with_active() + [(hull, ())]:
        if not (eq_has_last or any(ineqs[i][0][-1] > 0 for i in active)):
            continue
        members = [k for k, p in enumerate(lifted)
                   if all(vdot(ineqs[i][0], p) == ineqs[i][1] for i in active)]
        base_exp, base_coeff, _ = entries[members[0]]
        eq_h, in_h = [], []
        for k, (exp, coeff, _) in enumerate(entries):
            if k != members[0]:
                h = _homog_ineq(vsub(exp, base_exp), base_coeff - coeff)
                (eq_h if k in members else in_h).append(h)
        cells[frozenset(members)] = FactorCell(
            frozenset(entries[k][0] for k in members if not entries[k][2]),
            any(entries[k][2] for k in members), tuple(eq_h), tuple(in_h),
            tuple(sorted(entries[k][0] for k in members)))
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
        level = MINUS_INF if affine or rng.random() < 0.4 \
            else F(rng.randint(-9, 9), rng.choice([1, 2]))
        if len(terms) + (not is_minus_inf(level)) < 2:
            continue
        assert list(factor_cells(n, terms, level)) \
            == _face_lattice_factor_cells(n, terms, level), (n, terms, level)
        checked += 1
