"""Randomized verification harness shared by the property and acceptance
suites.

For each random plane map it checks, with everything exact:
  * the cell/dual duality invariants on the full decomposition and on every
    face-restricted decomposition, and that the rank-derived summand
    dimensions and transversality of every cell match the hull definitions,
  * that every cell of every full, restricted and bend_only complex carries
    the argmax profile found at a relative-interior point of its closure,
    and that its closure's dimension and canonical key match the rational
    reference rank and reduction,
  * the dimension bound on every emitted piece,
  * that non-pre-origin faces contribute nothing,
  * the cell-count bijection between the full complex and each restricted
    complex (for faces whose members all meet the support),
  * agreement of the engine's assembly with the product closure of
    `conftest.product_contribution`, with any disagreement classified by
    the membership oracle,
  * that a transversal full complex leaves every restricted complex
    transversal, the implication `tropnp compute`'s gate rests on, and
    that the gate's verdict, read off the lifted Cayley polytope, is the
    full complex's,
  * and, whenever every produced complex is transversal and no piece is
    refused, a full grid comparison between the engine and the oracle,
    positive weights that balance the output's (n-1)-dimensional pieces,
    and a ray of nonnegative nonzero direction in each of its connected
    components; an output with a piece of lower dimension is counted as
    impure.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from tropnp.engine import (GenericityError, TNPPiece, TNPSet, analyze_gamma,
                           analyze_sigma, cell_contribution)
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.oracle import grid_compare, in_tnp
from tropnp.subdivision import cayley_profiles, decomposition
from tropnp.subdivision import transversal as subdivision_transversal
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import (argmax_at, balanced_weights, canonical_key_from,
                      cell_dual, cell_profile, cell_summands, components,
                      duality_violations, equal_as_sets, minkowski_sum_of,
                      offending_profiles, product_contribution, rank,
                      reaches_infinity_nonnegatively, strict_witness,
                      summand_ranks, vscale, with_level)

F = Fraction


def random_map(rng: random.Random, n: int = 2, max_terms: int = 5,
               val_range: int = 9, exp_range: int = 4,
               min_terms: int = 1) -> TropicalMap:
    available = (exp_range + 1) ** n - 1
    if max_terms > available:
        raise ValueError(
            f"max_terms={max_terms} exceeds the {available} nonzero exponent "
            f"vectors with entries in [0, {exp_range}] in dimension {n}")
    components = []
    for _ in range(n):
        k = rng.randint(min_terms, max_terms)
        exps = set()
        while len(exps) < k:
            e = tuple(rng.randint(0, exp_range) for _ in range(n))
            if any(e):
                exps.add(e)
        components.append(TropicalPolynomial(
            n, {e: F(rng.randint(-val_range, val_range)) for e in exps}))
    return TropicalMap(components)


@dataclass
class Disagreement:
    """A point separating the two assemblies, judged at union level."""
    face_id: int
    cell_id: int
    probe: tuple
    oracle_member: bool
    product_union: bool
    staircase_union: bool

    @property
    def oracle_favors(self) -> str:
        if self.product_union == self.staircase_union:
            return "both"  # piece-level gap covered by other pieces
        if self.oracle_member == self.staircase_union:
            return "staircase"
        return "product"


@dataclass
class MapReport:
    seed_index: int
    transversal: bool = True
    #: full complex transversal => every restricted complex transversal
    gate_implication_ok: bool = True
    #: the Cayley-profile verdict equals the full complex's
    cayley_verdict_ok: bool = True
    duality_ok: bool = True
    pieces_ok: bool = True
    non_pre_origin_ok: bool = True
    bijection_ok: bool = True
    genericity_failure: bool = False
    oracle_checked: bool = False
    oracle_ok: bool = True
    #: the checks of an accepted output as a tropical hypersurface
    balanced: bool = True
    ends_ok: bool = True
    impure: bool = False
    disagreements: list = field(default_factory=list)
    unclassified: int = 0

    @property
    def ok(self) -> bool:
        return (self.duality_ok and self.pieces_ok and self.non_pre_origin_ok
                and self.bijection_ok and self.gate_implication_ok
                and self.cayley_verdict_ok
                and self.oracle_ok and self.balanced and self.ends_ok
                and self.unclassified == 0)


def _difference_probe(product_piece, staircase_piece):
    """A point of the product piece strictly outside the staircase piece.

    The staircase piece is always contained in the product piece, so when
    the two differ as sets such a point exists and the strict-region
    witness machinery finds one exactly.
    """
    n = product_piece.n
    pineqs, peqs = product_piece.hrep()
    sineqs, seqs = staircase_piece.hrep()
    cons = list(sineqs)
    for a, b in seqs:
        cons.append((a, b))
        cons.append((vscale(-1, a), -b))
    for a, b in cons:
        w = strict_witness(n, list(pineqs), list(peqs),
                           [(vscale(-1, a), -b)])  # a . x > b
        if w is not None:
            return w
    return None


def _check_rank_dims(cx):
    """Summand dimensions and transversality, read off the ranks of the dual
    points, agree with the hull definitions on every cell."""
    for c in cx.cells:
        hull_dims = tuple(s.dim for s in cell_summands(c))
        assert summand_ranks(c) == hull_dims, (c, hull_dims)
        assert subdivision_transversal(cell_profile(c)) \
            == (cell_dual(c).dim == sum(hull_dims)), c


def _check_profiles(cx, term_maps):
    """Each cell's stored profile is the argmax profile at a relative-interior
    point of its closure: the leaf test that the decomposition search
    replaces by pruning on tight inequalities."""
    for c in cx.cells:
        p = c.closure.relative_interior_point()
        for terms, fc in zip(term_maps, c.profile):
            assert argmax_at(terms, p) == fc.dual_points, (c, fc)


def _check_closures(cx):
    """Each cell closure's dimension, read off the rank of the double
    description's homogenized generators, is the rational rank of its
    generators' differences; its canonical key is the one rebuilt by the
    reference reduction from generators shifted along the lineality."""
    for c in cx.cells:
        p = c.closure
        verts, rays, lins = p.vertices, p.rays, p.lineality
        diffs = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
        assert p.dim == rank(diffs + rays + lins), c
        shift = [sum(k * l[j] for k, l in enumerate(lins, 1)) for j in range(p.n)]
        moved = [tuple(a + b for a, b in zip(v, shift)) for v in verts]
        rays = [tuple(a + 2 * b for a, b in zip(r, shift)) for r in rays]
        assert p.canonical_key() == canonical_key_from(moved, rays, lins), c


def check_map(m: TropicalMap, index: int = 0, grid_res: int = 9) -> MapReport:
    report = MapReport(index)
    n = m.n

    xi = decomposition(m.term_maps(), n)
    if duality_violations(xi, m.term_maps()):
        report.duality_ok = False
    _check_rank_dims(xi)
    _check_profiles(xi, m.term_maps())
    _check_closures(xi)
    full_transversal = transversal = not offending_profiles(xi)
    xi_duals = [cell_dual(c) for c in xi.cells]
    report.cayley_verdict_ok = full_transversal == all(
        map(subdivision_transversal, cayley_profiles(n, m.term_maps())))

    tup = delta0(m)
    faces = enumerate_tuple_faces(tup)
    contexts = [analyze_gamma(m, f) for f in faces]

    product_pieces, staircase_pieces = [], []
    diff_probes = []
    for face, ctx in zip(faces, contexts):
        if duality_violations(ctx.complex, ctx.restricted):
            report.duality_ok = False
        _check_rank_dims(ctx.complex)
        _check_profiles(ctx.complex, ctx.restricted)
        _check_closures(ctx.complex)
        if offending_profiles(ctx.complex):
            transversal = False

        if all(ctx.restricted):
            summed = minkowski_sum_of(face.members)
            inside = [c for c, dual in zip(xi.cells, xi_duals)
                      if summed.contains_polyhedron(dual)]
            if len(inside) != len(ctx.complex.cells):
                report.bijection_ok = False
            else:
                for c in inside:
                    probe = c.closure.relative_interior_point()
                    owners = [s for s in ctx.complex
                              if s.closure.contains(probe)
                              and s.closure.contains_polyhedron(c.closure)]
                    if not owners:
                        report.bijection_ok = False
                        break

        for cell in ctx.complex:
            analysis = analyze_sigma(ctx, cell)
            try:
                prod = product_contribution(ctx, analysis)
                stair = cell_contribution(ctx, analysis)
            except GenericityError:
                report.genericity_failure = True
                continue
            if not face.pre_origin and not (prod.is_empty and stair.is_empty):
                report.non_pre_origin_ok = False
            if prod.is_empty and stair.is_empty:
                continue
            if prod.dim > n - 1 or stair.dim > n - 1:
                report.pieces_ok = False
            product_pieces.append(TNPPiece(prod, face.id, cell.id))
            staircase_pieces.append(TNPPiece(stair, face.id, cell.id))
            if not equal_as_sets(prod, stair):
                probe = _difference_probe(prod, stair)
                if probe is None:
                    report.unclassified += 1
                else:
                    diff_probes.append((face.id, cell.id, probe))

    product_set = TNPSet(n, product_pieces)
    staircase_set = TNPSet(n, staircase_pieces)
    # the oracle's complexes: the virtual preimages of points of the set,
    # the components extended by the levels y_i as terms at the origin
    for piece in staircase_set.polytopes:
        y = piece.relative_interior_point()
        extended = [with_level(terms, level)
                    for terms, level in zip(m.term_maps(), y)]
        bend = decomposition(extended, n, bend_only=True)
        _check_profiles(bend, extended)
        _check_closures(bend)
    for face_id, cell_id, probe in diff_probes:
        verdict = in_tnp(m, probe)
        report.disagreements.append(Disagreement(
            face_id, cell_id, probe, verdict.member,
            product_set.membership(probe), staircase_set.membership(probe)))

    report.transversal = transversal
    report.gate_implication_ok = transversal or not full_transversal
    if transversal and not report.genericity_failure:
        grid = grid_compare(m, staircase_set, resolution=grid_res)
        report.oracle_checked = True
        report.oracle_ok = not grid.mismatches
        _check_hypersurface(report, staircase_set.polytopes, n)
    return report


def _check_hypersurface(report, polytopes, n):
    """The (n-1)-dimensional pieces of an accepted output balance with
    positive weights, and every connected component has an end in a
    nonnegative direction."""
    top = [p for p in polytopes if p.dim == n - 1]
    report.impure = len(top) != len(polytopes)
    report.balanced = not top or balanced_weights(top) is not None
    report.ends_ok = all(map(reaches_infinity_nonnegatively,
                             components(polytopes)))


def run_suite(count: int, seed: int = 20240607, grid_res: int = 9):
    rng = random.Random(seed)
    reports = []
    for i in range(count):
        m = random_map(rng)
        reports.append(check_map(m, index=i, grid_res=grid_res))
    return reports


def summarize(reports) -> str:
    lines = [
        f"maps checked:            {len(reports)}",
        f"transversal maps:        {sum(r.transversal for r in reports)}",
        f"oracle-checked maps:     {sum(r.oracle_checked for r in reports)}",
        f"oracle mismatched maps:  {sum(not r.oracle_ok for r in reports)}",
        f"duality failures:        {sum(not r.duality_ok for r in reports)}",
        f"piece-bound failures:    {sum(not r.pieces_ok for r in reports)}",
        f"bijection failures:      {sum(not r.bijection_ok for r in reports)}",
        f"gate implication breaks: "
        f"{sum(not r.gate_implication_ok for r in reports)}",
        f"Cayley verdict breaks:   "
        f"{sum(not r.cayley_verdict_ok for r in reports)}",
        f"genericity refusals:     {sum(r.genericity_failure for r in reports)}",
        f"unbalanced outputs:      {sum(not r.balanced for r in reports)}",
        f"ends missing:            {sum(not r.ends_ok for r in reports)}",
        f"impure outputs:          {sum(r.impure for r in reports)}",
        f"assembly disagreements:  {sum(len(r.disagreements) for r in reports)}",
        f"unclassified:            {sum(r.unclassified for r in reports)}",
    ]
    favored = {}
    for r in reports:
        for d in r.disagreements:
            favored[d.oracle_favors] = favored.get(d.oracle_favors, 0) + 1
    if favored:
        lines.append(f"oracle favors (union):   {favored}")
    return "\n".join(lines)
