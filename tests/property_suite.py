"""Randomized verification harness shared by the property and acceptance
suites.

For each random plane map it checks, with everything exact:
  * the cell/dual duality invariants on the full decomposition and on every
    face-restricted decomposition, and that the rank-derived summand
    dimensions and transversality of every cell match the hull definitions,
  * that every cell of every full, restricted and bend_only complex carries
    the argmax profile found at a relative-interior point of its closure,
  * the dimension bound on every emitted piece,
  * that non-pre-origin faces contribute nothing,
  * the cell-count bijection between the full complex and each restricted
    complex (for faces whose members all meet the support),
  * agreement of the product and staircase assemblies, with any disagreement
    classified by the membership oracle,
  * and, whenever every produced complex is transversal, a full grid
    comparison between the engine and the oracle.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from tropnp.engine import (GenericityError, TNPPiece, TNPSet, analyze_gamma,
                           analyze_sigma, cell_contribution)
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.oracle import grid_compare, in_tnp
from tropnp.subdivision import _argmax_at, decomposition, duality_violations
from tropnp.tropical import MINUS_INF, TropicalMap, TropicalPolynomial

F = Fraction


def random_map(rng: random.Random, n: int = 2, max_terms: int = 5,
               val_range: int = 9, exp_range: int = 4) -> TropicalMap:
    components = []
    for _ in range(n):
        k = rng.randint(1, max_terms)
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
    duality_ok: bool = True
    pieces_ok: bool = True
    non_pre_origin_ok: bool = True
    bijection_ok: bool = True
    genericity_failure: bool = False
    oracle_checked: bool = False
    oracle_ok: bool = True
    disagreements: list = field(default_factory=list)
    unclassified: int = 0

    @property
    def ok(self) -> bool:
        return (self.duality_ok and self.pieces_ok and self.non_pre_origin_ok
                and self.bijection_ok and self.oracle_ok
                and self.unclassified == 0)


def _difference_probe(product_piece, staircase_piece):
    """A point of the product piece strictly outside the staircase piece.

    The staircase piece is always contained in the product piece, so when
    the two differ as sets such a point exists and the strict-region
    witness machinery finds one exactly.
    """
    from tropnp.geom import strict_witness, vscale
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
        hull_dims = tuple(s.dim for s in c.summands)
        assert c.summand_dims() == hull_dims, (c, hull_dims)
        assert c.is_transversal() == (c.dual.dim == sum(hull_dims)), c


def _check_profiles(cx):
    """Each cell's stored profile is the argmax profile at a relative-interior
    point of its closure: the leaf test that the decomposition search
    replaces by pruning on tight inequalities."""
    for c in cx.cells:
        p = c.closure.relative_interior_point()
        for terms, level, fc in zip(cx.term_maps, cx.levels, c.profile):
            assert _argmax_at(terms, level, p) == (fc.argmax, fc.has_level), \
                (c, fc)


def check_map(m: TropicalMap, index: int = 0, grid_res: int = 9) -> MapReport:
    report = MapReport(index)
    n = m.n

    xi = decomposition(m.term_maps(), [MINUS_INF] * n, n=n)
    if duality_violations(xi):
        report.duality_ok = False
    _check_rank_dims(xi)
    _check_profiles(xi)
    transversal = xi.is_transversal()[0]

    tup = delta0(m)
    faces = enumerate_tuple_faces(tup)
    contexts = [analyze_gamma(m, f) for f in faces]

    product_pieces, staircase_pieces = [], []
    diff_probes = []
    for face, ctx in zip(faces, contexts):
        if duality_violations(ctx.complex):
            report.duality_ok = False
        _check_rank_dims(ctx.complex)
        _check_profiles(ctx.complex)
        if not ctx.complex.is_transversal()[0]:
            transversal = False

        if all(ctx.restricted):
            inside = [c for c in xi.cells
                      if face.sum_face.contains_polyhedron(c.dual)]
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
                prod = cell_contribution(ctx, analysis, staircase=False)
                stair = cell_contribution(ctx, analysis, staircase=True)
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
            if not prod.equal_as_sets(stair):
                probe = _difference_probe(prod, stair)
                if probe is None:
                    report.unclassified += 1
                else:
                    diff_probes.append((face.id, cell.id, probe))

    product_set = TNPSet(n, product_pieces, "product")
    staircase_set = TNPSet(n, staircase_pieces, "staircase")
    # the oracle's complexes: the virtual preimages of points of the set
    for piece in staircase_set.polytopes:
        y = piece.relative_interior_point()
        _check_profiles(decomposition(m.term_maps(), list(y), n=n,
                                      bend_only=True))
    for face_id, cell_id, probe in diff_probes:
        verdict = in_tnp(m, probe)
        report.disagreements.append(Disagreement(
            face_id, cell_id, probe, verdict.member,
            product_set.membership(probe), staircase_set.membership(probe)))

    report.transversal = transversal
    if transversal and not report.genericity_failure:
        grid = grid_compare(m, staircase_set, resolution=grid_res)
        report.oracle_checked = True
        report.oracle_ok = grid.ok
    return report


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
        f"genericity refusals:     {sum(r.genericity_failure for r in reports)}",
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
